//! Property tests for the Org32 text-assembly interchange.

use proptest::prelude::*;

use bdc_uarch::{assemble_text, disassemble, Interp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arithmetic_programs_survive_text_round_trip(
        a in -4000i32..4000,
        b in 1i32..500,
    ) {
        // Generate a text program parametrically, assemble, run, and compare
        // against native Rust arithmetic.
        let src = format!(
            "li r1, {a}\nli r2, {b}\nadd r3, r1, r2\nsub r4, r1, r2\n\
             mul r5, r1, r2\ndiv r6, r1, r2\nrem r7, r1, r2\nhalt\n"
        );
        let p = assemble_text(&src).expect("assemble");
        let mut m = Interp::new(&p, 64);
        m.run(100);
        prop_assert!(m.halted());
        prop_assert_eq!(m.regs[3] as i32, a.wrapping_add(b));
        prop_assert_eq!(m.regs[4] as i32, a.wrapping_sub(b));
        prop_assert_eq!(m.regs[5] as i32, a.wrapping_mul(b));
        prop_assert_eq!(m.regs[6] as i32, a.wrapping_div(b));
        prop_assert_eq!(m.regs[7] as i32, a.wrapping_rem(b));
    }

    #[test]
    fn disassembly_lines_match_program_length(seed in 0u64..200) {
        let p = bdc_uarch::build_workload(bdc_uarch::Workload::Gzip, (seed % 5) as u32 + 1);
        let text = disassemble(&p);
        prop_assert_eq!(text.lines().count(), p.code.len());
    }
}
