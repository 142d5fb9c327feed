//! Property tests for the interchange formats: structural Verilog and
//! Org32 text assembly.

use proptest::prelude::*;

use bdc_synth::blocks;
use bdc_synth::funcsim::{simulate_comb, u64_to_bus};
use bdc_synth::gate::Netlist;
use bdc_synth::verilog::{parse_verilog, write_verilog};
use bdc_uarch::{assemble_text, disassemble, Interp};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_logic_round_trips_through_verilog(
        seed in 0u64..500,
        gates in 20usize..200,
        vectors in proptest::collection::vec(0u64..(1 << 12), 4..8),
    ) {
        let orig = blocks::random_logic(12, gates, seed);
        let text = write_verilog(&orig);
        let back = parse_verilog(&text).expect("parse");
        back.validate().expect("valid");
        prop_assert_eq!(back.gates().len(), orig.gates().len());
        for &v in &vectors {
            let eval = |nl: &Netlist| -> Vec<bool> {
                let mut m = BTreeMap::new();
                u64_to_bus(&mut m, nl.inputs(), v);
                let values = simulate_comb(nl, &m);
                nl.outputs().iter().map(|&o| values[o]).collect()
            };
            prop_assert_eq!(eval(&orig), eval(&back), "vector {:#x}", v);
        }
    }

    #[test]
    fn pipelined_netlists_round_trip_with_flops(
        stages in 2usize..5,
        seed in 0u64..100,
    ) {
        use bdc_cells::{CellLibrary, Process};
        use bdc_synth::pipeline::insert_registers;
        use bdc_synth::sta::StaConfig;
        let comb = blocks::random_logic(10, 120, seed);
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0e-11);
        let piped = insert_registers(&comb, &lib, &StaConfig::default(), stages);
        let text = write_verilog(&piped);
        let back = parse_verilog(&text).expect("parse");
        back.validate().expect("valid");
        prop_assert_eq!(back.flops().len(), piped.flops().len());
        prop_assert_eq!(back.gates().len(), piped.gates().len());
    }

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

#[test]
fn workload_kernels_round_trip_through_verilog_sized_alu() {
    // A non-property spot check tying the stacks together: export the real
    // ALU adder block, re-import, and confirm identical STA results.
    use bdc_cells::{CellLibrary, Process};
    use bdc_synth::sta::{analyze, StaConfig};
    let lib = CellLibrary::synthetic(Process::Organic, 6.5e-4);
    let orig = blocks::carry_select_adder(32);
    let back = parse_verilog(&write_verilog(&orig)).expect("parse");
    let cfg = StaConfig::default();
    let r1 = analyze(&orig, &lib, &cfg);
    let r2 = analyze(&back, &lib, &cfg);
    assert!((r1.max_arrival - r2.max_arrival).abs() < 1e-12 * r1.max_arrival.max(1.0));
    assert_eq!(r1.area_um2, r2.area_um2);
}
