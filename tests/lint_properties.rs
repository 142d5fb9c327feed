//! Property tests: everything the synthesis front end emits passes the
//! gate-level static analyzer clean (no Error- or Warning-severity
//! diagnostics) — the invariant the flow's pre-STA lint pass enforces.

use proptest::prelude::*;

use bdc_cells::{CellLibrary, Process};
use bdc_core::corespec::{stage_netlist, StageKind};
use bdc_lint::{lint_netlist, Severity};
use bdc_synth::blocks;
use bdc_synth::map::remap_for_library;
use bdc_synth::sta::StaConfig;

fn lib(organic: bool) -> CellLibrary {
    if organic {
        CellLibrary::synthetic(Process::Organic, 6.5e-4)
    } else {
        CellLibrary::synthetic(Process::Silicon, 1.0e-11)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_corespec_stage_netlists_lint_clean(
        fe_width in 1usize..=6,
        be_pipes in 3usize..=7,
        stage in 0usize..9,
        organic in any::<bool>(),
    ) {
        let kind = StageKind::all()[stage];
        let l = lib(organic);
        let n = stage_netlist(kind, fe_width, be_pipes);
        let (mapped, _) = remap_for_library(&n, &l);
        let report = lint_netlist(&mapped, &l, &StaConfig::default());
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert_eq!(report.count(Severity::Warning), 0, "{}", report);
    }

    #[test]
    fn generated_blocks_lint_clean(
        bits in 4usize..=32,
        seed in 0u64..200,
        organic in any::<bool>(),
    ) {
        let l = lib(organic);
        for n in [
            blocks::ripple_adder(bits),
            blocks::carry_select_adder(bits),
            blocks::array_multiplier(bits.min(12)),
            blocks::priority_select(bits),
            blocks::random_logic(12, 150, seed),
        ] {
            let (mapped, _) = remap_for_library(&n, &l);
            let report = lint_netlist(&mapped, &l, &StaConfig::default());
            prop_assert!(report.is_clean(), "{}", report);
            prop_assert_eq!(report.count(Severity::Warning), 0, "{}", report);
        }
    }
}
