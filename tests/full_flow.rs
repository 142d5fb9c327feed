//! End-to-end integration: the full Figure-10 flow on both processes.
//!
//! These tests characterize the real libraries (cached per process via
//! `shared_kit`) and check the paper's headline relationships hold through
//! the whole stack: devices → cells → libraries → synthesis → timing.

use bdc_core::experiments::{fig12_alu_depth, table_mapping_preference};
use bdc_core::flow::{alu_cluster, split_critical, synthesize_core};
use bdc_core::process::shared_kit;
use bdc_core::{CoreSpec, Process};

#[test]
fn library_characterization_magnitudes() {
    let org = shared_kit(Process::Organic);
    let si = shared_kit(Process::Silicon);
    // Silicon FO4 in the published 45 nm range.
    let fo4 = si.lib.fo4_delay();
    assert!(fo4 > 5.0e-12 && fo4 < 40.0e-12, "silicon FO4 = {fo4:.3e}");
    // Organic gates are ~10^5–10^7 slower.
    let ratio = org.lib.fo4_delay() / fo4;
    assert!(
        ratio > 1.0e5 && ratio < 1.0e8,
        "organic/silicon gate ratio {ratio:.3e}"
    );
    // Both supply rails match the paper's §4.3.3 choice.
    assert_eq!(org.lib.vdd, 5.0);
    assert_eq!(org.lib.vss, -15.0);
}

#[test]
fn organic_library_prefers_two_input_nor_coverage() {
    // §5.5: unipolar p-type rise/fall imbalance makes the organic series
    // (NOR) stacks disproportionately slow; the mapper measures that.
    let org = shared_kit(Process::Organic);
    let si = shared_kit(Process::Silicon);
    // Compare each cell driving two copies of itself (self-relative load).
    let nominal = |kit: &bdc_core::TechKit, kind: bdc_cells::CellKind, slew: f64| {
        let cap = kit.lib.cell(kind).input_cap;
        kit.lib.delay(kind, slew, 2.0 * cap)
    };
    let org_nor3 = nominal(org, bdc_cells::CellKind::Nor3, 6.0e-5);
    let org_nand3 = nominal(org, bdc_cells::CellKind::Nand3, 6.0e-5);
    let si_nor3 = nominal(si, bdc_cells::CellKind::Nor3, 2.0e-11);
    let si_nand3 = nominal(si, bdc_cells::CellKind::Nand3, 2.0e-11);
    let org_imbalance = org_nor3 / org_nand3;
    let si_imbalance = si_nor3 / si_nand3;
    assert!(
        org_imbalance > 2.0 * si_imbalance,
        "organic NOR3/NAND3 = {org_imbalance:.2}, silicon = {si_imbalance:.2}"
    );
    let (_, si_nor3_dec) = table_mapping_preference(si);
    assert!(!si_nor3_dec, "silicon should keep its NOR3 cell");
}

#[test]
fn alu_depth_shapes_match_figure_12() {
    let org = shared_kit(Process::Organic);
    let si = shared_kit(Process::Silicon);
    let stages = [1usize, 8, 14, 22, 30];
    let f_si = fig12_alu_depth(si, &stages);
    let f_org = fig12_alu_depth(org, &stages);
    let n_si = f_si.normalized_frequency();
    let n_org = f_org.normalized_frequency();

    // Silicon saturates: its frequency at 30 stages is no better than ~15%
    // above its 14-stage point (the paper's curve is flat past ~8).
    assert!(n_si[4] < 1.15 * n_si[2], "silicon keeps scaling: {n_si:?}");
    // Organic keeps gaining well past silicon's saturation point.
    assert!(
        n_org[3] > 1.5 * n_org[1],
        "organic 8->22 gain too small: {n_org:?}"
    );
    assert!(
        n_org[4] >= n_org[3] * 0.98,
        "organic collapses early: {n_org:?}"
    );
    // Organic's deep-pipeline advantage over silicon (the headline).
    assert!(
        n_org[3] / n_si[3] > 1.8,
        "organic/silicon @22 stages = {:.2}",
        n_org[3] / n_si[3]
    );
    // Area: organic register overhead makes its slope steeper (Fig 12a).
    let a_si = f_si.normalized_area();
    let a_org = f_org.normalized_area();
    assert!(
        a_org[4] > a_si[4],
        "organic area slope should exceed silicon's"
    );
    assert!(a_si[4] > 1.3, "silicon area should still rise with stages");
}

#[test]
fn alu_cluster_matches_paper_composition() {
    let alu = alu_cluster();
    alu.validate().expect("valid netlist");
    // Two 32-bit array multipliers dominate.
    assert!(alu.gates().len() > 20_000);
    assert!(alu.inputs().len() >= 4 * 32);
}

#[test]
fn baseline_frequencies_have_paper_magnitudes() {
    let si = synthesize_core(shared_kit(Process::Silicon), &CoreSpec::baseline());
    let org = synthesize_core(shared_kit(Process::Organic), &CoreSpec::baseline());
    // Paper: ~800 MHz silicon. Accept the right order of magnitude.
    assert!(
        si.frequency > 3.0e8 && si.frequency < 3.0e9,
        "silicon baseline {:.3e} Hz",
        si.frequency
    );
    // Paper: ~200 Hz organic; our heavier cells land within ~20x.
    assert!(
        org.frequency > 1.0 && org.frequency < 1.0e3,
        "organic baseline {:.3e} Hz",
        org.frequency
    );
    // Wire overhead: a real fraction of the silicon cycle, a vanishing one
    // of the organic cycle (§5.5).
    assert!(si.wire_overhead / si.period > 0.05);
    assert!(org.wire_overhead / org.period < 0.01);
}

#[test]
fn critical_stage_splitting_improves_clock_until_overheads() {
    // Paper Fig 15(b): at 14 stages organic reaches 2.0x its baseline clock
    // while silicon only manages ~1.5x (wire + unsplittable-tail limited).
    for (p, min_gain) in [(Process::Organic, 1.6), (Process::Silicon, 1.15)] {
        let kit = shared_kit(p);
        let mut spec = CoreSpec::baseline();
        let base = synthesize_core(kit, &spec);
        for _ in 0..5 {
            let (deeper, cut) = split_critical(kit, &spec);
            assert!(cut.splittable());
            spec = deeper;
        }
        let deep = synthesize_core(kit, &spec);
        assert_eq!(spec.total_stages(), 14);
        assert!(
            deep.frequency > min_gain * base.frequency,
            "{}: 14-stage {:.3e} vs 9-stage {:.3e}",
            p.name(),
            deep.frequency,
            base.frequency
        );
    }
}

#[test]
fn organic_gains_more_clock_from_depth_than_silicon() {
    // Fig 15(b): at 14 stages the organic clock doubles while silicon gains
    // ~1.5x. Check the ordering (organic > silicon).
    let gain = |p: Process| {
        let kit = shared_kit(p);
        let mut spec = CoreSpec::baseline();
        let base = synthesize_core(kit, &spec);
        for _ in 0..5 {
            spec = split_critical(kit, &spec).0;
        }
        synthesize_core(kit, &spec).frequency / base.frequency
    };
    let g_org = gain(Process::Organic);
    let g_si = gain(Process::Silicon);
    assert!(
        g_org > g_si,
        "organic depth gain {g_org:.2} vs silicon {g_si:.2}"
    );
}

#[test]
fn derived_dff_timing_matches_transistor_level_simulation() {
    // The library's DFF timing is derived from the characterized NAND2;
    // the transistor-level 7474 simulation must agree within a small factor.
    use bdc_cells::{build_dff, measure_dff};
    for (p, scale) in [(Process::Organic, 0.7e-3), (Process::Silicon, 20.0e-12)] {
        let kit = shared_kit(p);
        let dff = build_dff(p.tech());
        let m = measure_dff(&dff, scale).expect("transistor-level DFF measurement");
        let derived = kit.lib.dff;
        let ratio_q = derived.clk_to_q / m.clk_to_q;
        assert!(
            (0.2..=6.0).contains(&ratio_q),
            "{}: derived clk->Q {:.3e} vs measured {:.3e}",
            p.name(),
            derived.clk_to_q,
            m.clk_to_q
        );
        assert!(
            m.setup < 10.0 * derived.setup,
            "{}: setup {:.3e}",
            p.name(),
            m.setup
        );
    }
}
