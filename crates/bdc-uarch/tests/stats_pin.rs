//! Pins every `SimStats` counter the out-of-order and in-order cores
//! report.
//!
//! `ooo_vs_golden` checks architectural state only, so a change to the
//! timing model (cycles, flushes, cache traffic) passes it silently. These
//! tests run configuration × workload matrices at the quick instruction
//! budget, fold every counter into one FNV-1a digest each and assert its
//! value. A deliberate change to the timing model updates the pinned
//! digest in the same commit, with the reason.

use bdc_uarch::{
    build_workload, CoreConfig, InOrderConfig, InOrderCore, OooCore, SimStats, Workload,
};

/// Outer-loop scale (large enough that five of the seven kernels reach
/// the cap; parser and vortex halt first) and the quick budget's
/// retired-instruction cap.
const OUTER: u32 = 400;
const INSTRUCTIONS: u64 = 12_000;

/// The digest of the matrix below, as computed by the current core.
const PINNED: u64 = 0xfc9b_1d30_8cfd_f092;

/// The digest of Fig 13's 30 width points (front end 1..=6 × back end
/// 3..=7 pipes) over every workload.
const PINNED_WIDTH_GRID: u64 = 0x8c7b_285e_817f_839b;

/// The digest of the in-order core over every workload.
const PINNED_INORDER: u64 = 0x2c7f_0d70_8573_55fd;

fn matrix() -> Vec<(&'static str, CoreConfig)> {
    let mut deep = CoreConfig::with_widths(3, 5);
    deep.stages = deep.stages.split("fetch").split("issue").split("regread");
    vec![
        ("baseline9 1-wide", CoreConfig::baseline()),
        ("narrow 2x3", CoreConfig::with_widths(2, 3)),
        ("wide 6x7", CoreConfig::with_widths(6, 7)),
        ("deep 3x5", deep),
    ]
}

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_stats(h: &mut u64, s: &SimStats) {
    for v in [
        s.cycles,
        s.instructions,
        s.branches,
        s.mispredicts,
        s.flushes,
        s.icache.0,
        s.icache.1,
        s.dcache.0,
        s.dcache.1,
        s.loads,
        s.stores,
    ] {
        fold(h, v);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds every workload's OoO statistics on `cfg` into `h`.
fn fold_ooo(h: &mut u64, label: &str, cfg: &CoreConfig) {
    for w in Workload::all() {
        let program = build_workload(w, OUTER);
        let s = OooCore::new(&program, cfg.clone(), w.memory_words()).run(INSTRUCTIONS);
        assert!(s.instructions > 0, "{label} {}: nothing retired", w.name());
        println!("{label:<17} {:<10} {s:?}", w.name());
        fold_stats(h, &s);
    }
}

#[test]
fn sim_stats_match_the_pinned_digest() {
    let mut h = FNV_OFFSET;
    for (label, cfg) in matrix() {
        fold_ooo(&mut h, label, &cfg);
    }
    assert_eq!(
        h, PINNED,
        "SimStats digest moved to {h:#018x}; a timing-model change must re-pin it"
    );
}

#[test]
fn fig13_width_grid_matches_the_pinned_digest() {
    let mut h = FNV_OFFSET;
    for be in 3..=7 {
        for fe in 1..=6 {
            let label = format!("width {fe}x{be}");
            fold_ooo(&mut h, &label, &CoreConfig::with_widths(fe, be));
        }
    }
    assert_eq!(
        h, PINNED_WIDTH_GRID,
        "width-grid digest moved to {h:#018x}; a timing-model change must re-pin it"
    );
}

#[test]
fn inorder_stats_match_the_pinned_digest() {
    let mut h = FNV_OFFSET;
    for w in Workload::all() {
        let program = build_workload(w, OUTER);
        let s = InOrderCore::new(&program, InOrderConfig::default(), w.memory_words())
            .run(INSTRUCTIONS);
        assert!(s.instructions > 0, "in-order {}: nothing retired", w.name());
        println!("in-order          {:<10} {s:?}", w.name());
        fold_stats(&mut h, &s);
    }
    assert_eq!(
        h, PINNED_INORDER,
        "in-order digest moved to {h:#018x}; a timing-model change must re-pin it"
    );
}
