//! Determinism contract of the parallel flow (DESIGN.md §5e): every
//! `par_map` fan-out must be **bit-identical** to serial execution, for any
//! worker count, and a cache round-trip must reproduce downstream STA
//! results exactly.
//!
//! The pool's worker count is process-global, so every test that touches it
//! serializes on one mutex and restores the default before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use bdc_cells::{characterize_gate, organic_gate, CharacterizeConfig, LogicKind, OrganicSizing};
use bdc_core::experiments::{width_ipc_matrix, SimBudget};
use bdc_core::extensions::variation_tuning;
use bdc_core::{Process, TechKit};
use bdc_exec::{par_map, set_batch_lanes, set_workers};

/// Guards the global worker-count and batch-lane overrides; resets both on
/// drop. Tests touching either knob must hold this lock — both are
/// process-global, so an unserialized neighbour would leak its override
/// into a concurrently running test.
struct PoolLock {
    _guard: MutexGuard<'static, ()>,
}

impl PoolLock {
    fn acquire() -> PoolLock {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let m = LOCK.get_or_init(|| Mutex::new(()));
        PoolLock {
            _guard: m.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }
}

impl Drop for PoolLock {
    fn drop(&mut self) {
        set_workers(None);
        set_batch_lanes(None);
    }
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn table_bits(t: &bdc_cells::NldmTable) -> Vec<u64> {
    t.values().iter().flatten().map(|v| v.to_bits()).collect()
}

#[test]
fn characterization_tables_are_bit_identical_across_worker_counts() {
    let _lock = PoolLock::acquire();
    let gate = organic_gate(
        LogicKind::Nand2,
        &OrganicSizing::library_default(),
        5.0,
        -15.0,
    );
    // A reduced grid keeps the test fast; the code path is the full one.
    let cfg = CharacterizeConfig {
        slews: vec![2.0e-5, 2.0e-4],
        loads: vec![1.0e-10, 1.0e-9],
        ..CharacterizeConfig::organic()
    };
    let mut reference = None;
    for w in WORKER_COUNTS {
        set_workers(Some(w));
        let t = characterize_gate(&gate, &cfg).expect("characterize");
        let bits = (
            table_bits(&t.delay_rise),
            table_bits(&t.delay_fall),
            table_bits(&t.out_slew),
        );
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(*r, bits, "{w} workers diverged from serial"),
        }
    }
}

#[test]
fn nested_fan_outs_are_bit_identical_across_worker_counts() {
    let _lock = PoolLock::acquire();
    // Each outer task characterizes one gate, which fans out again over
    // its grid: at 2 and 8 workers those inner fan-outs run on helpers
    // recruited from the shared budget, not inline on the outer worker.
    let sizing = OrganicSizing::library_default();
    let gates: Vec<_> = [LogicKind::Inv, LogicKind::Nand2, LogicKind::Nor2]
        .into_iter()
        .map(|kind| organic_gate(kind, &sizing, 5.0, -15.0))
        .collect();
    let cfg = CharacterizeConfig {
        slews: vec![2.0e-5, 2.0e-4],
        loads: vec![1.0e-10, 1.0e-9],
        ..CharacterizeConfig::organic()
    };
    let mut reference = None;
    for w in WORKER_COUNTS {
        set_workers(Some(w));
        let bits = par_map(&gates, |gate| {
            let t = characterize_gate(gate, &cfg).expect("characterize");
            (
                table_bits(&t.delay_rise),
                table_bits(&t.delay_fall),
                table_bits(&t.out_slew),
            )
        });
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(*r, bits, "{w} workers diverged from serial"),
        }
    }
}

#[test]
fn width_ipc_matrix_is_bit_identical_across_worker_counts() {
    let _lock = PoolLock::acquire();
    let mut reference = None;
    for w in WORKER_COUNTS {
        set_workers(Some(w));
        let m = width_ipc_matrix(&[1, 2], &[3, 4], SimBudget::quick());
        let bits: Vec<Vec<u64>> = m
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(*r, bits, "{w} workers diverged from serial"),
        }
    }
}

/// The flow's Monte-Carlo fan-out: `variation_tuning` draws every ΔV_T
/// serially, then measures the shifted inverters on the pool.
#[test]
fn monte_carlo_population_is_bit_identical_across_worker_counts() {
    let _lock = PoolLock::acquire();
    let mut reference = None;
    for w in WORKER_COUNTS {
        set_workers(Some(w));
        let study = variation_tuning(6, 2026).expect("variation study");
        let mut bits: Vec<u64> = study
            .raw
            .iter()
            .flat_map(|&(dvt, vm)| [dvt.to_bits(), vm.to_bits()])
            .collect();
        bits.extend([study.sigma_before.to_bits(), study.sigma_after.to_bits()]);
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(*r, bits, "{w} workers diverged from serial"),
        }
    }
}

/// The (lanes, workers) grid the batched-kernel parity tests sweep. Lanes
/// = 1 is the scalar reference path; every other point must reproduce its
/// bits exactly (DESIGN.md §5j).
const PARITY_LANES: [usize; 3] = [1, 4, 8];
const PARITY_WORKERS: [usize; 2] = [1, 8];

#[test]
fn nldm_tables_scalar_vs_batched_parity_matrix() {
    let _lock = PoolLock::acquire();
    // One organic and one silicon gate on a reduced grid: full libraries
    // are exercised by `library_liberty_bytes_scalar_vs_batched` (ignored
    // by default, run in the CI bench job in release mode).
    let organic = organic_gate(
        LogicKind::Nor2,
        &OrganicSizing::library_default(),
        5.0,
        -15.0,
    );
    let organic_cfg = CharacterizeConfig {
        slews: vec![2.0e-5, 2.0e-4],
        loads: vec![1.0e-10, 3.0e-9, 1.0e-8],
        ..CharacterizeConfig::organic()
    };
    let silicon = bdc_cells::cmos_gate(LogicKind::Nand2, 450.0e-9, 1.0);
    let silicon_cfg = CharacterizeConfig {
        slews: vec![1.0e-11, 1.0e-10],
        loads: vec![3.0e-16, 3.0e-15, 2.0e-14],
        ..CharacterizeConfig::silicon()
    };
    for (gate, cfg) in [(&organic, &organic_cfg), (&silicon, &silicon_cfg)] {
        let mut reference = None;
        for lanes in PARITY_LANES {
            for workers in PARITY_WORKERS {
                set_batch_lanes(Some(lanes));
                set_workers(Some(workers));
                let t = characterize_gate(gate, cfg).expect("characterize");
                let bits = (
                    table_bits(&t.delay_rise),
                    table_bits(&t.delay_fall),
                    table_bits(&t.out_slew),
                );
                match &reference {
                    None => reference = Some(bits),
                    Some(r) => assert_eq!(
                        *r, bits,
                        "lanes={lanes} workers={workers} diverged from scalar"
                    ),
                }
            }
        }
    }
}

/// Full-library parity: the batched kernel must reproduce the scalar
/// path's Liberty output *byte for byte* for both technologies, at every
/// (lanes, workers) point — this is what keeps content-addressed cache
/// keys and golden files process-wide stable. Ignored by default (12 cold
/// library characterizations are far too slow for a debug-mode test run);
/// the CI bench job runs it in release.
#[test]
#[ignore = "expensive: 12 cold library builds; CI bench job runs it in release"]
fn library_liberty_bytes_scalar_vs_batched() {
    let _lock = PoolLock::acquire();
    for process in [Process::Organic, Process::Silicon] {
        let mut reference: Option<String> = None;
        for lanes in PARITY_LANES {
            for workers in PARITY_WORKERS {
                set_batch_lanes(Some(lanes));
                set_workers(Some(workers));
                let kit = TechKit::build(process).expect("characterize");
                let text = bdc_cells::write_library(&kit.lib);
                // Round-trip: the parsed-back library re-serializes to the
                // same bytes, so cached copies re-enter identically.
                let reparsed = bdc_cells::parse_library(&text).expect("parse");
                assert_eq!(
                    text,
                    bdc_cells::write_library(&reparsed),
                    "{process:?}: Liberty round-trip not stable"
                );
                match &reference {
                    None => reference = Some(text),
                    Some(r) => assert!(
                        *r == text,
                        "{process:?} lanes={lanes} workers={workers}: Liberty bytes diverged from scalar"
                    ),
                }
            }
        }
    }
}

#[test]
fn library_cache_round_trip_preserves_sta_arrivals() {
    // The artifact cache stores a characterized library as Liberty text;
    // a hit must reproduce STA bit-for-bit. shared_kit exercises the real
    // load path; the round-trip below checks the serialization itself.
    let kit = bdc_core::process::shared_kit(Process::Silicon);
    let text = bdc_cells::write_library(&kit.lib);
    let reloaded = bdc_cells::parse_library(&text).expect("parse");
    let kit2 = TechKit::with_library(Process::Silicon, reloaded);

    let net = bdc_synth::blocks::ripple_adder(16);
    let a = bdc_synth::sta::analyze(&net, &kit.lib, &kit.sta);
    let b = bdc_synth::sta::analyze(&net, &kit2.lib, &kit2.sta);
    assert_eq!(a.max_arrival.to_bits(), b.max_arrival.to_bits());
    assert_eq!(a.area_um2.to_bits(), b.area_um2.to_bits());
    let arr_a: Vec<u64> = a.arrival.iter().map(|v| v.to_bits()).collect();
    let arr_b: Vec<u64> = b.arrival.iter().map(|v| v.to_bits()).collect();
    assert_eq!(arr_a, arr_b);
}
