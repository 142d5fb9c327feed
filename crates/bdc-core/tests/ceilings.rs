//! Release-only wall-clock ceilings for library characterization and its
//! store reload.
//!
//! Ignored by default: the ceilings only mean something in an optimized
//! build, in a fresh process, before anything else has characterized. Run
//! it on its own:
//!
//! ```text
//! cargo test --release -p bdc-core --test ceilings -- --ignored --nocapture
//! ```

use std::path::Path;
use std::time::Instant;

use bdc_core::{Process, TechKit};

/// Cold batched characterization at one worker, per library. The scalar
/// kernel takes ~4 s, so a regression to scalar-like numbers means the
/// batch dispatch or lane packing broke.
const COLD_CEILING_S: f64 = 1.0;

/// A warm reload is a Liberty parse (well under a millisecond); a store
/// that misses everything re-runs about a second of circuit simulation
/// per library. A library miss whose cells still hit is fast, so the
/// stage tallies, not this ceiling, catch that one.
const WARM_CEILING_S: f64 = 5.0;

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read store").flatten() {
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy artifact");
        }
    }
}

fn load_in(root: &Path, process: Process) -> TechKit {
    std::env::set_var("BDC_CACHE_DIR", root);
    let kit = TechKit::load_or_build(process).expect("characterize");
    std::env::remove_var("BDC_CACHE_DIR");
    kit
}

#[test]
#[ignore = "release-only wall-clock ceilings; run alone in a fresh process"]
fn characterization_and_warm_reload_stay_under_their_ceilings() {
    // 1. Cold characterization: the first build of each library in this
    //    process, batched (default lanes) at one worker.
    bdc_exec::set_workers(Some(1));
    for p in Process::both() {
        let t0 = Instant::now();
        TechKit::build(p).expect("characterize");
        let s = t0.elapsed().as_secs_f64();
        println!(
            "cold characterize {} (batched, 1 worker): {s:.3} s",
            p.name()
        );
        assert!(
            s <= COLD_CEILING_S,
            "{}: cold batched characterization {s:.3} s > {COLD_CEILING_S} s",
            p.name()
        );
    }
    bdc_exec::set_workers(None);

    // 2. Warm reload from a store: fill root A, copy it to root B, load in
    //    B. B is a new root, so the in-process kit memo cannot answer and
    //    the library must come off disk.
    let base = std::env::temp_dir().join(format!("bdc-ceilings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (a, b) = (base.join("a"), base.join("b"));
    for p in Process::both() {
        let liberty = bdc_cells::write_library(&load_in(&a, p).lib);
        copy_store(&a, &b);
        let scope = bdc_exec::new_scope();
        let guard = bdc_exec::enter_scope(scope);
        let t0 = Instant::now();
        let warm = load_in(&b, p);
        let s = t0.elapsed().as_secs_f64();
        drop(guard);
        println!("warm reload {}: {:.3} ms", p.name(), s * 1e3);
        assert_eq!(
            bdc_cells::write_library(&warm.lib),
            liberty,
            "{}: reloaded Liberty bytes differ",
            p.name()
        );
        let tallies = bdc_exec::scope_counters(scope);
        let lib = format!("lib-{}", p.name());
        assert_eq!(
            tallies.get(&lib),
            Some(&(1, 0)),
            "{lib} must be one store hit: {tallies:?}"
        );
        for (stage, (_, misses)) in &tallies {
            assert!(
                !stage.starts_with("cell-") || *misses == 0,
                "{stage} recomputed on a warm reload: {tallies:?}"
            );
        }
        assert!(
            s <= WARM_CEILING_S,
            "{}: warm reload {s:.3} s > {WARM_CEILING_S} s",
            p.name()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
