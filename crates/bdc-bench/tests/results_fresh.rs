//! `results/` holds the latest full run: every node's standard-budget
//! render, under its legacy binary's name, must match
//! `results/<legacy_bin>.txt` byte for byte.
//!
//! Ignored by default: it runs the whole plan cold at the standard budget
//! (a few seconds in an optimized build). Run it with
//!
//! ```text
//! cargo test --release -p bdc-bench --test results_fresh -- --ignored
//! ```
//!
//! After a deliberate change to a node's output, regenerate the file with
//! `bdc run <id> > results/<legacy_bin>.txt`.

use std::path::Path;

use bdc_core::registry::{run_plan, NODES};

#[test]
#[ignore = "cold standard-budget plan; run in an optimized build"]
fn every_node_render_matches_its_results_file() {
    // A fresh store, so every render is computed by the code under test.
    let store = std::env::temp_dir().join(format!("bdc-results-fresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::env::set_var("BDC_CACHE_DIR", &store);
    let ids: Vec<&str> = NODES.iter().map(|n| n.id).collect();
    let report = run_plan(&ids, false);
    std::env::remove_var("BDC_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&store);
    let report = report.expect("plan runs");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stale = Vec::new();
    for (node, out) in NODES.iter().zip(&report.nodes) {
        assert!(out.ok(), "{}: {:?}", node.id, out.error);
        let path = results.join(format!("{}.txt", node.legacy_bin));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if committed != out.text {
            stale.push(format!("{} ({})", path.display(), node.id));
        }
    }
    assert!(
        stale.is_empty(),
        "results files differ from the current renders:\n  {}",
        stale.join("\n  ")
    );
}
