//! Pins the exact values of every content-addressed key the flow derives,
//! and the bytes of both synthetic libraries, to one FNV digest.
//!
//! The other key tests compare runs with each other (uniqueness,
//! sensitivity, determinism), so a refactor that moved every key at once
//! would pass them and silently orphan every warm store. This test fails
//! instead: any change to a stage key, a plan-node key, a library
//! artifact address, a library fingerprint or the Liberty dialect moves
//! the digest. A deliberate key change updates the literal below.

use bdc_core::experiments::SimBudget;
use bdc_core::registry::{node_cache_key_with, NODES};
use bdc_core::{library_artifact, stage_graph, ParamOverlay, Process, TechKit};

#[test]
fn stage_node_and_library_keys_are_pinned() {
    let overlays = [
        ParamOverlay::default(),
        ParamOverlay {
            organic_delta_vt: 0.25,
        },
    ];
    let mut parts: Vec<String> = Vec::new();
    for overlay in &overlays {
        let graph = stage_graph(overlay);
        assert_eq!(graph.nodes.len(), 47);
        for node in &graph.nodes {
            parts.push(format!("stage {} {:016x}", node.name, node.key));
        }
        assert_eq!(NODES.len(), 25);
        for node in NODES {
            for (quick, budget) in [(true, SimBudget::quick()), (false, SimBudget::standard())] {
                let key = node_cache_key_with(node, quick, budget, overlay);
                parts.push(format!("node {} {quick} {key:016x}", node.id));
            }
        }
    }
    for process in Process::both() {
        let (name, key) = library_artifact(process);
        parts.push(format!("artifact {name} {key:016x}"));
        let lib = TechKit::synthetic(process).lib;
        parts.push(format!("fingerprint {:016x}", lib.fingerprint()));
        parts.push(bdc_cells::write_library(&lib));
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let digest = format!("{:016x}", bdc_exec::fnv1a(&refs));
    assert_eq!(digest, "1d219e01cab64575", "a key or library byte moved");
}
