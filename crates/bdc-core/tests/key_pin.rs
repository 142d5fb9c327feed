//! Pins the exact values of every content-addressed key the flow derives,
//! and the bytes of both synthetic libraries, to one FNV digest.
//!
//! The other key tests compare runs with each other (uniqueness,
//! sensitivity, determinism), so a refactor that moved every key at once
//! would pass them and silently orphan every warm store. This test fails
//! instead: any change to a stage key, a plan-node key, a library
//! artifact address, a library fingerprint or the Liberty dialect moves
//! the digest. A deliberate key change updates the literal below.
//!
//! A second digest pins the store addresses of the flow's memoized
//! results — `synth-{p}`, `alu-{p}` and `ipc` — which hash a `CoreSpec`'s
//! `Debug` text, the library fingerprint and the synthesis settings
//! rather than stage keys. A change to any of those re-addresses every
//! stored simulation and synthesis, so it has to move a literal too.

use bdc_core::experiments::SimBudget;
use bdc_core::registry::{node_cache_key_with, NODES};
use bdc_core::{
    alu_cluster, library_artifact, measure_ipc_cached, pipeline_alu_cached, stage_graph,
    synthesize_core_cached, CoreSpec, ParamOverlay, Process, StageKind, TechKit,
};
use bdc_uarch::Workload;

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

#[test]
fn synth_alu_and_ipc_store_addresses_are_pinned() {
    // Only this test in the binary touches the artifact store, so the
    // redirect cannot leak into a neighbour.
    let dir = std::env::temp_dir().join(format!("bdc-key-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("BDC_CACHE_DIR", &dir);
    let specs = [
        CoreSpec::baseline(),
        CoreSpec::with_widths(2, 4),
        CoreSpec {
            fe_width: 1,
            be_pipes: 3,
            splits: vec![StageKind::Execute, StageKind::Mem, StageKind::Execute],
        },
    ];
    let alu = alu_cluster();
    for process in Process::both() {
        let kit = TechKit::synthetic(process);
        for spec in &specs {
            synthesize_core_cached(&kit, spec);
        }
        for stages in [2, 6] {
            pipeline_alu_cached(&kit, &alu, stages);
        }
    }
    for (spec, workload, outer, instructions) in [
        (&specs[0], Workload::Gzip, 2, 2_000),
        (&specs[1], Workload::Gzip, 2, 2_000),
        (&specs[2], Workload::Mcf, 3, 1_500),
    ] {
        measure_ipc_cached(spec, workload, outer, instructions);
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("the store directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".txt"))
        .collect();
    std::env::remove_var("BDC_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
    files.sort();
    assert_eq!(files.len(), 2 * (3 + 2) + 3, "{files:?}");
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let digest = format!("{:016x}", bdc_exec::fnv1a(&refs));
    assert_eq!(
        digest, "81dda5a943c0728e",
        "a synth, alu or ipc address moved"
    );
}
