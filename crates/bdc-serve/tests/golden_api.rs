//! Serve-layer golden tests (ISSUE 4 acceptance): `/v1/*` response
//! bodies are byte-identical to captures taken before execution was
//! refactored onto `bdc_core::registry::query` (committed under
//! `tests/golden/`). Any representational change — float formatting,
//! member order, spec normalization — fails here.

use bdc_core::registry::query::Query;
use bdc_core::{CoreSpec, Process, StageKind};
use bdc_serve::api::execute;
use bdc_uarch::Workload;

fn check(call: Query, golden: &[u8]) {
    let r = execute(&call);
    assert_eq!(r.status, 200, "{call:?}");
    assert!(
        r.body == golden,
        "{call:?}: body differs from the pre-refactor golden capture\n\
         --- golden ---\n{}\n--- rendered ---\n{}",
        String::from_utf8_lossy(golden),
        String::from_utf8_lossy(&r.body)
    );
}

#[test]
fn golden_library_organic() {
    check(
        Query::Library {
            process: Process::Organic,
        },
        include_bytes!("golden/library_organic.json"),
    );
}

#[test]
fn golden_library_silicon() {
    check(
        Query::Library {
            process: Process::Silicon,
        },
        include_bytes!("golden/library_silicon.json"),
    );
}

#[test]
fn golden_synth_silicon_baseline() {
    check(
        Query::Synth {
            process: Process::Silicon,
            spec: CoreSpec::baseline(),
        },
        include_bytes!("golden/synth_silicon_baseline.json"),
    );
}

#[test]
fn golden_synth_organic_widened_split() {
    let spec = CoreSpec {
        fe_width: 2,
        be_pipes: 4,
        splits: vec![
            StageKind::from_name("fetch").unwrap(),
            StageKind::from_name("issue").unwrap(),
        ],
    };
    check(
        Query::Synth {
            process: Process::Organic,
            spec,
        },
        include_bytes!("golden/synth_organic_2w4b.json"),
    );
}

#[test]
fn golden_depth_silicon_11() {
    check(
        Query::Depth {
            process: Process::Silicon,
            stages: 11,
        },
        include_bytes!("golden/depth_silicon_11.json"),
    );
}

#[test]
fn golden_width_organic_2_4() {
    check(
        Query::Width {
            process: Process::Organic,
            fe: 2,
            be: 4,
        },
        include_bytes!("golden/width_organic_2_4.json"),
    );
}

#[test]
fn golden_ipc_gzip() {
    check(
        Query::Ipc {
            spec: CoreSpec::baseline(),
            workload: Workload::Gzip,
            outer: 5,
            instructions: 4_000,
        },
        include_bytes!("golden/ipc_gzip_5_4000.json"),
    );
}

#[test]
fn experiment_body_matches_registry_render() {
    // The `/v1/experiment` body must be the registry render, line for
    // line — dispatch by id cannot drift from `bdc run <id>`.
    let r = execute(&Query::Experiment {
        id: "fig08".into(),
        quick: true,
    });
    assert_eq!(r.status, 200);
    let body = bdc_exec::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
    let text = bdc_core::registry::run_one("fig08", true).unwrap().text;
    let lines: Vec<&str> = text.lines().collect();
    let served: Vec<String> = match body.get("lines") {
        Some(bdc_exec::json::Json::Arr(items)) => items
            .iter()
            .map(|l| l.as_str().unwrap().to_string())
            .collect(),
        other => panic!("missing lines member: {other:?}"),
    };
    assert_eq!(served, lines);
    assert_eq!(
        body.get("id").and_then(|v| v.as_str()),
        Some("fig08"),
        "envelope id"
    );
}
