//! `bdc-perfprobe` — the traced pass's layer probe.
//!
//! Times single calls into each crate's public API, the same calls the
//! Figure-10 flow makes, and prints one JSON object on stdout:
//!
//! ```text
//! bdc-perfprobe layers        # cells / circuit / synth / uarch / exec calls
//! bdc-perfprobe plan --out FILE   # one cold standard-budget registry::run_plan
//! ```
//!
//! Each subcommand must run in a fresh process (the flow keeps in-process
//! memos) with `BDC_CACHE_DIR` pointing at an empty directory. Timings are
//! wall-clock medians over the listed calls; nothing here is part of the
//! program's byte contract.

use std::path::PathBuf;
use std::time::Instant;

use bdc_cells::{characterize_gate, organic_gate, CharacterizeConfig, LogicKind, OrganicSizing};
use bdc_core::corespec::stage_netlist;
use bdc_core::registry::{self, NODES};
use bdc_core::{
    alu_cluster, measure_ipc, pipeline_alu, synthesize_core, CoreSpec, Process, StageKind, TechKit,
};
use bdc_exec::json::Json;
use bdc_exec::{stage_counters, stage_delta, ArtifactCache};
use bdc_synth::{analyze, remap_for_library};
use bdc_uarch::Workload;

/// The Figure-12 ALU depths (the `fig12` node's list).
const FIG12_DEPTHS: [usize; 16] = [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30];

/// Standard simulation budget (`SimBudget::standard`).
const STANDARD_OUTER: u32 = 150;
const STANDARD_INSTRUCTIONS: u64 = 60_000;

/// Times `f` and returns its result with the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn kit(process: Process) -> (TechKit, f64) {
    let (kit, s) = timed(|| TechKit::build(process));
    match kit {
        Ok(k) => (k, s),
        Err(e) => fail(&format!("TechKit::build({}) failed: {e:?}", process.name())),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("bdc-perfprobe: {msg}");
    std::process::exit(1);
}

fn layers() -> Json {
    // Libraries first: the process is fresh, so both builds are cold.
    let (organic, lib_organic_s) = kit(Process::Organic);
    let (silicon, lib_silicon_s) = kit(Process::Silicon);

    let cfg = CharacterizeConfig::organic();
    let sizing = OrganicSizing::library_default();
    let nldm_ms: Vec<f64> = LogicKind::all()
        .into_iter()
        .map(|kind| {
            let gate = organic_gate(kind, &sizing, 5.0, -15.0);
            let (timing, s) = timed(|| characterize_gate(&gate, &cfg));
            if let Err(e) = timing {
                fail(&format!("characterize_gate({kind:?}) failed: {e:?}"));
            }
            s * 1e3
        })
        .collect();

    let mut core_ms = Vec::new();
    let mut alu_ms = Vec::new();
    let block = alu_cluster();
    for k in [&organic, &silicon] {
        for fe in 1..=6 {
            for be in 3..=7 {
                let spec = CoreSpec::with_widths(fe, be);
                core_ms.push(timed(|| synthesize_core(k, &spec)).1 * 1e3);
            }
        }
        for stages in FIG12_DEPTHS {
            alu_ms.push(timed(|| pipeline_alu(k, &block, stages)).1 * 1e3);
        }
    }

    // STA over the mapped baseline core, one pass per repeat.
    let mapped: Vec<_> = StageKind::all()
        .into_iter()
        .map(|kind| remap_for_library(&stage_netlist(kind, 1, 3), &organic.lib).0)
        .collect();
    let sta_ms: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                for n in &mapped {
                    std::hint::black_box(analyze(n, &organic.lib, &organic.sta));
                }
            })
            .1 * 1e3
        })
        .collect();

    let specs = [
        CoreSpec::baseline(),
        CoreSpec::with_widths(2, 4),
        CoreSpec::with_widths(4, 6),
    ];
    let mut instructions = 0u64;
    let mut sim_s = 0.0;
    for spec in &specs {
        for w in Workload::all() {
            let (stats, s) = timed(|| measure_ipc(spec, w, STANDARD_OUTER, STANDARD_INSTRUCTIONS));
            instructions += stats.instructions;
            sim_s += s;
        }
    }

    // Store round trips on library-, synth- and ipc-sized artifacts.
    let root = std::env::var_os("BDC_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| fail("BDC_CACHE_DIR must name an empty scratch directory"));
    let cache = ArtifactCache::with_budget_bytes(root.join("probe-store"), None);
    let library_text = bdc_cells::write_library(&organic.lib);
    let synth_text = format!("{:?}", synthesize_core(&organic, &CoreSpec::baseline()));
    let ipc_text = format!(
        "{:?}",
        measure_ipc(&CoreSpec::baseline(), Workload::Gzip, 25, 12_000)
    );
    let mut write_us = Vec::new();
    let mut load_us = Vec::new();
    for (name, text) in [
        ("probe-lib", &library_text),
        ("probe-synth", &synth_text),
        ("probe-ipc", &ipc_text),
    ] {
        for key in 0..15u64 {
            let (ok, s) = timed(|| cache.store(name, key, text));
            if !ok {
                fail(&format!("ArtifactCache::store({name}) failed"));
            }
            write_us.push(s * 1e6);
        }
        for key in 0..15u64 {
            let (hit, s) = timed(|| cache.load(name, key));
            if hit.as_deref() != Some(text.as_str()) {
                fail(&format!("ArtifactCache::load({name}) did not round-trip"));
            }
            load_us.push(s * 1e6);
        }
    }

    Json::Obj(vec![
        ("lib_organic_s".into(), Json::Num(lib_organic_s)),
        ("lib_silicon_s".into(), Json::Num(lib_silicon_s)),
        ("nldm_cell_ms".into(), Json::Num(median(nldm_ms))),
        ("core_ms".into(), Json::Num(median(core_ms))),
        ("alu_ms".into(), Json::Num(median(alu_ms))),
        ("sta_ms".into(), Json::Num(median(sta_ms))),
        (
            "minst_per_s".into(),
            Json::Num(instructions as f64 / sim_s / 1e6),
        ),
        ("store_load_us".into(), Json::Num(median(load_us))),
        ("store_write_us".into(), Json::Num(median(write_us))),
    ])
}

fn plan(out: &str) -> Json {
    let ids: Vec<&str> = NODES.iter().map(|n| n.id).collect();
    let before = stage_counters();
    let (report, wall_s) = timed(|| registry::run_plan(&ids, false));
    let report = report.unwrap_or_else(|e| fail(&format!("run_plan failed: {e}")));
    if let Some(n) = report.failed().next() {
        fail(&format!("node {} failed", n.id));
    }
    let ipc_misses = stage_delta(&before).get("ipc").map_or(0, |c| c.1);
    let text: String = report.nodes.iter().map(|n| n.text.as_str()).collect();
    if let Err(e) = std::fs::write(out, text) {
        fail(&format!("cannot write {out}: {e}"));
    }
    Json::Obj(vec![
        ("wall_s".into(), Json::Num(wall_s)),
        ("workers".into(), Json::Int(report.workers as i64)),
        ("ipc_misses".into(), Json::Int(ipc_misses as i64)),
        (
            "node_hits".into(),
            Json::Int(report.nodes.iter().filter(|n| n.cache_hit).count() as i64),
        ),
        (
            "nodes".into(),
            Json::Obj(
                report
                    .nodes
                    .iter()
                    .map(|n| (n.id.to_string(), Json::Num(n.wall_s)))
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    if let Err(e) = bdc_exec::env_config() {
        fail(&e.to_string());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.first().map(String::as_str) {
        Some("layers") => layers(),
        Some("plan") if args.len() == 3 && args[1] == "--out" => plan(&args[2]),
        _ => {
            eprintln!("usage: bdc-perfprobe layers | plan --out FILE");
            std::process::exit(2);
        }
    };
    println!("{}", out.encode());
}
