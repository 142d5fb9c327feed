//! The structured query layer behind `bdc-serve`'s computational
//! endpoints.
//!
//! A [`Query`] is the canonical form of one `/v1/library`, `/v1/synth`,
//! `/v1/depth`, `/v1/width`, `/v1/ipc` or `/v1/experiment` request with
//! all transport concerns (HTTP parsing, bounds, defaults) already
//! stripped by the caller; `bdc-serve` parses straight into it, and its
//! engine queues, coalesces and caches it. [`Query::run`] renders the
//! deterministic JSON body the serving layer returns verbatim — the bodies
//! moved here from `bdc-serve` intact, so `/v1/*` responses stayed
//! byte-identical across the registry refactor
//! (`bdc-serve/tests/golden_api.rs` pins them).

use bdc_exec::json::Json;
use bdc_uarch::Workload;

use crate::flow::{split_chain, StageTiming};
use crate::process::shared_kit;
use crate::{
    measure_ipc_cached, synthesize_core_cached, CoreSpec, Process, StageKind, SynthesizedCore,
    TechKit,
};

/// A canonical computational query. Pure: the same query yields a
/// byte-identical body for any worker count or cache state. Two requests
/// that mean the same query compare equal, and the serving layer keys its
/// response cache on the `Debug` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Characterized library summary for one process.
    Library {
        /// Which process library.
        process: Process,
    },
    /// Synthesized core for an explicit design point.
    Synth {
        /// Which process library.
        process: Process,
        /// The design point.
        spec: CoreSpec,
    },
    /// The Figure-11 depth point at N stages (split-the-critical chain).
    Depth {
        /// Which process library.
        process: Process,
        /// Total pipeline stages (9–15).
        stages: usize,
    },
    /// The Figure-13/14 width point at (fe, be).
    Width {
        /// Which process library.
        process: Process,
        /// Front-end width (1–6).
        fe: usize,
        /// Back-end pipes (3–7).
        be: usize,
    },
    /// Cycle-accurate IPC for (spec, workload).
    Ipc {
        /// The design point simulated.
        spec: CoreSpec,
        /// Which workload kernel.
        workload: Workload,
        /// Outer-loop trip count.
        outer: u32,
        /// Retired-instruction cap.
        instructions: u64,
    },
    /// One rendered registry node, in the `/v1/experiment` envelope.
    Experiment {
        /// Registry node id.
        id: String,
        /// Whether to render at the quick budget.
        quick: bool,
    },
}

impl Query {
    /// Executes the query against the flow and renders its JSON body.
    /// Fails on [`Query::Library`]'s Liberty round-trip or an experiment
    /// node that fails (or does not exist).
    pub fn run(&self) -> Result<Json, String> {
        match self {
            Query::Library { process } => library_json(shared_kit(*process)),
            Query::Synth { process, spec } => Ok(synth_json(shared_kit(*process), spec, &[])),
            Query::Depth { process, stages } => {
                // Cached synthesis makes rebuilding the chain cheap.
                let kit = shared_kit(*process);
                let chain = split_chain(kit, *stages);
                let spec = &chain[chain.len() - 1];
                Ok(synth_json(kit, spec, &spec.splits))
            }
            Query::Width { process, fe, be } => Ok(synth_json(
                shared_kit(*process),
                &CoreSpec::with_widths(*fe, *be),
                &[],
            )),
            Query::Ipc {
                spec,
                workload,
                outer,
                instructions,
            } => {
                let stats = measure_ipc_cached(spec, *workload, *outer, *instructions);
                Ok(Json::Obj(vec![
                    ("workload".into(), Json::str(workload.name())),
                    ("spec".into(), spec_json(spec)),
                    ("outer".into(), Json::Int(*outer as i64)),
                    ("instruction_cap".into(), Json::Int(*instructions as i64)),
                    ("ipc".into(), Json::Num(stats.ipc())),
                    ("cycles".into(), Json::Int(stats.cycles as i64)),
                    ("instructions".into(), Json::Int(stats.instructions as i64)),
                    ("branches".into(), Json::Int(stats.branches as i64)),
                    ("mispredicts".into(), Json::Int(stats.mispredicts as i64)),
                    ("flushes".into(), Json::Int(stats.flushes as i64)),
                    ("loads".into(), Json::Int(stats.loads as i64)),
                    ("stores".into(), Json::Int(stats.stores as i64)),
                ]))
            }
            Query::Experiment { id, quick } => super::run_one_json(id, *quick),
        }
    }
}

/// Renders the library body from a kit. Values are taken from a
/// Liberty-text round trip of the library, the exact representation the
/// artifact cache stores — so a cold (freshly characterized) kit and a
/// warm (cache-loaded) kit produce byte-identical bodies.
pub fn library_json(kit: &TechKit) -> Result<Json, String> {
    let lib = bdc_cells::parse_library(&bdc_cells::write_library(&kit.lib))
        .map_err(|e| format!("library round-trip: {e:?}"))?;
    let cells = bdc_cells::library::cell_summary(&lib)
        .into_iter()
        .map(|(name, area, cap, delay)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name)),
                ("area_um2".into(), Json::Num(area)),
                ("input_cap_f".into(), Json::Num(cap)),
                ("delay_s".into(), Json::Num(delay)),
            ])
        })
        .collect();
    Ok(Json::Obj(vec![
        ("process".into(), Json::str(kit.process.name())),
        ("vdd".into(), Json::Num(lib.vdd)),
        ("vss".into(), Json::Num(lib.vss)),
        ("fo4_delay_s".into(), Json::Num(lib.fo4_delay())),
        (
            "dff".into(),
            Json::Obj(vec![
                ("setup_s".into(), Json::Num(lib.dff.setup)),
                ("hold_s".into(), Json::Num(lib.dff.hold)),
                ("clk_to_q_s".into(), Json::Num(lib.dff.clk_to_q)),
            ]),
        ),
        ("cells".into(), Json::Arr(cells)),
    ]))
}

/// The JSON form of a [`CoreSpec`].
pub fn spec_json(spec: &CoreSpec) -> Json {
    Json::Obj(vec![
        ("fe_width".into(), Json::Int(spec.fe_width as i64)),
        ("be_pipes".into(), Json::Int(spec.be_pipes as i64)),
        (
            "splits".into(),
            Json::Arr(spec.splits.iter().map(|s| Json::str(s.name())).collect()),
        ),
    ])
}

/// Renders a synthesized-core body (shared by the synth, depth and width
/// queries). `cuts` names the split chain when the spec was derived by
/// critical-stage cutting.
pub fn synth_json(kit: &TechKit, spec: &CoreSpec, cuts: &[StageKind]) -> Json {
    let core: SynthesizedCore = synthesize_core_cached(kit, spec);
    let stages = core
        .stages
        .iter()
        .map(|s: &StageTiming| {
            Json::Obj(vec![
                ("stage".into(), Json::str(s.kind.name())),
                ("substages".into(), Json::Int(s.substages as i64)),
                ("logic_delay_s".into(), Json::Num(s.logic_delay)),
                ("area_um2".into(), Json::Num(s.area_um2)),
            ])
        })
        .collect();
    let mut members = vec![
        ("process".into(), Json::str(kit.process.name())),
        ("spec".into(), spec_json(spec)),
        ("total_stages".into(), Json::Int(spec.total_stages() as i64)),
        ("period_s".into(), Json::Num(core.period)),
        ("frequency_hz".into(), Json::Num(core.frequency)),
        ("area_um2".into(), Json::Num(core.area_um2)),
        ("critical_stage".into(), Json::str(core.critical.name())),
        ("seq_overhead_s".into(), Json::Num(core.seq_overhead)),
        ("wire_overhead_s".into(), Json::Num(core.wire_overhead)),
        ("stages".into(), Json::Arr(stages)),
    ];
    if !cuts.is_empty() {
        members.push((
            "cut_chain".into(),
            Json::Arr(cuts.iter().map(|c| Json::str(c.name())).collect()),
        ));
    }
    Json::Obj(members)
}
