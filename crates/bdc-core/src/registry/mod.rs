//! The experiment registry: one catalogue of every figure, table,
//! extension and ablation, plus the plan scheduler that runs them.
//!
//! Every experiment the repository can reproduce is a [`Node`]: a stable
//! kebab-case id, the title/subtitle the legacy binary used to print, the
//! canonical drivers it exercises, its declared library dependencies, and
//! a deterministic render function. Consumers stack on top of the same
//! catalogue:
//!
//! - the `bdc` CLI (`bdc list`, `bdc run fig12 --quick`, `bdc run --all`),
//! - `bdc-serve`'s `/v1/experiments` and `/v1/experiment` endpoints,
//! - `bdc-verify`'s plan-graph analysis and `chaos_report`'s survival
//!   ladder.
//!
//! Rendered node text is content-addressed in the shared artifact store
//! through [`bdc_exec::cached`] (`exp-{id}-{key:016x}.txt`), so a warm `bdc run
//! --all` is file reads. [`run_plan`] walks the selected nodes, prewarms
//! shared library dependencies, fans independent nodes onto the
//! `bdc-exec` pool and returns a [`RunReport`] the CLI serializes as
//! `results/run_manifest.json`. See `DESIGN.md` §5g.

pub mod query;
mod render;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bdc_exec::faults;
use bdc_exec::json::Json;
use bdc_exec::{cached, fnv1a, par_map};

use crate::experiments::SimBudget;
use crate::stage::{library_stage_key, ParamOverlay};
use crate::{Process, TechKit};

/// A declared inter-layer dependency of a node.
///
/// Today the only cross-node artifact is the characterized cell library
/// (everything downstream — synthesis, IPC — is memoized per-call by the
/// flow layer); the scheduler uses these to prewarm each library once
/// before fanning out instead of racing N nodes into the same build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// The node needs the characterized [`TechKit`] for this process.
    Library(Process),
}

/// One registered experiment.
pub struct Node {
    /// Stable kebab/fig-case identifier (`fig12`, `table-library`, ...).
    pub id: &'static str,
    /// Header title, exactly as the legacy binary printed it.
    pub title: &'static str,
    /// Header subtitle (the "what" of `== title: what ==`).
    pub what: &'static str,
    /// Name of the legacy binary this node replaced.
    pub legacy_bin: &'static str,
    /// Canonical drivers (from `experiments::driver_names()` /
    /// `extensions::driver_names()`) this node exercises.
    pub drivers: &'static [&'static str],
    /// Library dependencies the scheduler prewarms.
    pub deps: &'static [Dep],
    run: fn(&RunCtx, &mut String) -> Result<(), String>,
}

const BOTH_LIBS: &[Dep] = &[
    Dep::Library(Process::Organic),
    Dep::Library(Process::Silicon),
];
const ORGANIC_LIB: &[Dep] = &[Dep::Library(Process::Organic)];
const NO_DEPS: &[Dep] = &[];

/// The full catalogue, in render order (figures, tables, extensions,
/// ablations). `bdc list`, `bdc run --all`, `/v1/experiments`,
/// `bdc verify` and `chaos_report` all iterate this slice.
pub static NODES: &[Node] = &[
    Node {
        id: "fig03",
        title: "Fig 3",
        what: "pentacene OTFT transfer characteristics",
        legacy_bin: "fig03_transfer",
        drivers: &["fig03_transfer"],
        deps: NO_DEPS,
        run: render::fig03,
    },
    Node {
        id: "fig04",
        title: "Fig 4",
        what: "SPICE model fits (level 1 vs level 61)",
        legacy_bin: "fig04_model_fit",
        drivers: &["fig04_model_fit"],
        deps: NO_DEPS,
        run: render::fig04,
    },
    Node {
        id: "fig05",
        title: "Fig 5",
        what: "organic inverter topologies (schematic listings)",
        legacy_bin: "fig05_schematics",
        drivers: &[],
        deps: NO_DEPS,
        run: render::fig05,
    },
    Node {
        id: "fig06",
        title: "Fig 6",
        what: "organic inverter styles at VDD = 15 V",
        legacy_bin: "fig06_inverters",
        drivers: &["fig06_inverters"],
        deps: NO_DEPS,
        run: render::fig06,
    },
    Node {
        id: "fig07",
        title: "Fig 7",
        what: "pseudo-E inverter across supply voltages",
        legacy_bin: "fig07_vdd_sweep",
        drivers: &["fig07_vdd_sweep"],
        deps: NO_DEPS,
        run: render::fig07,
    },
    Node {
        id: "fig08",
        title: "Fig 8",
        what: "V_M vs V_SS for the pseudo-E inverter at VDD = 5 V",
        legacy_bin: "fig08_vss_regression",
        drivers: &["fig08_vss_regression"],
        deps: NO_DEPS,
        run: render::fig08,
    },
    Node {
        id: "fig09",
        title: "Fig 9",
        what: "pseudo-E NAND/NOR topologies (schematic listings)",
        legacy_bin: "fig09_schematics",
        drivers: &[],
        deps: NO_DEPS,
        run: render::fig09,
    },
    Node {
        id: "fig11",
        title: "Fig 11",
        what: "core depth 9..15, per-benchmark performance",
        legacy_bin: "fig11_core_depth",
        drivers: &["fig11_core_depth"],
        deps: BOTH_LIBS,
        run: render::fig11,
    },
    Node {
        id: "fig12",
        title: "Fig 12",
        what: "ALU (2x mult + 2x div) pipelined to 1..30 stages",
        legacy_bin: "fig12_alu_depth",
        drivers: &["fig12_alu_depth"],
        deps: BOTH_LIBS,
        run: render::fig12,
    },
    Node {
        id: "fig13",
        title: "Fig 13",
        what: "performance: front-end width 1..6 x back-end pipes 3..7",
        legacy_bin: "fig13_width_perf",
        drivers: &["width_ipc_matrix", "fig13_14_width"],
        deps: BOTH_LIBS,
        run: render::fig13,
    },
    Node {
        id: "fig14",
        title: "Fig 14",
        what: "area: front-end width 1..6 x back-end pipes 3..7",
        legacy_bin: "fig14_width_area",
        drivers: &["fig14_width_area"],
        deps: BOTH_LIBS,
        run: render::fig14,
    },
    Node {
        id: "fig15",
        title: "Fig 15",
        what: "frequency vs stages, with and without wire cost",
        legacy_bin: "fig15_wire_ablation",
        drivers: &["fig15_wire_ablation"],
        deps: BOTH_LIBS,
        run: render::fig15,
    },
    Node {
        id: "table-library",
        title: "Table (§4.4)",
        what: "characterized 6-cell libraries",
        legacy_bin: "table_library",
        drivers: &["table_library", "table_mapping_preference"],
        deps: BOTH_LIBS,
        run: render::table_library,
    },
    Node {
        id: "table-baseline-freq",
        title: "Table (§5.3)",
        what: "baseline (9-stage) and deepened core frequencies",
        legacy_bin: "table_baseline_freq",
        drivers: &["table_baseline_frequency"],
        deps: BOTH_LIBS,
        run: render::table_baseline_freq,
    },
    Node {
        id: "table-netlist-stats",
        title: "Table",
        what: "netlist statistics and per-library coverage",
        legacy_bin: "table_netlist_stats",
        drivers: &[],
        deps: BOTH_LIBS,
        run: render::table_netlist_stats,
    },
    Node {
        id: "table-sizing-explore",
        title: "Table (§4.3.4)",
        what: "pseudo-E inverter sizing exploration",
        legacy_bin: "table_sizing_explore",
        drivers: &[],
        deps: NO_DEPS,
        run: render::table_sizing_explore,
    },
    Node {
        id: "ext-degradation",
        title: "Ext: degradation",
        what: "pseudo-E cell across its transient life",
        legacy_bin: "ext_degradation",
        drivers: &["degradation_sweep", "degradation_guardband"],
        deps: NO_DEPS,
        run: render::ext_degradation,
    },
    Node {
        id: "ext-dynamic-logic",
        title: "Ext: dynamic logic",
        what: "precharge-evaluate unipolar gates (paper §7)",
        legacy_bin: "ext_dynamic_logic",
        drivers: &[],
        deps: NO_DEPS,
        run: render::ext_dynamic_logic,
    },
    Node {
        id: "ext-energy-depth",
        title: "Ext: energy",
        what: "energy/instruction vs depth (paper §7 future work)",
        legacy_bin: "ext_energy_depth",
        drivers: &["energy_depth"],
        deps: BOTH_LIBS,
        run: render::ext_energy_depth,
    },
    Node {
        id: "ext-inorder-vs-ooo",
        title: "Ext: core style",
        what: "in-order arrays vs out-of-order at iso-area (organic, gzip-like)",
        legacy_bin: "ext_inorder_vs_ooo",
        drivers: &["inorder_vs_ooo"],
        deps: ORGANIC_LIB,
        run: render::ext_inorder_vs_ooo,
    },
    Node {
        id: "ext-parallel-array",
        title: "Ext: parallelism",
        what: "organic core arrays (paper §7 future work)",
        legacy_bin: "ext_parallel_array",
        drivers: &["parallel_array"],
        deps: ORGANIC_LIB,
        run: render::ext_parallel_array,
    },
    Node {
        id: "ext-variation",
        title: "Ext: variation",
        what: "Monte-Carlo V_T spread and V_SS compensation (paper §4.3.3)",
        legacy_bin: "ext_variation",
        drivers: &["variation_tuning"],
        deps: NO_DEPS,
        run: render::ext_variation,
    },
    Node {
        id: "abl-adder-arch",
        title: "Ablation",
        what: "adder architecture per process (32-bit)",
        legacy_bin: "abl_adder_arch",
        drivers: &[],
        deps: BOTH_LIBS,
        run: render::abl_adder_arch,
    },
    Node {
        id: "abl-predictor-depth",
        title: "Ablation",
        what: "predictor quality vs pipeline depth (organic)",
        legacy_bin: "abl_predictor_depth",
        drivers: &[],
        deps: ORGANIC_LIB,
        run: render::abl_predictor_depth,
    },
    Node {
        id: "abl-structures",
        title: "Ablation",
        what: "instruction-window structure sizes",
        legacy_bin: "abl_structures",
        drivers: &[],
        deps: NO_DEPS,
        run: render::abl_structures,
    },
];

/// Looks a node up by id.
pub fn find(id: &str) -> Option<&'static Node> {
    NODES.iter().find(|n| n.id == id)
}

/// Shared state for one plan execution: the chosen budget plus lazily
/// built, process-indexed tech kits so concurrent nodes characterize each
/// library exactly once.
pub struct RunCtx {
    quick: bool,
    budget: SimBudget,
    overlay: ParamOverlay,
    kits: [OnceLock<Result<TechKit, String>>; 2],
    observed: [AtomicBool; 2],
}

impl RunCtx {
    /// A context for one run; `quick` selects [`SimBudget::quick`] over
    /// [`SimBudget::standard`].
    pub fn new(quick: bool) -> Self {
        Self::with_overlay(quick, ParamOverlay::default())
    }

    /// A context pinned to an explicit parameter point — what `bdc sweep`
    /// builds for each grid value. At the default overlay this is exactly
    /// [`RunCtx::new`].
    pub fn with_overlay(quick: bool, overlay: ParamOverlay) -> Self {
        RunCtx {
            quick,
            budget: if quick {
                SimBudget::quick()
            } else {
                SimBudget::standard()
            },
            overlay,
            kits: [OnceLock::new(), OnceLock::new()],
            observed: [AtomicBool::new(false), AtomicBool::new(false)],
        }
    }

    /// True when this run uses the reduced budget.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The simulation budget nodes should pass to IPC-measuring drivers.
    pub fn budget(&self) -> SimBudget {
        self.budget
    }

    /// The parameter point this run is pinned to.
    pub fn overlay(&self) -> ParamOverlay {
        self.overlay
    }

    /// The characterized kit for `p`, built (or cache-loaded) on first use
    /// at this context's parameter point.
    pub fn kit(&self, p: Process) -> Result<&TechKit, String> {
        self.observed[p.index()].store(true, Ordering::Relaxed);
        self.kits[p.index()]
            .get_or_init(|| {
                TechKit::load_or_build_with(p, &self.overlay)
                    .map_err(|e| format!("characterization ({}): {e:?}", p.name()))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Which library kits [`RunCtx::kit`] has been asked for so far — the
    /// observed side of the declared-vs-observed dependency audit
    /// ([`audit_node_deps`]).
    pub fn observed_deps(&self) -> Vec<Process> {
        Process::both()
            .into_iter()
            .filter(|p| self.observed[p.index()].load(Ordering::Relaxed))
            .collect()
    }
}

/// Renders `id` fresh on a recording context — bypassing the artifact
/// cache, whose hits never touch [`RunCtx::kit`] — and returns the node's
/// `(declared, observed)` library dependencies, both in `[Organic,
/// Silicon]` order. `bdc verify --audit-deps` cross-validates the two.
///
/// # Errors
/// An unknown id, or the render's own failure.
pub fn audit_node_deps(id: &str, quick: bool) -> Result<(Vec<Process>, Vec<Process>), String> {
    let node = find(id).ok_or_else(|| format!("unknown experiment id `{id}` (try `bdc list`)"))?;
    let ctx = RunCtx::new(quick);
    let mut text = String::new();
    (node.run)(&ctx, &mut text).map_err(|e| format!("{}: {e}", node.id))?;
    let mut declared: Vec<Process> = Vec::new();
    for Dep::Library(p) in node.deps {
        if !declared.contains(p) {
            declared.push(*p);
        }
    }
    declared.sort_by_key(|p| *p as u8);
    Ok((declared, ctx.observed_deps()))
}

/// The rendered output of one node.
#[derive(Debug)]
pub struct NodeOutput {
    /// The node's id.
    pub id: &'static str,
    /// Full text: header line(s) plus the body — byte-identical to the
    /// legacy binary's stdout.
    pub text: String,
    /// Whether the text came from the artifact cache.
    pub cache_hit: bool,
    /// The node's content-address under the artifact cache.
    pub key: u64,
}

/// The cache key of a node render at the nominal parameter point:
/// [`node_cache_key_with`] at the default overlay.
pub fn node_cache_key(node: &Node, quick: bool, budget: SimBudget) -> u64 {
    node_cache_key_with(node, quick, budget, &ParamOverlay::default())
}

/// The cache key of a node render: id plus everything that affects the
/// bytes — the mode tag, the exact budget, and the *stage keys* of the
/// libraries the node declares it depends on. Folding the upstream stage
/// keys (rather than the overlay itself) means a parameter change
/// re-keys exactly the nodes whose declared inputs moved: a `NO_DEPS`
/// node renders the same bytes at every sweep point and keeps one warm
/// artifact, while a node over the organic library re-keys per point.
/// The declared-vs-observed dependency audit (`bdc verify --audit-deps`,
/// PG006) is what makes trusting `node.deps` here sound.
pub fn node_cache_key_with(
    node: &Node,
    quick: bool,
    budget: SimBudget,
    overlay: &ParamOverlay,
) -> u64 {
    let mut parts: Vec<String> = vec![
        "bdc-exp-v2".into(),
        node.id.into(),
        (if quick { "quick" } else { "standard" }).into(),
        format!("{budget:?}"),
    ];
    for Dep::Library(p) in node.deps {
        parts.push(format!("lib={:016x}", library_stage_key(*p, overlay)));
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fnv1a(&refs)
}

fn run_node(node: &'static Node, ctx: &RunCtx) -> Result<NodeOutput, String> {
    let key = node_cache_key_with(node, ctx.quick, ctx.budget, &ctx.overlay);
    let name = format!("exp-{}", node.id);
    let mut cache_hit = true;
    let render = || {
        cache_hit = false;
        let mut text = format!("== {}: {} ==\n", node.title, node.what);
        if ctx.quick {
            text.push_str("   (quick mode: reduced simulation budget)\n");
        }
        (node.run)(ctx, &mut text)
            .map(|()| text)
            .map_err(|e| format!("{}: {e}", node.id))
    };
    let text = cached(&name, key, |t| Some(t.to_string()), String::clone, render)?;
    Ok(NodeOutput {
        id: node.id,
        text,
        cache_hit,
        key,
    })
}

/// Renders one node by id: the text `bdc run <id>` prints, byte-identical
/// to what the old standalone per-figure binary printed at the same
/// budget.
pub fn run_one(id: &str, quick: bool) -> Result<NodeOutput, String> {
    let node = find(id).ok_or_else(|| format!("unknown experiment id `{id}` (try `bdc list`)"))?;
    run_node(node, &RunCtx::new(quick))
}

/// Renders one node and wraps it in the JSON envelope served by
/// `/v1/experiment`.
pub fn run_one_json(id: &str, quick: bool) -> Result<Json, String> {
    let node = find(id).ok_or_else(|| format!("unknown experiment id `{id}` (try `bdc list`)"))?;
    let ctx = RunCtx::new(quick);
    let out = run_node(node, &ctx)?;
    Ok(node_json(node, &out, quick, ctx.budget))
}

/// The JSON envelope for one rendered node: identity, budget, and the
/// text split into lines (deterministic — derived from the cached bytes).
pub fn node_json(node: &Node, out: &NodeOutput, quick: bool, budget: SimBudget) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::str(node.id)),
        ("title".into(), Json::str(node.title)),
        ("what".into(), Json::str(node.what)),
        ("quick".into(), Json::Bool(quick)),
        (
            "budget".into(),
            Json::Obj(vec![
                ("outer".into(), Json::Int(i64::from(budget.outer))),
                ("instructions".into(), Json::Int(budget.instructions as i64)),
            ]),
        ),
        (
            "lines".into(),
            Json::Arr(out.text.lines().map(Json::str).collect()),
        ),
    ])
}

/// The catalogue as JSON, served by `/v1/experiments`.
pub fn catalogue_json() -> Json {
    Json::Arr(
        NODES
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("id".into(), Json::str(n.id)),
                    ("title".into(), Json::str(n.title)),
                    ("what".into(), Json::str(n.what)),
                    ("legacy_bin".into(), Json::str(n.legacy_bin)),
                ])
            })
            .collect(),
    )
}

/// Per-node entry of a [`RunReport`].
pub struct NodeReport {
    /// The node's id.
    pub id: &'static str,
    /// Wall time of this node's render (or cache load), in seconds,
    /// including retries and backoff.
    pub wall_s: f64,
    /// Whether the render was served from the artifact cache.
    pub cache_hit: bool,
    /// The node's artifact cache key.
    pub key: u64,
    /// The rendered text (empty when the node failed).
    pub text: String,
    /// Execution attempts taken (1 = first try succeeded).
    pub attempts: u32,
    /// The last attempt's error when the node exhausted its retries;
    /// `None` on success.
    pub error: Option<String>,
}

impl NodeReport {
    /// Whether the node rendered successfully (possibly after retries).
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// What a plan execution produced: one entry per selected node, in
/// catalogue order, plus the run-wide knobs that shaped it.
pub struct RunReport {
    /// Whether the plan ran at the quick budget.
    pub quick: bool,
    /// Worker count the pool fanned nodes onto.
    pub workers: usize,
    /// Retry budget each node had (`attempts <= max_retries + 1`).
    pub max_retries: u32,
    /// Per-node results, in catalogue order.
    pub nodes: Vec<NodeReport>,
    /// Wall time of the library prewarm that runs before any node's
    /// clock starts, in seconds.
    pub prewarm_s: f64,
    /// Wall time of the whole plan (key checks, prewarm and nodes), in
    /// seconds.
    pub wall_s: f64,
    /// Fault/recovery counter deltas accumulated during this plan.
    pub faults: faults::FaultCounters,
}

impl RunReport {
    /// The nodes that exhausted their retries.
    pub fn failed(&self) -> impl Iterator<Item = &NodeReport> {
        self.nodes.iter().filter(|n| !n.ok())
    }
}

/// Default per-node retry budget for [`run_plan`] (the `bdc run`
/// `--max-retries` flag overrides it via [`run_plan_with_retries`]).
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// [`run_plan_with_retries`] at the default retry budget.
///
/// # Errors
/// See [`run_plan_with_retries`].
pub fn run_plan(ids: &[&str], quick: bool) -> Result<RunReport, String> {
    run_plan_with_retries(ids, quick, DEFAULT_MAX_RETRIES)
}

/// The panic payload as a printable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Resolves `ids` against the catalogue (deduplicated, catalogue order),
/// checks the selected nodes' cache keys are collision-free, prewarms
/// shared library dependencies, then fans the nodes onto the `bdc-exec`
/// pool.
///
/// Each node is guarded: a panicking or erroring render is retried up to
/// `max_retries` times with seeded backoff ([`faults::backoff_delay`]),
/// and a node that exhausts its budget becomes a `failed` row in the
/// report — it never aborts the other nodes. Plan-level `Err` is reserved
/// for configuration problems (unknown id, cache-key collision).
///
/// # Errors
/// An unknown experiment id, or a cache-key collision between selected
/// nodes (two nodes must never share a content address, or one would
/// silently serve the other's bytes).
pub fn run_plan_with_retries(
    ids: &[&str],
    quick: bool,
    max_retries: u32,
) -> Result<RunReport, String> {
    run_plan_with_overlay(ids, quick, max_retries, ParamOverlay::default())
}

/// [`run_plan_with_retries`] pinned to an explicit parameter point — the
/// per-point engine of `bdc sweep`. Nodes whose declared inputs are
/// untouched by the overlay keep their warm artifacts from earlier
/// points; only the invalidation cone recomputes.
///
/// # Errors
/// See [`run_plan_with_retries`].
pub fn run_plan_with_overlay(
    ids: &[&str],
    quick: bool,
    max_retries: u32,
    overlay: ParamOverlay,
) -> Result<RunReport, String> {
    for id in ids {
        if find(id).is_none() {
            return Err(format!("unknown experiment id `{id}` (try `bdc list`)"));
        }
    }
    let selected: Vec<&'static Node> = NODES.iter().filter(|n| ids.contains(&n.id)).collect();
    // Wall-clock feeds only the manifest's telemetry columns, never the
    // rendered (cached) bytes.
    // bdc-lint: allow(D002, plan wall_s and prewarm_s are run telemetry, not artifact bytes)
    let plan_t0 = Instant::now();

    let ctx = RunCtx::with_overlay(quick, overlay);

    // Cache-key collision gate: two selected nodes must never share a
    // content address, or one would silently serve the other's bytes.
    let mut keys: Vec<u64> = selected
        .iter()
        .map(|n| node_cache_key_with(n, ctx.quick, ctx.budget, &ctx.overlay))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != selected.len() {
        return Err("cache-key collision between registered nodes".into());
    }

    // Prewarm each library dependency once, in parallel, so independent
    // nodes don't all serialize behind the same characterization.
    let mut libs: Vec<Process> = Vec::new();
    for node in &selected {
        for Dep::Library(p) in node.deps {
            if !libs.contains(p) {
                libs.push(*p);
            }
        }
    }
    // Prewarm failures are not fatal: the dependent nodes re-surface the
    // same error as per-node `failed` rows, and independent nodes still
    // run to completion.
    // bdc-lint: allow(D002, prewarm_s is run telemetry, not artifact bytes)
    let prewarm_t0 = Instant::now();
    let _ = par_map(&libs, |p| ctx.kit(*p).map(|_| ()));
    let prewarm_s = prewarm_t0.elapsed().as_secs_f64();

    let before = faults::counters();
    let nodes = par_map(&selected, |node| {
        // Wall-clock feeds only the manifest's telemetry column, never the
        // rendered (cached) bytes.
        // bdc-lint: allow(D002, wall_s is run telemetry, not artifact bytes)
        let t0 = Instant::now();
        let site = format!("node-{}", node.id);
        let mut attempts: u32 = 0;
        let outcome = loop {
            // The guard catches both injected panics (`faults::maybe_panic`
            // re-rolls per attempt) and genuine ones from the render; the
            // kit `OnceLock` stays uninitialized if its builder panics, so
            // a retry re-runs it.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                faults::maybe_panic(&site, u64::from(attempts));
                run_node(node, &ctx)
            }));
            attempts += 1;
            let err = match caught {
                Ok(Ok(out)) => break Ok(out),
                Ok(Err(e)) => e,
                Err(payload) => {
                    faults::note_panic_contained();
                    format!("panic: {}", panic_message(payload.as_ref()))
                }
            };
            if attempts > max_retries {
                break Err(err);
            }
            faults::note_retry();
            std::thread::sleep(faults::backoff_delay(&site, u64::from(attempts)));
        };
        let wall_s = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(out) => NodeReport {
                id: out.id,
                wall_s,
                cache_hit: out.cache_hit,
                key: out.key,
                text: out.text,
                attempts,
                error: None,
            },
            Err(e) => NodeReport {
                id: node.id,
                wall_s,
                cache_hit: false,
                key: node_cache_key_with(node, ctx.quick, ctx.budget, &ctx.overlay),
                text: String::new(),
                attempts,
                error: Some(e),
            },
        }
    });
    Ok(RunReport {
        quick,
        workers: bdc_exec::workers(),
        max_retries,
        nodes,
        prewarm_s,
        wall_s: plan_t0.elapsed().as_secs_f64(),
        faults: faults::counters().since(&before),
    })
}

/// The survival-counter JSON object embedded in the run manifest (and
/// mirrored, from live counters, in `/v1/metrics`).
pub fn fault_counters_json(c: &faults::FaultCounters) -> Json {
    Json::Obj(vec![
        (
            "injected_corrupt".into(),
            Json::Int(c.injected_corrupt as i64),
        ),
        (
            "injected_panics".into(),
            Json::Int(c.injected_panics as i64),
        ),
        ("retries".into(), Json::Int(c.retries as i64)),
        (
            "panics_contained".into(),
            Json::Int(c.panics_contained as i64),
        ),
        ("quarantined".into(), Json::Int(c.quarantined as i64)),
        ("rebuilt".into(), Json::Int(c.rebuilt as i64)),
        ("peer_hits".into(), Json::Int(c.peer_hits as i64)),
        ("peer_misses".into(), Json::Int(c.peer_misses as i64)),
        ("peer_pushes".into(), Json::Int(c.peer_pushes as i64)),
        (
            "injected_disk_full".into(),
            Json::Int(c.injected_disk_full as i64),
        ),
        (
            "injected_partitions".into(),
            Json::Int(c.injected_partitions as i64),
        ),
        ("evicted".into(), Json::Int(c.evicted as i64)),
        (
            "quarantine_reaped".into(),
            Json::Int(c.quarantine_reaped as i64),
        ),
    ])
}

/// The run manifest the CLI writes to `results/run_manifest.json`.
pub fn manifest_json(report: &RunReport) -> Json {
    Json::Obj(vec![
        ("quick".into(), Json::Bool(report.quick)),
        ("workers".into(), Json::Int(report.workers as i64)),
        (
            "max_retries".into(),
            Json::Int(i64::from(report.max_retries)),
        ),
        (
            "nodes".into(),
            Json::Arr(
                report
                    .nodes
                    .iter()
                    .map(|n| {
                        let mut row = vec![
                            ("id".into(), Json::str(n.id)),
                            (
                                "status".into(),
                                Json::str(if n.ok() { "ok" } else { "failed" }),
                            ),
                            ("attempts".into(), Json::Int(i64::from(n.attempts))),
                            ("wall_s".into(), Json::Num(n.wall_s)),
                            (
                                "cache".into(),
                                Json::str(if n.cache_hit { "hit" } else { "miss" }),
                            ),
                            ("artifact_key".into(), Json::str(format!("{:016x}", n.key))),
                        ];
                        if let Some(e) = &n.error {
                            row.push(("error".into(), Json::str(e)));
                        }
                        Json::Obj(row)
                    })
                    .collect(),
            ),
        ),
        ("prewarm_s".into(), Json::Num(report.prewarm_s)),
        ("wall_s".into(), Json::Num(report.wall_s)),
        ("faults".into(), fault_counters_json(&report.faults)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_resolve_and_keys_are_distinct() {
        let quick = SimBudget::quick();
        let mut keys: Vec<u64> = NODES
            .iter()
            .map(|n| node_cache_key(n, true, quick))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), NODES.len());
        assert!(find("fig12").is_some());
        assert!(find("no-such-node").is_none());
    }

    #[test]
    fn overlay_rekeys_exactly_the_organic_dependent_nodes() {
        // A device-parameter change must invalidate a node iff one of its
        // declared library dependencies is in the overlay's cone: organic
        // (and both-lib) nodes re-key, dependency-free nodes keep their
        // warm artifact across sweep points.
        let budget = SimBudget::quick();
        let nominal = ParamOverlay::default();
        let shifted = ParamOverlay {
            organic_delta_vt: 0.25,
        };
        for node in NODES {
            let base = node_cache_key_with(node, true, budget, &nominal);
            let moved = node_cache_key_with(node, true, budget, &shifted);
            let organic_dep = node.deps.contains(&Dep::Library(Process::Organic));
            if organic_dep {
                assert_ne!(base, moved, "{} should re-key under a V_T shift", node.id);
            } else {
                assert_eq!(
                    base, moved,
                    "{} must stay warm across sweep points",
                    node.id
                );
            }
            // Nominal-point v2 keys match the public nominal helper.
            assert_eq!(base, node_cache_key(node, true, budget));
        }
    }

    #[test]
    fn unknown_id_is_reported_with_hint() {
        let err = run_one("fig99", true).unwrap_err();
        assert!(err.contains("fig99") && err.contains("bdc list"), "{err}");
    }

    #[test]
    fn fresh_runctx_observes_no_kits() {
        let ctx = RunCtx::new(true);
        assert!(ctx.observed_deps().is_empty());
    }

    #[test]
    fn audit_node_deps_matches_on_a_dependency_free_node() {
        // fig05 renders schematic listings: declared NO_DEPS and reads no
        // kit, so both sides of the audit must be empty.
        let (declared, observed) = audit_node_deps("fig05", true).expect("fig05 renders");
        assert!(declared.is_empty(), "{declared:?}");
        assert!(observed.is_empty(), "{observed:?}");
    }

    #[test]
    fn audit_node_deps_rejects_unknown_ids() {
        assert!(audit_node_deps("fig99", true).is_err());
    }

    #[test]
    fn fault_counters_json_carries_every_survival_counter() {
        // The manifest and /v1/metrics shapes are consumed by chaos_report
        // and the cluster aggregator — a silently dropped field would read
        // as "no peer traffic" fleet-wide.
        let rendered = fault_counters_json(&faults::FaultCounters::default()).encode();
        for field in [
            "injected_corrupt",
            "injected_panics",
            "retries",
            "panics_contained",
            "quarantined",
            "rebuilt",
            "peer_hits",
            "peer_misses",
            "peer_pushes",
            "injected_disk_full",
            "injected_partitions",
            "evicted",
            "quarantine_reaped",
        ] {
            assert!(rendered.contains(field), "missing {field} in {rendered}");
        }
    }
}
