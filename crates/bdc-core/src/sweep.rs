//! Parameter sweeps over the experiment plan: grid parsing, per-point
//! overlays, and the incremental-recomputation engine behind `bdc sweep`.
//!
//! A sweep walks a one-dimensional parameter grid (today: the organic
//! threshold voltage, `organic.vt=start:end:count`) through the plan
//! scheduler. Each point runs at its own [`ParamOverlay`], so the
//! fine-grained stage cache (see [`crate::stage`]) recomputes exactly the
//! invalidation cone of the moved parameter — the organic cells, library,
//! synthesis and the experiments that declare the organic library — while
//! the silicon stages, IPC simulations and dependency-free experiments
//! stay warm from the first point onward.
//!
//! Two artifacts come out: a deterministic transcript
//! ([`render_transcript`], byte-identical for any worker count and any
//! warm/cold stage mix — the CI gate) and a telemetry manifest
//! ([`manifest_json`], wall times and stage reuse counters — explicitly
//! *outside* the byte-determinism contract, like the fault counters).
//!
//! **Resumability:** a re-run is the resume. Every stage a point finishes
//! is a crash-consistent artifact in the store, so after a crash —
//! including SIGKILL mid-grid — running the same sweep again serves those
//! stages as hits, recomputes only the ones the killed run never stored,
//! and prints the transcript an uninterrupted sweep would have printed.
//! The store holds nothing under `BDC_NO_CACHE` and drops what
//! `BDC_CACHE_BUDGET_MB` evicts, so those stages recompute.

use std::collections::BTreeMap;
use std::time::Instant;

use bdc_cells::organic_library_point;
use bdc_exec::json::Json;
use bdc_exec::{enter_scope, new_scope, par_map, scope_counters, StageCount};

use crate::registry::{self, RunReport};
use crate::stage::{stage_graph, ParamOverlay};

/// The swept knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// The organic device threshold voltage, as the *physical* (signed,
    /// p-type, negative) V_T in volts. The nominal pentacene point is
    /// `-1.3` V; the overlay stores the delta against that magnitude.
    OrganicVt,
}

impl SweepParam {
    /// The spec-file spelling (`organic.vt`).
    pub fn name(self) -> &'static str {
        match self {
            SweepParam::OrganicVt => "organic.vt",
        }
    }
}

/// A parsed `bdc sweep --param` specification: a linear grid of `count`
/// points from `start` to `end`, both inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Which parameter the grid moves.
    pub param: SweepParam,
    /// First grid value (physical units).
    pub start: f64,
    /// Last grid value (physical units).
    pub end: f64,
    /// Number of grid points (`>= 1`; `1` pins the grid at `start`).
    pub count: usize,
}

impl SweepSpec {
    /// Parses `name=start:end:count` (e.g. `organic.vt=-1.4:-0.6:21`).
    ///
    /// # Errors
    /// A human-readable message for an unknown parameter name, a
    /// malformed grid, a non-finite bound, or a zero count.
    pub fn parse(spec: &str) -> Result<SweepSpec, String> {
        let (name, grid) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad sweep spec `{spec}` (want name=start:end:count)"))?;
        let param = match name {
            "organic.vt" => SweepParam::OrganicVt,
            other => {
                return Err(format!(
                    "unknown sweep parameter `{other}` (try organic.vt)"
                ))
            }
        };
        let parts: Vec<&str> = grid.split(':').collect();
        let [start, end, count] = parts.as_slice() else {
            return Err(format!("bad sweep grid `{grid}` (want start:end:count)"));
        };
        let start: f64 = start
            .parse()
            .map_err(|_| format!("bad sweep start `{start}`"))?;
        let end: f64 = end.parse().map_err(|_| format!("bad sweep end `{end}`"))?;
        if !start.is_finite() || !end.is_finite() {
            return Err("sweep bounds must be finite".into());
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("bad sweep count `{count}`"))?;
        if count == 0 {
            return Err("sweep count must be at least 1".into());
        }
        Ok(SweepSpec {
            param,
            start,
            end,
            count,
        })
    }

    /// The grid values, endpoints inclusive; `count == 1` yields
    /// `[start]`.
    pub fn values(&self) -> Vec<f64> {
        if self.count == 1 {
            return vec![self.start];
        }
        (0..self.count)
            .map(|i| self.start + (self.end - self.start) * i as f64 / (self.count - 1) as f64)
            .collect()
    }

    /// The overlay pinning one grid value.
    pub fn overlay_for(&self, value: f64) -> ParamOverlay {
        match self.param {
            // `TftParams::vt0` is a magnitude (p-type convention); the
            // physical V_T is its negation, so a requested physical value
            // v maps to delta = (-v) - vt0 of the organic technology's
            // device. The nominal value round-trips to the default overlay
            // exactly.
            SweepParam::OrganicVt => ParamOverlay {
                organic_delta_vt: -value - organic_library_point().1.vt0,
            },
        }
    }
}

/// One executed grid point.
pub struct SweepPoint {
    /// Grid index (0-based).
    pub index: usize,
    /// The physical parameter value at this point.
    pub value: f64,
    /// The overlay the plan ran at.
    pub overlay: ParamOverlay,
    /// Wall time of this point's plan execution, in seconds (telemetry).
    /// Points past the first run concurrently, so these spans overlap.
    pub wall_s: f64,
    /// Per-stage `(hits, misses)` deltas attributable to this point.
    pub stages: BTreeMap<String, StageCount>,
    /// The plan report (node texts, in catalogue order).
    pub report: RunReport,
}

impl SweepPoint {
    /// Total stage-cache `(hits, misses)` for this point.
    pub fn totals(&self) -> (u64, u64) {
        self.stages
            .values()
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }
}

/// What one sweep produced: the spec, mode, and every executed point in
/// grid order.
pub struct SweepReport {
    /// The parsed grid.
    pub spec: SweepSpec,
    /// Whether the plan ran at the quick budget.
    pub quick: bool,
    /// End-to-end sweep wall time, in seconds (telemetry). Points past
    /// the first run concurrently, so the per-point `wall_s` values
    /// overlap and their sum exceeds this.
    pub elapsed_s: f64,
    /// Per-point results, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Runs `ids` (catalogue order, like `run_plan`) at every grid point of
/// `spec`, reusing every stage artifact whose inputs a point does not
/// move. The first point runs alone: it warms every overlay-independent
/// stage (silicon, IPC, dependency-free experiments) with full node
/// parallelism. The remaining points then fan out across the worker pool
/// — their miss cones are disjoint (each point's organic stages carry its
/// own overlay in their keys, and everything else is warm), so they
/// neither duplicate nor steal each other's work, and each runs inside
/// its own attribution scope so the manifest's per-point reuse stats stay
/// exact under concurrency.
///
/// # Errors
/// An unknown experiment id or a node cache-key collision (from the plan
/// scheduler), or a node failure at any point — a sweep with a failed
/// point must not pass for a complete grid.
pub fn run_sweep(spec: &SweepSpec, ids: &[&str], quick: bool) -> Result<SweepReport, String> {
    // Wall-clock feeds only the manifest's telemetry, never the
    // transcript bytes.
    // bdc-lint: allow(D002, elapsed_s is sweep telemetry, not artifact bytes)
    let t_sweep = Instant::now();
    let grid: Vec<(usize, f64)> = spec.values().into_iter().enumerate().collect();
    let mut points = Vec::with_capacity(grid.len());
    if let Some((&(index, value), rest)) = grid.split_first() {
        points.push(run_point(spec, ids, quick, index, value)?);
        for point in par_map(rest, |&(index, value)| {
            run_point(spec, ids, quick, index, value)
        }) {
            points.push(point?);
        }
    }
    Ok(SweepReport {
        spec: spec.clone(),
        quick,
        elapsed_s: t_sweep.elapsed().as_secs_f64(),
        points,
    })
}

/// Runs one grid point inside a fresh attribution scope and packages its
/// report with the stage tallies credited to it.
fn run_point(
    spec: &SweepSpec,
    ids: &[&str],
    quick: bool,
    index: usize,
    value: f64,
) -> Result<SweepPoint, String> {
    let overlay = spec.overlay_for(value);
    let scope = new_scope();
    let _in_scope = enter_scope(scope);
    // bdc-lint: allow(D002, wall_s is sweep telemetry, not artifact bytes)
    let t0 = Instant::now();
    let report =
        registry::run_plan_with_overlay(ids, quick, registry::DEFAULT_MAX_RETRIES, overlay)?;
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(failed) = report.failed().next() {
        return Err(format!(
            "sweep point {index} ({} = {value}): node {} failed: {}",
            spec.param.name(),
            failed.id,
            failed.error.as_deref().unwrap_or("unknown error")
        ));
    }
    Ok(SweepPoint {
        index,
        value,
        overlay,
        wall_s,
        stages: scope_counters(scope),
        report,
    })
}

/// The deterministic sweep output: every point's header plus its node
/// texts, in grid then catalogue order. Byte-identical across worker
/// counts and warm/cold cache states — this is what the CI sweep gate
/// diffs.
pub fn render_transcript(report: &SweepReport) -> String {
    let mut out = String::new();
    for point in &report.points {
        out.push_str(&format!(
            "==== sweep point {}: {} = {} ====\n",
            point.index,
            report.spec.param.name(),
            point.value
        ));
        for node in &point.report.nodes {
            out.push_str(&node.text);
        }
    }
    out
}

/// Distinct stage names sharing a content key, across every grid point —
/// must be zero, or one stage would silently serve another's bytes. The
/// same name repeating a key across points is fine (that is reuse).
pub fn stage_key_collisions(report: &SweepReport) -> usize {
    let mut by_key: BTreeMap<u64, String> = BTreeMap::new();
    let mut collisions = 0;
    for point in &report.points {
        for node in stage_graph(&point.overlay).nodes {
            match by_key.get(&node.key) {
                Some(existing) if *existing != node.name => collisions += 1,
                _ => {
                    by_key.insert(node.key, node.name);
                }
            }
        }
    }
    collisions
}

/// The sweep manifest the CLI writes to `results/sweep_manifest.json`:
/// telemetry only (wall times, stage reuse), plus the grid identity and
/// the cross-point stage-key collision count.
pub fn manifest_json(report: &SweepReport) -> Json {
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    let mut incr_hits = 0u64;
    let mut incr_misses = 0u64;
    let mut total_wall = 0.0;
    let points: Vec<Json> = report
        .points
        .iter()
        .map(|p| {
            let (hits, misses) = p.totals();
            total_hits += hits;
            total_misses += misses;
            if p.index > 0 {
                incr_hits += hits;
                incr_misses += misses;
            }
            total_wall += p.wall_s;
            Json::Obj(vec![
                ("index".into(), Json::Int(p.index as i64)),
                ("value".into(), Json::Num(p.value)),
                ("wall_s".into(), Json::Num(p.wall_s)),
                ("stage_hits".into(), Json::Int(hits as i64)),
                ("stage_misses".into(), Json::Int(misses as i64)),
                ("reuse_ratio".into(), Json::Num(ratio(hits, misses))),
                (
                    "nodes_ok".into(),
                    Json::Int(p.report.nodes.iter().filter(|n| n.ok()).count() as i64),
                ),
                (
                    "stages".into(),
                    Json::Obj(
                        p.stages
                            .iter()
                            .map(|(name, (h, m))| {
                                (
                                    name.clone(),
                                    Json::Obj(vec![
                                        ("hits".into(), Json::Int(*h as i64)),
                                        ("misses".into(), Json::Int(*m as i64)),
                                    ]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("param".into(), Json::str(report.spec.param.name())),
        ("start".into(), Json::Num(report.spec.start)),
        ("end".into(), Json::Num(report.spec.end)),
        ("count".into(), Json::Int(report.spec.count as i64)),
        ("quick".into(), Json::Bool(report.quick)),
        (
            "stage_key_collisions".into(),
            Json::Int(stage_key_collisions(report) as i64),
        ),
        ("points".into(), Json::Arr(points)),
        (
            "total".into(),
            Json::Obj(vec![
                ("elapsed_s".into(), Json::Num(report.elapsed_s)),
                ("wall_s".into(), Json::Num(total_wall)),
                ("stage_hits".into(), Json::Int(total_hits as i64)),
                ("stage_misses".into(), Json::Int(total_misses as i64)),
                (
                    "incremental_hit_rate".into(),
                    Json::Num(ratio(incr_hits, incr_misses)),
                ),
            ]),
        ),
    ])
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_grids_inclusively() {
        let spec = SweepSpec::parse("organic.vt=-1.4:-0.6:21").expect("valid spec");
        assert_eq!(spec.param, SweepParam::OrganicVt);
        assert_eq!(spec.count, 21);
        let values = spec.values();
        assert_eq!(values.len(), 21);
        assert_eq!(values[0], -1.4);
        assert_eq!(values[20], -0.6);
        assert!(values.windows(2).all(|w| w[0] < w[1]));

        let single = SweepSpec::parse("organic.vt=-1.3:-0.6:1").expect("count 1");
        assert_eq!(single.values(), vec![-1.3]);
    }

    #[test]
    fn malformed_specs_are_rejected_with_hints() {
        for (bad, hint) in [
            ("organic.vt", "name=start:end:count"),
            ("organic.mu=-1:0:3", "unknown sweep parameter"),
            ("organic.vt=-1:0", "start:end:count"),
            ("organic.vt=-1:0:3:4", "start:end:count"),
            ("organic.vt=x:0:3", "bad sweep start"),
            ("organic.vt=-1:y:3", "bad sweep end"),
            ("organic.vt=-1:0:z", "bad sweep count"),
            ("organic.vt=-1:0:0", "at least 1"),
            ("organic.vt=nan:0:3", "finite"),
        ] {
            let err = SweepSpec::parse(bad).expect_err(bad);
            assert!(err.contains(hint), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn nominal_value_maps_to_the_default_overlay() {
        let spec = SweepSpec::parse("organic.vt=-1.3:-0.6:8").unwrap();
        let nominal = spec.overlay_for(-organic_library_point().1.vt0);
        assert!(nominal.is_default(), "{nominal:?}");
        // A shallower (less negative) V_T is a *smaller* magnitude.
        let shallow = spec.overlay_for(-1.0);
        assert!(shallow.organic_delta_vt < 0.0, "{shallow:?}");
    }

    #[test]
    fn two_point_sweep_reuses_dependency_free_nodes() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("BDC_CACHE_DIR", &dir);
        // fig03 declares NO_DEPS: its artifact key is overlay-independent,
        // so the second grid point must serve it from the first's cache.
        let spec = SweepSpec::parse("organic.vt=-1.3:-1.2:2").unwrap();
        let report = run_sweep(&spec, &["fig03"], true).expect("sweep runs");
        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(report.points.len(), 2);
        let first = &report.points[0].stages;
        let second = &report.points[1].stages;
        assert_eq!(first.get("exp-fig03"), Some(&(0, 1)), "{first:?}");
        assert_eq!(second.get("exp-fig03"), Some(&(1, 0)), "{second:?}");
        // Same bytes at both points, and the transcript carries both.
        let texts: Vec<&str> = report
            .points
            .iter()
            .map(|p| p.report.nodes[0].text.as_str())
            .collect();
        assert_eq!(texts[0], texts[1]);
        let transcript = render_transcript(&report);
        assert!(transcript.starts_with("==== sweep point 0: organic.vt = -1.3 ====\n"));
        assert!(transcript.contains("==== sweep point 1: organic.vt = -1.2 ====\n"));

        assert_eq!(stage_key_collisions(&report), 0);
        let manifest = manifest_json(&report).encode();
        assert!(
            manifest.contains("\"stage_key_collisions\":0"),
            "{manifest}"
        );
        assert!(manifest.contains("\"param\":\"organic.vt\""), "{manifest}");
    }

    #[test]
    fn rerun_after_a_partial_sweep_recomputes_only_unfinished_work() {
        let _env = crate::testenv::cache_env_lock();
        let dir = std::env::temp_dir().join(format!("bdc-rerun-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // ext-parallel-array declares the organic library, so each new
        // grid point has a miss cone; fig03 is dependency-free.
        let ids = ["fig03", "ext-parallel-array"];
        let grid = SweepSpec::parse("organic.vt=-1.3:-1.2:2").unwrap();
        let misses = |report: &SweepReport| -> Vec<u64> {
            report.points.iter().map(|p| p.totals().1).collect()
        };

        // A sweep killed after point 0 leaves exactly that point's stages
        // in the store.
        std::env::set_var("BDC_CACHE_DIR", dir.join("a"));
        let head = SweepSpec::parse("organic.vt=-1.3:-1.3:1").unwrap();
        run_sweep(&head, &ids, true).expect("partial sweep runs");

        // Re-running the full grid recomputes only point 1.
        let rerun = run_sweep(&grid, &ids, true).expect("re-run sweeps");
        let rerun_misses = misses(&rerun);
        assert_eq!(rerun_misses[0], 0, "{rerun_misses:?}");
        assert!(rerun_misses[1] > 0, "{rerun_misses:?}");

        // Its transcript is the one a cold, uninterrupted sweep prints.
        std::env::set_var("BDC_CACHE_DIR", dir.join("b"));
        let cold = run_sweep(&grid, &ids, true).expect("cold sweep runs");
        assert_eq!(render_transcript(&rerun), render_transcript(&cold));

        // A further re-run of the finished grid recomputes nothing.
        std::env::set_var("BDC_CACHE_DIR", dir.join("a"));
        let warm = run_sweep(&grid, &ids, true).expect("warm re-run sweeps");
        assert_eq!(misses(&warm).iter().sum::<u64>(), 0);
        assert_eq!(render_transcript(&warm), render_transcript(&cold));

        std::env::remove_var("BDC_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
