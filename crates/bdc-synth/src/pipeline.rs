//! Balanced pipeline cutting.
//!
//! Given a combinational block and a characterized library, [`pipeline_cut`]
//! slices the levelized DAG into `N` stages of roughly equal delay, inserts
//! pipeline registers on every boundary-crossing net, and reports the
//! resulting minimum clock period and area — the procedure behind the
//! ALU-depth experiment (Figure 12) and, applied per core stage, the
//! core-depth experiment (Figure 11).
//!
//! The clock period of an `N`-stage pipeline is
//!
//! ```text
//! T(N) = max_stage_logic(N) + (t_setup + t_clk→q) + t_skew + t_feedback(N)
//! ```
//!
//! where `t_feedback` is the repeated-wire delay of control/feedback nets
//! (stalls, flush, bypass) whose physical length grows with pipeline depth.
//! In silicon this term halts frequency scaling near 8 ALU stages; in the
//! organic process wires are so fast relative to gates that logic depth and
//! register overhead are the only limits — the paper's headline mechanism.

use bdc_cells::{CellKind, CellLibrary};

use crate::gate::Netlist;
use crate::sta::{analyze, StaConfig};

/// Pipelining knobs.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Number of stages (≥ 1).
    pub stages: usize,
    /// Clock skew/jitter margin as a fraction of the DFF clk→Q delay.
    pub skew_fraction: f64,
    /// Feedback-net length: base span in die sides.
    pub feedback_base: f64,
    /// Feedback-net length: additional die sides per pipeline stage.
    pub feedback_per_stage: f64,
    /// Long-wire drivers are upsized by this factor (reduces their
    /// effective resistance).
    pub driver_upsize: f64,
}

impl PipelineOptions {
    /// The flow's settings at `stages` stages, calibrated once against
    /// the paper's Figure 12/15 silicon shape.
    pub fn with_stages(stages: usize) -> Self {
        assert!(stages >= 1, "a pipeline needs at least one stage");
        PipelineOptions {
            stages,
            skew_fraction: 0.5,
            feedback_base: 0.5,
            feedback_per_stage: 0.6,
            driver_upsize: 8.0,
        }
    }
}

/// Result of cutting a block into stages.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Stage count.
    pub stages: usize,
    /// Minimum clock period (s).
    pub period: f64,
    /// Clock frequency (Hz).
    pub frequency: f64,
    /// Total area: combinational cells + all pipeline registers (µm²).
    pub area_um2: f64,
    /// Pipeline registers inserted (including input/output ranks).
    pub registers: usize,
    /// Per-stage worst logic delay (s).
    pub stage_logic: Vec<f64>,
    /// Sequential overhead charged per stage: setup + clk→Q + skew (s).
    pub seq_overhead: f64,
    /// Feedback/control wire overhead charged per stage (s).
    pub wire_overhead: f64,
}

/// Cuts a combinational netlist into `opts.stages` balanced stages.
///
/// # Panics
/// Panics if the netlist contains flops (pipeline the combinational core,
/// registers are inserted here) or `opts.stages == 0`.
pub fn pipeline_cut(
    netlist: &Netlist,
    lib: &CellLibrary,
    sta_cfg: &StaConfig,
    opts: &PipelineOptions,
) -> PipelineResult {
    assert!(
        netlist.flops().is_empty(),
        "pipeline_cut expects a combinational block"
    );
    assert!(opts.stages >= 1);
    let n = opts.stages;
    let sta = analyze(netlist, lib, sta_cfg);
    let total = sta.max_arrival.max(1e-30);
    let bucket = total / n as f64;

    // Assign each gate to a stage by the arrival time of its output.
    let stage_of_arrival = |t: f64| -> usize { ((t / bucket).ceil() as usize).clamp(1, n) - 1 };
    let mut stage_logic = vec![0.0f64; n];
    let mut net_stage: Vec<usize> = vec![0; netlist.net_count()];
    for (g, &d) in netlist.gates().iter().zip(&sta.gate_delay) {
        let t = sta.arrival[g.output];
        let s = stage_of_arrival(t);
        net_stage[g.output] = s;
        let t_lo = s as f64 * bucket;
        stage_logic[s] = stage_logic[s].max((t - t_lo).max(d));
    }

    // Count boundary-crossing registers: a net driven in stage s and read in
    // stage s' > s needs (s' − s) register bits.
    let mut registers = 0usize;
    let mut last_use = vec![0usize; netlist.net_count()];
    for g in netlist.gates() {
        let s = net_stage[g.output];
        for &i in &g.inputs {
            last_use[i] = last_use[i].max(s);
        }
    }
    for &o in netlist.outputs() {
        last_use[o] = last_use[o].max(n - 1);
    }
    for net in 0..netlist.net_count() {
        if last_use[net] > net_stage[net] {
            registers += last_use[net] - net_stage[net];
        }
    }
    // Input and output register ranks.
    registers += netlist.inputs().len() + netlist.outputs().len();

    let seq_overhead = lib.dff.setup + lib.dff.clk_to_q * (1.0 + opts.skew_fraction);
    let fb_len = sta_cfg.placement.crossing_length(
        &sta.placement,
        opts.feedback_base + opts.feedback_per_stage * n as f64,
    );
    let wire_overhead = lib
        .wire
        .delay(fb_len, lib.drive_resistance() / opts.driver_upsize);

    let worst_logic = stage_logic.iter().copied().fold(0.0, f64::max);
    let period = worst_logic + seq_overhead + wire_overhead;
    let dff_area = lib.cell(CellKind::Dff).area;
    let area_um2 = sta.area_um2 + registers as f64 * dff_area;
    PipelineResult {
        stages: n,
        period,
        frequency: 1.0 / period,
        area_um2,
        registers,
        stage_logic,
        seq_overhead,
        wire_overhead,
    }
}

/// Computes the per-gate stage assignment used by [`pipeline_cut`]:
/// `assignment[i]` is the stage of `netlist.gates()[i]`.
pub fn stage_assignment(
    netlist: &Netlist,
    lib: &CellLibrary,
    sta_cfg: &StaConfig,
    stages: usize,
) -> Vec<usize> {
    assert!(stages >= 1);
    let sta = analyze(netlist, lib, sta_cfg);
    let total = sta.max_arrival.max(1e-30);
    let bucket = total / stages as f64;
    netlist
        .gates()
        .iter()
        .map(|g| {
            let t = sta.arrival[g.output];
            ((t / bucket).ceil() as usize).clamp(1, stages) - 1
        })
        .collect()
}

/// Materializes the pipelined netlist: inserts real flip-flops on every
/// stage-boundary crossing so the result can be functionally verified
/// against the combinational original (outputs appear `stages − 1` cycles
/// later). Primary inputs are treated as stage-0 signals.
///
/// # Panics
/// Panics if `netlist` already contains flops.
pub fn insert_registers(
    netlist: &Netlist,
    lib: &CellLibrary,
    sta_cfg: &StaConfig,
    stages: usize,
) -> Netlist {
    assert!(
        netlist.flops().is_empty(),
        "insert_registers expects a combinational block"
    );
    let assignment = stage_assignment(netlist, lib, sta_cfg, stages);
    let mut out = Netlist::new(format!("{}_p{stages}", netlist.name));
    // For each source net, the version of it available at each stage:
    // versions[net][s] = the out-net carrying this signal in stage s.
    let mut base = vec![usize::MAX; netlist.net_count()];
    let mut net_stage = vec![0usize; netlist.net_count()];
    for &i in netlist.inputs() {
        base[i] = out.input(netlist.net_name(i).unwrap_or("in").to_string());
    }
    let (c0, c1) = netlist.constants();
    // Constants are re-created fresh per use stage? They are stage-less:
    // treat as available in every stage without registers.
    if let Some(c) = c0 {
        base[c] = out.const0();
    }
    if let Some(c) = c1 {
        base[c] = out.const1();
    }
    // Cache of delayed versions: (net, stage) -> out net.
    let mut delayed: std::collections::BTreeMap<(usize, usize), usize> = Default::default();
    let is_const = |n: usize| Some(n) == c0 || Some(n) == c1;
    for (g, &s) in netlist.gates().iter().zip(&assignment) {
        let ins: Vec<usize> = g
            .inputs
            .iter()
            .map(|&i| {
                if is_const(i) {
                    return base[i];
                }
                let from = net_stage[i];
                assert!(from <= s, "net used before it is produced");
                let mut cur = base[i];
                for step in from..s {
                    cur = *delayed
                        .entry((i, step + 1))
                        .or_insert_with(|| out.flop(cur));
                }
                cur
            })
            .collect();
        let o = out.gate(g.kind, &ins);
        base[g.output] = o;
        net_stage[g.output] = s;
    }
    let last = stages - 1;
    for &o in netlist.outputs() {
        // Delay every output to the final stage so all outputs align.
        let mut cur = base[o];
        if !is_const(o) {
            for step in net_stage[o]..last {
                cur = *delayed
                    .entry((o, step + 1))
                    .or_insert_with(|| out.flop(cur));
            }
        }
        out.output(cur, netlist.net_name(o).unwrap_or("out").to_string());
    }
    out
}

/// Sweeps stage counts, returning one result per entry of `stage_counts`.
pub fn depth_sweep(
    netlist: &Netlist,
    lib: &CellLibrary,
    sta_cfg: &StaConfig,
    stage_counts: &[usize],
    base: &PipelineOptions,
) -> Vec<PipelineResult> {
    stage_counts
        .iter()
        .map(|&s| {
            pipeline_cut(
                netlist,
                lib,
                sta_cfg,
                &PipelineOptions { stages: s, ..*base },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use bdc_cells::{CellLibrary, Process};

    fn si() -> CellLibrary {
        CellLibrary::synthetic(Process::Silicon, 15.0e-12)
    }

    fn org() -> CellLibrary {
        CellLibrary::synthetic(Process::Organic, 1.2e-4)
    }

    #[test]
    fn single_stage_matches_sta_plus_overhead() {
        let lib = si();
        let mult = blocks::array_multiplier(8);
        let cfg = StaConfig::default();
        let r = pipeline_cut(&mult, &lib, &cfg, &PipelineOptions::with_stages(1));
        let sta = analyze(&mult, &lib, &cfg);
        assert!(r.period >= sta.max_arrival + lib.dff.setup);
        assert_eq!(r.stage_logic.len(), 1);
    }

    #[test]
    fn deeper_pipelines_are_faster_until_overheads_dominate() {
        let lib = si();
        let mult = blocks::array_multiplier(16);
        let cfg = StaConfig::default();
        let base = PipelineOptions::with_stages(1);
        let sweep = depth_sweep(&mult, &lib, &cfg, &[1, 2, 4, 8], &base);
        assert!(sweep[1].frequency > 1.5 * sweep[0].frequency);
        assert!(sweep[2].frequency > sweep[1].frequency);
        // Monotone register growth.
        assert!(sweep[3].registers > sweep[2].registers);
        assert!(sweep[3].area_um2 > sweep[2].area_um2);
    }

    #[test]
    fn organic_scales_deeper_than_silicon() {
        // The Figure 12 mechanism in miniature: normalized frequency keeps
        // climbing for organic at depths where silicon has flattened.
        let cfg = StaConfig::default();
        let mult = blocks::array_multiplier(16);
        let base = PipelineOptions::with_stages(1);
        let depths = [1usize, 4, 8, 16, 24];
        let si_sweep = depth_sweep(&mult, &si(), &cfg, &depths, &base);
        let org_sweep = depth_sweep(&mult, &org(), &cfg, &depths, &base);
        let si_norm: Vec<f64> = si_sweep
            .iter()
            .map(|r| r.frequency / si_sweep[0].frequency)
            .collect();
        let org_norm: Vec<f64> = org_sweep
            .iter()
            .map(|r| r.frequency / org_sweep[0].frequency)
            .collect();
        // Organic gains more from 8 → 24 stages than silicon does. (This
        // 16-bit block is small — the effect is much stronger on the real
        // ALU cluster; the full calibrated comparison lives in bdc-core.)
        let si_gain = si_norm[4] / si_norm[2];
        let org_gain = org_norm[4] / org_norm[2];
        assert!(
            org_gain > si_gain * 1.05,
            "organic 8→24 gain {org_gain:.2} vs silicon {si_gain:.2}"
        );
    }

    #[test]
    fn register_count_grows_with_cut_count() {
        let lib = si();
        let add = blocks::ripple_adder(16);
        let cfg = StaConfig::default();
        let r2 = pipeline_cut(&add, &lib, &cfg, &PipelineOptions::with_stages(2));
        let r8 = pipeline_cut(&add, &lib, &cfg, &PipelineOptions::with_stages(8));
        assert!(r8.registers > r2.registers);
    }

    #[test]
    #[should_panic(expected = "combinational block")]
    fn rejects_sequential_input() {
        let lib = si();
        let mut n = Netlist::new("seq");
        let a = n.input("a");
        let q = n.flop(a);
        n.output(q, "q");
        let _ = pipeline_cut(
            &n,
            &lib,
            &StaConfig::default(),
            &PipelineOptions::with_stages(2),
        );
    }
}
