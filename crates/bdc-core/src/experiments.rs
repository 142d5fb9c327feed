//! One driver per figure/table of the paper's evaluation.
//!
//! Every driver returns a structured result; the `bdc-bench` binaries print
//! them in the paper's layout. See DESIGN.md §4 for the experiment index.

use bdc_cells::{
    library::cell_summary, measure_inverter_dc, organic_inverter, organic_library_point, CellKind,
    DcSummary, LogicKind, OrganicStyle, ParamOverlay,
};
use bdc_circuit::CircuitError;
use bdc_device::{
    extract_metrics, fit_level1, fit_level61, transfer_curve, DeviceMetrics, Level61Model,
    TftParams, TransferPoint,
};
use bdc_synth::pipeline::PipelineResult;
use bdc_uarch::Workload;

use bdc_exec::par_map;

use crate::corespec::{CoreSpec, StageKind};
use crate::flow::{
    alu_cluster, measure_ipc_cached, performance, pipeline_alu_cached, split_chain,
    synthesize_core_cached, SynthesizedCore,
};
use crate::process::{Process, TechKit};

/// Simulation budget for IPC measurements.
#[derive(Debug, Clone, Copy)]
pub struct SimBudget {
    /// Outer-loop iterations handed to the workload builders.
    pub outer: u32,
    /// Retired-instruction cap per run.
    pub instructions: u64,
}

impl SimBudget {
    /// The budget used for the published numbers (~10⁵ instructions per
    /// configuration — SimPoint-like sampling of the kernels).
    pub fn full() -> Self {
        SimBudget {
            outer: 400,
            instructions: 120_000,
        }
    }

    /// A fast budget for tests.
    pub fn quick() -> Self {
        SimBudget {
            outer: 25,
            instructions: 12_000,
        }
    }

    /// The default non-quick budget the experiment catalogue runs at — the
    /// historical `bdc-bench` binary default, between [`SimBudget::quick`]
    /// and the published [`SimBudget::full`].
    pub fn standard() -> Self {
        SimBudget {
            outer: 150,
            instructions: 60_000,
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 3: device transfer characteristics
// ---------------------------------------------------------------------------

/// Figure 3: `I_D–V_GS` (and gate leakage) of the pentacene OTFT at
/// V_DS = −1 V and −10 V, plus the §4.1 scalar metrics.
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// Drain current vs V_GS at V_DS = −1 V.
    pub id_vds1: Vec<TransferPoint>,
    /// Drain current vs V_GS at V_DS = −10 V.
    pub id_vds10: Vec<TransferPoint>,
    /// Gate leakage vs V_GS.
    pub ig: Vec<(f64, f64)>,
    /// Extracted metrics (µ_lin, V_T, SS, on/off).
    pub metrics: DeviceMetrics,
}

/// Runs the Figure 3 sweep.
///
/// # Errors
/// Propagates metric-extraction failures (cannot happen for the nominal
/// device).
pub fn fig03_transfer() -> Result<Fig03, bdc_device::FitError> {
    let params = TftParams::pentacene();
    let model = Level61Model::new(params.clone());
    let id_vds1 = transfer_curve(&model, -1.0, 10.0, -10.0, 201);
    let id_vds10 = transfer_curve(&model, -10.0, 10.0, -10.0, 201);
    let ig = id_vds1
        .iter()
        .map(|p| (p.vgs, model.gate_leakage(p.vgs)))
        .collect();
    let metrics = extract_metrics(&id_vds1, -1.0, params.ci, params.aspect())?;
    Ok(Fig03 {
        id_vds1,
        id_vds10,
        ig,
        metrics,
    })
}

// ---------------------------------------------------------------------------
// Figure 4: level 1 vs level 61 fits
// ---------------------------------------------------------------------------

/// Figure 4: both SPICE models fitted to the measured transfer curve.
#[derive(Debug, Clone)]
pub struct Fig04 {
    /// The synthetic “measured” curve (level-61 nominal + SMU noise).
    pub measured: Vec<TransferPoint>,
    /// Level-1 fit RMS error (decades of current).
    pub level1_rms: f64,
    /// Level-61 fit RMS error (decades of current).
    pub level61_rms: f64,
    /// Level-1 fitted curve.
    pub level1_curve: Vec<TransferPoint>,
    /// Level-61 fitted curve.
    pub level61_curve: Vec<TransferPoint>,
}

/// Runs the Figure 4 fitting experiment at V_DS = −1 V.
///
/// # Errors
/// Propagates fitting failures.
pub fn fig04_model_fit(seed: u64) -> Result<Fig04, bdc_device::FitError> {
    let geometry = TftParams::pentacene();
    let measured = bdc_device::variation::synthetic_measured_curve(&geometry, -1.0, 161, seed);
    let (_, r1) = fit_level1(&measured, -1.0, &geometry)?;
    let (_, r61) = fit_level61(&measured, -1.0, &geometry)?;
    Ok(Fig04 {
        measured,
        level1_rms: r1.rms_log_error,
        level61_rms: r61.rms_log_error,
        level1_curve: r1.fitted,
        level61_curve: r61.fitted,
    })
}

// ---------------------------------------------------------------------------
// Figures 6/7: inverter DC comparisons
// ---------------------------------------------------------------------------

/// One row of the Fig 6(d)/7(d) DC tables.
#[derive(Debug, Clone)]
pub struct InverterRow {
    /// Row label (style or VDD).
    pub label: String,
    /// VDD (V).
    pub vdd: f64,
    /// VSS (V), 0 when unused.
    pub vss: f64,
    /// The DC summary.
    pub dc: DcSummary,
}

/// Figure 6: diode-load vs biased-load vs pseudo-E at VDD = 15 V.
///
/// # Errors
/// Propagates simulator failures.
pub fn fig06_inverters() -> Result<Vec<InverterRow>, CircuitError> {
    let (_, device, sizing) = organic_library_point();
    let cases = [
        ("diode-load", OrganicStyle::DiodeLoad, 15.0, 0.0),
        ("biased-load", OrganicStyle::BiasedLoad, 15.0, -5.0),
        ("pseudo-E", OrganicStyle::PseudoE, 15.0, -15.0),
    ];
    cases
        .into_iter()
        .map(|(label, style, vdd, vss)| {
            let gate = organic_inverter(device, style, sizing, vdd, vss);
            Ok(InverterRow {
                label: label.to_string(),
                vdd,
                vss,
                dc: measure_inverter_dc(&gate, 151)?,
            })
        })
        .collect()
}

/// Figure 7: the pseudo-E inverter at VDD = 5, 10, 15 V (VSS tuned per the
/// paper's table).
///
/// # Errors
/// Propagates simulator failures.
pub fn fig07_vdd_sweep() -> Result<Vec<InverterRow>, CircuitError> {
    let (_, device, sizing) = organic_library_point();
    [(5.0, -15.0), (10.0, -20.0), (15.0, -15.0)]
        .into_iter()
        .map(|(vdd, vss)| {
            let gate = organic_inverter(device, OrganicStyle::PseudoE, sizing, vdd, vss);
            Ok(InverterRow {
                label: format!("VDD={vdd}V"),
                vdd,
                vss,
                dc: measure_inverter_dc(&gate, 151)?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8: V_M vs V_SS
// ---------------------------------------------------------------------------

/// Figure 8: switching threshold vs V_SS with the linear regression.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// `(V_SS, V_M)` samples.
    pub points: Vec<(f64, f64)>,
    /// Regression slope (V_M per volt of V_SS).
    pub slope: f64,
    /// Regression intercept (V).
    pub intercept: f64,
}

/// Runs the V_SS sweep at VDD = 5 V.
///
/// # Errors
/// Propagates simulator failures.
pub fn fig08_vss_regression() -> Result<Fig08, CircuitError> {
    let (_, device, sizing) = organic_library_point();
    let mut points = Vec::new();
    for i in 0..6 {
        let vss = -10.0 - 2.0 * i as f64;
        let gate = organic_inverter(device, OrganicStyle::PseudoE, sizing, 5.0, vss);
        let dc = measure_inverter_dc(&gate, 121)?;
        points.push((vss, dc.vm));
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    Ok(Fig08 {
        points,
        slope,
        intercept,
    })
}

// ---------------------------------------------------------------------------
// §4.4 library summary table
// ---------------------------------------------------------------------------

/// Library summary rows: `(cell, area µm², input cap F, nominal delay s)`.
pub fn table_library(kit: &TechKit) -> Vec<(String, f64, f64, f64)> {
    cell_summary(&kit.lib)
}

/// The §5.5 mapping observation: whether each library prefers decomposing
/// its 3-input cells. Returns `(nand3_decomposed, nor3_decomposed)`.
pub fn table_mapping_preference(kit: &TechKit) -> (bool, bool) {
    (
        bdc_synth::map::prefers_decomposition(&kit.lib, CellKind::Nand3),
        bdc_synth::map::prefers_decomposition(&kit.lib, CellKind::Nor3),
    )
}

/// DC check rows comparing organic pseudo-E and silicon CMOS inverters at
/// their library operating points (used by the quickstart example).
///
/// # Errors
/// Propagates simulator failures.
pub fn table_inverter_dc() -> Result<(DcSummary, DcSummary), CircuitError> {
    let (tech, device, sizing) = organic_library_point();
    let org = organic_inverter(device, OrganicStyle::PseudoE, sizing, tech.vdd, tech.vss);
    let si = Process::Silicon
        .tech()
        .gate(LogicKind::Inv, &ParamOverlay::default());
    Ok((
        measure_inverter_dc(&org, 121)?,
        measure_inverter_dc(&si, 121)?,
    ))
}

// ---------------------------------------------------------------------------
// Figure 12: ALU pipeline depth
// ---------------------------------------------------------------------------

/// Figure 12: the complex ALU pipelined to each depth.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Stage counts swept.
    pub stages: Vec<usize>,
    /// Per-depth results (area, frequency, registers, …).
    pub results: Vec<PipelineResult>,
}

impl Fig12 {
    /// Frequencies normalized to the first depth.
    pub fn normalized_frequency(&self) -> Vec<f64> {
        let f0 = self.results[0].frequency;
        self.results.iter().map(|r| r.frequency / f0).collect()
    }

    /// Areas normalized to the first depth.
    pub fn normalized_area(&self) -> Vec<f64> {
        let a0 = self.results[0].area_um2;
        self.results.iter().map(|r| r.area_um2 / a0).collect()
    }
}

/// Sweeps the complex ALU over `stages` (the paper plots 1–30). Every
/// depth is an independent pipeline cut of the same block, so the sweep
/// fans out on the pool; each cut is memoized through the stage cache
/// (keyed by library and netlist fingerprints), so a sweep point whose
/// library did not move replays its cuts from disk.
pub fn fig12_alu_depth(kit: &TechKit, stages: &[usize]) -> Fig12 {
    let alu = alu_cluster();
    let results = par_map(stages, |&s| pipeline_alu_cached(kit, &alu, s));
    Fig12 {
        stages: stages.to_vec(),
        results,
    }
}

// ---------------------------------------------------------------------------
// Figure 11: core pipeline depth
// ---------------------------------------------------------------------------

/// One depth point of the Figure 11 experiment.
#[derive(Debug, Clone)]
pub struct CoreDepthPoint {
    /// Total pipeline stages.
    pub stages: usize,
    /// Which stage was split to reach this point (None for baseline).
    pub split: Option<StageKind>,
    /// Synthesis result.
    pub synth: SynthesizedCore,
    /// Per-workload `(ipc, performance)`.
    pub per_workload: Vec<(Workload, f64, f64)>,
}

/// Figure 11 for one process: deepen 9 → 15 by cutting the critical stage,
/// synthesize, and simulate every benchmark.
///
/// The spec chain is inherently serial (each split cuts the *previous*
/// point's critical stage), so it is built first with cached synthesis;
/// the expensive part — one OoO simulation per (depth, workload) — is then
/// a flat list of independent pure tasks fanned out on the pool.
pub fn fig11_core_depth(kit: &TechKit, budget: SimBudget) -> Vec<CoreDepthPoint> {
    let specs = split_chain(kit, 15);
    let synths: Vec<SynthesizedCore> = specs
        .iter()
        .map(|s| synthesize_core_cached(kit, s))
        .collect();
    let sims: Vec<(usize, Workload)> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| Workload::all().into_iter().map(move |w| (i, w)))
        .collect();
    let ipcs = par_map(&sims, |&(i, w)| {
        measure_ipc_cached(&specs[i], w, budget.outer, budget.instructions).ipc()
    });
    let n_workloads = Workload::all().len();
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| CoreDepthPoint {
            stages: s.total_stages(),
            split: s.splits.last().copied(),
            per_workload: sims[i * n_workloads..(i + 1) * n_workloads]
                .iter()
                .zip(&ipcs[i * n_workloads..(i + 1) * n_workloads])
                .map(|(&(_, w), &ipc)| (w, ipc, performance(ipc, synths[i].frequency)))
                .collect(),
            synth: synths[i].clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 13/14: superscalar width matrices
// ---------------------------------------------------------------------------

/// The width-matrix experiment: fe ∈ 1..=6 × be ∈ 3..=7.
#[derive(Debug, Clone)]
pub struct WidthMatrix {
    /// Front-end widths (columns).
    pub fe: Vec<usize>,
    /// Back-end pipe counts (rows).
    pub be: Vec<usize>,
    /// `perf[row][col]` — normalized performance per process:
    /// `[organic-or-single]`; see `fig13_width`.
    pub perf: Vec<Vec<f64>>,
    /// `area[row][col]` — normalized area.
    pub area: Vec<Vec<f64>>,
    /// `freq[row][col]` — absolute clock (Hz).
    pub freq: Vec<Vec<f64>>,
    /// `ipc[row][col]` — geometric-mean IPC (process-independent).
    pub ipc: Vec<Vec<f64>>,
}

impl WidthMatrix {
    /// The `(be, fe)` cell with the highest normalized performance.
    pub fn optimum(&self) -> (usize, usize) {
        let mut best = (self.be[0], self.fe[0]);
        let mut best_v = f64::MIN;
        for (r, &b) in self.be.iter().enumerate() {
            for (c, &f) in self.fe.iter().enumerate() {
                if self.perf[r][c] > best_v {
                    best_v = self.perf[r][c];
                    best = (b, f);
                }
            }
        }
        best
    }
}

/// Mean IPC across the benchmark suite for every width point
/// (process-independent, so it is computed once and shared).
///
/// Every `(be, fe, workload)` simulation is independent, so the whole
/// matrix is one flat fan-out; the geometric mean then folds each cell's
/// workloads in `Workload::all()` order, exactly as the serial loop did —
/// the result is bit-identical for any worker count.
pub fn width_ipc_matrix(fe: &[usize], be: &[usize], budget: SimBudget) -> Vec<Vec<f64>> {
    let all = Workload::all();
    let cells: Vec<(usize, usize)> = be
        .iter()
        .flat_map(|&b| fe.iter().map(move |&f| (f, b)))
        .collect();
    let sims: Vec<((usize, usize), Workload)> = cells
        .iter()
        .flat_map(|&cell| all.into_iter().map(move |w| (cell, w)))
        .collect();
    let ipcs = par_map(&sims, |&((f, b), w)| {
        let spec = CoreSpec::with_widths(f, b);
        measure_ipc_cached(&spec, w, budget.outer, budget.instructions).ipc()
    });
    let nw = all.len();
    let mut rows = Vec::with_capacity(be.len());
    for r in 0..be.len() {
        let mut row = Vec::with_capacity(fe.len());
        for c in 0..fe.len() {
            let cell = (r * fe.len() + c) * nw;
            let mut log_sum = 0.0;
            for ipc in &ipcs[cell..cell + nw] {
                log_sum += ipc.max(1e-6).ln();
            }
            row.push((log_sum / nw as f64).exp());
        }
        rows.push(row);
    }
    rows
}

/// Front-end widths of the Figs 13/14 grid (matrix columns).
pub const WIDTH_FE: [usize; 6] = [1, 2, 3, 4, 5, 6];
/// Back-end pipe counts of the Figs 13/14 grid (matrix rows).
pub const WIDTH_BE: [usize; 5] = [3, 4, 5, 6, 7];

/// Figures 13+14 for one process, given the shared IPC matrix.
pub fn fig13_14_width(kit: &TechKit, ipc: &[Vec<f64>]) -> WidthMatrix {
    let (freq, area) = width_freq_area(kit);
    let mut perf: Vec<Vec<f64>> = freq
        .iter()
        .zip(ipc)
        .map(|(f, i)| f.iter().zip(i).map(|(&f, &i)| performance(i, f)).collect())
        .collect();
    // Normalize to the maximum, like the paper's matrices.
    normalize_to_max(&mut perf);
    WidthMatrix {
        fe: WIDTH_FE.to_vec(),
        be: WIDTH_BE.to_vec(),
        perf,
        area,
        freq,
        ipc: ipc.to_vec(),
    }
}

/// Figure 14 for one process: normalized area over the width grid, rows
/// [`WIDTH_BE`], columns [`WIDTH_FE`]. Area needs no IPC.
pub fn fig14_width_area(kit: &TechKit) -> Vec<Vec<f64>> {
    width_freq_area(kit).1
}

/// Synthesizes the 30 width points: absolute clock (Hz) and area
/// normalized to its maximum, per `[be row][fe col]`.
fn width_freq_area(kit: &TechKit) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    // All 30 width configs synthesize independently (and hit the artifact
    // cache when warm).
    let cells: Vec<(usize, usize)> = WIDTH_BE
        .iter()
        .flat_map(|&b| WIDTH_FE.iter().map(move |&f| (f, b)))
        .collect();
    let synths = par_map(&cells, |&(f, b)| {
        synthesize_core_cached(kit, &CoreSpec::with_widths(f, b))
    });
    let rows = |value: fn(&SynthesizedCore) -> f64| -> Vec<Vec<f64>> {
        synths
            .chunks(WIDTH_FE.len())
            .map(|row| row.iter().map(value).collect())
            .collect()
    };
    let freq = rows(|s| s.frequency);
    let mut area = rows(|s| s.area_um2);
    normalize_to_max(&mut area);
    (freq, area)
}

fn normalize_to_max(m: &mut [Vec<f64>]) {
    let max = m.iter().flatten().copied().fold(f64::MIN, f64::max);
    for v in m.iter_mut().flatten() {
        *v /= max;
    }
}

// ---------------------------------------------------------------------------
// Figure 15: wire ablation
// ---------------------------------------------------------------------------

/// Figure 15: frequency vs stages with and without wire cost.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// Stage axis for the ALU sweep.
    pub alu_stages: Vec<usize>,
    /// `(with wire, without wire)` normalized ALU frequencies.
    pub alu: (Vec<f64>, Vec<f64>),
    /// Stage axis for the core sweep (9–15).
    pub core_stages: Vec<usize>,
    /// `(with wire, without wire)` normalized core frequencies.
    pub core: (Vec<f64>, Vec<f64>),
}

/// Runs the ablation for one process.
pub fn fig15_wire_ablation(kit: &TechKit, alu_stages: &[usize]) -> Fig15 {
    let ideal = kit.without_wires();
    let with = fig12_alu_depth(kit, alu_stages);
    let without = fig12_alu_depth(&ideal, alu_stages);

    let core_curve = |k: &TechKit| -> Vec<f64> {
        let freqs: Vec<f64> = split_chain(k, 15)
            .iter()
            .map(|spec| synthesize_core_cached(k, spec).frequency)
            .collect();
        let f0 = freqs[0];
        freqs.into_iter().map(|f| f / f0).collect()
    };
    Fig15 {
        alu_stages: alu_stages.to_vec(),
        alu: (with.normalized_frequency(), without.normalized_frequency()),
        core_stages: (9..=15).collect(),
        core: (core_curve(kit), core_curve(&ideal)),
    }
}

// ---------------------------------------------------------------------------
// §5.3 baseline frequencies
// ---------------------------------------------------------------------------

/// Baseline (9-stage, single-issue) clock per process.
pub fn table_baseline_frequency(kit: &TechKit) -> SynthesizedCore {
    synthesize_core_cached(kit, &CoreSpec::baseline())
}

/// Convenience for callers that only need the process pair label.
pub fn process_pair() -> [Process; 2] {
    Process::both()
}

/// The canonical experiment drivers this module exports — one name per
/// public driver that produces (part of) a figure or table. The registry
/// completeness test asserts every name here is claimed by exactly one
/// registered node. Helpers that are not figure/table drivers
/// ([`table_inverter_dc`], [`process_pair`]) are deliberately absent.
pub fn driver_names() -> &'static [&'static str] {
    &[
        "fig03_transfer",
        "fig04_model_fit",
        "fig06_inverters",
        "fig07_vdd_sweep",
        "fig08_vss_regression",
        "fig11_core_depth",
        "fig12_alu_depth",
        "width_ipc_matrix",
        "fig13_14_width",
        "fig14_width_area",
        "fig15_wire_ablation",
        "table_library",
        "table_mapping_preference",
        "table_baseline_frequency",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_reports_paper_metrics() {
        let f = fig03_transfer().expect("fig03");
        let mu = f.metrics.mu_lin * 1.0e4;
        assert!(mu > 0.05 && mu < 0.5, "µ_lin {mu}");
        assert!(f.metrics.on_off_ratio > 1.0e5);
        assert_eq!(f.id_vds1.len(), 201);
        // The V_DS = −10 V curve carries more current at strong V_GS.
        assert!(f.id_vds10.last().unwrap().id > f.id_vds1.last().unwrap().id);
    }

    #[test]
    fn fig04_level61_wins() {
        let f = fig04_model_fit(7).expect("fig04");
        assert!(
            f.level61_rms < 0.5 * f.level1_rms,
            "{} vs {}",
            f.level61_rms,
            f.level1_rms
        );
    }

    #[test]
    fn fig08_slope_is_positive_linear() {
        let f = fig08_vss_regression().expect("fig08");
        // V_M rises as V_SS rises toward zero (paper slope 0.22).
        assert!(f.slope > 0.02 && f.slope < 0.5, "slope {}", f.slope);
        // Good linearity: residuals small relative to range.
        for (vss, vm) in &f.points {
            let pred = f.intercept + f.slope * vss;
            assert!((pred - vm).abs() < 0.2, "vss {vss}: vm {vm} vs pred {pred}");
        }
    }

    #[test]
    fn fig12_synthetic_shapes() {
        let si = TechKit::synthetic(Process::Silicon);
        let org = TechKit::synthetic(Process::Organic);
        let stages = [1usize, 4, 8, 16, 22];
        let f_si = fig12_alu_depth(&si, &stages);
        let f_org = fig12_alu_depth(&org, &stages);
        let n_si = f_si.normalized_frequency();
        let n_org = f_org.normalized_frequency();
        // Both speed up; organic keeps more of its gain at depth.
        assert!(n_si[2] > 2.0 && n_org[2] > 2.0);
        assert!(n_org[4] / n_org[2] > n_si[4] / n_si[2]);
        // Area grows with depth for both.
        assert!(f_org.normalized_area()[4] > 1.1);
    }

    #[test]
    fn width_ipc_grows_with_width() {
        let budget = SimBudget::quick();
        let ipc = width_ipc_matrix(&[1, 2], &[3, 5], budget);
        assert!(ipc[1][1] > ipc[0][0], "{ipc:?}");
    }
}
