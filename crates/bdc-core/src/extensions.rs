//! Extension experiments beyond the paper's evaluation — the §7 future-work
//! directions, built on the same substrates:
//!
//! * [`energy_depth`] — energy per instruction vs pipeline depth (the
//!   “energy optimization” axis). Ratioed organic logic is static-power
//!   dominated, so *finishing sooner saves energy*: deeper organic
//!   pipelines improve both performance and energy/instruction, unlike
//!   silicon where added registers raise switching energy.
//! * [`parallel_array`] — “the extensive use of parallelism to mitigate the
//!   performance challenges”: arrays of small organic cores vs one big one
//!   on throughput workloads.
//! * [`variation_tuning`] — the §4.1/§4.3.3 variation story quantified:
//!   Monte-Carlo V_T spread moves V_M; retuning V_SS with the Figure 8
//!   slope recentres it.

use bdc_cells::{
    characterize_gate, measure_inverter_dc, organic_inverter, organic_library_point,
    CharacterizeConfig, OrganicStyle, ParamOverlay,
};
use bdc_circuit::CircuitError;
use bdc_synth::power::{energy_per_instruction, estimate_power, PowerReport};
use bdc_uarch::Workload;

use crate::corespec::{stage_netlist, CoreSpec, StageKind};
use crate::experiments::SimBudget;
use crate::flow::{measure_ipc_cached, performance, split_chain, synthesize_core_cached};
use crate::process::TechKit;

/// Activity factor assumed for core logic.
pub const CORE_ACTIVITY: f64 = 0.15;

/// Power of a whole core design point: every stage netlist plus the
/// interface registers, at the synthesized clock.
pub fn core_power(kit: &TechKit, spec: &CoreSpec, frequency: f64) -> PowerReport {
    let mut static_w = 0.0;
    let mut dynamic_w = 0.0;
    for kind in StageKind::all() {
        let net = stage_netlist(kind, spec.fe_width, spec.be_pipes);
        let r = estimate_power(&net, &kit.lib, 0, frequency, CORE_ACTIVITY);
        static_w += r.static_w;
        dynamic_w += r.dynamic_w;
    }
    // Interface/retiming registers (same count the area model uses).
    let iface_bits = 60 + 48 * spec.fe_width.max(spec.be_pipes - 2);
    let regs = iface_bits * spec.total_stages();
    let dff = kit.lib.cell(bdc_cells::CellKind::Dff);
    static_w += regs as f64 * dff.leakage_w;
    dynamic_w += regs as f64 * dff.switching_energy * (0.5 + 0.5 * CORE_ACTIVITY) * frequency;
    PowerReport {
        static_w,
        dynamic_w,
        frequency,
        activity: CORE_ACTIVITY,
    }
}

/// One depth point of the energy extension.
#[derive(Debug, Clone)]
pub struct EnergyDepthPoint {
    /// Total pipeline stages.
    pub stages: usize,
    /// Clock (Hz).
    pub frequency: f64,
    /// Geometric-mean IPC across the suite.
    pub ipc: f64,
    /// Power breakdown.
    pub power: PowerReport,
    /// Energy per instruction (J).
    pub epi: f64,
}

/// Sweeps depth 9→15 (critical-stage cutting) and reports energy per
/// instruction at each point.
pub fn energy_depth(kit: &TechKit, budget: SimBudget) -> Vec<EnergyDepthPoint> {
    let mut out = Vec::new();
    for spec in split_chain(kit, 15) {
        let synth = synthesize_core_cached(kit, &spec);
        let mut log_ipc = 0.0;
        let suite = [Workload::Dhrystone, Workload::Gzip, Workload::Mcf];
        for w in suite {
            let stats = measure_ipc_cached(&spec, w, budget.outer, budget.instructions);
            log_ipc += stats.ipc().max(1e-6).ln();
        }
        let ipc = (log_ipc / suite.len() as f64).exp();
        let power = core_power(kit, &spec, synth.frequency);
        let epi = energy_per_instruction(&power, ipc);
        out.push(EnergyDepthPoint {
            stages: spec.total_stages(),
            frequency: synth.frequency,
            ipc,
            power,
            epi,
        });
    }
    out
}

/// One row of the parallel-array extension.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Cores in the array.
    pub cores: usize,
    /// Aggregate throughput (instructions/s).
    pub throughput: f64,
    /// Total area (µm²).
    pub area_um2: f64,
    /// Total power (W).
    pub power_w: f64,
    /// Throughput per watt.
    pub ops_per_joule: f64,
}

/// Evaluates arrays of 1..=`max_cores` baseline organic cores on an
/// embarrassingly parallel sensing workload (each core runs its own
/// stream), reporting aggregate throughput / area / power.
pub fn parallel_array(kit: &TechKit, max_cores: usize, budget: SimBudget) -> Vec<ParallelPoint> {
    let spec = CoreSpec::baseline();
    let synth = synthesize_core_cached(kit, &spec);
    let stats = measure_ipc_cached(&spec, Workload::Gzip, budget.outer, budget.instructions);
    let per_core = performance(stats.ipc(), synth.frequency);
    let power = core_power(kit, &spec, synth.frequency).total_w();
    (1..=max_cores)
        .map(|n| {
            let throughput = per_core * n as f64;
            let power_w = power * n as f64;
            ParallelPoint {
                cores: n,
                throughput,
                area_um2: synth.area_um2 * n as f64,
                power_w,
                ops_per_joule: throughput / power_w,
            }
        })
        .collect()
}

/// Synthesis summary of the scalar in-order core (the Myny-class machine):
/// five stages — fetch, decode, execute, mem, retire — with no rename,
/// window or multi-ported register file.
#[derive(Debug, Clone, Copy)]
pub struct SimpleCoreSynth {
    /// Clock (Hz).
    pub frequency: f64,
    /// Cell area (µm²).
    pub area_um2: f64,
    /// Total power at that clock (W).
    pub power_w: f64,
}

/// Synthesizes the five-stage scalar in-order core.
pub fn synthesize_simple_core(kit: &TechKit) -> SimpleCoreSynth {
    use bdc_synth::sta::analyze;
    let stages = [
        StageKind::Fetch,
        StageKind::Decode,
        StageKind::Execute,
        StageKind::Mem,
        StageKind::Retire,
    ];
    let mut worst = 0.0f64;
    let mut area = 0.0;
    let mut static_w = 0.0;
    let mut switch_j = 0.0;
    for kind in stages {
        let net = stage_netlist(kind, 1, 3);
        let r = analyze(&net, &kit.lib, &kit.sta);
        worst = worst.max(r.max_arrival);
        area += r.area_um2;
        let p = estimate_power(&net, &kit.lib, 0, 1.0, CORE_ACTIVITY);
        static_w += p.static_w;
        switch_j += p.dynamic_w; // at 1 Hz this is energy per second per Hz
    }
    let dff = kit.lib.cell(bdc_cells::CellKind::Dff);
    let regs = 60 * stages.len();
    area += regs as f64 * dff.area;
    static_w += regs as f64 * dff.leakage_w;
    switch_j += regs as f64 * dff.switching_energy * (0.5 + 0.5 * CORE_ACTIVITY);
    let seq = kit.lib.dff.setup + kit.lib.dff.clk_to_q * (1.0 + kit.pipe.skew_fraction);
    let placement = kit.sta.placement.place_area(area, 4000);
    let fb = kit.sta.placement.crossing_length(&placement, 1.0);
    let wire = kit
        .lib
        .wire
        .delay(fb, kit.lib.drive_resistance() / kit.pipe.driver_upsize);
    let period = worst + seq + wire;
    let frequency = 1.0 / period;
    SimpleCoreSynth {
        frequency,
        area_um2: area,
        power_w: static_w + switch_j * frequency,
    }
}

/// One row of the in-order-vs-OoO comparison.
#[derive(Debug, Clone)]
pub struct CoreStyleRow {
    /// Label ("OoO baseline" / "in-order").
    pub label: String,
    /// Single-core throughput (instructions/s).
    pub throughput: f64,
    /// Core area (µm²).
    pub area_um2: f64,
    /// Core power (W).
    pub power_w: f64,
    /// Cores that fit in the OoO core's area budget.
    pub cores_per_budget: f64,
    /// Aggregate throughput at iso-area (instructions/s).
    pub iso_area_throughput: f64,
}

/// The §7 parallelism question, sharpened: for an embarrassingly parallel
/// workload on a fixed panel budget, do many simple in-order organic cores
/// beat one out-of-order core?
pub fn inorder_vs_ooo(kit: &TechKit, budget: SimBudget) -> Vec<CoreStyleRow> {
    use bdc_uarch::{build_workload, InOrderConfig, InOrderCore};
    let w = Workload::Gzip;
    // OoO baseline.
    let spec = CoreSpec::baseline();
    let synth = synthesize_core_cached(kit, &spec);
    let ooo_stats = measure_ipc_cached(&spec, w, budget.outer, budget.instructions);
    let ooo_perf = performance(ooo_stats.ipc(), synth.frequency);
    let ooo_power = core_power(kit, &spec, synth.frequency).total_w();

    // In-order core: slower clock path is shorter (5 stages), IPC lower.
    let simple = synthesize_simple_core(kit);
    let program = build_workload(w, budget.outer);
    let mut io = InOrderCore::new(&program, InOrderConfig::default(), w.memory_words());
    let io_stats = io.run(budget.instructions);
    let io_perf = performance(io_stats.ipc(), simple.frequency);

    let ratio = synth.area_um2 / simple.area_um2;
    vec![
        CoreStyleRow {
            label: "OoO baseline".into(),
            throughput: ooo_perf,
            area_um2: synth.area_um2,
            power_w: ooo_power,
            cores_per_budget: 1.0,
            iso_area_throughput: ooo_perf,
        },
        CoreStyleRow {
            label: "scalar in-order".into(),
            throughput: io_perf,
            area_um2: simple.area_um2,
            power_w: simple.power_w,
            cores_per_budget: ratio,
            iso_area_throughput: io_perf * ratio,
        },
    ]
}

/// One life-stage point of the degradation study.
#[derive(Debug, Clone, Copy)]
pub struct DegradationPoint {
    /// Mission-life fraction (0 = fresh, 1 = end of mission).
    pub life: f64,
    /// FO4-like inverter delay at this life stage (s).
    pub delay: f64,
    /// Peak VTC gain.
    pub gain: f64,
    /// Maximum-equal-criterion noise margin (V).
    pub nm_mec: f64,
    /// Whether the cell is still regenerative (gain > 1 with nonzero NM).
    pub functional: bool,
}

/// The *transient electronics* question the paper's intro poses: a
/// biodegradable circuit must work over a prescribed mission window while
/// its devices decay. This sweep ages the pseudo-E inverter across its
/// life and reports delay/gain/noise-margin — from which a designer reads
/// the end-of-life clock guardband and the functional-failure point.
///
/// # Errors
/// Propagates simulator failures.
pub fn degradation_sweep(lives: &[f64]) -> Result<Vec<DegradationPoint>, CircuitError> {
    let (tech, device, sizing) = organic_library_point();
    let mut out = Vec::with_capacity(lives.len());
    for &life in lives {
        let gate = organic_inverter(
            &device.aged(life),
            OrganicStyle::PseudoE,
            sizing,
            tech.vdd,
            tech.vss,
        );
        let dc = measure_inverter_dc(&gate, 81)?;
        let cfg = CharacterizeConfig {
            slews: vec![60.0e-6],
            loads: vec![4.0 * gate.input_cap],
            ..tech.characterize.clone()
        };
        let delay = match characterize_gate(&gate, &cfg) {
            Ok(t) => t.delay_worst().lookup(60.0e-6, 4.0 * gate.input_cap),
            Err(CircuitError::NoConvergence { .. }) => f64::INFINITY,
            Err(e) => return Err(e),
        };
        out.push(DegradationPoint {
            life,
            delay,
            gain: dc.max_gain,
            nm_mec: dc.nm_mec,
            functional: dc.max_gain > 1.0 && dc.nm_mec > 0.05 && delay.is_finite(),
        });
    }
    Ok(out)
}

/// The end-of-life clock guardband: `delay(worst functional life) /
/// delay(fresh)` — how much slower a mission-long design must clock.
pub fn degradation_guardband(points: &[DegradationPoint]) -> f64 {
    let fresh = points.first().map(|p| p.delay).unwrap_or(f64::NAN);
    points
        .iter()
        .filter(|p| p.functional)
        .map(|p| p.delay)
        .fold(fresh, f64::max)
        / fresh
}

/// Result of the variation/compensation study.
#[derive(Debug, Clone)]
pub struct VariationStudy {
    /// Sampled `(ΔV_T, V_M)` pairs before compensation.
    pub raw: Vec<(f64, f64)>,
    /// V_M standard deviation before compensation (V).
    pub sigma_before: f64,
    /// V_M standard deviation after per-sample V_SS retuning (V).
    pub sigma_after: f64,
    /// The V_M-vs-V_SS slope used for compensation.
    pub slope: f64,
}

/// Monte-Carlo V_T spread → V_M spread → V_SS compensation.
///
/// Samples `n` inverters with the paper's "within 0.5 V" spread, measures
/// each V_M, then retunes each sample's V_SS using the Figure 8 linear
/// relationship and re-measures.
///
/// # Errors
/// Propagates simulator failures.
pub fn variation_tuning(n: usize, seed: u64) -> Result<VariationStudy, CircuitError> {
    let (tech, device, sizing) = organic_library_point();
    let (vdd, vss0) = (tech.vdd, tech.vss);
    // Measure the compensation slope once (nominal device).
    let fig08 = crate::experiments::fig08_vss_regression()?;
    let slope = fig08.slope;
    let target = vdd / 2.0;

    // Simple deterministic normal sampler (Box-Muller over an LCG).
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next_unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0)
    };
    let sigma_vt = 0.5 / 3.0;

    // Draw every ΔV_T serially first (the LCG stream is sequential), then
    // fan the expensive DC measurements out on the pool — each sample is a
    // pure function of its ΔV_T, so the result is order-independent and
    // bit-identical to the serial loop.
    let dvts: Vec<f64> = (0..n)
        .map(|_| {
            let u1 = next_unit();
            let u2 = next_unit();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            sigma_vt * z
        })
        .collect();
    let measured: Vec<Result<(f64, f64), CircuitError>> = bdc_exec::par_map(&dvts, |&dvt| {
        let shifted = ParamOverlay {
            organic_delta_vt: dvt,
        }
        .apply(device);
        let gate = organic_inverter(&shifted, OrganicStyle::PseudoE, sizing, vdd, vss0);
        let vm = measure_inverter_dc(&gate, 61)?.vm;
        // Retune V_SS to pull V_M back to VDD/2 using the linear law.
        let vss_new = (vss0 + (target - vm) / slope).clamp(-25.0, -8.0);
        let gate2 = organic_inverter(&shifted, OrganicStyle::PseudoE, sizing, vdd, vss_new);
        Ok((vm, measure_inverter_dc(&gate2, 61)?.vm))
    });
    let mut raw = Vec::with_capacity(n);
    let mut tuned = Vec::with_capacity(n);
    for (dvt, r) in dvts.iter().zip(measured) {
        let (vm, vm_tuned) = r?;
        raw.push((*dvt, vm));
        tuned.push(vm_tuned);
    }
    let sigma = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() as f64 - 1.0)).sqrt()
    };
    let before: Vec<f64> = raw.iter().map(|r| r.1).collect();
    Ok(VariationStudy {
        sigma_before: sigma(&before),
        sigma_after: sigma(&tuned),
        raw,
        slope,
    })
}

/// The canonical extension drivers this module exports (see
/// [`crate::experiments::driver_names`] for the contract). Internal
/// building blocks ([`core_power`], [`synthesize_simple_core`]) are
/// deliberately absent.
pub fn driver_names() -> &'static [&'static str] {
    &[
        "energy_depth",
        "parallel_array",
        "inorder_vs_ooo",
        "degradation_sweep",
        "degradation_guardband",
        "variation_tuning",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Process;

    #[test]
    fn core_power_is_positive_and_static_dominates_organic() {
        let kit = TechKit::synthetic(Process::Organic);
        let spec = CoreSpec::baseline();
        let p = core_power(&kit, &spec, 10.0);
        assert!(p.total_w() > 0.0);
        assert!(
            p.static_fraction() > 0.8,
            "organic static fraction {}",
            p.static_fraction()
        );
        let si = TechKit::synthetic(Process::Silicon);
        let p_si = core_power(&si, &spec, 1.0e9);
        assert!(
            p_si.static_fraction() < 0.6,
            "silicon static fraction {}",
            p_si.static_fraction()
        );
    }

    #[test]
    fn parallel_array_scales_linearly() {
        let kit = TechKit::synthetic(Process::Organic);
        let pts = parallel_array(&kit, 4, SimBudget::quick());
        assert_eq!(pts.len(), 4);
        assert!((pts[3].throughput / pts[0].throughput - 4.0).abs() < 1e-9);
        // Perf/W is constant for an ideal array.
        assert!((pts[3].ops_per_joule / pts[0].ops_per_joule - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inorder_array_wins_iso_area_on_organic() {
        let kit = TechKit::synthetic(Process::Organic);
        let rows = inorder_vs_ooo(&kit, SimBudget::quick());
        assert_eq!(rows.len(), 2);
        // The simple core is much smaller...
        assert!(rows[1].area_um2 < 0.6 * rows[0].area_um2);
        // ...and wins aggregate throughput at iso-area.
        assert!(rows[1].iso_area_throughput > rows[0].iso_area_throughput);
        // But loses single-stream.
        assert!(rows[1].throughput < rows[0].throughput * 1.5);
    }

    #[test]
    fn degradation_slows_and_eventually_breaks_the_cell() {
        let pts = degradation_sweep(&[0.0, 0.5, 1.0]).expect("sweep");
        assert!(pts[0].functional, "fresh cell must work");
        assert!(pts[1].delay > pts[0].delay, "aging must slow the cell");
        assert!(pts[1].gain <= pts[0].gain + 0.2);
        let gb = degradation_guardband(&pts);
        assert!(gb >= 1.2, "guardband {gb:.2} should be significant");
    }

    #[test]
    fn variation_compensation_shrinks_vm_spread() {
        let study = variation_tuning(10, 42).expect("monte carlo");
        assert_eq!(study.raw.len(), 10);
        assert!(
            study.sigma_before > 0.01,
            "spread before {}",
            study.sigma_before
        );
        assert!(
            study.sigma_after < 0.6 * study.sigma_before,
            "compensation: {} -> {}",
            study.sigma_before,
            study.sigma_after
        );
    }
}
