//! Cell characterization: DC analysis and NLDM extraction.
//!
//! [`measure_inverter_dc`] reproduces the paper's §4.3 DC methodology
//! (VTC sweep → V_M, gain, noise margins, static power). [`characterize_gate`]
//! is the SiliconSmart stand-in of §4.4: it runs a transient simulation for
//! every (input slew × output load) grid point and tabulates propagation
//! delay and output slew into [`NldmTable`]s.

use bdc_circuit::measure::slew_time;
use bdc_circuit::{
    crossing_time, dc_sweep, BatchLane, BatchTranSolver, CircuitError, DcSolver, Operating,
    TranSolver, VtcCurve, Waveform,
};
use bdc_exec::{batch_lanes, par_map};

use crate::nldm::NldmTable;
use crate::topology::GateCircuit;
use crate::tracker::CrossTracker;

/// DC summary of an inverter-like cell, mirroring Fig 6(d)/7(d).
#[derive(Debug, Clone)]
pub struct DcSummary {
    /// The measured VTC.
    pub vtc: VtcCurve,
    /// Switching threshold V_M (V).
    pub vm: f64,
    /// Peak |gain|.
    pub max_gain: f64,
    /// High noise margin (unity-gain criterion), V.
    pub nmh: f64,
    /// Low noise margin (unity-gain criterion), V.
    pub nml: f64,
    /// Maximum-equal-criterion margin, V.
    pub nm_mec: f64,
    /// Static power with input low (W).
    pub static_power_in_low: f64,
    /// Static power with input high (W).
    pub static_power_in_high: f64,
    /// Supply-current trace `(vin, |i_vdd| + |i_vss|)` for Fig 6(c)/7(c).
    pub supply_current: Vec<(f64, f64)>,
}

/// Sweeps the first input of `gate` across the full rail and extracts the
/// §4.3 DC metrics.
///
/// # Errors
/// Propagates DC solver failures.
pub fn measure_inverter_dc(gate: &GateCircuit, points: usize) -> Result<DcSummary, CircuitError> {
    let src = gate.inputs[0].1;
    let sweep = dc_sweep(&gate.circuit, src, 0.0, gate.vdd, points)?;
    let vtc = VtcCurve::new(
        sweep
            .iter()
            .map(|p| (p.input, p.op.voltage(gate.output)))
            .collect(),
    );
    let summary = vtc.summarize();

    let supply_current: Vec<(f64, f64)> = sweep
        .iter()
        .map(|p| {
            let mut i = p.op.source_current(gate.vdd_src).abs();
            if let Some(vss) = gate.vss_src {
                i = i.max(p.op.source_current(vss).abs());
            }
            (p.input, i)
        })
        .collect();

    let power_at = |vin: f64| -> Result<f64, CircuitError> {
        let mut c = gate.circuit.clone();
        c.set_vsource(src, vin);
        let op = DcSolver::new().solve(&c)?;
        let mut p = gate.vdd * op.source_current(gate.vdd_src).abs();
        if let Some(vss) = gate.vss_src {
            p += gate.vss.abs() * op.source_current(vss).abs();
        }
        Ok(p)
    };
    Ok(DcSummary {
        vm: summary.vm,
        max_gain: summary.max_gain,
        nmh: summary.margins.nmh,
        nml: summary.margins.nml,
        nm_mec: vtc.noise_margin_mec(),
        static_power_in_low: power_at(0.0)?,
        static_power_in_high: power_at(gate.vdd)?,
        supply_current,
        vtc,
    })
}

/// Measures a cell's average static power (W): DC-solves every input
/// pattern and averages total supply power (the paper's Fig 6d/7d rows
/// report the input-low / input-high extremes of the same quantity).
///
/// # Errors
/// Propagates DC solver failures.
pub fn measure_static_power(gate: &GateCircuit) -> Result<f64, CircuitError> {
    let n = gate.inputs.len();
    let mut total = 0.0;
    let patterns = 1usize << n;
    for pat in 0..patterns {
        let mut c = gate.circuit.clone();
        for (k, (_, src)) in gate.inputs.iter().enumerate() {
            let hi = pat & (1 << k) != 0;
            c.set_vsource(*src, gate.rail(hi));
        }
        let op = DcSolver::new().solve(&c)?;
        let mut p = gate.vdd * op.source_current(gate.vdd_src).abs();
        if let Some(vss) = gate.vss_src {
            p += gate.vss.abs() * op.source_current(vss).abs();
        }
        total += p;
    }
    Ok(total / patterns as f64)
}

/// Grid and timing-resolution settings for NLDM characterization.
#[derive(Debug, Clone)]
pub struct CharacterizeConfig {
    /// Input slew axis: full-swing ramp durations (s).
    pub slews: Vec<f64>,
    /// Output load axis (F).
    pub loads: Vec<f64>,
    /// Expected settling time after the input edge (s); the transient runs
    /// for `slew + settle` and retries once with 4× if the output has not
    /// crossed mid-rail.
    pub settle: f64,
    /// Transient steps per run.
    pub steps: usize,
}

impl CharacterizeConfig {
    /// Grid tuned for the pentacene process (delays of tens of µs to ms).
    pub fn organic() -> Self {
        CharacterizeConfig {
            slews: vec![20.0e-6, 60.0e-6, 200.0e-6, 600.0e-6],
            // The top point covers the worst buffered-net load the core
            // netlists present (max_fanout pins plus wire, ~8 nF).
            loads: vec![60.0e-12, 200.0e-12, 600.0e-12, 2.0e-9, 10.0e-9],
            settle: 4.0e-3,
            steps: 900,
        }
    }

    /// Grid tuned for the 45 nm silicon process (delays of ps to ns).
    pub fn silicon() -> Self {
        CharacterizeConfig {
            slews: vec![4.0e-12, 16.0e-12, 60.0e-12, 250.0e-12],
            // The top point covers the worst buffered-net load the core
            // netlists present (max_fanout pins plus wire, ~31 fF).
            loads: vec![0.3e-15, 1.2e-15, 5.0e-15, 20.0e-15, 50.0e-15],
            settle: 1.5e-9,
            steps: 900,
        }
    }
}

/// NLDM characterization result for one cell.
#[derive(Debug, Clone)]
pub struct GateTiming {
    /// Delay for output-rising transitions (s).
    pub delay_rise: NldmTable,
    /// Delay for output-falling transitions (s).
    pub delay_fall: NldmTable,
    /// Output slew (full-swing equivalent, s), worst of rise/fall.
    pub out_slew: NldmTable,
}

impl GateTiming {
    /// Worst-case delay table (entry-wise max of rise and fall).
    pub fn delay_worst(&self) -> NldmTable {
        self.delay_rise.max_with(&self.delay_fall)
    }
}

/// Characterizes one gate over the config grid.
///
/// The first input switches; all other inputs are held at the configured
/// side level. For each grid point two transients run (input rise → output
/// fall, input fall → output rise for inverting cells).
///
/// With [`bdc_exec::batch_lanes`] `> 1` the grid points run through the
/// lockstep SoA kernel ([`BatchTranSolver`]), packing one slew row's loads
/// per batch; the scalar per-point path remains the reference
/// implementation (`BDC_BATCH_LANES=1`) and both produce
/// bit-identical tables.
///
/// # Errors
/// Propagates simulator failures, and reports
/// [`CircuitError::NoConvergence`] if an output never crosses mid-rail even
/// after the retry (usually a broken topology).
pub fn characterize_gate(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
) -> Result<GateTiming, CircuitError> {
    let lanes = batch_lanes();
    if lanes <= 1 {
        characterize_gate_scalar(gate, cfg)
    } else {
        characterize_gate_batched(gate, cfg, lanes)
    }
}

/// The scalar reference path: one transient per (slew, load, direction).
fn characterize_gate_scalar(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
) -> Result<GateTiming, CircuitError> {
    let ns = cfg.slews.len();
    let nl = cfg.loads.len();
    let mut rise = vec![vec![0.0; nl]; ns];
    let mut fall = vec![vec![0.0; nl]; ns];
    let mut slew_out = vec![vec![0.0; nl]; ns];
    // The load capacitor is open in DC and adds no nodes, and the input
    // ramp starts from its rail regardless of the settle window, so the
    // operating point depends only on the edge direction — solve it once
    // per direction and reuse it across every grid point and retry.
    let op_in_rising = initial_op(gate, true)?;
    let op_in_falling = initial_op(gate, false)?;
    // Every (slew × load) grid point is an independent pair of transients:
    // fan them out on the pool. Results land in index order, so the tables
    // are bit-identical to the serial loop.
    let grid: Vec<(usize, usize)> = (0..ns).flat_map(|i| (0..nl).map(move |j| (i, j))).collect();
    let measured = par_map(&grid, |&(i, j)| {
        let (sl, ld) = (cfg.slews[i], cfg.loads[j]);
        let f = edge(gate, cfg, sl, ld, true, &op_in_rising)?;
        let r = edge(gate, cfg, sl, ld, false, &op_in_falling)?;
        Ok((f, r))
    });
    for (&(i, j), m) in grid.iter().zip(measured) {
        let ((d_fall, s_fall), (d_rise, s_rise)) = m?;
        rise[i][j] = d_rise;
        fall[i][j] = d_fall;
        slew_out[i][j] = s_rise.max(s_fall);
    }
    assemble_tables(cfg, rise, fall, slew_out)
}

/// One batched transient: a single edge direction and slew, with a chunk of
/// the load axis as lanes.
struct Pack {
    input_rising: bool,
    slew_idx: usize,
    load_start: usize,
    len: usize,
}

/// The batched path: packs the grid into lockstep batches. Lanes within a
/// pack share the edge direction and input slew (hence waveform, time axis,
/// and DC operating point) and differ only in the load capacitor, so the
/// batch is structurally uniform as the SoA kernel requires.
fn characterize_gate_batched(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
    lanes: usize,
) -> Result<GateTiming, CircuitError> {
    let ns = cfg.slews.len();
    let nl = cfg.loads.len();
    let op_in_rising = initial_op(gate, true)?;
    let op_in_falling = initial_op(gate, false)?;
    let mut packs: Vec<Pack> = Vec::new();
    for input_rising in [true, false] {
        for slew_idx in 0..ns {
            let mut load_start = 0;
            while load_start < nl {
                let len = lanes.min(nl - load_start);
                packs.push(Pack {
                    input_rising,
                    slew_idx,
                    load_start,
                    len,
                });
                load_start += len;
            }
        }
    }
    // Packs are independent; fan them out on the pool (index-ordered, so
    // still deterministic for any worker count). Errors stay per-lane so
    // the grid walk below can surface them in scalar order.
    let measured: Vec<Vec<Result<(f64, f64), CircuitError>>> = par_map(&packs, |p| {
        let op = if p.input_rising {
            &op_in_rising
        } else {
            &op_in_falling
        };
        let loads = &cfg.loads[p.load_start..p.load_start + p.len];
        edge_pack(gate, cfg, cfg.slews[p.slew_idx], loads, p.input_rising, op)
    });
    let mut fall_m: Vec<Option<Result<(f64, f64), CircuitError>>> =
        (0..ns * nl).map(|_| None).collect();
    let mut rise_m: Vec<Option<Result<(f64, f64), CircuitError>>> =
        (0..ns * nl).map(|_| None).collect();
    for (p, res) in packs.iter().zip(measured) {
        // Input rising drives the (inverting) output falling and vice
        // versa, matching the scalar `edge(.., true, ..)` = fall pairing.
        let dst = if p.input_rising {
            &mut fall_m
        } else {
            &mut rise_m
        };
        for (k, r) in res.into_iter().enumerate() {
            dst[p.slew_idx * nl + p.load_start + k] = Some(r);
        }
    }
    let mut rise = vec![vec![0.0; nl]; ns];
    let mut fall = vec![vec![0.0; nl]; ns];
    let mut slew_out = vec![vec![0.0; nl]; ns];
    for i in 0..ns {
        for j in 0..nl {
            // Scalar error order: within a grid point the fall edge runs
            // (and fails) first; across points the grid is i-major.
            let (d_fall, s_fall) = fall_m[i * nl + j].take().expect("pack covers grid")?;
            let (d_rise, s_rise) = rise_m[i * nl + j].take().expect("pack covers grid")?;
            rise[i][j] = d_rise;
            fall[i][j] = d_fall;
            slew_out[i][j] = s_rise.max(s_fall);
        }
    }
    assemble_tables(cfg, rise, fall, slew_out)
}

/// Shared table assembly: slew-row monotonicity repair + NLDM packing.
fn assemble_tables(
    cfg: &CharacterizeConfig,
    rise: Vec<Vec<f64>>,
    fall: Vec<Vec<f64>>,
    mut slew_out: Vec<Vec<f64>>,
) -> Result<GateTiming, CircuitError> {
    // The threshold-based slew measurement rides the slow tail toward the
    // output's settled level; ratioed (pseudo-E) outputs settle toward a
    // degraded level, so at small loads the 20–80% window can come out
    // *longer* than at larger loads, corrupting bilinear interpolation
    // downstream. Enforce load-axis monotonicity (running max per row), as
    // production characterization does.
    for row in &mut slew_out {
        for j in 1..row.len() {
            row[j] = row[j].max(row[j - 1]);
        }
    }
    Ok(GateTiming {
        delay_rise: NldmTable::new(cfg.slews.clone(), cfg.loads.clone(), rise),
        delay_fall: NldmTable::new(cfg.slews.clone(), cfg.loads.clone(), fall),
        out_slew: NldmTable::new(cfg.slews.clone(), cfg.loads.clone(), slew_out),
    })
}

/// Prepares one edge direction's circuit: side inputs held, switching
/// input at `v0`. Shared by the operating-point solve and the transients.
fn edge_circuit(gate: &GateCircuit, input_rising: bool) -> bdc_circuit::Circuit {
    let mut c = gate.circuit.clone();
    // Hold side inputs at the level that keeps the switching input in
    // control (gate-type dependent).
    let side = if gate.side_inputs_high { gate.vdd } else { 0.0 };
    for (_, s) in gate.inputs.iter().skip(1) {
        c.set_vsource(*s, side);
    }
    let v0 = if input_rising { 0.0 } else { gate.vdd };
    c.set_vsource(gate.inputs[0].1, v0);
    c
}

/// Solves the `t = 0` operating point of one edge direction (no load cap —
/// capacitors are open in DC, so the result is valid for every load).
fn initial_op(gate: &GateCircuit, input_rising: bool) -> Result<Operating, CircuitError> {
    DcSolver::new().solve(&edge_circuit(gate, input_rising))
}

/// Runs one input edge and measures (delay, output slew).
///
/// `input_rising = true` drives the switching input 0 → VDD (inverting
/// cells produce a falling output). `op` must be the matching
/// [`initial_op`] solution; retries (a longer settle window — also a
/// different time step, which rescues marginally non-converging stiff
/// transients) reuse it instead of re-solving DC.
fn edge(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
    slew: f64,
    load: f64,
    input_rising: bool,
    op: &Operating,
) -> Result<(f64, f64), CircuitError> {
    // First attempt's failure (either kind) is absorbed by the retry; the
    // retry's outcome is final.
    if let Ok(Some(m)) = edge_attempt(gate, cfg, slew, load, input_rising, op, cfg.settle) {
        return Ok(m);
    }
    match edge_attempt(gate, cfg, slew, load, input_rising, op, cfg.settle * 4.0) {
        Ok(Some(m)) => Ok(m),
        Ok(None) => Err(CircuitError::NoConvergence {
            residual: f64::NAN,
            iterations: 0,
        }),
        Err(e) => Err(e),
    }
}

/// One transient attempt of [`edge`] with an explicit settle window.
/// `Ok(None)` means the simulation converged but the output never crossed
/// mid-rail within the window.
fn edge_attempt(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
    slew: f64,
    load: f64,
    input_rising: bool,
    op: &Operating,
    attempt_settle: f64,
) -> Result<Option<(f64, f64)>, CircuitError> {
    let mut c = edge_circuit(gate, input_rising);
    c.capacitor(gate.output, bdc_circuit::Circuit::GND, load);
    let (v0, v1) = if input_rising {
        (0.0, gate.vdd)
    } else {
        (gate.vdd, 0.0)
    };
    let t_start = attempt_settle * 0.05;
    let tstop = t_start + slew + attempt_settle;
    let wave = Waveform::ramp(v0, v1, t_start, slew);
    let res = TranSolver::new(tstop / cfg.steps as f64, tstop)
        .with_step_clamp((0.5 * gate.vdd).max(0.5))
        .with_initial_state(op)
        .drive(gate.inputs[0].1, wave)
        .run(&c)?;
    let out_wf = res.node_waveform(gate.output);
    let mid = 0.5 * gate.vdd;
    let t_in_mid = t_start + 0.5 * slew;
    // Only look at the output after the input begins to move.
    let after: Vec<(f64, f64)> = out_wf
        .iter()
        .copied()
        .filter(|(t, _)| *t >= t_start)
        .collect();
    Ok(crossing_time(&after, mid).map(|t_out| {
        let (from, to) = if input_rising {
            (gate.vdd, 0.0)
        } else {
            (0.0, gate.vdd)
        };
        let s = slew_time(&after, from, to, 0.2, 0.8)
            .map(|s| s / 0.6)
            .unwrap_or(slew);
        ((t_out - t_in_mid).max(0.0), s)
    }))
}

/// One batched attempt of [`edge_attempt`] for a chunk of loads at one
/// (slew, direction), through the lockstep SoA kernel. Each lane streams
/// its output node into a [`CrossTracker`] holding the same three
/// thresholds the scalar path measures (mid-rail for delay, 20%/80% for
/// slew) and retires from the batch as soon as all three crossings are
/// pinned. `Ok(None)` mirrors the scalar meaning: converged, but no
/// mid-rail crossing inside the window.
fn pack_attempt(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
    slew: f64,
    loads: &[f64],
    input_rising: bool,
    op: &Operating,
    attempt_settle: f64,
) -> Vec<Result<Option<(f64, f64)>, CircuitError>> {
    let (v0, v1) = if input_rising {
        (0.0, gate.vdd)
    } else {
        (gate.vdd, 0.0)
    };
    let (from, to) = if input_rising {
        (gate.vdd, 0.0)
    } else {
        (0.0, gate.vdd)
    };
    let t_start = attempt_settle * 0.05;
    let tstop = t_start + slew + attempt_settle;
    let wave = Waveform::ramp(v0, v1, t_start, slew);
    let mid = 0.5 * gate.vdd;
    let t_in_mid = t_start + 0.5 * slew;
    // Same expressions as `slew_time` computes internally, so the levels
    // (and hence the interpolated crossings) are bit-identical.
    let lo = from + 0.2 * (to - from);
    let hi = from + 0.8 * (to - from);
    let batch: Vec<BatchLane> = loads
        .iter()
        .map(|&ld| {
            let mut c = edge_circuit(gate, input_rising);
            c.capacitor(gate.output, bdc_circuit::Circuit::GND, ld);
            BatchLane::new(c)
                .drive(gate.inputs[0].1, wave.clone())
                .with_initial_state(op)
        })
        .collect();
    let mut trackers: Vec<CrossTracker> = loads
        .iter()
        .map(|_| CrossTracker::new(t_start, vec![mid, lo, hi]))
        .collect();
    let out_idx = gate.output.index() - 1;
    let outcomes = BatchTranSolver::new(tstop / cfg.steps as f64, tstop)
        .with_step_clamp((0.5 * gate.vdd).max(0.5))
        .run(&batch, |l, t, volts| {
            let tr = &mut trackers[l];
            tr.feed(t, volts[out_idx]);
            !tr.all_found()
        });
    outcomes
        .iter()
        .enumerate()
        .map(|(l, outcome)| match outcome {
            Err(e) => Err(e.clone()),
            Ok(()) => Ok(trackers[l].time(0).map(|t_out| {
                let s = match (trackers[l].time(1), trackers[l].time(2)) {
                    (Some(t_lo), Some(t_hi)) => (t_hi - t_lo).abs() / 0.6,
                    _ => slew,
                };
                ((t_out - t_in_mid).max(0.0), s)
            })),
        })
        .collect()
}

/// Batched [`edge`] for a chunk of loads at one (slew, direction): a first
/// batched attempt over every lane, then — exactly like the scalar retry —
/// one settle×4 attempt for the lanes that errored or never crossed
/// mid-rail. The retry lanes are themselves re-packed into a (narrower)
/// batch, so even the slow stragglers keep the SoA kernel's early-exit
/// instead of paying for a full-window scalar transient.
fn edge_pack(
    gate: &GateCircuit,
    cfg: &CharacterizeConfig,
    slew: f64,
    loads: &[f64],
    input_rising: bool,
    op: &Operating,
) -> Vec<Result<(f64, f64), CircuitError>> {
    let first = pack_attempt(gate, cfg, slew, loads, input_rising, op, cfg.settle);
    let retry_lanes: Vec<usize> = first
        .iter()
        .enumerate()
        .filter(|(_, r)| !matches!(r, Ok(Some(_))))
        .map(|(l, _)| l)
        .collect();
    let mut retried = if retry_lanes.is_empty() {
        Vec::new()
    } else {
        let retry_loads: Vec<f64> = retry_lanes.iter().map(|&l| loads[l]).collect();
        pack_attempt(
            gate,
            cfg,
            slew,
            &retry_loads,
            input_rising,
            op,
            cfg.settle * 4.0,
        )
    }
    .into_iter();
    first
        .into_iter()
        .map(|r| match r {
            Ok(Some(m)) => Ok(m),
            // The retry's outcome is final, as in `edge`.
            Ok(None) | Err(_) => match retried.next().expect("retry covers failed lanes") {
                Ok(Some(m)) => Ok(m),
                Ok(None) => Err(CircuitError::NoConvergence {
                    residual: f64::NAN,
                    iterations: 0,
                }),
                Err(e) => Err(e),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::organic_library_point;
    use crate::topology::{
        cmos_gate, organic_gate, organic_inverter, LogicKind, OrganicSizing, OrganicStyle,
    };

    #[test]
    fn silicon_inverter_delay_in_fo4_range() {
        let g = cmos_gate(LogicKind::Inv, 450.0e-9, 1.0);
        let cfg = CharacterizeConfig::silicon();
        let t = characterize_gate(&g, &cfg).expect("characterize");
        // FO4-ish point: slew ~ 20 ps, load = 4 inverter inputs.
        let d = t.delay_worst().lookup(20.0e-12, 4.0 * g.input_cap);
        assert!(d > 2.0e-12 && d < 60.0e-12, "FO4-ish delay = {d:.3e}");
        // Delay increases with load.
        let d_big = t.delay_worst().lookup(20.0e-12, 20.0e-15);
        let d_small = t.delay_worst().lookup(20.0e-12, 0.3e-15);
        assert!(d_big > d_small);
    }

    #[test]
    fn organic_inverter_delay_in_tens_of_microseconds() {
        let g = organic_inverter(
            organic_library_point().1,
            OrganicStyle::PseudoE,
            &OrganicSizing::default(),
            5.0,
            -15.0,
        );
        let cfg = CharacterizeConfig::organic();
        let t = characterize_gate(&g, &cfg).expect("characterize");
        let d = t.delay_worst().lookup(60.0e-6, 4.0 * g.input_cap);
        // The paper's 200 Hz, ~30-level cores imply stage delays of this
        // order: tens of µs to a fraction of a ms per gate.
        assert!(d > 3.0e-6 && d < 3.0e-3, "organic FO4-ish delay = {d:.3e}");
    }

    #[test]
    fn organic_nor3_out_slew_is_monotone_in_load() {
        // Regression: the raw 20–80% measurement on the pseudo-E NOR3 dips
        // as load grows at the small-load end of the grid (the output
        // settles toward a degraded high level); characterization must ship
        // monotone rows.
        let g = organic_gate(LogicKind::Nor3, &OrganicSizing::default(), 5.0, -15.0);
        let t = characterize_gate(&g, &CharacterizeConfig::organic()).expect("characterize");
        for row in t.out_slew.values() {
            for j in 1..row.len() {
                assert!(row[j] >= row[j - 1], "out_slew row not monotone: {row:?}");
            }
        }
    }

    #[test]
    fn organic_silicon_gate_speed_ratio_is_enormous() {
        let org = organic_inverter(
            organic_library_point().1,
            OrganicStyle::PseudoE,
            &OrganicSizing::default(),
            5.0,
            -15.0,
        );
        let si = cmos_gate(LogicKind::Inv, 450.0e-9, 1.0);
        let t_org = characterize_gate(&org, &CharacterizeConfig::organic()).unwrap();
        let t_si = characterize_gate(&si, &CharacterizeConfig::silicon()).unwrap();
        let d_org = t_org.delay_worst().lookup(60.0e-6, 4.0 * org.input_cap);
        let d_si = t_si.delay_worst().lookup(20.0e-12, 4.0 * si.input_cap);
        let ratio = d_org / d_si;
        // ~10⁶: the mobility gap (10³) compounded by giant geometries.
        assert!(ratio > 1.0e5 && ratio < 1.0e9, "ratio = {ratio:.3e}");
    }

    /// Bitwise scalar-vs-batched parity at the unit level (one gate per
    /// process); the full-library × lanes × workers matrix lives in
    /// `bdc-core/tests/determinism.rs`.
    #[test]
    fn batched_grid_is_bit_identical_to_scalar() {
        let bits = |t: &GateTiming| -> Vec<u64> {
            [&t.delay_rise, &t.delay_fall, &t.out_slew]
                .iter()
                .flat_map(|tab| tab.values().iter().flatten().map(|v| v.to_bits()))
                .collect()
        };
        for (gate, cfg) in [
            (
                cmos_gate(LogicKind::Inv, 450.0e-9, 1.0),
                CharacterizeConfig::silicon(),
            ),
            (
                organic_gate(
                    LogicKind::Nand2,
                    &OrganicSizing::library_default(),
                    5.0,
                    -15.0,
                ),
                CharacterizeConfig::organic(),
            ),
        ] {
            let scalar = characterize_gate_scalar(&gate, &cfg).expect("scalar");
            for lanes in [2, 5, 8] {
                let batched = characterize_gate_batched(&gate, &cfg, lanes).expect("batched");
                assert_eq!(
                    bits(&scalar),
                    bits(&batched),
                    "lanes={lanes} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn pseudo_e_dc_summary_sane() {
        let g = organic_inverter(
            organic_library_point().1,
            OrganicStyle::PseudoE,
            &OrganicSizing::default(),
            5.0,
            -15.0,
        );
        let s = measure_inverter_dc(&g, 101).expect("dc");
        assert!(s.vm > 1.5 && s.vm < 3.5, "vm = {}", s.vm);
        assert!(s.max_gain > 1.8, "gain = {}", s.max_gain);
        assert!(s.static_power_in_low > s.static_power_in_high);
    }
}

#[cfg(test)]
mod calib {
    use super::*;
    use crate::technology::organic_library_point;
    use crate::topology::*;

    /// Prints the §4.3 inverter design-space rows; run with
    /// `cargo test -p bdc-cells calib -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn print_pseudo_e_metrics() {
        let sz = OrganicSizing::library_default();
        for vss in [-10.0, -12.0, -14.0, -16.0, -18.0, -20.0] {
            let g = organic_inverter(
                organic_library_point().1,
                OrganicStyle::PseudoE,
                &sz,
                5.0,
                vss,
            );
            let s = measure_inverter_dc(&g, 151).unwrap();
            println!(
                "VSS={vss}: VM={:.2} gain={:.2} NMH={:.2} NML={:.2}",
                s.vm, s.max_gain, s.nmh, s.nml
            );
        }
        for (style, lw, vss) in [
            (OrganicStyle::DiodeLoad, 350.0, 0.0),
            (OrganicStyle::DiodeLoad, 150.0, 0.0),
            (OrganicStyle::DiodeLoad, 80.0, 0.0),
            (OrganicStyle::BiasedLoad, 150.0, -5.0),
        ] {
            let s2 = OrganicSizing {
                output_load_w: lw * 1.0e-6,
                ..sz
            };
            let g = organic_inverter(organic_library_point().1, style, &s2, 15.0, vss);
            let s = measure_inverter_dc(&g, 151).unwrap();
            println!(
                "{style:?} lw={lw} VDD=15 VSS={vss}: VM={:.2} gain={:.2} NMH={:.2} NML={:.2} P_lo={:.1e} P_hi={:.1e}",
                s.vm, s.max_gain, s.nmh, s.nml, s.static_power_in_low, s.static_power_in_high
            );
        }
    }
}
