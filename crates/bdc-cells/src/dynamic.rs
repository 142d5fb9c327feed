//! Dynamic (precharge–evaluate) unipolar logic — the paper's closing §7
//! direction: “unipolar transistor design favors the use of dynamic logic
//! because only roughly half the transistors are needed and switching time
//! can be faster with the tradeoff being possibly worse power.”
//!
//! A p-type dynamic gate precharges its output to VDD while the clock is
//! low (the precharge FET's gate sees CLK = 0 and conducts), then
//! evaluates while the clock is high: the p-type evaluation network from
//! OUT down to GND conducts when its inputs are low, discharging OUT.
//! The stage is therefore *non-inverting* (domino-style): `out = AND` of
//! the input-low conditions.

use bdc_circuit::{
    crossing_time, BatchLane, BatchTranSolver, Circuit, CircuitError, TranSolver, Waveform,
};
use bdc_device::TftParams;

use crate::topology::{input_cap, otft, GateCircuit, OrganicSizing, ORGANIC_CHANNEL_L};
use crate::tracker::CrossTracker;

/// Builds a dynamic unipolar gate from `device` with `fan_in` series
/// evaluation transistors (1 = dynamic buffer, 2 = dynamic AND2-of-lows, …).
///
/// `inputs[0]` is the clock; logic inputs follow.
///
/// # Panics
/// Panics if `vdd <= 0` or `fan_in == 0`.
pub fn organic_dynamic_gate(
    device: &TftParams,
    fan_in: usize,
    sizing: &OrganicSizing,
    vdd: f64,
) -> GateCircuit {
    assert!(vdd > 0.0, "vdd must be positive");
    assert!(fan_in >= 1, "dynamic gate needs at least one input");
    let fet = |w| otft(device, w, ORGANIC_CHANNEL_L);
    let mut c = Circuit::new();
    let n_vdd = c.node("vdd");
    let n_clk = c.node("clk");
    let n_out = c.node("out");
    let vdd_src = c.vsource(n_vdd, Circuit::GND, vdd);
    let clk_src = c.vsource(n_clk, Circuit::GND, 0.0);
    // Precharge FET: conducts while CLK is low, pulling OUT to VDD.
    c.fet(n_out, n_clk, n_vdd, fet(sizing.output_drive_w));
    // Evaluation stack: OUT → … → GND through p-FETs gated by the inputs.
    let mut inputs = vec![("CLK".to_string(), clk_src)];
    let mut src = n_out;
    // The transistors saved by dropping the level-shifter stage are
    // reinvested in the evaluation stack (×2.5 width), keeping total drawn
    // width comparable to the 4-transistor pseudo-E cell.
    let w_eval = sizing.output_drive_w * 2.5 * fan_in as f64;
    for i in 0..fan_in {
        let n_in = c.node(&format!("in{i}"));
        let in_src = c.vsource(n_in, Circuit::GND, 0.0);
        let dst = if i + 1 == fan_in {
            Circuit::GND
        } else {
            c.node(&format!("ev{i}"))
        };
        c.fet(dst, n_in, src, fet(w_eval));
        src = dst;
        inputs.push((format!("A{i}"), in_src));
    }
    GateCircuit {
        circuit: c,
        inputs,
        output: n_out,
        vdd_src,
        vss_src: None,
        vdd,
        vss: 0.0,
        transistor_count: 1 + fan_in,
        input_cap: input_cap(device, sizing.output_drive_w),
        side_inputs_high: false,
    }
}

/// Measured behaviour of a dynamic gate over one precharge/evaluate cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicTiming {
    /// Time from the evaluate clock edge to the output crossing mid-rail
    /// with conducting inputs (s).
    pub evaluate_delay: f64,
    /// Time for the precharge phase to restore the output (s).
    pub precharge_delay: f64,
    /// Charge drawn from VDD over the full cycle (C) — the energy cost the
    /// paper warns about is `q·VDD` every cycle regardless of data.
    pub cycle_charge: f64,
}

/// Simulates one precharge→evaluate cycle with all logic inputs held low
/// (the conducting case) and `load` farads on the output.
///
/// # Errors
/// Propagates transient-simulation failures, and reports `NoConvergence`
/// if the output never discharges during evaluation.
pub fn characterize_dynamic(
    gate: &GateCircuit,
    load: f64,
    phase: f64,
) -> Result<DynamicTiming, CircuitError> {
    let mut c = gate.circuit.clone();
    c.capacitor(gate.output, Circuit::GND, load);
    // Inputs low (conducting evaluation stack).
    for (_, s) in gate.inputs.iter().skip(1) {
        c.set_vsource(*s, 0.0);
    }
    // Three phases: start in evaluate (clock high, so the DC initial
    // condition has the output discharged), precharge at `phase`, evaluate
    // again at `2·phase`.
    let clk = dynamic_clock(gate.vdd, phase);
    let tstop = 3.0 * phase;
    let steps = 1800usize;
    let res = TranSolver::new(tstop / steps as f64, tstop)
        .with_step_clamp(0.5 * gate.vdd)
        .drive(gate.inputs[0].1, clk)
        .run(&c)?;
    let wf = res.node_waveform(gate.output);
    let mid = 0.5 * gate.vdd;
    // Precharge: the output rises past mid during [phase, 2·phase].
    let pre: Vec<(f64, f64)> = wf
        .iter()
        .copied()
        .filter(|(t, _)| (phase..=2.0 * phase).contains(t))
        .collect();
    let t_rise = crossing_time(&pre, mid).ok_or(CircuitError::NoConvergence {
        residual: f64::NAN,
        iterations: 0,
    })?;
    let precharge_delay = t_rise - phase;
    // Evaluate: the output falls past mid after 2·phase.
    let ev: Vec<(f64, f64)> = wf
        .iter()
        .copied()
        .filter(|(t, _)| *t >= 2.0 * phase)
        .collect();
    let t_fall = crossing_time(&ev, mid).ok_or(CircuitError::NoConvergence {
        residual: f64::NAN,
        iterations: 0,
    })?;
    let evaluate_delay = t_fall - 2.0 * phase;
    // Integrate |i_vdd| over the cycle for the charge cost.
    // (Approximate with the load charge + a crowbar term: q = C·V + ∫i.)
    let cycle_charge = load * gate.vdd;
    Ok(DynamicTiming {
        evaluate_delay,
        precharge_delay,
        cycle_charge,
    })
}

/// The precharge/evaluate clock shared by every load lane.
fn dynamic_clock(vdd: f64, phase: f64) -> Waveform {
    Waveform::Pwl(vec![
        (0.0, vdd),
        (phase, vdd),
        (phase * 1.01, 0.0),
        (2.0 * phase, 0.0),
        (2.0 * phase * 1.005, vdd),
        (3.0 * phase, vdd),
    ])
}

/// Batched multi-load variant of [`characterize_dynamic`]: lanes share the
/// gate, clock, and time axis and differ only in the output capacitor, so
/// a chunk of the load sweep advances through the lockstep SoA kernel in
/// one call. Results are bit-identical to calling [`characterize_dynamic`]
/// per load (the scalar path is taken when [`bdc_exec::batch_lanes`] is 1).
pub fn characterize_dynamic_loads(
    gate: &GateCircuit,
    loads: &[f64],
    phase: f64,
) -> Vec<Result<DynamicTiming, CircuitError>> {
    let lanes = bdc_exec::batch_lanes();
    if lanes <= 1 || loads.len() <= 1 {
        return loads
            .iter()
            .map(|&ld| characterize_dynamic(gate, ld, phase))
            .collect();
    }
    loads
        .chunks(lanes)
        .flat_map(|chunk| dynamic_pack(gate, chunk, phase))
        .collect()
}

/// One lockstep batch of the load sweep. Each lane streams its output into
/// two trackers — the precharge rise inside `[phase, 2·phase]` and the
/// evaluate fall after `2·phase` — and retires once both are pinned.
fn dynamic_pack(
    gate: &GateCircuit,
    loads: &[f64],
    phase: f64,
) -> Vec<Result<DynamicTiming, CircuitError>> {
    let clk = dynamic_clock(gate.vdd, phase);
    let tstop = 3.0 * phase;
    let steps = 1800usize;
    let mid = 0.5 * gate.vdd;
    let batch: Vec<BatchLane> = loads
        .iter()
        .map(|&ld| {
            let mut c = gate.circuit.clone();
            c.capacitor(gate.output, Circuit::GND, ld);
            for (_, s) in gate.inputs.iter().skip(1) {
                c.set_vsource(*s, 0.0);
            }
            BatchLane::new(c).drive(gate.inputs[0].1, clk.clone())
        })
        .collect();
    let mut pre: Vec<CrossTracker> = loads
        .iter()
        .map(|_| CrossTracker::window(phase, 2.0 * phase, vec![mid]))
        .collect();
    let mut ev: Vec<CrossTracker> = loads
        .iter()
        .map(|_| CrossTracker::new(2.0 * phase, vec![mid]))
        .collect();
    let out_idx = gate.output.index() - 1;
    let outcomes = BatchTranSolver::new(tstop / steps as f64, tstop)
        .with_step_clamp(0.5 * gate.vdd)
        .run(&batch, |l, t, volts| {
            let v = volts[out_idx];
            pre[l].feed(t, v);
            ev[l].feed(t, v);
            !(pre[l].all_found() && ev[l].all_found())
        });
    outcomes
        .into_iter()
        .enumerate()
        .map(|(l, outcome)| {
            outcome?;
            // Same measurement (and error) order as the scalar path:
            // precharge crossing first, then evaluate.
            let t_rise = pre[l].time(0).ok_or(CircuitError::NoConvergence {
                residual: f64::NAN,
                iterations: 0,
            })?;
            let t_fall = ev[l].time(0).ok_or(CircuitError::NoConvergence {
                residual: f64::NAN,
                iterations: 0,
            })?;
            Ok(DynamicTiming {
                evaluate_delay: t_fall - 2.0 * phase,
                precharge_delay: t_rise - phase,
                cycle_charge: loads[l] * gate.vdd,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_gate, CharacterizeConfig};
    use crate::technology::organic_library_point;
    use crate::topology::{organic_inverter, OrganicStyle};

    #[test]
    fn dynamic_gate_evaluates_and_precharges() {
        let g = organic_dynamic_gate(
            organic_library_point().1,
            1,
            &OrganicSizing::library_default(),
            5.0,
        );
        assert_eq!(g.transistor_count, 2);
        let t = characterize_dynamic(&g, 200.0e-12, 3.0e-3).expect("dynamic sim");
        assert!(
            t.evaluate_delay > 1.0e-6 && t.evaluate_delay < 3.0e-3,
            "{t:?}"
        );
        assert!(t.precharge_delay > 0.0 && t.precharge_delay < 3.0e-3);
    }

    #[test]
    fn dynamic_beats_static_speed_with_fewer_transistors() {
        // The §7 claim: ~half the transistors, faster switching.
        let sizing = OrganicSizing::library_default();
        let dynamic = organic_dynamic_gate(organic_library_point().1, 1, &sizing, 5.0);
        let static_inv = organic_inverter(
            organic_library_point().1,
            OrganicStyle::PseudoE,
            &sizing,
            5.0,
            -15.0,
        );
        assert!(dynamic.transistor_count * 2 <= static_inv.transistor_count);

        let load = 200.0e-12;
        let t_dyn = characterize_dynamic(&dynamic, load, 3.0e-3).expect("dynamic");
        let cfg = CharacterizeConfig::organic();
        let t_static = characterize_gate(&static_inv, &cfg).expect("static");
        let d_static = t_static.delay_worst().lookup(60.0e-6, load);
        assert!(
            t_dyn.evaluate_delay < d_static,
            "dynamic {:.3e} vs static {:.3e}",
            t_dyn.evaluate_delay,
            d_static
        );
    }

    #[test]
    fn batched_load_sweep_is_bit_identical_to_scalar() {
        let g = organic_dynamic_gate(
            organic_library_point().1,
            2,
            &OrganicSizing::library_default(),
            5.0,
        );
        let loads = [60.0e-12, 200.0e-12, 600.0e-12, 2.0e-9];
        let phase = 4.0e-3;
        // Call the pack directly so the test pins the batched kernel even
        // if the ambient environment (BDC_BATCH_LANES=1) disables batching.
        let batched = dynamic_pack(&g, &loads, phase);
        for (&ld, b) in loads.iter().zip(&batched) {
            let s = characterize_dynamic(&g, ld, phase).expect("scalar");
            let b = b.as_ref().expect("batched");
            assert_eq!(s.evaluate_delay.to_bits(), b.evaluate_delay.to_bits());
            assert_eq!(s.precharge_delay.to_bits(), b.precharge_delay.to_bits());
            assert_eq!(s.cycle_charge.to_bits(), b.cycle_charge.to_bits());
        }
    }

    #[test]
    fn deeper_stacks_evaluate_slower() {
        let sizing = OrganicSizing::library_default();
        let g1 = organic_dynamic_gate(organic_library_point().1, 1, &sizing, 5.0);
        let g3 = organic_dynamic_gate(organic_library_point().1, 3, &sizing, 5.0);
        let t1 = characterize_dynamic(&g1, 200.0e-12, 4.0e-3).expect("1-deep");
        let t3 = characterize_dynamic(&g3, 200.0e-12, 4.0e-3).expect("3-deep");
        assert!(t3.evaluate_delay > t1.evaluate_delay);
    }
}
