//! Transistor-level D-flip-flop simulation.
//!
//! The paper's library includes “a D-flip-flop with preset and clear”
//! (§4.3.4). The library's DFF *timing model* is derived from the
//! characterized NAND (see [`crate::library`]); this module builds the
//! actual 7474-style six-NAND3 flop at the transistor level — pseudo-E
//! NAND3s for the organic process, CMOS for silicon — simulates a clock
//! edge, and measures clk→Q and setup time by bisection. The integration
//! tests use it to validate the derived model.

use bdc_circuit::{
    crossing_time, BatchLane, BatchTranSolver, Circuit, CircuitError, NodeId, TranSolver, Waveform,
};

use crate::technology::{ParamOverlay, Technology};
use crate::topology::{GateCircuit, LogicKind};
use crate::tracker::CrossTracker;

/// A transistor-level DFF ready for transient analysis.
#[derive(Debug, Clone)]
pub struct DffCircuit {
    /// The flattened transistor netlist.
    pub circuit: Circuit,
    /// Voltage-source index of the D input.
    pub d_src: usize,
    /// Voltage-source index of the clock.
    pub clk_src: usize,
    /// Voltage-source index of the active-low clear.
    pub clr_src: usize,
    /// The Q output node.
    pub q: NodeId,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Transistors in the flop.
    pub transistor_count: usize,
}

/// Inlines a characterized gate topology as a subcircuit: `gate`'s input
/// sources are removed and its input nodes driven by the given nets.
fn inline_gate(
    dst: &mut Circuit,
    gate: &GateCircuit,
    input_nets: &[NodeId],
    prefix: &str,
) -> NodeId {
    use bdc_circuit::Element;
    // Map gate-circuit nodes into dst. Rails map to dst rails by name.
    let mut map: Vec<Option<NodeId>> = vec![None; gate.circuit.node_count()];
    map[0] = Some(Circuit::GND);
    for (i, slot) in map.iter_mut().enumerate().skip(1) {
        let id = NodeId::from_index(i);
        let name = gate.circuit.node_name(id);
        let mapped = match name {
            "vdd" | "vss" => dst.node(name),
            other => dst.node(&format!("{prefix}.{other}")),
        };
        *slot = Some(mapped);
    }
    // Alias the gate's logic-input nodes onto the provided nets by
    // REPLACING the mapped node: we re-walk elements and substitute.
    let mut input_nodes: Vec<NodeId> = Vec::new();
    {
        // The gate's input nodes are the positive terminals of its input
        // sources (in `inputs` order).
        let mut idx = 0usize;
        for e in gate.circuit.elements() {
            if let Element::VSource { pos, .. } = e {
                // Source 0 is VDD, possibly VSS next; inputs follow in
                // insertion order — identify by matching recorded indices.
                if gate.inputs.iter().any(|(_, s)| *s == idx) {
                    input_nodes.push(*pos);
                }
                idx += 1;
            }
        }
    }
    assert_eq!(input_nodes.len(), input_nets.len(), "input arity mismatch");
    for (g_node, net) in input_nodes.iter().zip(input_nets) {
        map[g_node.index()] = Some(*net);
    }
    let m = |n: NodeId| map[n.index()].expect("node mapped");
    for e in gate.circuit.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                dst.resistor(m(*a), m(*b), *ohms);
            }
            Element::Capacitor { a, b, farads } => {
                dst.capacitor(m(*a), m(*b), *farads);
            }
            Element::VSource { .. } => {
                // Input and rail sources are provided by the parent circuit.
            }
            Element::Fet { d, g, s, model } => {
                dst.fet(m(*d), m(*g), m(*s), model.clone());
            }
        }
    }
    m(gate.output)
}

/// Builds the 7474-style edge-triggered DFF (preset/clear tied inactive)
/// from six of the technology's nominal NAND3 cells, at its rails.
///
/// # Panics
/// Panics on invalid rails (propagated from the gate builders).
pub fn build_dff(tech: &Technology) -> DffCircuit {
    let vdd = tech.vdd;
    let mut c = Circuit::new();
    let n_vdd = c.node("vdd");
    c.vsource(n_vdd, Circuit::GND, vdd);
    let mut sources = 1;
    if tech.vss < 0.0 {
        let n_vss = c.node("vss");
        c.vsource(n_vss, Circuit::GND, tech.vss);
        sources += 1;
    }
    let n_d = c.node("D");
    let d_src = {
        c.vsource(n_d, Circuit::GND, 0.0);
        sources
    };
    let n_clk = c.node("CLK");
    let clk_src = {
        c.vsource(n_clk, Circuit::GND, 0.0);
        sources + 1
    };
    // Preset' held inactive (high); clear' drivable so simulations can
    // start from a defined Q = 0 (the raw cross-coupled latch's DC solution
    // is the metastable point).
    let n_hi = c.node("tie_hi");
    c.vsource(n_hi, Circuit::GND, vdd);
    let n_clr = c.node("CLRB");
    let clr_src = sources + 3;
    c.vsource(n_clr, Circuit::GND, vdd);

    // Internal latch nodes (driven by the six gates).
    let template = tech.gate(LogicKind::Nand3, &ParamOverlay::default());
    // We need feedback, so allocate the gate OUTPUT nodes first by inlining
    // with placeholder inputs is impossible; instead inline gates in an
    // order where feedback nets already exist: create named junction nodes
    // and let each gate's output BE that junction via a tiny resistor.
    // Simpler: inline each gate, then tie its output to the junction with a
    // low-value resistor (models the cell's output wire).
    let j: Vec<NodeId> = (1..=6).map(|i| c.node(&format!("n{i}"))).collect();
    let tie = 1.0; // ohm, negligible at cell impedances
    let specs: [(usize, [NodeId; 3]); 6] = [
        (0, [n_hi, j[3], j[1]]),   // G1: NAND(PR', n4, n2) -> n1
        (1, [j[0], n_clr, n_clk]), // G2: NAND(n1, CLR', CLK) -> n2
        (2, [j[1], n_clk, j[3]]),  // G3: NAND(n2, CLK, n4) -> n3
        (3, [j[2], n_clr, n_d]),   // G4: NAND(n3, CLR', D) -> n4
        (4, [n_hi, j[1], j[5]]),   // G5: NAND(PR', n2, Q') -> Q  (n5)
        (5, [j[4], j[2], n_clr]),  // G6: NAND(Q, n3, CLR') -> Q' (n6)
    ];
    let mut transistor_count = 0;
    for (gi, ins) in specs {
        let out = inline_gate(&mut c, &template, &ins, &format!("g{gi}"));
        c.resistor(out, j[gi], tie);
        transistor_count += template.transistor_count;
    }
    // The feedback loop's dynamics come from the transistors' own gate
    // capacitances — attach them explicitly (NLDM characterization lumps
    // them into the *next* cell's load, but a latch loads itself).
    {
        use bdc_circuit::Element;
        let caps: Vec<(NodeId, f64)> = c
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Fet { g, model, .. } => Some((*g, model.cgs() + model.cgd())),
                _ => None,
            })
            .collect();
        for (n, cap) in caps {
            if n != Circuit::GND {
                c.capacitor(n, Circuit::GND, cap);
            }
        }
    }
    DffCircuit {
        circuit: c,
        d_src,
        clk_src,
        clr_src,
        q: j[4],
        vdd,
        transistor_count,
    }
}

/// Measured flop timing from transistor-level simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredDff {
    /// Clock-edge to Q 50 % crossing (s), D held stable long before.
    pub clk_to_q: f64,
    /// Minimum D-before-clock time that still captures (s), by bisection.
    pub setup: f64,
}

/// The clear and clock waveforms shared by every capture simulation:
/// clear asserted (low) for the first quarter of the window to define
/// Q = 0, clock rising at `edge`.
fn dff_waves(dff: &DffCircuit, scale: f64) -> (Waveform, Waveform) {
    let window = 40.0 * scale;
    let edge = 20.0 * scale;
    let clr_wave = Waveform::Pwl(vec![
        (0.0, 0.0),
        (10.0 * scale, 0.0),
        (10.5 * scale, dff.vdd),
        (window, dff.vdd),
    ]);
    let clk_wave = Waveform::ramp(0.0, dff.vdd, edge, scale * 0.05);
    (clr_wave, clk_wave)
}

/// One capture simulation: D rises `d_offset_before_edge` before the clock
/// edge; returns Q's 50 % crossing relative to the edge, if any.
fn run_offset(
    dff: &DffCircuit,
    scale: f64,
    d_offset_before_edge: f64,
) -> Result<Option<f64>, CircuitError> {
    let window = 40.0 * scale;
    let edge = 20.0 * scale;
    let (clr_wave, clk_wave) = dff_waves(dff, scale);
    let d_wave = Waveform::ramp(0.0, dff.vdd, edge - d_offset_before_edge, scale * 0.05);
    let res = TranSolver::new(window / 1500.0, window)
        .with_step_clamp(0.5 * dff.vdd)
        .drive(dff.d_src, d_wave)
        .drive(dff.clk_src, clk_wave)
        .drive(dff.clr_src, clr_wave)
        .run(&dff.circuit)?;
    let wf = res.node_waveform(dff.q);
    let after: Vec<(f64, f64)> = wf.into_iter().filter(|(t, _)| *t >= edge).collect();
    Ok(crossing_time(&after, 0.5 * dff.vdd).map(|t| t - edge))
}

/// Simulates one capture of `D: 0→1` and measures clk→Q; then bisects the
/// D-edge offset to find the setup time. `scale` is the process time scale
/// (≈ a gate delay, sets step sizes and windows).
///
/// With [`bdc_exec::batch_lanes`] `> 1` the bisection runs speculatively:
/// capture simulations differ only in the D waveform, so whole levels of
/// the pass/fail tree advance together through the lockstep SoA kernel and
/// only the lanes the scalar walk would have consumed are read back — the
/// result is bit-identical to the sequential bisection.
///
/// # Errors
/// Propagates simulation failures, or `NoConvergence` if Q never captures
/// even with a whole window of setup.
pub fn measure_dff(dff: &DffCircuit, scale: f64) -> Result<MeasuredDff, CircuitError> {
    if bdc_exec::batch_lanes() > 1 {
        measure_dff_speculative(dff, scale)
    } else {
        measure_dff_scalar(dff, scale)
    }
}

/// The scalar reference: one simulation per bisection step.
fn measure_dff_scalar(dff: &DffCircuit, scale: f64) -> Result<MeasuredDff, CircuitError> {
    // Generous setup: D arrives half the window early.
    let clk_to_q = run_offset(dff, scale, 10.0 * scale)?.ok_or(CircuitError::NoConvergence {
        residual: f64::NAN,
        iterations: 0,
    })?;
    // Bisect the pass/fail boundary. "Pass" = Q crosses within the window
    // at a latency not much above nominal.
    let pass = |off: f64| -> Result<bool, CircuitError> {
        Ok(match run_offset(dff, scale, off)? {
            Some(t) => t < 3.0 * clk_to_q + 2.0 * scale,
            None => false,
        })
    };
    let mut lo = 0.0; // fails (D at the edge)
    let mut hi = 10.0 * scale; // passes
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if pass(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(MeasuredDff {
        clk_to_q,
        setup: hi,
    })
}

/// Runs one capture simulation per offset as a lockstep batch, returning
/// each lane's Q-crossing measurement (the same quantity as
/// [`run_offset`], bit-identically).
fn run_offsets_batched(
    dff: &DffCircuit,
    scale: f64,
    offsets: &[f64],
) -> Vec<Result<Option<f64>, CircuitError>> {
    let window = 40.0 * scale;
    let edge = 20.0 * scale;
    let (clr_wave, clk_wave) = dff_waves(dff, scale);
    let batch: Vec<BatchLane> = offsets
        .iter()
        .map(|&off| {
            let d_wave = Waveform::ramp(0.0, dff.vdd, edge - off, scale * 0.05);
            BatchLane::new(dff.circuit.clone())
                .drive(dff.d_src, d_wave)
                .drive(dff.clk_src, clk_wave.clone())
                .drive(dff.clr_src, clr_wave.clone())
        })
        .collect();
    let mut trackers: Vec<CrossTracker> = offsets
        .iter()
        .map(|_| CrossTracker::new(edge, vec![0.5 * dff.vdd]))
        .collect();
    let q_idx = dff.q.index() - 1;
    let outcomes = BatchTranSolver::new(window / 1500.0, window)
        .with_step_clamp(0.5 * dff.vdd)
        .run(&batch, |l, t, volts| {
            trackers[l].feed(t, volts[q_idx]);
            !trackers[l].all_found()
        });
    outcomes
        .into_iter()
        .zip(&trackers)
        .map(|(o, tr)| o.map(|()| tr.time(0).map(|t| t - edge)))
        .collect()
}

/// Expands `levels` rounds of bisection below the interval `root`,
/// breadth-first: returns the mid offsets in (level, path) order plus the
/// index where each level's block starts. Node `path` at level `k` is
/// reached by the outcome bits of levels `1..k` (0 = pass ⇒ `hi = mid`),
/// so a walk can locate its consumed lane as `starts[k-1] + path`.
fn bisection_tree(root: (f64, f64), levels: usize) -> (Vec<f64>, Vec<usize>) {
    let mut intervals = vec![root];
    let mut mids = Vec::new();
    let mut starts = Vec::with_capacity(levels);
    for _ in 0..levels {
        starts.push(mids.len());
        let mut next = Vec::with_capacity(intervals.len() * 2);
        for &(lo, hi) in &intervals {
            let mid = 0.5 * (lo + hi);
            mids.push(mid);
            next.push((lo, mid));
            next.push((mid, hi));
        }
        intervals = next;
    }
    (mids, starts)
}

/// Speculative bisection: simulate whole tree levels in lockstep batches,
/// then walk the pass/fail outcomes to pick the lanes the scalar loop
/// would have run. Only consumed lanes' errors propagate; a speculative
/// lane on a path never taken cannot fail the measurement (the scalar
/// loop would never have simulated it).
fn measure_dff_speculative(dff: &DffCircuit, scale: f64) -> Result<MeasuredDff, CircuitError> {
    // Phase A: the nominal clk→Q run plus bisection levels 1–3 (1+1+2+4
    // lanes). The pass threshold depends on clk_to_q, but the simulations
    // don't — it is applied after the batch completes.
    let (mids_a, starts_a) = bisection_tree((0.0, 10.0 * scale), 3);
    let mut offsets = vec![10.0 * scale];
    offsets.extend_from_slice(&mids_a);
    let res_a = run_offsets_batched(dff, scale, &offsets);
    let clk_to_q = res_a[0].clone()?.ok_or(CircuitError::NoConvergence {
        residual: f64::NAN,
        iterations: 0,
    })?;
    let pass = |t: &Option<f64>| matches!(t, Some(t) if *t < 3.0 * clk_to_q + 2.0 * scale);
    let mut lo = 0.0;
    let mut hi = 10.0 * scale;
    let mut path = 0usize;
    for &start in &starts_a {
        let t = res_a[1 + start + path].clone()?;
        let mid = 0.5 * (lo + hi);
        if pass(&t) {
            hi = mid;
            path *= 2;
        } else {
            lo = mid;
            path = 2 * path + 1;
        }
    }
    // Phase B: levels 4–6 rooted at the surviving interval (1+2+4 lanes).
    let (mids_b, starts_b) = bisection_tree((lo, hi), 3);
    let res_b = run_offsets_batched(dff, scale, &mids_b);
    path = 0;
    for &start in &starts_b {
        let t = res_b[start + path].clone()?;
        let mid = 0.5 * (lo + hi);
        if pass(&t) {
            hi = mid;
            path *= 2;
        } else {
            lo = mid;
            path = 2 * path + 1;
        }
    }
    // Level 7: by now the interval is fully determined — one scalar run.
    let mid = 0.5 * (lo + hi);
    let t = run_offset(dff, scale, mid)?;
    if pass(&t) {
        hi = mid;
    }
    Ok(MeasuredDff {
        clk_to_q,
        setup: hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::Process;
    use bdc_circuit::DcSolver;

    #[test]
    fn silicon_dff_is_a_valid_bistable_circuit() {
        let dff = build_dff(Process::Silicon.tech());
        assert_eq!(dff.transistor_count, 36);
        // DC solves with clock low (holds state).
        let op = DcSolver::new().solve(&dff.circuit).expect("dc");
        let q = op.voltage(dff.q);
        assert!((0.0..=1.0).contains(&(q / 1.0)) || q.abs() < 1.2);
    }

    #[test]
    fn silicon_dff_captures_on_rising_edge() {
        let dff = build_dff(Process::Silicon.tech());
        let m = measure_dff(&dff, 20.0e-12).expect("measure");
        // clk->Q of a 45 nm flop: tens of ps.
        assert!(
            m.clk_to_q > 5.0e-12 && m.clk_to_q < 5.0e-10,
            "clk_to_q {:.3e}",
            m.clk_to_q
        );
        assert!(m.setup > 0.0 && m.setup < 2.0e-10, "setup {:.3e}", m.setup);
    }

    #[test]
    fn speculative_bisection_is_bit_identical_to_scalar() {
        let dff = build_dff(Process::Silicon.tech());
        let scale = 20.0e-12;
        let s = measure_dff_scalar(&dff, scale).expect("scalar");
        let b = measure_dff_speculative(&dff, scale).expect("speculative");
        assert_eq!(s.clk_to_q.to_bits(), b.clk_to_q.to_bits());
        assert_eq!(s.setup.to_bits(), b.setup.to_bits());
    }

    #[test]
    fn organic_dff_captures_with_millisecond_timing() {
        let dff = build_dff(Process::Organic.tech());
        assert_eq!(dff.transistor_count, 48);
        let m = measure_dff(&dff, 0.7e-3).expect("measure");
        assert!(
            m.clk_to_q > 1.0e-4 && m.clk_to_q < 2.0e-2,
            "clk_to_q {:.3e}",
            m.clk_to_q
        );
        assert!(m.setup < 1.0e-2, "setup {:.3e}", m.setup);
    }
}
