//! DC transfer sweeps with solution continuation.

use crate::dc::{DcSolver, Operating};
use crate::error::CircuitError;
use crate::netlist::Circuit;

/// One sweep point: the swept source value and the full operating point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Value the swept source was set to (V).
    pub input: f64,
    /// The converged DC solution at that input.
    pub op: Operating,
}

/// Sweeps voltage source `src_idx` from `start` to `stop` over `n` points,
/// seeding each Newton solve with the previous solution (continuation).
///
/// Returns one [`SweepPoint`] per step.
///
/// # Errors
/// Propagates the first solver failure.
///
/// # Panics
/// Panics if `n < 2`.
pub fn dc_sweep(
    circuit: &Circuit,
    src_idx: usize,
    start: f64,
    stop: f64,
    n: usize,
) -> Result<Vec<SweepPoint>, CircuitError> {
    assert!(n >= 2, "a sweep needs at least two points");
    let mut work = circuit.clone();
    let mut out = Vec::with_capacity(n);
    let mut seed: Option<Vec<f64>> = None;
    for i in 0..n {
        let t = i as f64 / (n - 1) as f64;
        let vin = start + t * (stop - start);
        work.set_vsource(src_idx, vin);
        let mut solver = DcSolver::new();
        if let Some(s) = seed.take() {
            solver = solver.with_initial(s);
        }
        let op = solver.solve(&work)?;
        seed = Some(op.node_voltages().to_vec());
        out.push(SweepPoint { input: vin, op });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    #[test]
    fn sweep_tracks_divider_linearly() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, m, 1.0e3);
        c.resistor(m, Circuit::GND, 1.0e3);
        let pts = dc_sweep(&c, s, 0.0, 10.0, 11).unwrap();
        assert_eq!(pts.len(), 11);
        for p in &pts {
            assert!((p.op.voltage(m) - p.input / 2.0).abs() < 1e-8);
        }
        assert!((pts[10].op.voltage(m) - 5.0).abs() < 1e-8);
    }

    #[test]
    fn sweep_reports_source_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let s = c.vsource(a, Circuit::GND, 0.0);
        c.resistor(a, Circuit::GND, 100.0);
        let pts = dc_sweep(&c, s, 0.0, 1.0, 3).unwrap();
        // Source current at +1 V into 100 Ω is -10 mA by our convention
        // (current flows out of the + terminal through the external circuit).
        assert!((pts[2].op.source_current(s).abs() - 0.01).abs() < 1e-9);
    }
}
