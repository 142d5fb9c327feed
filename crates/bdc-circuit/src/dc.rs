//! Newton–Raphson DC operating-point solver.
//!
//! Unknown vector layout: `x = [v_1 … v_{n-1}, i_src0 … i_srcK]` (ground is
//! eliminated). The residual is KCL at every non-ground node plus the branch
//! voltage equation of every source. Robustness measures:
//!
//! * per-iteration voltage step damping (configurable clamp);
//! * a `gmin` conductance from every node to ground, swept down to its final
//!   value (gmin stepping) if plain iteration fails;
//! * convergence on both residual current and voltage delta.

use crate::error::CircuitError;
use crate::linalg::DenseMatrix;
use crate::netlist::{Circuit, Element, NodeId};

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct Operating {
    voltages: Vec<f64>,
    branch_currents: Vec<f64>,
}

impl Operating {
    /// Node voltage (V). Ground reads 0.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.voltages[node.index() - 1]
        }
    }

    /// Current through the `idx`-th voltage source (A), flowing from its
    /// positive terminal through the source to the negative terminal.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn source_current(&self, idx: usize) -> f64 {
        self.branch_currents[idx]
    }

    /// All node voltages (excluding ground), in node order.
    pub fn node_voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// All source branch currents, in source order.
    pub fn branch_currents(&self) -> &[f64] {
        &self.branch_currents
    }
}

/// Configurable Newton–Raphson DC solver.
#[derive(Debug, Clone)]
pub struct DcSolver {
    /// Maximum NR iterations per gmin step.
    pub max_iterations: usize,
    /// Convergence threshold on the KCL residual (A).
    pub abs_tol: f64,
    /// Convergence threshold on voltage updates (V).
    pub v_tol: f64,
    /// Largest allowed voltage change per iteration (V).
    pub step_clamp: f64,
    /// Final gmin conductance to ground (S).
    pub gmin: f64,
    /// Initial guess for node voltages; zeros if `None`.
    pub initial: Option<Vec<f64>>,
}

impl Default for DcSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl DcSolver {
    /// A solver with defaults suitable for both 1 V silicon and ±20 V
    /// organic cells.
    pub fn new() -> Self {
        DcSolver {
            max_iterations: 200,
            abs_tol: 1.0e-12,
            v_tol: 1.0e-9,
            step_clamp: 2.0,
            gmin: 1.0e-12,
            initial: None,
        }
    }

    /// Uses `voltages` (per non-ground node, in node order) as the NR seed —
    /// the continuation trick that makes DC sweeps fast and monotone.
    pub fn with_initial(mut self, voltages: Vec<f64>) -> Self {
        self.initial = Some(voltages);
        self
    }

    /// Solves the DC operating point.
    ///
    /// # Errors
    /// [`CircuitError::NoConvergence`] if NR fails even with gmin stepping;
    /// [`CircuitError::SingularMatrix`] for structurally singular circuits.
    pub fn solve(&self, circuit: &Circuit) -> Result<Operating, CircuitError> {
        circuit.validate()?;
        let nv = circuit.node_count() - 1;
        let ns = circuit.vsource_count();
        let n = nv + ns;
        if n == 0 {
            return Ok(Operating {
                voltages: vec![],
                branch_currents: vec![],
            });
        }
        let mut x = vec![0.0; n];
        if let Some(init) = &self.initial {
            let k = init.len().min(nv);
            x[..k].copy_from_slice(&init[..k]);
        }

        // Plain attempt at final gmin, then gmin stepping from 1e-3 down.
        if let Ok(()) = self.newton(circuit, &mut x, self.gmin) {
            return Ok(self.package(circuit, x));
        }
        let mut x2 = vec![0.0; n];
        let mut g = 1.0e-3;
        while g >= self.gmin {
            self.newton(circuit, &mut x2, g).map_err(|e| match e {
                CircuitError::NoConvergence {
                    residual,
                    iterations,
                } => CircuitError::NoConvergence {
                    residual,
                    iterations,
                },
                other => other,
            })?;
            g /= 10.0;
        }
        // Final polish at exact gmin.
        self.newton(circuit, &mut x2, self.gmin)?;
        Ok(self.package(circuit, x2))
    }

    fn package(&self, circuit: &Circuit, x: Vec<f64>) -> Operating {
        let nv = circuit.node_count() - 1;
        Operating {
            voltages: x[..nv].to_vec(),
            branch_currents: x[nv..].to_vec(),
        }
    }

    /// One NR loop at a fixed gmin. On success `x` holds the solution.
    fn newton(&self, circuit: &Circuit, x: &mut [f64], gmin: f64) -> Result<(), CircuitError> {
        let nv = circuit.node_count() - 1;
        let n = x.len();
        let mut jac = DenseMatrix::zeros(n, n);
        let mut f = vec![0.0; n];
        for iter in 0..self.max_iterations {
            jac.clear();
            f.fill(0.0);
            stamp(circuit, x, gmin, &mut jac, &mut f);
            let res = f.iter().take(nv).fold(0.0f64, |m, v| m.max(v.abs()));

            // Solve J·dx = -f. The Jacobian is re-stamped next iteration,
            // so factor it in place instead of solving on a clone.
            let mut rhs: Vec<f64> = f.iter().map(|v| -v).collect();
            let pivots = jac.lu_factor_in_place()?;
            jac.lu_solve(&pivots, &mut rhs);
            let mut dv_max = 0.0f64;
            for (i, xi) in x.iter_mut().enumerate() {
                let mut d = rhs[i];
                if i < nv {
                    d = d.clamp(-self.step_clamp, self.step_clamp);
                    dv_max = dv_max.max(d.abs());
                }
                *xi += d;
            }
            if res < self.abs_tol && dv_max < self.v_tol && iter > 0 {
                return Ok(());
            }
            // Also accept pure voltage convergence with a loose residual:
            // nanoamp-scale circuits (organic) have tiny absolute currents.
            if dv_max < self.v_tol && res < 1.0e-9 && iter > 1 {
                return Ok(());
            }
        }
        // Final residual check.
        jac.clear();
        f.fill(0.0);
        stamp(circuit, x, gmin, &mut jac, &mut f);
        let res = f.iter().take(nv).fold(0.0f64, |m, v| m.max(v.abs()));
        if res < 1.0e-9 {
            return Ok(());
        }
        Err(CircuitError::NoConvergence {
            residual: res,
            iterations: self.max_iterations,
        })
    }
}

/// Stamps the Jacobian and residual for the current iterate `x`.
///
/// Capacitors are open in DC and contribute nothing.
fn stamp(circuit: &Circuit, x: &[f64], gmin: f64, jac: &mut DenseMatrix, f: &mut [f64]) {
    let nv = circuit.node_count() - 1;
    let v = |id: NodeId| -> f64 {
        if id.index() == 0 {
            0.0
        } else {
            x[id.index() - 1]
        }
    };
    // Row/col index of a node, or None for ground.
    let ix = |id: NodeId| -> Option<usize> { id.index().checked_sub(1) };

    // gmin to ground at every node.
    for i in 0..nv {
        jac.add(i, i, gmin);
        f[i] += gmin * x[i];
    }

    let mut src_idx = 0;
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let (va, vb) = (v(*a), v(*b));
                let i_ab = g * (va - vb);
                if let Some(ra) = ix(*a) {
                    f[ra] += i_ab;
                    jac.add(ra, ra, g);
                    if let Some(rb) = ix(*b) {
                        jac.add(ra, rb, -g);
                    }
                }
                if let Some(rb) = ix(*b) {
                    f[rb] -= i_ab;
                    jac.add(rb, rb, g);
                    if let Some(ra) = ix(*a) {
                        jac.add(rb, ra, -g);
                    }
                }
            }
            Element::Capacitor { .. } => {}
            Element::VSource { pos, neg, volts } => {
                let row = nv + src_idx;
                let i_br = x[row];
                // Branch equation: v_pos - v_neg - V = 0.
                f[row] = v(*pos) - v(*neg) - volts;
                if let Some(rp) = ix(*pos) {
                    jac.add(row, rp, 1.0);
                    f[rp] += i_br;
                    jac.add(rp, row, 1.0);
                }
                if let Some(rn) = ix(*neg) {
                    jac.add(row, rn, -1.0);
                    f[rn] -= i_br;
                    jac.add(rn, row, -1.0);
                }
                src_idx += 1;
            }
            Element::Fet { d, g, s, model } => {
                stamp_fet(x, *d, *g, *s, model.as_ref(), jac, f);
            }
        }
    }
}

/// Stamps one FET's linearized model — the only nonlinear (per-iteration)
/// stamp in the system. The transient solver calls this directly so it can
/// re-assemble just the FETs each NR step while reusing the constant
/// resistor/source/companion stamps.
pub(crate) fn stamp_fet(
    x: &[f64],
    d: NodeId,
    g: NodeId,
    s: NodeId,
    model: &dyn bdc_device::DeviceModel,
    jac: &mut DenseMatrix,
    f: &mut [f64],
) {
    let v = |id: NodeId| -> f64 {
        if id.index() == 0 {
            0.0
        } else {
            x[id.index() - 1]
        }
    };
    let ix = |id: NodeId| -> Option<usize> { id.index().checked_sub(1) };
    let vgs = v(g) - v(s);
    let vds = v(d) - v(s);
    let ids = model.ids(vgs, vds);
    let gm = model.gm(vgs, vds);
    let gds = model.gds(vgs, vds);
    // Current flows d → s (positive ids).
    if let Some(rd) = ix(d) {
        f[rd] += ids;
        jac.add(rd, rd, gds);
        if let Some(rg) = ix(g) {
            jac.add(rd, rg, gm);
        }
        if let Some(rs) = ix(s) {
            jac.add(rd, rs, -(gm + gds));
        }
    }
    if let Some(rs) = ix(s) {
        f[rs] -= ids;
        jac.add(rs, rs, gm + gds);
        if let Some(rg) = ix(g) {
            jac.add(rs, rg, -gm);
        }
        if let Some(rd) = ix(d) {
            jac.add(rs, rd, -gds);
        }
    }
}

/// Stamps everything at once for the current iterate `x` — the reference
/// formulation the transient solver's split-stamp fast path is checked
/// against in tests.
#[cfg(test)]
pub(crate) fn stamp_static(
    circuit: &Circuit,
    x: &[f64],
    gmin: f64,
    jac: &mut DenseMatrix,
    f: &mut [f64],
) {
    stamp(circuit, x, gmin, jac, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdc_device::{Level61Model, SiliconMosModel, SiliconMosParams, TftParams};
    use std::sync::Arc;

    #[test]
    fn divider_solves_exactly() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.vsource(a, Circuit::GND, 10.0);
        c.resistor(a, m, 1.0e3);
        c.resistor(m, Circuit::GND, 3.0e3);
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(m) - 7.5).abs() < 1e-8);
        // Source supplies 2.5 mA; branch current convention: + terminal in.
        assert!((op.source_current(0).abs() - 2.5e-3).abs() < 1e-8);
    }

    #[test]
    fn empty_circuit_is_trivially_solved() {
        let c = Circuit::new();
        let op = DcSolver::new().solve(&c).unwrap();
        assert_eq!(op.node_voltages().len(), 0);
    }

    #[test]
    fn floating_node_is_singular_without_gmin_path() {
        // A capacitor-only node: gmin keeps this solvable, pinning it to 0 V.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("float");
        c.vsource(a, Circuit::GND, 5.0);
        c.capacitor(a, b, 1.0e-12);
        let op = DcSolver::new().solve(&c).unwrap();
        assert!(op.voltage(b).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_silicon_fet_biases() {
        // NMOS with gate tied to drain through Vdd and source grounded:
        // current must equal the model's prediction at the solved bias.
        let mut c = Circuit::new();
        let d = c.node("d");
        c.vsource(d, Circuit::GND, 1.0);
        let model = Arc::new(SiliconMosModel::new(SiliconMosParams::nmos_45()));
        c.fet(d, d, Circuit::GND, model.clone());
        let op = DcSolver::new().solve(&c).unwrap();
        use bdc_device::DeviceModel;
        let expect = model.ids(1.0, 1.0);
        assert!((op.source_current(0).abs() - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn organic_diode_load_inverter_output_high_is_degraded() {
        // Diode-load p-type inverter (paper Fig 5a): with input low the
        // output cannot reach VDD — the ratioed-logic weakness the paper
        // quantifies in Fig 6.
        let vdd = 15.0;
        let mut c = Circuit::new();
        let n_vdd = c.node("vdd");
        let n_in = c.node("in");
        let n_out = c.node("out");
        c.vsource(n_vdd, Circuit::GND, vdd);
        c.vsource(n_in, Circuit::GND, 0.0);
        let drive = Arc::new(Level61Model::new(TftParams::pentacene()));
        let load = Arc::new(Level61Model::new(
            TftParams::pentacene().sized(500.0e-6, 80.0e-6),
        ));
        // Drive: source at VDD, gate at IN, drain at OUT (p-type pulls up).
        c.fet(n_out, n_in, n_vdd, drive);
        // Load: diode-connected p-type pulling down to GND.
        c.fet(Circuit::GND, Circuit::GND, n_out, load);
        let op = DcSolver::new().solve(&c).unwrap();
        let vout = op.voltage(n_out);
        assert!(
            vout > 0.5 * vdd,
            "output-high {vout:.2} V should be well above mid-rail"
        );
        assert!(
            vout < 0.99 * vdd,
            "diode load must degrade V_OH below VDD, got {vout:.2}"
        );
    }
}
