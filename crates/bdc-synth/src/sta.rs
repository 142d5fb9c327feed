//! Static timing analysis with NLDM interpolation and wire delays.
//!
//! Gates are appended in topological order by construction, so one forward
//! pass propagates arrival times and slews. Each net's load is the sum of
//! its sinks' input-pin capacitances plus estimated wire capacitance; each
//! gate's delay is its NLDM lookup plus the Elmore delay of its output net.

use bdc_cells::{CellKind, CellLibrary};

use crate::gate::Netlist;
use crate::place::{cell_of, Placement, PlacementModel};

/// STA settings.
#[derive(Debug, Clone, Copy)]
pub struct StaConfig {
    /// Placement coefficients.
    pub placement: PlacementModel,
    /// Slew assumed at primary inputs (s); `None` picks the middle of the
    /// library's characterized slew axis.
    pub input_slew: Option<f64>,
    /// Maximum fanout a single driver carries; nets above this get an
    /// inverter buffer tree (synthesis max-fanout constraint). Bounds the
    /// worst single-gate delay, which is the pipelining granularity floor.
    pub max_fanout: usize,
}

impl Default for StaConfig {
    fn default() -> Self {
        StaConfig {
            placement: PlacementModel::default(),
            input_slew: None,
            max_fanout: 8,
        }
    }
}

/// STA result.
#[derive(Debug, Clone)]
pub struct StaReport {
    /// Arrival time of every net (s); sources at 0.
    pub arrival: Vec<f64>,
    /// Per-gate propagation delay, aligned with `netlist.gates()` (s).
    pub gate_delay: Vec<f64>,
    /// Longest combinational arrival (s).
    pub max_arrival: f64,
    /// Largest single gate delay (s) — the pipelining granularity floor.
    pub max_gate_delay: f64,
    /// Minimum clock period for a *sequential* netlist:
    /// clk→Q + worst reg-to-reg logic + setup. Zero for pure combinational.
    pub min_period: f64,
    /// The placement used for wire estimation.
    pub placement: Placement,
    /// Total standard-cell area (µm²).
    pub area_um2: f64,
}

impl StaReport {
    /// Clock frequency implied by `min_period` (Hz).
    ///
    /// # Panics
    /// Panics for combinational netlists (no period).
    pub fn frequency(&self) -> f64 {
        assert!(
            self.min_period > 0.0,
            "combinational netlist has no clock period"
        );
        1.0 / self.min_period
    }
}

/// Runs STA on a netlist.
///
/// For sequential netlists, flop Q pins launch at `clk_to_q` and flop D pins
/// must meet `setup`; `min_period` reports the resulting constraint.
pub fn analyze(netlist: &Netlist, lib: &CellLibrary, cfg: &StaConfig) -> StaReport {
    let placement = cfg.placement.place(netlist, lib);
    let nominal_slew = cfg.input_slew.unwrap_or_else(|| {
        let s = lib.cell(CellKind::Inv).timing.delay_rise.slews();
        s[s.len() / 2]
    });

    // Load per net: sink pin caps + wire cap.
    let n_nets = netlist.net_count();
    let mut pin_load = vec![0.0f64; n_nets];
    let mut fanout = vec![0usize; n_nets];
    for g in netlist.gates() {
        let cap = lib.cell(cell_of(g.kind)).input_cap;
        for &i in &g.inputs {
            pin_load[i] += cap;
            fanout[i] += 1;
        }
    }
    let dff_cap = lib.cell(CellKind::Dff).input_cap;
    for f in netlist.flops() {
        pin_load[f.d] += dff_cap;
        fanout[f.d] += 1;
    }

    let drive_res = lib.drive_resistance().max(0.0);
    // Max-transition constraint: synthesis buffers any net whose slew would
    // exceed the characterized axis, so STA clamps propagated slews there.
    let max_slew = {
        let last = *lib
            .cell(CellKind::Inv)
            .timing
            .out_slew
            .slews()
            .last()
            .expect("non-empty slew axis");
        // Degenerate (constant-table) libraries have no real axis.
        if last > 0.0 {
            last
        } else {
            f64::INFINITY
        }
    };
    let mut arrival = vec![0.0f64; n_nets];
    let mut slew = vec![nominal_slew; n_nets];
    for f in netlist.flops() {
        arrival[f.q] = lib.dff.clk_to_q;
    }

    let inv = lib.cell(CellKind::Inv);
    let fmax = cfg.max_fanout.max(2);
    let mut gate_delay = Vec::with_capacity(netlist.gates().len());
    let mut max_gate_delay = 0.0f64;
    for g in netlist.gates() {
        let cell = lib.cell(cell_of(g.kind));
        // Worst input arrival; take that input's slew.
        let (t_in, s_in) =
            g.inputs
                .iter()
                .map(|&i| (arrival[i], slew[i]))
                .fold(
                    (0.0, nominal_slew),
                    |acc, x| if x.0 >= acc.0 { x } else { acc },
                );
        let fo = fanout[g.output].max(1);
        let d = if fo <= fmax {
            let wire_len = cfg.placement.local_net_length(&placement, fo);
            let load = pin_load[g.output] + lib.wire.capacitance(wire_len);
            let d_gate = cell.timing.delay_worst().lookup(s_in, load).max(0.0);
            let d_wire = lib.wire.delay(wire_len, drive_res);
            slew[g.output] = cell
                .timing
                .out_slew
                .lookup(s_in, load)
                .clamp(1e-18, max_slew);
            d_gate + d_wire
        } else {
            // Buffer tree: the driver and each buffer level drive ≤ fmax
            // sinks; ceil(log_fmax(fo)) − 1 extra inverter levels.
            let levels = ((fo as f64).ln() / (fmax as f64).ln()).ceil().max(1.0) as usize;
            let wire_len = cfg.placement.local_net_length(&placement, fmax);
            let leaf_load =
                pin_load[g.output] / fo as f64 * fmax as f64 + lib.wire.capacitance(wire_len);
            let branch_load = fmax as f64 * inv.input_cap + lib.wire.capacitance(wire_len);
            let d_drv = cell.timing.delay_worst().lookup(s_in, branch_load).max(0.0);
            let buf_slew = inv
                .timing
                .out_slew
                .lookup(nominal_slew, branch_load)
                .clamp(1e-18, max_slew);
            let d_buf = inv
                .timing
                .delay_worst()
                .lookup(buf_slew, branch_load)
                .max(0.0);
            let d_leaf = inv
                .timing
                .delay_worst()
                .lookup(buf_slew, leaf_load)
                .max(0.0);
            let d_wire = lib.wire.delay(wire_len, drive_res) * levels as f64;
            slew[g.output] = inv
                .timing
                .out_slew
                .lookup(buf_slew, leaf_load)
                .clamp(1e-18, max_slew);
            d_drv + (levels.saturating_sub(2)) as f64 * d_buf + d_leaf + d_wire
        };
        arrival[g.output] = t_in + d;
        gate_delay.push(d);
        max_gate_delay = max_gate_delay.max(d);
    }

    let max_arrival = arrival.iter().copied().fold(0.0, f64::max);
    let min_period = if netlist.flops().is_empty() {
        0.0
    } else {
        let worst_d = netlist
            .flops()
            .iter()
            .map(|f| arrival[f.d])
            .fold(0.0f64, f64::max);
        worst_d + lib.dff.setup
    };

    let area_um2 = placement.cell_area_um2;
    StaReport {
        arrival,
        gate_delay,
        max_arrival,
        max_gate_delay,
        min_period,
        placement,
        area_um2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use crate::gate::Netlist;
    use bdc_cells::{CellLibrary, Process};

    fn si_lib() -> CellLibrary {
        CellLibrary::synthetic(Process::Silicon, 15.0e-12)
    }

    #[test]
    fn inverter_chain_arrival_is_sum() {
        let lib = si_lib();
        let mut n = Netlist::new("chain");
        let mut x = n.input("a");
        for _ in 0..10 {
            x = n.inv(x);
        }
        n.output(x, "y");
        let r = analyze(&n, &lib, &StaConfig::default());
        // 10 inverters at the constant synthetic delay (plus small wire cost).
        let per_gate = r.max_arrival / 10.0;
        assert!(per_gate >= 15.0e-12 * 1.15, "per-gate {per_gate:.3e}");
        assert!(per_gate < 15.0e-12 * 2.0, "per-gate {per_gate:.3e}");
    }

    #[test]
    fn deeper_blocks_have_longer_critical_paths() {
        let lib = si_lib();
        let cfg = StaConfig::default();
        let a8 = analyze(&blocks::ripple_adder(8), &lib, &cfg);
        let a32 = analyze(&blocks::ripple_adder(32), &lib, &cfg);
        assert!(a32.max_arrival > 2.5 * a8.max_arrival);
        assert!(a32.area_um2 > 3.0 * a8.area_um2);
    }

    #[test]
    fn carry_select_faster_than_ripple_at_width() {
        let lib = si_lib();
        let cfg = StaConfig::default();
        let ripple = analyze(&blocks::ripple_adder(32), &lib, &cfg);
        let csel = analyze(&blocks::carry_select_adder(32), &lib, &cfg);
        assert!(
            csel.max_arrival < 0.7 * ripple.max_arrival,
            "csel {:.3e} vs ripple {:.3e}",
            csel.max_arrival,
            ripple.max_arrival
        );
        // Speed costs area.
        assert!(csel.area_um2 > ripple.area_um2);
    }

    #[test]
    fn sequential_period_includes_dff_overheads() {
        let lib = si_lib();
        let mut n = Netlist::new("seq");
        let a = n.input("a");
        let q = n.flop(a);
        let mut x = q;
        for _ in 0..5 {
            x = n.inv(x);
        }
        let _q2 = n.flop(x);
        let r = analyze(&n, &lib, &StaConfig::default());
        // period = clk_q + 5 gates + setup > 5 gates alone.
        let five_gates = 5.0 * 15.0e-12;
        assert!(r.min_period > five_gates + lib.dff.setup);
        assert!(r.frequency() > 0.0);
    }

    #[test]
    fn organic_wire_fraction_tiny_silicon_significant() {
        // The paper's §5.5 claim, measured on the same netlist.
        let mult = blocks::array_multiplier(16);
        let cfg = StaConfig::default();

        let si = CellLibrary::synthetic(Process::Silicon, 15.0e-12);
        let si_ideal = si.clone().with_wire(bdc_cells::WireModel::ideal());
        let r_si = analyze(&mult, &si, &cfg);
        let r_si_ideal = analyze(&mult, &si_ideal, &cfg);
        let si_wire_frac = (r_si.max_arrival - r_si_ideal.max_arrival) / r_si.max_arrival;

        let org = CellLibrary::synthetic(Process::Organic, 1.2e-4);
        let org_ideal = org.clone().with_wire(bdc_cells::WireModel::ideal());
        let r_org = analyze(&mult, &org, &cfg);
        let r_org_ideal = analyze(&mult, &org_ideal, &cfg);
        let org_wire_frac = (r_org.max_arrival - r_org_ideal.max_arrival) / r_org.max_arrival;

        assert!(
            si_wire_frac > 5.0 * org_wire_frac.max(1e-6),
            "si {si_wire_frac:.4} vs org {org_wire_frac:.6}"
        );
        assert!(
            org_wire_frac < 0.05,
            "organic wires must be near-free, got {org_wire_frac:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "no clock period")]
    fn frequency_panics_for_combinational() {
        let lib = si_lib();
        let r = analyze(&blocks::ripple_adder(4), &lib, &StaConfig::default());
        let _ = r.frequency();
    }
}
