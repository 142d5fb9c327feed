//! Power and energy estimation — the paper's §7 “energy optimization”
//! future-work axis, built on the per-cell leakage and switching energies
//! the characterization flow measures.
//!
//! The two processes have opposite power structure:
//!
//! * **organic pseudo-E** logic is *ratioed*: the level-shifter branch
//!   conducts statically, so leakage dominates and finishing work sooner
//!   (deeper pipelines, higher clock) *saves* energy per instruction;
//! * **silicon CMOS** leaks little at these cell counts, so switching
//!   energy dominates and extra pipeline registers *cost* energy.

use bdc_cells::{CellKind, CellLibrary};

use crate::gate::Netlist;
use crate::place::cell_of;

/// Power estimate for a netlist at an operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Static (leakage / ratioed) power, W.
    pub static_w: f64,
    /// Dynamic (switching) power at the given clock and activity, W.
    pub dynamic_w: f64,
    /// Clock used (Hz).
    pub frequency: f64,
    /// Activity factor used.
    pub activity: f64,
}

impl PowerReport {
    /// Total power (W).
    pub fn total_w(&self) -> f64 {
        self.static_w + self.dynamic_w
    }

    /// Fraction of total power that is static.
    pub fn static_fraction(&self) -> f64 {
        self.static_w / self.total_w().max(1e-300)
    }
}

/// Estimates power for `netlist` (plus `extra_registers` pipeline flops)
/// clocked at `frequency` with the given switching `activity`
/// (0–1, fraction of gates toggling per cycle; flop clock pins always
/// toggle).
///
/// # Panics
/// Panics if `frequency` or `activity` is not positive/in range.
pub fn estimate_power(
    netlist: &Netlist,
    lib: &CellLibrary,
    extra_registers: usize,
    frequency: f64,
    activity: f64,
) -> PowerReport {
    assert!(frequency > 0.0, "frequency must be positive");
    assert!((0.0..=1.0).contains(&activity), "activity must be in [0,1]");
    let mut static_w = 0.0;
    let mut switch_j = 0.0;
    for g in netlist.gates() {
        let cell = lib.cell(cell_of(g.kind));
        static_w += cell.leakage_w;
        switch_j += activity * cell.switching_energy;
    }
    let dff = lib.cell(CellKind::Dff);
    let flops = netlist.flops().len() + extra_registers;
    static_w += flops as f64 * dff.leakage_w;
    // Flop clock pins toggle every cycle; data with the activity factor.
    switch_j += flops as f64 * dff.switching_energy * (0.5 + 0.5 * activity);
    PowerReport {
        static_w,
        dynamic_w: switch_j * frequency,
        frequency,
        activity,
    }
}

/// Energy per instruction (J) for a core running at `ipc` × `frequency`.
pub fn energy_per_instruction(report: &PowerReport, ipc: f64) -> f64 {
    assert!(ipc > 0.0, "ipc must be positive");
    report.total_w() / (ipc * report.frequency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use bdc_cells::{CellLibrary, Process};

    #[test]
    fn organic_is_static_dominated_silicon_is_not() {
        let adder = blocks::ripple_adder(16);
        let org = CellLibrary::synthetic(Process::Organic, 6.5e-4);
        let si = CellLibrary::synthetic(Process::Silicon, 1.0e-11);
        let p_org = estimate_power(&adder, &org, 0, 20.0, 0.15);
        let p_si = estimate_power(&adder, &si, 0, 1.0e9, 0.15);
        assert!(
            p_org.static_fraction() > 0.9,
            "organic static {:.3}",
            p_org.static_fraction()
        );
        assert!(
            p_si.static_fraction() < 0.5,
            "silicon static {:.3}",
            p_si.static_fraction()
        );
    }

    #[test]
    fn dynamic_power_scales_with_frequency_and_activity() {
        let adder = blocks::ripple_adder(8);
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0e-11);
        let slow = estimate_power(&adder, &lib, 0, 1.0e8, 0.2);
        let fast = estimate_power(&adder, &lib, 0, 1.0e9, 0.2);
        assert!((fast.dynamic_w / slow.dynamic_w - 10.0).abs() < 1e-9);
        let busy = estimate_power(&adder, &lib, 0, 1.0e9, 0.4);
        assert!(busy.dynamic_w > fast.dynamic_w);
        // Static power is frequency-independent.
        assert_eq!(slow.static_w, fast.static_w);
    }

    #[test]
    fn pipeline_registers_add_power() {
        let adder = blocks::ripple_adder(8);
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0e-11);
        let bare = estimate_power(&adder, &lib, 0, 1.0e9, 0.2);
        let piped = estimate_power(&adder, &lib, 200, 1.0e9, 0.2);
        assert!(piped.total_w() > bare.total_w());
    }

    #[test]
    fn energy_per_instruction_inverse_in_throughput() {
        let adder = blocks::ripple_adder(8);
        let lib = CellLibrary::synthetic(Process::Organic, 6.5e-4);
        let r = estimate_power(&adder, &lib, 0, 10.0, 0.2);
        let e1 = energy_per_instruction(&r, 0.5);
        let e2 = energy_per_instruction(&r, 1.0);
        assert!((e1 / e2 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "activity must be in")]
    fn rejects_bad_activity() {
        let adder = blocks::ripple_adder(4);
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0e-11);
        let _ = estimate_power(&adder, &lib, 0, 1.0e9, 1.5);
    }
}
