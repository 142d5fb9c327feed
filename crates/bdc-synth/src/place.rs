//! Placement-derived wirelength estimation.
//!
//! Synthesis needs wire lengths before layout exists, so — like a wire-load
//! model in Design Compiler — we estimate them from block area: cells tile a
//! square die; a local net spans a few cell pitches (growing with fanout);
//! feedback and stage-crossing nets span a fraction of the die side.

use bdc_cells::{CellKind, CellLibrary};

use crate::gate::{GateKind, Netlist};

/// Converts a gate kind to its library cell.
pub fn cell_of(kind: GateKind) -> CellKind {
    match kind {
        GateKind::Inv => CellKind::Inv,
        GateKind::Nand2 => CellKind::Nand2,
        GateKind::Nand3 => CellKind::Nand3,
        GateKind::Nor2 => CellKind::Nor2,
        GateKind::Nor3 => CellKind::Nor3,
    }
}

/// Tunable placement coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementModel {
    /// Die area = routing_factor × Σ cell area.
    pub routing_factor: f64,
    /// Local net length = local_k × pitch × (1 + √fanout).
    pub local_k: f64,
    /// Stage-crossing / feedback net length = crossing_k × die side.
    pub crossing_k: f64,
}

impl Default for PlacementModel {
    fn default() -> Self {
        PlacementModel {
            routing_factor: 2.0,
            local_k: 1.0,
            crossing_k: 1.0,
        }
    }
}

/// Result of placing one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Total standard-cell area (µm²).
    pub cell_area_um2: f64,
    /// Die area including routing (µm²).
    pub die_area_um2: f64,
    /// Die side (m).
    pub die_side_m: f64,
    /// Average cell pitch (m).
    pub pitch_m: f64,
    /// Number of placeable instances.
    pub instances: usize,
}

impl PlacementModel {
    /// Places a netlist against a library.
    pub fn place(&self, netlist: &Netlist, lib: &CellLibrary) -> Placement {
        let mut area = 0.0;
        for g in netlist.gates() {
            area += lib.cell(cell_of(g.kind)).area;
        }
        area += netlist.flops().len() as f64 * lib.cell(CellKind::Dff).area;
        let instances = netlist.gates().len() + netlist.flops().len();
        self.place_area(area, instances.max(1))
    }

    /// Places a known cell area directly (used when composing many blocks).
    pub fn place_area(&self, cell_area_um2: f64, instances: usize) -> Placement {
        let die_area_um2 = self.routing_factor * cell_area_um2;
        let die_side_m = (die_area_um2.max(1e-12)).sqrt() * 1.0e-6;
        let pitch_m = (die_area_um2 / instances.max(1) as f64).sqrt() * 1.0e-6;
        Placement {
            cell_area_um2,
            die_area_um2,
            die_side_m,
            pitch_m,
            instances: instances.max(1),
        }
    }

    /// Estimated length (m) of a local net with the given fanout.
    pub fn local_net_length(&self, p: &Placement, fanout: usize) -> f64 {
        self.local_k * p.pitch_m * (1.0 + (fanout as f64).sqrt())
    }

    /// Estimated length (m) of a net that crosses the block (feedback,
    /// stall, broadcast). `span` scales the crossing in units of die sides.
    pub fn crossing_length(&self, p: &Placement, span: f64) -> f64 {
        self.crossing_k * p.die_side_m * span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use bdc_cells::{CellLibrary, Process};

    #[test]
    fn silicon_multiplier_die_is_sub_millimetre() {
        let lib = CellLibrary::synthetic(Process::Silicon, 15.0e-12);
        let mult = blocks::array_multiplier(32);
        let p = PlacementModel::default().place(&mult, &lib);
        assert!(
            p.die_side_m > 20.0e-6 && p.die_side_m < 2.0e-3,
            "side {:.3e}",
            p.die_side_m
        );
    }

    #[test]
    fn organic_multiplier_die_is_centimetres() {
        let lib = CellLibrary::synthetic(Process::Organic, 1.0e-4);
        let mult = blocks::array_multiplier(32);
        let p = PlacementModel::default().place(&mult, &lib);
        // 80 µm channels: a 32-bit multiplier needs a glass panel.
        assert!(
            p.die_side_m > 0.02 && p.die_side_m < 2.0,
            "side {:.3} m",
            p.die_side_m
        );
    }

    #[test]
    fn local_nets_shorter_than_crossings() {
        let lib = CellLibrary::synthetic(Process::Silicon, 15.0e-12);
        let mult = blocks::array_multiplier(16);
        let m = PlacementModel::default();
        let p = m.place(&mult, &lib);
        assert!(m.local_net_length(&p, 2) < 0.2 * m.crossing_length(&p, 1.0));
    }

    #[test]
    fn area_scales_with_gate_count() {
        let lib = CellLibrary::synthetic(Process::Silicon, 15.0e-12);
        let small = PlacementModel::default().place(&blocks::array_multiplier(8), &lib);
        let big = PlacementModel::default().place(&blocks::array_multiplier(16), &lib);
        assert!(big.cell_area_um2 > 3.0 * small.cell_area_um2);
    }
}
