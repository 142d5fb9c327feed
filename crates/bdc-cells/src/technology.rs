//! Technologies as data.
//!
//! The paper runs two technologies — pentacene OTFT and 45 nm CMOS —
//! through one Figure-10 flow. Everything the two differ in lives in one
//! [`Technology`] value per process: names, the cell recipe, rails,
//! characterization grid, DFF derivation, wire model, the
//! simulation-free [`CellLibrary::synthetic`] constants and the
//! memory-array bit cell. [`Process::tech`] is the one place that maps a
//! process to its technology; every other layer reads fields, so a third
//! technology is a third instance, not a new branch in each layer.

use std::sync::OnceLock;

use bdc_circuit::CircuitError;
use bdc_device::TftParams;

use crate::characterize::{
    characterize_gate, measure_static_power, CharacterizeConfig, GateTiming,
};
use crate::library::{Cell, CellKind, CellLibrary, DffTiming};
use crate::topology::{
    cmos_gate, pseudo_e_gate, GateCircuit, LogicKind, OrganicSizing, ORGANIC_CHANNEL_L,
};
use crate::wire::WireModel;

/// The two processes the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Process {
    /// Pentacene OTFT, pseudo-E unipolar p-type logic.
    Organic,
    /// 45 nm-class silicon CMOS (reduced 6-cell library).
    Silicon,
}

impl Process {
    /// Both processes, organic first.
    pub fn both() -> [Process; 2] {
        [Process::Organic, Process::Silicon]
    }

    /// The process's technology: the one switch on the process.
    pub fn tech(self) -> &'static Technology {
        static TECHS: OnceLock<[Technology; 2]> = OnceLock::new();
        let [organic, silicon] = TECHS.get_or_init(|| [pentacene(), silicon_45nm()]);
        match self {
            Process::Organic => organic,
            Process::Silicon => silicon,
        }
    }

    /// Display name used in figures, artifact names and the serving API.
    pub fn name(self) -> &'static str {
        self.tech().name
    }

    /// Parses a [`Process::name`].
    pub fn from_name(name: &str) -> Option<Process> {
        Process::both().into_iter().find(|p| p.name() == name)
    }

    /// Position in [`Process::both`], for per-process tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A point in parameter space: the deltas a sweep applies on top of the
/// nominal device models. Flows through function arguments and cache
/// keys — never through the environment — so every artifact produced
/// under an overlay is addressed by it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamOverlay {
    /// Threshold-voltage shift (V) added to every organic transistor's
    /// `vt0` (magnitude convention, like `TftParams::vt0`). `0.0` is
    /// the nominal device, bit-identical to the un-swept flow.
    pub organic_delta_vt: f64,
}

impl Default for ParamOverlay {
    fn default() -> Self {
        ParamOverlay {
            organic_delta_vt: 0.0,
        }
    }
}

impl ParamOverlay {
    /// Whether this is the nominal point (bit-exact zero: `-0.0` has a
    /// different bit pattern, addresses different artifacts, and is
    /// deliberately *not* default).
    pub fn is_default(&self) -> bool {
        self.organic_delta_vt.to_bits() == 0.0f64.to_bits()
    }

    /// The canonical text form hashed into every overlay-sensitive stage
    /// key: the bit pattern of each delta, so distinct points can never
    /// collide through decimal rounding.
    pub fn canonical(&self) -> String {
        format!("organic.dvt={:016x}", self.organic_delta_vt.to_bits())
    }

    /// Parses [`ParamOverlay::canonical`] back; returns `None` on any
    /// malformation. Round-trips bit-exactly.
    pub fn from_canonical(s: &str) -> Option<ParamOverlay> {
        let hex = s.strip_prefix("organic.dvt=")?;
        if hex.len() != 16 {
            return None;
        }
        let bits = u64::from_str_radix(hex, 16).ok()?;
        Some(ParamOverlay {
            organic_delta_vt: f64::from_bits(bits),
        })
    }

    /// `device` at this point: its `vt0` shifted by
    /// [`ParamOverlay::organic_delta_vt`]. The one place a V_T shift is
    /// applied; `vt0 + 0.0` is exact for a nonzero `vt0`, so the default
    /// overlay returns the device bit for bit.
    pub fn apply(&self, device: &TftParams) -> TftParams {
        TftParams {
            vt0: device.vt0 + self.organic_delta_vt,
            ..device.clone()
        }
    }
}

/// How a technology turns a logic function into a transistor netlist —
/// the one real physics split between the processes.
#[derive(Debug, Clone, PartialEq)]
pub enum CellRecipe {
    /// Unipolar p-type pseudo-E cells on one organic TFT; the overlay's
    /// V_T shift applies to every transistor.
    PseudoE {
        /// The nominal device, drawn at each transistor's geometry.
        device: TftParams,
        /// Transistor geometries.
        sizing: OrganicSizing,
    },
    /// Complementary CMOS cells; the overlay does not reach them.
    Cmos {
        /// Unit transistor size (m) handed to [`cmos_gate`].
        l: f64,
        /// `l` as the stage keys spell it (`450e-9` has no exact `f64`
        /// formatting).
        l_key: &'static str,
    },
}

/// How the flow sizes memory arrays (caches, predictor tables, register
/// file, window payload), which enter the floorplan but are not
/// gate-synthesized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BitCell {
    /// A dense 6T SRAM bit of a fixed area (µm²).
    Sram {
        /// Area per bit (µm²).
        area: f64,
    },
    /// A compact latch: the library's DFF area divided by `per_dff`
    /// (the organic process has no dense SRAM).
    Latch {
        /// Latches per DFF footprint.
        per_dff: f64,
    },
}

/// The constants of the simulation-free [`CellLibrary::synthetic`]
/// library: the right orders of magnitude, no circuit simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConstants {
    /// Library name.
    pub name: &'static str,
    /// Inverter delay (s) of the synthetic test kit.
    pub gate_delay: f64,
    /// Input capacitance (F) of a unit cell.
    pub cap_scale: f64,
    /// Area (µm²) of a unit cell.
    pub area_scale: f64,
    /// Static power (W) per unit of relative cell delay.
    pub leakage_w: f64,
    /// DFF area in unit cells.
    pub dff_area: f64,
}

/// Everything one process technology differs in, as data.
#[derive(Debug, Clone)]
pub struct Technology {
    /// The process this technology characterizes.
    pub process: Process,
    /// Display name ([`Process::name`]).
    pub name: &'static str,
    /// Name of the characterized library.
    pub library_name: &'static str,
    /// The `process` tag of the Liberty dialect.
    pub liberty_tag: &'static str,
    /// Cell topology recipe.
    pub recipe: CellRecipe,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Negative bias rail (V); 0 for CMOS.
    pub vss: f64,
    /// NLDM characterization grid.
    pub characterize: CharacterizeConfig,
    /// DFF/NAND2 area ratio (larger in the organic process, where each
    /// pseudo-E gate carries a level-shifter stage that registers cannot
    /// share).
    pub dff_area_factor: f64,
    /// Interconnect model.
    pub wire: WireModel,
    /// The wire model's name in the library stage key.
    pub wire_name: &'static str,
    /// Memory-array bit cell.
    pub bit_cell: BitCell,
    /// Synthetic-library constants.
    pub synthetic: SyntheticConstants,
}

/// The organic pentacene technology at the paper's operating point
/// (VDD = 5 V, VSS = −15 V, §4.3.3).
fn pentacene() -> Technology {
    Technology {
        process: Process::Organic,
        name: "organic",
        library_name: "pentacene-pseudoE",
        liberty_tag: "organic",
        recipe: CellRecipe::PseudoE {
            device: TftParams::pentacene(),
            sizing: OrganicSizing::library_default(),
        },
        vdd: 5.0,
        vss: -15.0,
        characterize: CharacterizeConfig::organic(),
        dff_area_factor: 8.0,
        wire: WireModel::organic(),
        wire_name: "organic",
        bit_cell: BitCell::Latch { per_dff: 3.0 },
        synthetic: SyntheticConstants {
            name: "synthetic-Organic",
            gate_delay: 6.5e-4,
            cap_scale: 250.0e-12,
            area_scale: 8.5e5,
            leakage_w: 15.0e-6,
            dff_area: 11.2,
        },
    }
}

/// The reduced 6-cell 45 nm silicon comparison technology (§5.1).
fn silicon_45nm() -> Technology {
    Technology {
        process: Process::Silicon,
        name: "silicon",
        library_name: "reduced-45nm",
        liberty_tag: "silicon45",
        recipe: CellRecipe::Cmos {
            l: 450.0e-9,
            l_key: "450e-9",
        },
        vdd: 1.0,
        vss: 0.0,
        characterize: CharacterizeConfig::silicon(),
        dff_area_factor: 4.2,
        wire: WireModel::silicon_45nm(),
        wire_name: "silicon_45nm",
        bit_cell: BitCell::Sram { area: 0.5 },
        synthetic: SyntheticConstants {
            name: "synthetic-Silicon45",
            gate_delay: 8.0e-12,
            cap_scale: 1.5e-15,
            area_scale: 1.0,
            leakage_w: 60.0e-9,
            dff_area: 5.9,
        },
    }
}

impl Technology {
    /// Characterizes one combinational cell at a parameter point — the
    /// per-cell unit of the stage cache. Folding the five cells of
    /// [`LogicKind::all`] through [`Technology::assemble`] gives the
    /// library.
    ///
    /// # Errors
    /// Propagates characterization failures.
    pub fn build_cell(
        &self,
        kind: LogicKind,
        overlay: &ParamOverlay,
    ) -> Result<Cell, CircuitError> {
        let gate = self.gate(kind, overlay);
        let area = match self.recipe {
            CellRecipe::PseudoE { .. } => organic_gate_area(&gate),
            CellRecipe::Cmos { .. } => silicon_gate_area(kind),
        };
        let timing = characterize_gate(&gate, &self.characterize)?;
        let leakage_w = measure_static_power(&gate)?;
        Ok(Cell {
            kind: CellKind::from_logic(kind),
            area,
            input_cap: gate.input_cap,
            leakage_w,
            switching_energy: 2.0 * gate.input_cap * self.vdd * self.vdd,
            timing,
        })
    }

    /// One library cell's transistor netlist at a parameter point, at the
    /// technology's sizing and rails.
    pub fn gate(&self, kind: LogicKind, overlay: &ParamOverlay) -> GateCircuit {
        match &self.recipe {
            CellRecipe::PseudoE { device, sizing } => {
                pseudo_e_gate(&overlay.apply(device), kind, sizing, self.vdd, self.vss)
            }
            CellRecipe::Cmos { l, .. } => cmos_gate(kind, *l, self.vdd),
        }
    }

    /// Folds the five characterized combinational cells, in
    /// [`LogicKind::all`] order, into the full library: derives the DFF
    /// from the NAND2 and attaches rails, wire model and name.
    pub fn assemble(&self, mut cells: Vec<Cell>) -> CellLibrary {
        let (dff_cell, dff) = derive_dff(&cells, self.dff_area_factor);
        cells.push(dff_cell);
        CellLibrary::from_cells(
            self.library_name,
            self.process,
            self.vdd,
            self.vss,
            self.wire,
            dff,
            cells,
        )
    }

    /// Area (µm²) of one memory-array bit next to `lib`'s cells.
    pub fn bit_area(&self, lib: &CellLibrary) -> f64 {
        match self.bit_cell {
            BitCell::Sram { area } => area,
            BitCell::Latch { per_dff } => lib.cell(CellKind::Dff).area / per_dff,
        }
    }
}

/// The organic technology with its pseudo-E device and cell sizing: the
/// operating point of the library's cells and of the organic circuits
/// built outside the library.
pub fn organic_library_point() -> (
    &'static Technology,
    &'static TftParams,
    &'static OrganicSizing,
) {
    let tech = Process::Organic.tech();
    let CellRecipe::PseudoE { device, sizing } = &tech.recipe else {
        unreachable!("the organic technology builds pseudo-E cells")
    };
    (tech, device, sizing)
}

/// Area of an organic cell (µm²): every transistor occupies
/// (W + routing margin) × (L + 2·overlap + margin), shadow-mask rules.
fn organic_gate_area(gate: &GateCircuit) -> f64 {
    // Reconstruct widths is awkward post-hoc; approximate from transistor
    // count and input structure: the pseudo-E cells are dominated by their
    // output stage. Margins per shadow-mask alignment: 40 µm each side.
    let um = 1.0e6;
    let l_eff = (ORGANIC_CHANNEL_L * um) + 2.0 * 20.0 + 60.0;
    // Average drawn width across the cell's transistors (library default
    // sizing): (400 + 100 + 1000 + 500)/4 = 500 µm.
    let w_avg = 500.0 + 80.0;
    gate.transistor_count as f64 * w_avg * l_eff
}

/// Area of a silicon cell (µm²), standard-cell track estimates at 45 nm.
fn silicon_gate_area(kind: LogicKind) -> f64 {
    match kind {
        LogicKind::Inv => 1.0,
        LogicKind::Nand2 | LogicKind::Nor2 => 1.4,
        LogicKind::Nand3 | LogicKind::Nor3 => 1.9,
    }
}

/// Derives the DFF cell from the characterized NAND2: the flip-flop is the
/// classic 6-NAND edge-triggered structure with preset/clear, so its timing
/// and area are NAND multiples. `area_factor` is the DFF/NAND2 area ratio.
fn derive_dff(cells: &[Cell], area_factor: f64) -> (Cell, DffTiming) {
    let nand2 = cells
        .iter()
        .find(|c| c.kind == CellKind::Nand2)
        .expect("nand2 characterized");
    let slews = nand2.timing.delay_rise.slews();
    let mid_slew = slews[slews.len() / 2];
    let d_nom = nand2
        .timing
        .delay_worst()
        .lookup(mid_slew, 2.0 * nand2.input_cap);
    let dff = DffTiming {
        setup: 2.0 * d_nom,
        hold: 0.3 * d_nom,
        clk_to_q: 2.2 * d_nom,
    };
    // clk→Q arc: two internal NAND stages, load-dependent like the NAND.
    let timing = GateTiming {
        delay_rise: nand2.timing.delay_rise.map(|d| d + 1.2 * d_nom),
        delay_fall: nand2.timing.delay_fall.map(|d| d + 1.2 * d_nom),
        out_slew: nand2.timing.out_slew.clone(),
    };
    let cell = Cell {
        kind: CellKind::Dff,
        area: nand2.area * area_factor,
        input_cap: nand2.input_cap,
        leakage_w: nand2.leakage_w * 0.75 * area_factor,
        switching_energy: nand2.switching_energy * 2.0,
        timing,
    };
    (cell, dff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_names_round_trip_and_index_both() {
        for (i, p) in Process::both().into_iter().enumerate() {
            assert_eq!(Process::from_name(p.name()), Some(p));
            assert_eq!(p.index(), i);
            assert_eq!(p.tech().process, p);
        }
        assert_eq!(Process::from_name("Organic"), None);
    }

    #[test]
    fn cmos_key_literal_parses_to_its_field() {
        let CellRecipe::Cmos { l, l_key } = Process::Silicon.tech().recipe else {
            panic!("silicon is a CMOS technology");
        };
        let parsed: f64 = l_key.parse().expect("l_key is a number");
        assert_eq!(parsed.to_bits(), l.to_bits());
    }
}
