#![warn(missing_docs)]

//! Standard cell libraries for the organic (pentacene) and silicon (45 nm)
//! processes, with NLDM timing characterization.
//!
//! This crate reproduces §4.3–4.4 of *“Architectural Tradeoffs for
//! Biodegradable Computing”*: the unipolar p-type pseudo-E cell topologies,
//! the DC design-space analysis that selects supply rails, and the
//! non-linear delay model (NLDM) characterization that turns transistor
//! netlists into the look-up-table timing libraries consumed by synthesis.
//!
//! The paper's library has six cells: INV, NAND2, NAND3, NOR2, NOR3 and a
//! D-flip-flop with preset and clear. Each process is one [`Technology`]
//! value ([`Process::tech`]): [`Technology::build_cell`] characterizes a
//! cell and [`Technology::assemble`] folds the five combinational cells
//! into the library, so the organic library and the reduced 6-cell
//! silicon comparison library go through exactly the same code.

pub mod characterize;
pub mod dff_sim;
pub mod dynamic;
pub mod liberty;
pub mod library;
pub mod nldm;
pub mod sizing;
pub mod technology;
pub mod topology;
pub(crate) mod tracker;
pub mod wire;

pub use characterize::{
    characterize_gate, measure_inverter_dc, measure_static_power, CharacterizeConfig, DcSummary,
};
pub use dff_sim::{build_dff, measure_dff, DffCircuit, MeasuredDff};
pub use dynamic::{
    characterize_dynamic, characterize_dynamic_loads, organic_dynamic_gate, DynamicTiming,
};
pub use liberty::{parse_library, write_library, LibertyError};
pub use library::{parse_cell_text, write_cell_text, Cell, CellKind, CellLibrary, DffTiming};
pub use nldm::NldmTable;
pub use sizing::{evaluate_sizing, explore_inverter_sizing, SizingCandidate, Utility};
pub use technology::{
    organic_library_point, BitCell, CellRecipe, ParamOverlay, Process, SyntheticConstants,
    Technology,
};
pub use topology::{
    cmos_gate, organic_gate, organic_inverter, GateCircuit, LogicKind, OrganicSizing, OrganicStyle,
    ORGANIC_CHANNEL_L,
};
pub use wire::WireModel;
