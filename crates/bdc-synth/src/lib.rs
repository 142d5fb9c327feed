#![warn(missing_docs)]

//! Gate-level synthesis substrate: netlists, technology mapping, static
//! timing analysis, placement-based wire estimation, and pipeline cutting.
//!
//! This crate stands in for Synopsys Design Compiler in the paper's flow
//! (Figure 10). It provides:
//!
//! * a gate-level netlist IR over the 6-cell library vocabulary
//!   ([`gate`]), with rich combinational builders (adders, multipliers,
//!   dividers, shifters, muxes, CAMs, select trees — [`blocks`]);
//! * library-driven remapping, including the NAND3-vs-NAND2 decomposition
//!   choice the paper discusses in §5.5 ([`map`]);
//! * NLDM-interpolating static timing analysis with a placement-derived
//!   wire model ([`sta`], [`place`]);
//! * balanced pipeline cutting — the "cut the stage on the critical path"
//!   procedure used for the ALU- and core-depth experiments ([`pipeline`]);
//! * functional simulation for equivalence checking ([`funcsim`]).

pub mod blocks;
pub mod funcsim;
pub mod gate;
pub mod map;
pub mod pipeline;
pub mod place;
pub mod power;
pub mod sta;
pub mod stats;

pub use funcsim::{simulate_comb, simulate_seq};
pub use gate::{Gate, GateKind, NetId, Netlist};
pub use map::{remap_for_library, MapReport};
pub use pipeline::{insert_registers, pipeline_cut, stage_assignment, PipelineResult};
pub use place::{Placement, PlacementModel};
pub use power::{energy_per_instruction, estimate_power, PowerReport};
pub use sta::{analyze, StaConfig, StaReport};
pub use stats::{coverage_ratio, netlist_stats, NetlistStats};
