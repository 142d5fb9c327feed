#![warn(missing_docs)]

//! End-to-end architectural exploration flow for biodegradable (organic)
//! processors — the reproduction of *“Architectural Tradeoffs for
//! Biodegradable Computing”* (MICRO-50, 2017).
//!
//! This crate glues the substrates together into the paper's Figure-10
//! flow:
//!
//! ```text
//! fabricated OTFTs → device models → standard cells → NLDM library
//!        (bdc-device)    (bdc-device)   (bdc-cells)    (bdc-cells)
//!                                  ↓
//!      core netlists → synthesis/STA → min period + area
//!        (bdc-synth)      (bdc-synth)
//!                                  ↓
//!      cycle-accurate simulation → IPC       performance = IPC × f
//!        (bdc-uarch)
//! ```
//!
//! The [`experiments`] module has one driver per figure/table of the
//! paper's evaluation (see `DESIGN.md` for the experiment index),
//! [`report`] renders paper-style tables and heatmaps, and [`registry`]
//! catalogues every experiment as a schedulable node behind the `bdc`
//! CLI, the serving layer and CI (`DESIGN.md` §5g).
//!
//! # Quickstart
//!
//! ```no_run
//! use bdc_core::{Process, TechKit};
//!
//! // Characterize the organic library and synthesize the complex ALU at
//! // eight pipeline stages.
//! let kit = TechKit::build(Process::Organic)?;
//! let alu = bdc_core::flow::alu_cluster();
//! let result = bdc_core::flow::pipeline_alu(&kit, &alu, 8);
//! println!("8-stage organic ALU: {:.1} Hz", result.frequency);
//! # Ok::<(), bdc_circuit::CircuitError>(())
//! ```

pub mod corespec;
pub mod experiments;
pub mod extensions;
pub mod flow;
pub mod process;
pub mod registry;
pub mod report;
pub mod stage;
pub mod sweep;

pub use corespec::{CoreSpec, StageKind};
pub use flow::{
    alu_cluster, lint_gate, measure_ipc, measure_ipc_cached, pipeline_alu, pipeline_alu_cached,
    synthesize_core, synthesize_core_cached, SynthesizedCore,
};
pub use process::{library_artifact, Process, TechKit};
pub use stage::{library_stage_key, stage_graph, ParamOverlay, StageGraph, StageNode};

#[cfg(test)]
pub(crate) mod testenv {
    //! `BDC_CACHE_DIR` is process-global and re-read per cache call, so
    //! unit tests that redirect it must serialize on one lock or a
    //! neighbour's `remove_var` yanks the override mid-run.
    use std::sync::{Mutex, MutexGuard, OnceLock};

    pub fn cache_env_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }
}
