#![warn(missing_docs)]

//! Device models for biodegradable-computing architecture studies.
//!
//! This crate is the lowest layer of the `biodegradable-computing` workspace.
//! It provides compact transistor models for the two process technologies
//! compared in *“Architectural Tradeoffs for Biodegradable Computing”*
//! (MICRO-50, 2017):
//!
//! * **Pentacene organic thin-film transistors (OTFTs)** — a level-61-class
//!   RPI TFT model ([`Level61Model`]) and the simpler level-1
//!   Shichman–Hodges model ([`Level1Model`]), both fitted against a synthetic
//!   “measured” transfer curve generated from the device parameters the paper
//!   reports for its fabricated devices (µ_lin = 0.16 cm²V⁻¹s⁻¹,
//!   SS = 350 mV/dec, on/off = 10⁶, V_T = ∓1.3 V, W/L = 1000/80 µm).
//! * **Deep-submicron silicon MOSFETs** — an alpha-power-law model
//!   ([`SiliconMosModel`]) calibrated to public 45 nm-class numbers, used to
//!   build the reduced silicon comparison library.
//!
//! All models implement the [`DeviceModel`] trait, which exposes the DC
//! drain-current characteristic and lumped terminal capacitances consumed by
//! the `bdc-circuit` simulator.
//!
//! # Example
//!
//! ```
//! use bdc_device::{Level61Model, TftParams, DeviceModel};
//!
//! // The paper's fabricated pentacene OTFT: W/L = 1000 µm / 80 µm.
//! let tft = Level61Model::new(TftParams::pentacene());
//! // A p-type device conducts for negative V_GS; at V_GS = -10 V,
//! // V_DS = -10 V it carries microamps.
//! let id = tft.ids(-10.0, -10.0).abs();
//! assert!(id > 1.0e-6 && id < 1.0e-4);
//! ```
//!
//! Units are SI throughout: volts, amperes, farads, metres, seconds.

pub mod curves;
pub mod extract;
pub mod level1;
pub mod level61;
pub mod model;
pub mod params;
pub mod silicon;
pub mod variation;

pub use curves::{transfer_curve, TransferPoint};
pub use extract::{extract_metrics, fit_level1, fit_level61, DeviceMetrics, FitError, FitReport};
pub use level1::Level1Model;
pub use level61::Level61Model;
pub use model::{DeviceModel, Polarity};
pub use params::{Level1Params, SiliconMosParams, TftParams};
pub use silicon::SiliconMosModel;

/// Permittivity of free space (F/m).
pub const EPS0: f64 = 8.854_187_812_8e-12;

/// Thermal voltage kT/q at room temperature (V).
pub const VT_THERMAL: f64 = 0.02585;
