//! Library- and device-level lint.
//!
//! Fitted device models and characterized libraries go subtly out of
//! physical range long before they crash anything (cf. Krammer et al. on
//! OTFT compact models): a non-monotone NLDM table or a negative rail
//! yields plausible-looking but wrong depth/width optima. These rules
//! check the physical sanity of `CellLibrary` and `TftParams` artifacts at
//! the flow hand-offs.

use bdc_cells::{CellLibrary, CellRecipe, NldmTable};
use bdc_device::TftParams;

use crate::diag::{Diagnostic, LintReport, Location, Rule};

/// Relative wiggle allowed before a delay decrease along the load axis is
/// reported — characterization noise produces harmless micro-dips.
const MONOTONE_TOLERANCE: f64 = 1.0e-6;

/// Runs every library-level rule over `lib`.
pub fn lint_library(lib: &CellLibrary) -> LintReport {
    let mut report = LintReport::new(lib.name.clone());

    // ---- LB003/LB004 rails -------------------------------------------------
    if lib.vdd <= 0.0 || lib.vdd <= lib.vss {
        report.push(
            Diagnostic::new(
                Rule::RailOrder,
                Location::Library,
                format!(
                    "inconsistent rails: VDD = {} V, VSS = {} V",
                    lib.vdd, lib.vss
                ),
            )
            .with_hint("VDD must be positive and above VSS"),
        );
    } else {
        match lib.process.tech().recipe {
            CellRecipe::PseudoE { .. } if lib.vss >= 0.0 => {
                report.push(
                    Diagnostic::new(
                        Rule::RailConvention,
                        Location::Library,
                        format!("organic pseudo-E library with VSS = {} V", lib.vss),
                    )
                    .with_hint(
                        "unipolar p-type pseudo-E logic needs a negative bias rail (§4.3.3)",
                    ),
                );
            }
            CellRecipe::Cmos { .. } if lib.vss != 0.0 => {
                report.push(
                    Diagnostic::new(
                        Rule::RailConvention,
                        Location::Library,
                        format!("CMOS library with VSS = {} V", lib.vss),
                    )
                    .with_hint("CMOS libraries here model VSS as ground"),
                );
            }
            _ => {}
        }
    }

    // ---- LB006 DFF timing --------------------------------------------------
    let dff = lib.dff;
    if dff.setup <= 0.0 || dff.clk_to_q <= 0.0 || dff.hold < 0.0 {
        report.push(
            Diagnostic::new(
                Rule::BadDffTiming,
                Location::Library,
                format!(
                    "DFF timing out of range: setup {:.3e} s, hold {:.3e} s, clk→Q {:.3e} s",
                    dff.setup, dff.hold, dff.clk_to_q
                ),
            )
            .with_hint("setup and clk→Q must be positive, hold non-negative"),
        );
    }

    // ---- per-cell rules ----------------------------------------------------
    for cell in lib.cells() {
        let name = cell.kind.name();
        if cell.area <= 0.0 || cell.input_cap <= 0.0 {
            report.push(Diagnostic::new(
                Rule::NonPositiveCellScalar,
                Location::Cell(name),
                format!(
                    "area {:.3e} µm², input cap {:.3e} F must be positive",
                    cell.area, cell.input_cap
                ),
            ));
        }
        if cell.leakage_w < 0.0 || cell.switching_energy < 0.0 {
            report.push(Diagnostic::new(
                Rule::NonPositiveCellScalar,
                Location::Cell(name),
                format!(
                    "leakage {:.3e} W and switching energy {:.3e} J must be non-negative",
                    cell.leakage_w, cell.switching_energy
                ),
            ));
        }

        let arcs: [(&str, &NldmTable); 3] = [
            ("delay_rise", &cell.timing.delay_rise),
            ("delay_fall", &cell.timing.delay_fall),
            ("out_slew", &cell.timing.out_slew),
        ];
        for (arc, table) in arcs {
            lint_table(name, arc, table, &mut report);
        }
        if cell.timing.delay_rise.slews() != cell.timing.delay_fall.slews()
            || cell.timing.delay_rise.loads() != cell.timing.delay_fall.loads()
            || cell.timing.delay_rise.slews() != cell.timing.out_slew.slews()
            || cell.timing.delay_rise.loads() != cell.timing.out_slew.loads()
        {
            report.push(
                Diagnostic::new(
                    Rule::AxisMismatch,
                    Location::Cell(name),
                    "rise/fall/slew arcs disagree on NLDM axes",
                )
                .with_hint("characterize all arcs of one cell on a shared slew × load grid"),
            );
        }
    }

    report
}

/// Table-level rules: LB001 monotonicity, LB002 sign, LB007 degeneracy,
/// LB009 drive resistance.
fn lint_table(cell: &'static str, arc: &str, table: &NldmTable, report: &mut LintReport) {
    if table.slews().len() < 2 && table.loads().len() < 2 {
        report.push(Diagnostic::new(
            Rule::DegenerateTable,
            Location::Cell(cell),
            format!("{arc}: degenerate 1×1 table; load/slew dependence uncharacterized"),
        ));
        return;
    }

    for (i, row) in table.values().iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v < 0.0 {
                report.push(
                    Diagnostic::new(
                        Rule::NegativeDelay,
                        Location::Cell(cell),
                        format!("{arc}[{i}][{j}] = {v:.3e} s is negative"),
                    )
                    .with_hint("the fitted model left its physical range; re-characterize"),
                );
            }
        }
        // Delay must not shrink as load grows (same slew row).
        for j in 1..row.len() {
            let (lo, hi) = (row[j - 1], row[j]);
            if hi < lo * (1.0 - MONOTONE_TOLERANCE) {
                report.push(
                    Diagnostic::new(
                        Rule::NonMonotoneDelay,
                        Location::Cell(cell),
                        format!(
                            "{arc} row {i}: value drops from {lo:.3e} to {hi:.3e} as load grows"
                        ),
                    )
                    .with_hint("non-monotone fitted tables corrupt interpolation; re-characterize"),
                );
            }
        }
    }

    if table.loads().len() >= 2 && table.drive_resistance() < 0.0 {
        report.push(Diagnostic::new(
            Rule::NegativeDriveResistance,
            Location::Cell(cell),
            format!("{arc}: negative ∂delay/∂load at the table centre"),
        ));
    }
}

/// Physically plausible mobility window for the devices this repo models
/// (m²/V·s): from badly degraded organic films to beyond DNTT-class OTFTs.
/// Silicon MOSFETs are modeled by a different parameter set and are not
/// checked against this window.
const MOBILITY_RANGE: (f64, f64) = (1.0e-8, 1.0e-1);

/// Runs every device-level rule over `params`.
pub fn lint_device(params: &TftParams) -> LintReport {
    let mut report = LintReport::new("tft-params");

    if params.w <= 0.0 || params.l <= 0.0 || params.ci <= 0.0 || params.l_overlap < 0.0 {
        report.push(Diagnostic::new(
            Rule::BadGeometry,
            Location::Param("w/l/ci"),
            format!(
                "W = {:.3e} m, L = {:.3e} m, C_i = {:.3e} F/m², L_ov = {:.3e} m",
                params.w, params.l, params.ci, params.l_overlap
            ),
        ));
    }

    if params.mu0 <= 0.0 {
        report.push(Diagnostic::new(
            Rule::BadGeometry,
            Location::Param("mu0"),
            format!(
                "mobility prefactor {:.3e} m²/V·s must be positive",
                params.mu0
            ),
        ));
    } else if params.mu0 < MOBILITY_RANGE.0 || params.mu0 > MOBILITY_RANGE.1 {
        report.push(
            Diagnostic::new(
                Rule::MobilityOutOfRange,
                Location::Param("mu0"),
                format!(
                    "mobility {:.3e} m²/V·s outside the plausible OTFT window [{:.0e}, {:.0e}]",
                    params.mu0, MOBILITY_RANGE.0, MOBILITY_RANGE.1
                ),
            )
            .with_hint("check the fitted extraction; pentacene is ~1.6e-5, DNTT ~1.6e-4 m²/V·s"),
        );
    }

    if params.vt0 < 0.0 {
        report.push(
            Diagnostic::new(
                Rule::VtOutOfRange,
                Location::Param("vt0"),
                format!("threshold magnitude {:.2} V is negative", params.vt0),
            )
            .with_hint("vt0 holds the magnitude; polarity carries the sign"),
        );
    } else if params.vt0 > 10.0 {
        report.push(Diagnostic::new(
            Rule::VtOutOfRange,
            Location::Param("vt0"),
            format!(
                "threshold magnitude {:.2} V is implausibly large",
                params.vt0
            ),
        ));
    }

    if params.subthreshold_n < 1.0 || params.subthreshold_n > 30.0 {
        report.push(
            Diagnostic::new(
                Rule::BadSubthresholdSlope,
                Location::Param("subthreshold_n"),
                format!("ideality n = {:.2} outside [1, 30]", params.subthreshold_n),
            )
            .with_hint("n < 1 is sub-physical (60 mV/dec limit at room temperature)"),
        );
    }

    if params.i_off <= 0.0 {
        report.push(Diagnostic::new(
            Rule::BadOffCurrent,
            Location::Param("i_off"),
            format!("off-current floor {:.3e} A must be positive", params.i_off),
        ));
    } else if params.i_off > 1.0e-6 {
        report.push(
            Diagnostic::new(
                Rule::BadOffCurrent,
                Location::Param("i_off"),
                format!(
                    "off-current floor {:.3e} A collapses the on/off ratio",
                    params.i_off
                ),
            )
            .with_hint("the paper's device has on/off ≈ 10⁶ with I_off ≈ 2 pA"),
        );
    }

    report
}
