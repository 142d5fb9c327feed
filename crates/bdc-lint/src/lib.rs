#![warn(missing_docs)]

//! Static analysis for the biodegradable-computing flow.
//!
//! The paper's Figure-10 flow hands artifacts between layers — transistor
//! netlists into SPICE, the 6-cell library into synthesis, gate netlists
//! into STA — and silently assumes each is well-formed. This crate makes
//! those invariants explicit as a rule-based analyzer with a unified
//! diagnostic model ([`Rule`], [`Severity`], [`Location`], fix hints) and
//! three front-ends:
//!
//! * [`lint_netlist`] — gate-level rules over [`bdc_synth::gate::Netlist`]
//!   (connectivity, topological order, liveness, fanout, NLDM coverage,
//!   library-style mapping);
//! * [`lint_library`] — physical sanity of a [`bdc_cells::CellLibrary`]
//!   and its NLDM tables (monotonicity, signs, rails, DFF timing);
//! * [`lint_device`] — plausibility of fitted [`bdc_device::TftParams`].
//!
//! The rule catalogue with rationale lives in `DESIGN.md` §"Static
//! analysis". `bdc_core::flow` runs the gate-level pass before STA
//! (configurable warn/deny), and the `lint_report` binary in `bdc-bench`
//! audits every generated netlist plus the shipped libraries.

pub mod diag;
pub mod library;
pub mod netlist;
pub mod source;

pub use diag::{Diagnostic, LintReport, Location, Rule, Severity, ALL_RULES};
pub use library::{lint_device, lint_library};
pub use netlist::lint_netlist;
pub use source::{
    find_workspace_root, lex, lint_source, lint_workspace, SourceClass, Token, TokenKind,
};

#[cfg(test)]
mod tests {
    //! One test per rule proving it fires on a minimal violating input,
    //! plus clean-pass checks on healthy artifacts.

    use bdc_cells::{Cell, CellKind, CellLibrary, DffTiming, NldmTable, Process, WireModel};
    use bdc_device::TftParams;
    use bdc_synth::gate::Netlist;
    use bdc_synth::sta::StaConfig;
    use bdc_synth::GateKind;

    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::synthetic(Process::Silicon, 15.0e-12)
    }

    fn cfg() -> StaConfig {
        StaConfig::default()
    }

    fn fired(report: &LintReport, rule: Rule) -> bool {
        report.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// A library whose NLDM tables have real (non-degenerate) axes, for the
    /// grid-coverage and monotonicity rules.
    fn gridded_lib() -> CellLibrary {
        let table = || {
            NldmTable::new(
                vec![1.0e-12, 1.0e-11, 1.0e-10],
                vec![1.0e-15, 1.0e-14, 1.0e-13],
                vec![
                    vec![1.0e-12, 2.0e-12, 4.0e-12],
                    vec![2.0e-12, 3.0e-12, 5.0e-12],
                    vec![4.0e-12, 5.0e-12, 7.0e-12],
                ],
            )
        };
        let mk = |kind: CellKind| Cell {
            kind,
            area: 1.0,
            input_cap: 1.5e-15,
            leakage_w: 1.0e-9,
            switching_energy: 1.0e-15,
            timing: bdc_cells::characterize::GateTiming {
                delay_rise: table(),
                delay_fall: table(),
                out_slew: table(),
            },
        };
        CellLibrary::from_cells(
            "gridded",
            Process::Silicon,
            1.0,
            0.0,
            WireModel::silicon_45nm(),
            DffTiming {
                setup: 1.0e-11,
                hold: 1.0e-12,
                clk_to_q: 1.0e-11,
            },
            CellKind::all().into_iter().map(mk).collect(),
        )
    }

    // ---- gate-level rules --------------------------------------------------

    #[test]
    fn nl001_undriven_net_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let ghost = n.net();
        let y = n.nand2(a, ghost);
        n.output(y, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::UndrivenNet), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn nl002_multiple_drivers_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        n.output(x, "y");
        // A second driver onto x via the rewriter escape hatch.
        n.gate_into(GateKind::Inv, &[a], x);
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::MultipleDrivers), "{r}");
    }

    #[test]
    fn nl003_non_topological_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let fwd = n.net();
        // First gate reads `fwd`, which only a *later* gate drives.
        let y = n.nand2(a, fwd);
        n.gate_into(GateKind::Inv, &[y], fwd);
        n.output(y, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::NonTopological), "{r}");
    }

    #[test]
    fn nl004_dead_gate_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        let _dead = n.inv(x);
        n.output(x, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::DeadGate), "{r}");
    }

    #[test]
    fn nl005_floating_net_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let _floating = n.net();
        let y = n.inv(a);
        n.output(y, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::FloatingNet), "{r}");
    }

    #[test]
    fn nl006_unused_input_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let _b = n.input("b");
        let y = n.inv(a);
        n.output(y, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::UnusedInput), "{r}");
    }

    #[test]
    fn nl007_fanout_over_max_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        for i in 0..10 {
            let y = n.inv(x);
            n.output(y, format!("y{i}"));
        }
        let cfg = StaConfig {
            max_fanout: 4,
            ..cfg()
        };
        let r = lint_netlist(&n, &lib(), &cfg);
        assert!(fired(&r, Rule::FanoutOverMax), "{r}");
        // Info severity: the report stays clean.
        assert!(r.is_clean());
    }

    #[test]
    fn nl008_load_beyond_table_fires() {
        // 120 sinks but max_fanout high enough that no buffer tree caps the
        // load: the driver sees ~180 fF of pin cap, beyond the 100 fF axis end.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        for i in 0..120 {
            let y = n.inv(x);
            n.output(y, format!("y{i}"));
        }
        let cfg = StaConfig {
            max_fanout: 256,
            ..cfg()
        };
        let r = lint_netlist(&n, &gridded_lib(), &cfg);
        assert!(fired(&r, Rule::LoadBeyondTable), "{r}");
    }

    #[test]
    fn nl009_slew_beyond_table_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let y = n.inv(a);
        n.output(y, "y");
        // Drive the primary inputs with a slew far beyond the grid.
        let cfg = StaConfig {
            input_slew: Some(1.0),
            ..cfg()
        };
        let r = lint_netlist(&n, &gridded_lib(), &cfg);
        assert!(fired(&r, Rule::SlewBeyondTable), "{r}");
    }

    #[test]
    fn nl010_dead_flop_fires() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let _q = n.flop(a);
        let y = n.inv(a);
        n.output(y, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::DeadFlop), "{r}");
    }

    #[test]
    fn nl011_unmapped_three_input_fires() {
        // The organic synthetic library has slow NAND3s relative to its
        // NAND2s? Build a library where decomposition wins by construction:
        // scale NAND3 delay up via the synthetic library's fixed ratios.
        // Synthetic ratios: nand3 = 1.9, nand2 = 1.4, inv = 1.0 → decomp
        // (2·1.4 + 1.0 = 3.8 worst) loses. Make a custom check instead: use
        // gridded_lib with a slowed NAND3.
        let mut cells: Vec<Cell> = gridded_lib().cells().to_vec();
        for c in &mut cells {
            if c.kind == CellKind::Nand3 {
                c.timing.delay_rise = c.timing.delay_rise.map(|d| d * 20.0);
                c.timing.delay_fall = c.timing.delay_fall.map(|d| d * 20.0);
            }
        }
        let g = gridded_lib();
        let slow3 = CellLibrary::from_cells(
            "slow-nand3",
            Process::Silicon,
            g.vdd,
            g.vss,
            g.wire,
            g.dff,
            cells,
        );
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let y = n.nand3(a, b, c);
        n.output(y, "y");
        let r = lint_netlist(&n, &slow3, &cfg());
        assert!(fired(&r, Rule::UnmappedThreeInput), "{r}");
    }

    #[test]
    fn nl012_constant_flop_fires() {
        let mut n = Netlist::new("t");
        let c = n.const1();
        let x = n.inv(c);
        let q = n.flop(x);
        n.output(q, "y");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(fired(&r, Rule::ConstantFlop), "{r}");
    }

    #[test]
    fn healthy_netlist_is_clean() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let (s, co) = n.full_adder(a, b, c);
        n.output(s, "s");
        n.output(co, "co");
        let r = lint_netlist(&n, &lib(), &cfg());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.count(Severity::Warning), 0, "{r}");
    }

    #[test]
    fn fixed_generators_carry_no_dead_logic() {
        // Regression: priority_select used to build a dead prefix cone for
        // incl[entries−1], and random_logic exposed only its last 8 nets,
        // leaving unreached cones and untouched inputs dangling.
        for n in [
            bdc_synth::blocks::priority_select(32),
            bdc_synth::blocks::priority_select(8),
            bdc_synth::blocks::random_logic(24, 500, 0xFE7C),
        ] {
            let r = lint_netlist(&n, &lib(), &cfg());
            for rule in [Rule::DeadGate, Rule::FloatingNet, Rule::UnusedInput] {
                assert!(!fired(&r, rule), "{} in {}: {r}", rule.id(), n.name);
            }
        }
    }

    // ---- library-level rules -----------------------------------------------

    /// Rebuilds the gridded library after mutating one cell.
    fn with_cell(f: impl Fn(&mut Cell)) -> CellLibrary {
        let g = gridded_lib();
        let mut cells: Vec<Cell> = g.cells().to_vec();
        for c in &mut cells {
            f(c);
        }
        CellLibrary::from_cells("mutated", g.process, g.vdd, g.vss, g.wire, g.dff, cells)
    }

    #[test]
    fn lb001_non_monotone_delay_fires() {
        let bad = with_cell(|c| {
            if c.kind == CellKind::Inv {
                // Invert the load dependence of one row.
                c.timing.delay_rise = NldmTable::new(
                    c.timing.delay_rise.slews().to_vec(),
                    c.timing.delay_rise.loads().to_vec(),
                    vec![
                        vec![4.0e-12, 2.0e-12, 1.0e-12],
                        vec![2.0e-12, 3.0e-12, 5.0e-12],
                        vec![4.0e-12, 5.0e-12, 7.0e-12],
                    ],
                );
            }
        });
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::NonMonotoneDelay), "{r}");
    }

    #[test]
    fn lb002_negative_delay_fires() {
        let bad = with_cell(|c| {
            if c.kind == CellKind::Nor2 {
                c.timing.delay_fall = c.timing.delay_fall.map(|d| d - 1.0e-11);
            }
        });
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::NegativeDelay), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn lb003_rail_order_fires() {
        let g = gridded_lib();
        let bad = CellLibrary::from_cells(
            "bad-rails",
            g.process,
            -1.0,
            0.0,
            g.wire,
            g.dff,
            g.cells().to_vec(),
        );
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::RailOrder), "{r}");
    }

    #[test]
    fn lb004_rail_convention_fires() {
        let g = gridded_lib();
        // An "organic" library without the negative bias rail.
        let bad = CellLibrary::from_cells(
            "no-bias",
            Process::Organic,
            5.0,
            0.0,
            g.wire,
            g.dff,
            g.cells().to_vec(),
        );
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::RailConvention), "{r}");
    }

    #[test]
    fn lb005_non_positive_cell_scalar_fires() {
        let bad = with_cell(|c| {
            if c.kind == CellKind::Dff {
                c.input_cap = 0.0;
            }
        });
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::NonPositiveCellScalar), "{r}");
    }

    #[test]
    fn lb006_bad_dff_timing_fires() {
        let g = gridded_lib();
        let bad = CellLibrary::from_cells(
            "bad-dff",
            g.process,
            g.vdd,
            g.vss,
            g.wire,
            DffTiming {
                setup: 0.0,
                hold: -1.0e-12,
                clk_to_q: 1.0e-11,
            },
            g.cells().to_vec(),
        );
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::BadDffTiming), "{r}");
    }

    #[test]
    fn lb007_degenerate_table_fires_on_synthetic() {
        let r = lint_library(&lib());
        assert!(fired(&r, Rule::DegenerateTable), "{r}");
        // Info severity only — synthetic libraries are legitimate.
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn lb008_axis_mismatch_fires() {
        let bad = with_cell(|c| {
            if c.kind == CellKind::Inv {
                c.timing.out_slew = NldmTable::new(
                    vec![1.0e-12, 1.0e-10],
                    vec![1.0e-15, 1.0e-13],
                    vec![vec![1.0e-12, 2.0e-12], vec![2.0e-12, 3.0e-12]],
                );
            }
        });
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::AxisMismatch), "{r}");
    }

    #[test]
    fn lb009_negative_drive_resistance_fires() {
        let bad = with_cell(|c| {
            if c.kind == CellKind::Inv {
                // Strictly decreasing with load everywhere: also LB001, but
                // the centre slope check must fire too.
                c.timing.delay_rise = NldmTable::new(
                    c.timing.delay_rise.slews().to_vec(),
                    c.timing.delay_rise.loads().to_vec(),
                    vec![
                        vec![7.0e-12, 5.0e-12, 4.0e-12],
                        vec![5.0e-12, 3.0e-12, 2.0e-12],
                        vec![4.0e-12, 2.0e-12, 1.0e-12],
                    ],
                );
                c.timing.delay_fall = c.timing.delay_rise.clone();
            }
        });
        let r = lint_library(&bad);
        assert!(fired(&r, Rule::NegativeDriveResistance), "{r}");
    }

    #[test]
    fn healthy_gridded_library_is_clean() {
        let r = lint_library(&gridded_lib());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.count(Severity::Warning), 0, "{r}");
    }

    // ---- device-level rules ------------------------------------------------

    #[test]
    fn dv001_bad_geometry_fires() {
        let mut p = TftParams::pentacene();
        p.ci = 0.0;
        let r = lint_device(&p);
        assert!(fired(&r, Rule::BadGeometry), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn dv002_mobility_out_of_range_fires() {
        let mut p = TftParams::pentacene();
        p.mu0 = 1.0; // 10^4 cm²/V·s: graphene, not pentacene.
        let r = lint_device(&p);
        assert!(fired(&r, Rule::MobilityOutOfRange), "{r}");
    }

    #[test]
    fn dv003_vt_out_of_range_fires() {
        let mut p = TftParams::pentacene();
        p.vt0 = -2.0;
        let r = lint_device(&p);
        assert!(fired(&r, Rule::VtOutOfRange), "{r}");
    }

    #[test]
    fn dv004_bad_subthreshold_slope_fires() {
        let mut p = TftParams::pentacene();
        p.subthreshold_n = 0.5;
        let r = lint_device(&p);
        assert!(fired(&r, Rule::BadSubthresholdSlope), "{r}");
    }

    #[test]
    fn dv005_bad_off_current_fires() {
        let mut p = TftParams::pentacene();
        p.i_off = 1.0e-3;
        let r = lint_device(&p);
        assert!(fired(&r, Rule::BadOffCurrent), "{r}");
    }

    #[test]
    fn paper_devices_are_plausible() {
        for p in [
            TftParams::pentacene(),
            TftParams::dntt(),
            TftParams::pentacene().aged(1.0),
        ] {
            let r = lint_device(&p);
            assert!(r.is_clean(), "{r}");
            assert_eq!(r.count(Severity::Warning), 0, "{r}");
        }
    }
}
