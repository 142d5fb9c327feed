//! Property tests: the Liberty-flavoured serialization round-trips
//! arbitrary characterized libraries exactly.

use proptest::prelude::*;

use bdc_cells::characterize::GateTiming;
use bdc_cells::library::DffTiming;
use bdc_cells::{
    parse_library, write_library, Cell, CellKind, CellLibrary, NldmTable, Process, WireModel,
};

/// Strategy for a well-formed NLDM table.
fn table_strategy() -> impl Strategy<Value = NldmTable> {
    (2usize..5, 2usize..5).prop_flat_map(|(ns, nl)| {
        let slews = proptest::collection::vec(1.0e-12..1.0e-3f64, ns..=ns);
        let loads = proptest::collection::vec(1.0e-16..1.0e-9f64, nl..=nl);
        let values = proptest::collection::vec(
            proptest::collection::vec(1.0e-13..1.0e-2f64, nl..=nl),
            ns..=ns,
        );
        (slews, loads, values).prop_map(|(mut s, mut l, v)| {
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            l.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s.dedup();
            l.dedup();
            // Pad if dedup shrank an axis (rare with floats).
            while s.len() < v.len() {
                let last = *s.last().unwrap();
                s.push(last * 2.0);
            }
            let rows = v
                .into_iter()
                .take(s.len())
                .map(|r| r[..l.len()].to_vec())
                .collect();
            NldmTable::new(s, l, rows)
        })
    })
}

fn library_strategy() -> impl Strategy<Value = CellLibrary> {
    (
        proptest::collection::vec(table_strategy(), 6..=6),
        1.0e-13..1.0e-3f64,
        prop_oneof![Just(Process::Organic), Just(Process::Silicon)],
        0.1..20.0f64,
    )
        .prop_map(|(tables, dff_scale, process, vdd)| {
            let mut it = tables.into_iter();
            let cells: Vec<Cell> = CellKind::all()
                .into_iter()
                .map(|kind| {
                    // Rise/fall/slew share axes (as real characterization
                    // produces); fall and slew derive from the rise grid.
                    let rise = it.next().unwrap();
                    Cell {
                        kind,
                        area: 1.0 + vdd,
                        input_cap: 1.0e-15,
                        leakage_w: dff_scale * 1.0e-3,
                        switching_energy: vdd * 1.0e-15,
                        timing: GateTiming {
                            delay_fall: rise.map(|d| d * 1.2),
                            out_slew: rise.map(|d| d * 0.8),
                            delay_rise: rise,
                        },
                    }
                })
                .collect();
            CellLibrary::from_cells(
                "prop",
                process,
                vdd,
                if process == Process::Organic {
                    -vdd
                } else {
                    0.0
                },
                WireModel::silicon_45nm(),
                DffTiming {
                    setup: dff_scale,
                    hold: dff_scale / 4.0,
                    clk_to_q: dff_scale * 1.1,
                },
                cells,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_library_round_trips(lib in library_strategy()) {
        let text = write_library(&lib);
        let back = parse_library(&text).expect("parse back");
        prop_assert_eq!(&back.name, &lib.name);
        prop_assert_eq!(back.process, lib.process);
        prop_assert_eq!(back.vdd, lib.vdd);
        prop_assert_eq!(back.vss, lib.vss);
        prop_assert_eq!(back.dff, lib.dff);
        prop_assert_eq!(back.wire, lib.wire);
        for kind in CellKind::all() {
            let a = lib.cell(kind);
            let b = back.cell(kind);
            prop_assert_eq!(a.area, b.area);
            prop_assert_eq!(a.input_cap, b.input_cap);
            prop_assert_eq!(a.leakage_w, b.leakage_w);
            prop_assert_eq!(a.switching_energy, b.switching_energy);
            prop_assert_eq!(&a.timing.delay_rise, &b.timing.delay_rise);
            prop_assert_eq!(&a.timing.delay_fall, &b.timing.delay_fall);
            prop_assert_eq!(&a.timing.out_slew, &b.timing.out_slew);
        }
    }

    #[test]
    fn lookup_survives_round_trip(lib in library_strategy(), slew in 1.0e-12..1.0e-4f64, load in 1.0e-16..1.0e-10f64) {
        let back = parse_library(&write_library(&lib)).expect("parse back");
        for kind in CellKind::all() {
            let a = lib.cell(kind).timing.delay_worst().lookup(slew, load);
            let b = back.cell(kind).timing.delay_worst().lookup(slew, load);
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn characterized_library_round_trips_via_disk_format() {
    // The real (simulated) organic library through the text format.
    let lib = bdc_core::process::shared_kit(bdc_core::Process::Organic);
    let text = write_library(&lib.lib);
    let back = parse_library(&text).expect("parse");
    assert_eq!(
        back.cell(CellKind::Inv).timing.delay_rise,
        lib.lib.cell(CellKind::Inv).timing.delay_rise
    );
    assert_eq!(back.dff, lib.lib.dff);
}
