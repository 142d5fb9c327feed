//! Golden-output tests: representative registry
//! nodes render byte-identically to the stdout the pre-registry legacy
//! binaries produced at `--quick` (captured before the refactor and
//! committed under `tests/golden/`).
//!
//! The set spans every node family: a device figure, the model fit, a
//! cell figure, the V_SS regression, a depth figure, a width figure, a
//! table, and an extension. Byte equality here, plus the determinism
//! contract (cold vs warm renders are identical), is what lets `bdc run
//! <id>` stand in for the 25 retired per-figure binaries.

use bdc_core::registry::run_one;

fn check(id: &str, golden: &str) {
    let out = run_one(id, true).unwrap_or_else(|e| panic!("{id}: {e}"));
    assert!(
        out.text == golden,
        "{id}: rendered text differs from the pre-refactor golden capture\n\
         --- golden ---\n{golden}\n--- rendered ---\n{}",
        out.text
    );
}

#[test]
fn golden_fig03_device_transfer() {
    check("fig03", include_str!("golden/fig03.quick.txt"));
}

#[test]
fn golden_fig04_model_fit() {
    check("fig04", include_str!("golden/fig04.quick.txt"));
}

#[test]
fn golden_fig06_cell_inverters() {
    check("fig06", include_str!("golden/fig06.quick.txt"));
}

#[test]
fn golden_fig08_vss_regression() {
    check("fig08", include_str!("golden/fig08.quick.txt"));
}

#[test]
fn golden_fig12_alu_depth() {
    check("fig12", include_str!("golden/fig12.quick.txt"));
}

#[test]
fn golden_fig14_width_area() {
    check("fig14", include_str!("golden/fig14.quick.txt"));
}

#[test]
fn golden_table_library() {
    check(
        "table-library",
        include_str!("golden/table-library.quick.txt"),
    );
}

#[test]
fn golden_ext_degradation() {
    check(
        "ext-degradation",
        include_str!("golden/ext-degradation.quick.txt"),
    );
}
