//! Quickstart: the full flow in one page.
//!
//! Builds the pentacene device model, measures the pseudo-E inverter,
//! characterizes both standard-cell libraries, synthesizes a 32-bit adder
//! against each, and prints the resulting clock rates side by side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bdc_cells::{measure_inverter_dc, organic_inverter, organic_library_point, OrganicStyle};
use bdc_core::report::{fmt_freq, fmt_time};
use bdc_core::{Process, TechKit};
use bdc_device::{DeviceModel, Level61Model};
use bdc_synth::blocks;
use bdc_synth::map::remap_for_library;
use bdc_synth::pipeline::{pipeline_cut, PipelineOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The device: the paper's fabricated pentacene OTFT, as the organic
    // technology carries it.
    let (tech, device, sizing) = organic_library_point();
    let tft = Level61Model::new(device.clone());
    println!("pentacene OTFT  W/L = 1000/80 um");
    println!(
        "  I_D(VGS=-10V, VDS=-10V) = {:.2} uA",
        tft.ids(-10.0, -10.0).abs() * 1.0e6
    );
    println!(
        "  gate capacitance        = {:.0} pF (the load that makes organic slow)",
        tft.gate_capacitance() * 1.0e12
    );

    // 2. A cell: the pseudo-E inverter at the library operating point.
    let inv = organic_inverter(device, OrganicStyle::PseudoE, sizing, tech.vdd, tech.vss);
    let dc = measure_inverter_dc(&inv, 101)?;
    println!(
        "\npseudo-E inverter @ VDD={}V, VSS={}V:",
        tech.vdd, tech.vss
    );
    println!(
        "  V_M = {:.2} V   gain = {:.2}   NM = {:.2}/{:.2} V",
        dc.vm, dc.max_gain, dc.nmh, dc.nml
    );

    // 3. Both libraries, characterized through the same flow.
    let organic = TechKit::build(Process::Organic)?;
    let silicon = TechKit::build(Process::Silicon)?;
    println!("\nFO4-like inverter delay:");
    println!("  organic: {}", fmt_time(organic.lib.fo4_delay()));
    println!("  silicon: {}", fmt_time(silicon.lib.fo4_delay()));
    println!(
        "  ratio  : {:.1e}x",
        organic.lib.fo4_delay() / silicon.lib.fo4_delay()
    );

    // 4. Synthesize a 32-bit adder against each and pipeline it 4 deep.
    let adder = blocks::carry_select_adder(32);
    for kit in [&silicon, &organic] {
        let (mapped, _) = remap_for_library(&adder, &kit.lib);
        let r = pipeline_cut(
            &mapped,
            &kit.lib,
            &kit.sta,
            &PipelineOptions {
                stages: 4,
                ..kit.pipe
            },
        );
        println!(
            "{}: 32-bit adder, 4 stages -> {} ({} registers, {:.2e} um2)",
            kit.process.name(),
            fmt_freq(r.frequency),
            r.registers,
            r.area_um2
        );
    }
    println!("\nNext: run a figure through the bdc CLI (e.g. `cargo run --release -p bdc-bench --bin bdc -- run fig12`).");
    Ok(())
}
