//! Scenario: what a better organic semiconductor buys you.
//!
//! The paper's §5.3/§7 future-work note: DNTT-class materials have ~10× the
//! mobility of pentacene. This example builds the library's pseudo-E
//! inverter from each device at the organic technology's rails, measures
//! the gate-level speedup, and scales the synthesized pentacene core's
//! clock by it.
//!
//! ```text
//! cargo run --release --example device_scaling
//! ```

use bdc_cells::{characterize_gate, organic_inverter, organic_library_point, OrganicStyle};
use bdc_circuit::CircuitError;
use bdc_core::flow::{split_critical, synthesize_core};
use bdc_core::report::{fmt_freq, fmt_time};
use bdc_core::{CoreSpec, Process, TechKit};
use bdc_device::{DeviceModel, Level61Model, TftParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Material scaling: pentacene vs DNTT-class organic semiconductor\n");
    let (tech, pentacene, sizing) = organic_library_point();
    let dntt = TftParams::dntt();

    // Device level: on-current at matched bias.
    println!("I_D(VGS=-10V, VDS=-10V):");
    for (name, device) in [("pentacene", pentacene), ("DNTT     ", &dntt)] {
        let id = Level61Model::new(device.clone()).ids(-10.0, -10.0);
        println!("  {name}: {:.2} uA", id.abs() * 1.0e6);
    }

    // Gate level: the library's pseudo-E inverter built from each device
    // at the organic technology's rails, sizing and characterization grid.
    let fo4_delay = |device: &TftParams| -> Result<f64, CircuitError> {
        let gate = organic_inverter(device, OrganicStyle::PseudoE, sizing, tech.vdd, tech.vss);
        let t = characterize_gate(&gate, &tech.characterize)?;
        Ok(t.delay_worst().lookup(60.0e-6, 4.0 * gate.input_cap))
    };
    let d_pent = fo4_delay(pentacene)?;
    println!("\npentacene inverter FO4-like delay: {}", fmt_time(d_pent));

    // System level: the pentacene core vs its clock if gates were faster.
    let kit = TechKit::build(Process::Organic)?;
    let mut spec = CoreSpec::baseline();
    for _ in 0..5 {
        let (deeper, _) = split_critical(&kit, &spec);
        spec = deeper;
    }
    let base = synthesize_core(&kit, &CoreSpec::baseline());
    let deep = synthesize_core(&kit, &spec);
    println!(
        "\npentacene cores: 9-stage {} -> 14-stage {} ({:.2}x)",
        fmt_freq(base.frequency),
        fmt_freq(deep.frequency),
        deep.frequency / base.frequency
    );

    // The DNTT clock below scales the pentacene core by the measured gate
    // speedup; it assumes, rather than measures, that the deep optimum
    // survives faster gates.
    println!("\nwith a DNTT-class device (~10x mobility), the paper's §6.1 reference point");
    println!("(Myny 2014: 50x speedup from device optimization alone) says the whole");
    println!("curve shifts up while the *architectural* optimum stays deep:");
    let speedup = d_pent / fo4_delay(&dntt)?;
    println!("  measured gate-level speedup here: {speedup:.1}x");
    println!(
        "  implied 14-stage DNTT core clock: {}",
        fmt_freq(deep.frequency * speedup)
    );
    Ok(())
}
