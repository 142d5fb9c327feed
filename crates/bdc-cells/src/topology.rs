//! Transistor-level topologies for the standard cells.
//!
//! Organic cells use unipolar p-type logic. Three inverter styles from the
//! paper's Figure 5 are provided — diode-load, biased-load, and the
//! pseudo-E (pseudo-CMOS) style the paper adopts — plus pseudo-E NAND/NOR
//! gates (Figure 9). Silicon cells use complementary CMOS.
//!
//! Conventions for the p-type cells (supplies `VDD > GND > VSS`):
//!
//! * a p-type transistor with source at VDD and gate at an input *conducts
//!   when the input is low*;
//! * the pseudo-E level-shifter stage (transistors M1/M2) produces an
//!   internal node swinging between ≈VDD and ≈VSS, which gates the output
//!   pull-down M4 — this is what restores full rail-to-rail swing.

use std::sync::Arc;

use bdc_circuit::{Circuit, NodeId};
use bdc_device::{DeviceModel, Level61Model, SiliconMosModel, SiliconMosParams, TftParams};

use crate::technology::organic_library_point;

/// Logic function of a combinational standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicKind {
    /// Inverter.
    Inv,
    /// Two-input NAND.
    Nand2,
    /// Three-input NAND.
    Nand3,
    /// Two-input NOR.
    Nor2,
    /// Three-input NOR.
    Nor3,
}

impl LogicKind {
    /// Number of logic inputs.
    pub fn fan_in(self) -> usize {
        match self {
            LogicKind::Inv => 1,
            LogicKind::Nand2 | LogicKind::Nor2 => 2,
            LogicKind::Nand3 | LogicKind::Nor3 => 3,
        }
    }

    /// Evaluates the boolean function.
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.fan_in()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.fan_in());
        match self {
            LogicKind::Inv => !inputs[0],
            LogicKind::Nand2 | LogicKind::Nand3 => !inputs.iter().all(|&b| b),
            LogicKind::Nor2 | LogicKind::Nor3 => !inputs.iter().any(|&b| b),
        }
    }

    /// All cell kinds in a canonical order (the 6-cell library of the paper
    /// is these five logic cells plus the D-flip-flop).
    pub fn all() -> [LogicKind; 5] {
        [
            LogicKind::Inv,
            LogicKind::Nand2,
            LogicKind::Nand3,
            LogicKind::Nor2,
            LogicKind::Nor3,
        ]
    }
}

/// Unipolar inverter styles compared in the paper's §4.3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrganicStyle {
    /// Diode-connected load to ground (Figure 5a) — simplest, worst gain.
    DiodeLoad,
    /// Load gate tied to a negative bias rail V_SS (Figure 5b).
    BiasedLoad,
    /// Pseudo-CMOS "pseudo-E": level-shifter stage + output stage
    /// (Figure 5c) — the style adopted for the library.
    PseudoE,
}

/// Transistor geometries (m) for the organic cells. Drive transistors use
/// the process's minimum 80 µm channel; the always-on load devices sit at a
/// deeply negative V_GS (gate at V_SS) and must be made deliberately weak
/// with narrow widths and long channels, as the paper's design-space script
/// (§4.3.4) does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrganicSizing {
    /// Level-shifter input transistor(s) M1 width.
    pub shifter_drive_w: f64,
    /// Level-shifter load M2 width.
    pub shifter_load_w: f64,
    /// Level-shifter load M2 channel length.
    pub shifter_load_l: f64,
    /// Output-stage pull-up M3 width.
    pub output_drive_w: f64,
    /// Output-stage pull-down M4 width.
    pub output_load_w: f64,
    /// Load width for the diode-load inverter style.
    pub diode_load_w: f64,
    /// Load width for the biased-load inverter style.
    pub biased_load_w: f64,
}

impl OrganicSizing {
    /// Sizing selected by the design-space script of §4.3.4 (calibrated so
    /// the pseudo-E inverter at VDD = 5 V / VSS = −15 V has V_M ≈ VDD/2,
    /// gain ≈ 3 and noise margins ≈ 20–25 % of VDD).
    pub fn library_default() -> Self {
        OrganicSizing {
            shifter_drive_w: 1000.0e-6,
            shifter_load_w: 40.0e-6,
            shifter_load_l: 240.0e-6,
            output_drive_w: 1000.0e-6,
            output_load_w: 500.0e-6,
            diode_load_w: 350.0e-6,
            biased_load_w: 200.0e-6,
        }
    }
}

impl Default for OrganicSizing {
    fn default() -> Self {
        Self::library_default()
    }
}

/// A standard-cell circuit ready for DC or transient analysis.
#[derive(Debug, Clone)]
pub struct GateCircuit {
    /// The transistor-level netlist.
    pub circuit: Circuit,
    /// Per logic input: `(name, vsource index)`.
    pub inputs: Vec<(String, usize)>,
    /// Output node.
    pub output: NodeId,
    /// Source index of the VDD supply (for static-power measurement).
    pub vdd_src: usize,
    /// Source index of the VSS supply, when the style uses one.
    pub vss_src: Option<usize>,
    /// VDD rail value (V).
    pub vdd: f64,
    /// VSS rail value (V); 0 when unused.
    pub vss: f64,
    /// Number of transistors in the cell.
    pub transistor_count: usize,
    /// Capacitance presented by ONE logic input (F).
    pub input_cap: f64,
    /// Logic level non-switching inputs must be held at during
    /// characterization so the switching input controls the output
    /// (`true` = VDD). Parallel pull-up networks (NAND family) want their
    /// other inputs off (high); series networks (NOR family) want them
    /// conducting (low).
    pub side_inputs_high: bool,
}

impl GateCircuit {
    /// Input levels for logic-low and logic-high at this cell's rails.
    pub fn rail(&self, high: bool) -> f64 {
        if high {
            self.vdd
        } else {
            0.0
        }
    }
}

/// The 80 µm channel length of the shadow-mask pentacene process.
pub const ORGANIC_CHANNEL_L: f64 = 80.0e-6;

/// One transistor of `device` drawn at `w` × `l`.
pub(crate) fn otft(device: &TftParams, w: f64, l: f64) -> Arc<dyn DeviceModel> {
    Arc::new(Level61Model::new(device.sized(w, l)))
}

/// Builds one of the three organic inverter styles from `device` at the
/// given rails.
///
/// `vss` is only used by the biased-load and pseudo-E styles.
///
/// # Panics
/// Panics if `vdd <= 0` or (when used) `vss >= 0`.
pub fn organic_inverter(
    device: &TftParams,
    style: OrganicStyle,
    sizing: &OrganicSizing,
    vdd: f64,
    vss: f64,
) -> GateCircuit {
    assert!(vdd > 0.0, "vdd must be positive");
    let mut c = Circuit::new();
    let n_vdd = c.node("vdd");
    let n_in = c.node("in");
    let n_out = c.node("out");
    let vdd_src = c.vsource(n_vdd, Circuit::GND, vdd);
    let in_src = c.vsource(n_in, Circuit::GND, 0.0);
    let fet = |w| otft(device, w, ORGANIC_CHANNEL_L);

    let (load_gate, load_w, vss_src, vss) = match style {
        // Diode-connected load to ground.
        OrganicStyle::DiodeLoad => (Circuit::GND, sizing.diode_load_w, None, 0.0),
        // Load gate biased at VSS: always on, stronger pull-down.
        OrganicStyle::BiasedLoad => {
            assert!(vss < 0.0, "biased-load requires a negative vss");
            let n_vss = c.node("vss");
            let vss_src = c.vsource(n_vss, Circuit::GND, vss);
            (n_vss, sizing.biased_load_w, Some(vss_src), vss)
        }
        OrganicStyle::PseudoE => {
            return build_pseudo_e(
                c,
                device,
                n_vdd,
                vdd_src,
                &[(n_in, in_src)],
                n_out,
                sizing,
                vdd,
                vss,
                false,
            )
        }
    };
    // Drive: pulls OUT to VDD when IN is low.
    c.fet(n_out, n_in, n_vdd, fet(sizing.output_drive_w));
    c.fet(Circuit::GND, load_gate, n_out, fet(load_w));
    GateCircuit {
        circuit: c,
        inputs: vec![("A".into(), in_src)],
        output: n_out,
        vdd_src,
        vss_src,
        vdd,
        vss,
        transistor_count: 2,
        input_cap: input_cap(device, sizing.output_drive_w),
        side_inputs_high: true,
    }
}

/// Builds a pseudo-E gate of any supported logic kind from `device`.
///
/// NAND gates place the input transistors in parallel (any low input pulls
/// up); NOR gates place them in series (all inputs must be low to pull up).
///
/// # Panics
/// Panics if `vdd <= 0` or `vss >= 0`.
pub(crate) fn pseudo_e_gate(
    device: &TftParams,
    kind: LogicKind,
    sizing: &OrganicSizing,
    vdd: f64,
    vss: f64,
) -> GateCircuit {
    assert!(vdd > 0.0, "vdd must be positive");
    assert!(vss < 0.0, "pseudo-E requires a negative vss");
    let mut c = Circuit::new();
    let n_vdd = c.node("vdd");
    let vdd_src = c.vsource(n_vdd, Circuit::GND, vdd);
    let names = ["A", "B", "C"];
    let ins: Vec<(NodeId, usize)> = (0..kind.fan_in())
        .map(|i| {
            let n = c.node(names[i]);
            let s = c.vsource(n, Circuit::GND, 0.0);
            (n, s)
        })
        .collect();
    let n_out = c.node("out");
    let series = matches!(kind, LogicKind::Nor2 | LogicKind::Nor3);
    build_pseudo_e(
        c, device, n_vdd, vdd_src, &ins, n_out, sizing, vdd, vss, series,
    )
}

/// Builds a pseudo-E gate of any supported logic kind on the organic
/// technology's nominal device.
///
/// # Panics
/// Panics if `vdd <= 0` or `vss >= 0`.
pub fn organic_gate(kind: LogicKind, sizing: &OrganicSizing, vdd: f64, vss: f64) -> GateCircuit {
    pseudo_e_gate(organic_library_point().1, kind, sizing, vdd, vss)
}

/// Core pseudo-E builder: a level-shifter stage replicating the pull-up
/// network into internal node X (swinging VDD…VSS), and an output stage
/// whose pull-down is gated by X.
#[allow(clippy::too_many_arguments)]
fn build_pseudo_e(
    mut c: Circuit,
    device: &TftParams,
    n_vdd: NodeId,
    vdd_src: usize,
    ins: &[(NodeId, usize)],
    n_out: NodeId,
    sizing: &OrganicSizing,
    vdd: f64,
    vss: f64,
    series: bool,
) -> GateCircuit {
    assert!(vss < 0.0, "pseudo-E requires a negative vss");
    let n_vss = c.node("vss");
    let vss_src = c.vsource(n_vss, Circuit::GND, vss);
    let n_x = c.node("x");
    let fet = |w| otft(device, w, ORGANIC_CHANNEL_L);

    let mut count = 0;
    // Pull-up networks: the same structure drives both X and OUT.
    for (target, w) in [
        (n_x, sizing.shifter_drive_w),
        (n_out, sizing.output_drive_w),
    ] {
        if series {
            // Series chain from VDD through intermediate nodes to target.
            // Series stacks are widened to keep drive comparable.
            let w_each = w * ins.len() as f64;
            let mut src = n_vdd;
            for (i, (n_in, _)) in ins.iter().enumerate() {
                let dst = if i + 1 == ins.len() {
                    target
                } else {
                    let nm = format!("{}_s{}", c.node_name(target), i);
                    c.node(&nm)
                };
                c.fet(dst, *n_in, src, fet(w_each));
                src = dst;
                count += 1;
            }
        } else {
            for (n_in, _) in ins {
                c.fet(target, *n_in, n_vdd, fet(w));
                count += 1;
            }
        }
    }
    // Level-shifter load: X → VSS, gate at VSS (always on); long-channel
    // narrow device so the input stage can overpower it.
    c.fet(
        n_vss,
        n_vss,
        n_x,
        otft(device, sizing.shifter_load_w, sizing.shifter_load_l),
    );
    // Output pull-down: OUT → GND, gated by the shifted node X.
    c.fet(Circuit::GND, n_x, n_out, fet(sizing.output_load_w));
    count += 2;

    let per_input_w = if series {
        (sizing.shifter_drive_w + sizing.output_drive_w) * ins.len() as f64
    } else {
        sizing.shifter_drive_w + sizing.output_drive_w
    };
    GateCircuit {
        circuit: c,
        inputs: ins
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (["A", "B", "C"][i].to_string(), *s))
            .collect(),
        output: n_out,
        vdd_src,
        vss_src: Some(vss_src),
        vdd,
        vss,
        transistor_count: count,
        input_cap: input_cap(device, per_input_w),
        side_inputs_high: !series,
    }
}

/// Gate capacitance presented by a p-type input of total width `w`.
pub(crate) fn input_cap(device: &TftParams, w: f64) -> f64 {
    let p = device.sized(w, ORGANIC_CHANNEL_L);
    p.gate_cap() + 2.0 * p.overlap_cap()
}

/// Builds a complementary CMOS gate in the 45 nm-class silicon process.
///
/// PMOS devices are drawn 2× the NMOS width for roughly symmetric drive;
/// series stacks are widened by the stack depth.
///
/// # Panics
/// Panics if `vdd <= 0` or `unit_w <= 0`.
pub fn cmos_gate(kind: LogicKind, unit_w: f64, vdd: f64) -> GateCircuit {
    assert!(vdd > 0.0, "vdd must be positive");
    assert!(unit_w > 0.0, "unit width must be positive");
    let mut c = Circuit::new();
    let n_vdd = c.node("vdd");
    let vdd_src = c.vsource(n_vdd, Circuit::GND, vdd);
    let names = ["A", "B", "C"];
    let ins: Vec<(NodeId, usize)> = (0..kind.fan_in())
        .map(|i| {
            let n = c.node(names[i]);
            let s = c.vsource(n, Circuit::GND, 0.0);
            (n, s)
        })
        .collect();
    let n_out = c.node("out");

    let k = ins.len();
    let nmos = |w: f64| -> Arc<dyn DeviceModel> {
        Arc::new(SiliconMosModel::new(
            SiliconMosParams::nmos_45().with_width(w),
        ))
    };
    let pmos = |w: f64| -> Arc<dyn DeviceModel> {
        Arc::new(SiliconMosModel::new(
            SiliconMosParams::pmos_45().with_width(w),
        ))
    };
    let (p_series, n_series) = match kind {
        LogicKind::Inv => (false, false),
        LogicKind::Nand2 | LogicKind::Nand3 => (false, true),
        LogicKind::Nor2 | LogicKind::Nor3 => (true, false),
    };
    let mut count = 0;
    // PMOS network VDD → OUT.
    if p_series {
        let w = 2.0 * unit_w * k as f64;
        let mut src = n_vdd;
        for (i, (n_in, _)) in ins.iter().enumerate() {
            let dst = if i + 1 == k {
                n_out
            } else {
                c.node(&format!("p{i}"))
            };
            c.fet(dst, *n_in, src, pmos(w));
            src = dst;
            count += 1;
        }
    } else {
        for (n_in, _) in &ins {
            c.fet(n_out, *n_in, n_vdd, pmos(2.0 * unit_w));
            count += 1;
        }
    }
    // NMOS network OUT → GND.
    if n_series {
        let w = unit_w * k as f64;
        let mut src = Circuit::GND;
        for (i, (n_in, _)) in ins.iter().enumerate() {
            let dst = if i + 1 == k {
                n_out
            } else {
                c.node(&format!("n{i}"))
            };
            // Build from GND upward; current flows out → gnd.
            c.fet(dst, *n_in, src, nmos(w));
            src = dst;
            count += 1;
        }
    } else {
        for (n_in, _) in &ins {
            c.fet(n_out, *n_in, Circuit::GND, nmos(unit_w));
            count += 1;
        }
    }

    let stack_p = if p_series { k as f64 } else { 1.0 };
    let stack_n = if n_series { k as f64 } else { 1.0 };
    let cap_of = |params: SiliconMosParams| {
        let m = SiliconMosModel::new(params);
        m.gate_capacitance() + 2.0 * m.overlap_capacitance()
    };
    let input_cap = cap_of(SiliconMosParams::pmos_45().with_width(2.0 * unit_w * stack_p))
        + cap_of(SiliconMosParams::nmos_45().with_width(unit_w * stack_n));
    GateCircuit {
        circuit: c,
        inputs: ins
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (names[i].to_string(), *s))
            .collect(),
        output: n_out,
        vdd_src,
        vss_src: None,
        vdd,
        vss: 0.0,
        transistor_count: count,
        input_cap,
        side_inputs_high: !matches!(kind, LogicKind::Nor2 | LogicKind::Nor3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdc_circuit::DcSolver;

    fn solve_logic(gate: &GateCircuit, inputs: &[bool]) -> f64 {
        let mut c = gate.circuit.clone();
        for (i, hi) in inputs.iter().enumerate() {
            c.set_vsource(gate.inputs[i].1, gate.rail(*hi));
        }
        DcSolver::new().solve(&c).unwrap().voltage(gate.output)
    }

    #[test]
    fn logic_kind_truth_tables() {
        assert!(LogicKind::Nand2.eval(&[true, false]));
        assert!(!LogicKind::Nand2.eval(&[true, true]));
        assert!(LogicKind::Nor3.eval(&[false, false, false]));
        assert!(!LogicKind::Nor3.eval(&[false, true, false]));
        assert_eq!(LogicKind::Inv.fan_in(), 1);
    }

    #[test]
    fn pseudo_e_inverter_has_full_swing() {
        let g = organic_inverter(
            organic_library_point().1,
            OrganicStyle::PseudoE,
            &OrganicSizing::default(),
            5.0,
            -15.0,
        );
        let v_hi = solve_logic(&g, &[false]);
        let v_lo = solve_logic(&g, &[true]);
        // The paper's point: pseudo-E restores VOH ≈ VDD and VOL ≈ 0.
        assert!(v_hi > 0.93 * 5.0, "VOH = {v_hi:.2}");
        assert!(v_lo < 0.08 * 5.0, "VOL = {v_lo:.2}");
        assert_eq!(g.transistor_count, 4);
    }

    #[test]
    fn diode_load_inverter_degraded_output() {
        let g = organic_inverter(
            organic_library_point().1,
            OrganicStyle::DiodeLoad,
            &OrganicSizing::default(),
            15.0,
            0.0,
        );
        let v_hi = solve_logic(&g, &[false]);
        assert!(v_hi < 0.99 * 15.0 && v_hi > 0.4 * 15.0, "VOH = {v_hi:.2}");
        assert_eq!(g.transistor_count, 2);
    }

    #[test]
    fn pseudo_e_nand2_truth_table_analog() {
        let g = organic_gate(LogicKind::Nand2, &OrganicSizing::default(), 5.0, -15.0);
        assert_eq!(g.transistor_count, 6);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = solve_logic(&g, &[a, b]);
            let expect_hi = LogicKind::Nand2.eval(&[a, b]);
            if expect_hi {
                assert!(v > 0.8 * 5.0, "NAND({a},{b}) = {v:.2}");
            } else {
                assert!(v < 0.2 * 5.0, "NAND({a},{b}) = {v:.2}");
            }
        }
    }

    #[test]
    fn pseudo_e_nor2_truth_table_analog() {
        let g = organic_gate(LogicKind::Nor2, &OrganicSizing::default(), 5.0, -15.0);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = solve_logic(&g, &[a, b]);
            let expect_hi = LogicKind::Nor2.eval(&[a, b]);
            if expect_hi {
                assert!(v > 0.8 * 5.0, "NOR({a},{b}) = {v:.2}");
            } else {
                assert!(v < 0.2 * 5.0, "NOR({a},{b}) = {v:.2}");
            }
        }
    }

    #[test]
    fn cmos_gates_rail_to_rail() {
        for kind in LogicKind::all() {
            let g = cmos_gate(kind, 450.0e-9, 1.0);
            let n = kind.fan_in();
            for pattern in 0..(1u32 << n) {
                let bits: Vec<bool> = (0..n).map(|i| pattern & (1 << i) != 0).collect();
                let v = solve_logic(&g, &bits);
                if kind.eval(&bits) {
                    assert!(v > 0.95, "{kind:?}({bits:?}) = {v:.3}");
                } else {
                    assert!(v < 0.05, "{kind:?}({bits:?}) = {v:.3}");
                }
            }
        }
    }

    #[test]
    fn input_caps_scale_with_technology() {
        let org = organic_gate(LogicKind::Inv, &OrganicSizing::default(), 5.0, -15.0);
        let si = cmos_gate(LogicKind::Inv, 450.0e-9, 1.0);
        // Organic inputs are ~5 orders of magnitude heavier than silicon's.
        assert!(
            org.input_cap / si.input_cap > 1.0e4,
            "ratio {}",
            org.input_cap / si.input_cap
        );
    }
}
