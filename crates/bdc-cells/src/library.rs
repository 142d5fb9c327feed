//! Characterized cell libraries.
//!
//! A [`CellLibrary`] is the interface between the analog world
//! (`bdc-device` + `bdc-circuit`) and the digital world (`bdc-synth`): six
//! cells (INV, NAND2, NAND3, NOR2, NOR3, DFF) with NLDM timing, input
//! capacitance and area, plus the process's supply rails and wire model.
//!
//! The organic library mirrors the paper's §4.3–4.4 (pseudo-E cells at
//! VDD = 5 V, VSS = −15 V); the silicon library is the reduced 6-cell 45 nm
//! comparison library of §5.1, characterized through the same flow.

use crate::characterize::GateTiming;
use crate::nldm::NldmTable;
use crate::technology::Process;
use crate::topology::LogicKind;
use crate::wire::WireModel;
use bdc_exec::{RecordReader, RecordWriter};

/// The six cell kinds of the paper's library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// D-flip-flop with preset and clear.
    Dff,
}

impl CellKind {
    /// All six kinds.
    pub fn all() -> [CellKind; 6] {
        [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Nand3,
            CellKind::Nor2,
            CellKind::Nor3,
            CellKind::Dff,
        ]
    }

    /// The logic function, for combinational kinds.
    pub fn logic(self) -> Option<LogicKind> {
        match self {
            CellKind::Inv => Some(LogicKind::Inv),
            CellKind::Nand2 => Some(LogicKind::Nand2),
            CellKind::Nand3 => Some(LogicKind::Nand3),
            CellKind::Nor2 => Some(LogicKind::Nor2),
            CellKind::Nor3 => Some(LogicKind::Nor3),
            CellKind::Dff => None,
        }
    }

    /// The cell implementing a logic function.
    pub fn from_logic(kind: LogicKind) -> CellKind {
        match kind {
            LogicKind::Inv => CellKind::Inv,
            LogicKind::Nand2 => CellKind::Nand2,
            LogicKind::Nand3 => CellKind::Nand3,
            LogicKind::Nor2 => CellKind::Nor2,
            LogicKind::Nor3 => CellKind::Nor3,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "inv",
            CellKind::Nand2 => "nand2",
            CellKind::Nand3 => "nand3",
            CellKind::Nor2 => "nor2",
            CellKind::Nor3 => "nor3",
            CellKind::Dff => "dff",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<CellKind> {
        CellKind::all().into_iter().find(|k| k.name() == s)
    }
}

/// One characterized cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Which of the six cells this is.
    pub kind: CellKind,
    /// Footprint area (µm²).
    pub area: f64,
    /// Capacitance of one input pin (F).
    pub input_cap: f64,
    /// Average static power across input states (W). Ratioed pseudo-E logic
    /// burns orders of magnitude more than CMOS here.
    pub leakage_w: f64,
    /// Energy per output transition (J), ≈ C_swing·V_DD² at a self-load.
    pub switching_energy: f64,
    /// NLDM timing (for the DFF this is the clk→Q arc).
    pub timing: GateTiming,
}

/// Sequential-cell timing parameters (s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DffTiming {
    /// Setup time before the clock edge.
    pub setup: f64,
    /// Hold time after the clock edge.
    pub hold: f64,
    /// Clock-to-Q nominal delay.
    pub clk_to_q: f64,
}

/// A characterized 6-cell library.
#[derive(Debug, Clone)]
pub struct CellLibrary {
    /// Human-readable name.
    pub name: String,
    /// Process this library models.
    pub process: Process,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Negative bias rail (V); 0 for CMOS.
    pub vss: f64,
    /// Interconnect model.
    pub wire: WireModel,
    /// Sequential timing.
    pub dff: DffTiming,
    cells: Vec<Cell>,
}

impl CellLibrary {
    /// Assembles a library from parts.
    ///
    /// # Panics
    /// Panics unless exactly the six [`CellKind`]s are present once each.
    pub fn from_cells(
        name: impl Into<String>,
        process: Process,
        vdd: f64,
        vss: f64,
        wire: WireModel,
        dff: DffTiming,
        cells: Vec<Cell>,
    ) -> Self {
        assert_eq!(cells.len(), 6, "a library has exactly six cells");
        for kind in CellKind::all() {
            assert_eq!(
                cells.iter().filter(|c| c.kind == kind).count(),
                1,
                "missing or duplicate cell {kind:?}"
            );
        }
        CellLibrary {
            name: name.into(),
            process,
            vdd,
            vss,
            wire,
            dff,
            cells,
        }
    }

    /// Looks up a cell.
    pub fn cell(&self, kind: CellKind) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.kind == kind)
            .expect("all six cells present")
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Worst-case delay of `kind` at (`slew`, `load`).
    pub fn delay(&self, kind: CellKind, slew: f64, load: f64) -> f64 {
        self.cell(kind).timing.delay_worst().lookup(slew, load)
    }

    /// A nominal "fanout-of-4-like" gate delay: the inverter driving four
    /// copies of itself at a mid-grid input slew. This is the natural time
    /// unit of the process.
    pub fn fo4_delay(&self) -> f64 {
        let inv = self.cell(CellKind::Inv);
        let slews = inv.timing.delay_rise.slews();
        let slew = slews[slews.len() / 2];
        inv.timing.delay_worst().lookup(slew, 4.0 * inv.input_cap)
    }

    /// Effective driver resistance of the inverter (Ω), for wire Elmore
    /// calculations.
    pub fn drive_resistance(&self) -> f64 {
        self.cell(CellKind::Inv)
            .timing
            .delay_worst()
            .drive_resistance()
    }

    /// Replaces the wire model (used by the Figure 15 "w/o wire" ablation).
    pub fn with_wire(mut self, wire: WireModel) -> Self {
        self.wire = wire;
        self
    }

    /// A structural FNV-1a fingerprint of everything the library means:
    /// rails, wire model, sequential timing, and every cell's area, caps,
    /// power, and NLDM surfaces (axes and values, bit-exact). Two
    /// libraries with equal fingerprints time every netlist identically.
    ///
    /// Computed on demand from content — never stored — so it can't go
    /// stale through `with_wire` or field mutation. It replaces hashing
    /// the full Liberty text in downstream cache keys: same sensitivity,
    /// without rendering ~30 KB of text per key derivation.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 ^= u64::from(x);
                    self.0 = self.0.wrapping_mul(PRIME);
                }
            }
            fn f64(&mut self, v: f64) {
                self.bytes(&v.to_bits().to_le_bytes());
            }
            fn axis(&mut self, a: &[f64]) {
                self.bytes(&(a.len() as u64).to_le_bytes());
                for &v in a {
                    self.f64(v);
                }
            }
            fn table(&mut self, t: &NldmTable) {
                self.axis(t.slews());
                self.axis(t.loads());
                for row in t.values() {
                    self.axis(row);
                }
            }
        }
        let mut h = Fnv(OFFSET);
        h.bytes(b"bdc-libfp-v1");
        h.bytes(self.name.as_bytes());
        h.bytes(self.process.name().as_bytes());
        h.f64(self.vdd);
        h.f64(self.vss);
        h.f64(self.wire.r_per_m);
        h.f64(self.wire.c_per_m);
        match self.wire.repeated_s_per_m {
            None => h.bytes(b"n"),
            Some(v) => {
                h.bytes(b"s");
                h.f64(v);
            }
        }
        h.f64(self.dff.setup);
        h.f64(self.dff.hold);
        h.f64(self.dff.clk_to_q);
        for cell in &self.cells {
            h.bytes(cell.kind.name().as_bytes());
            h.f64(cell.area);
            h.f64(cell.input_cap);
            h.f64(cell.leakage_w);
            h.f64(cell.switching_energy);
            h.table(&cell.timing.delay_rise);
            h.table(&cell.timing.delay_fall);
            h.table(&cell.timing.out_slew);
        }
        h.0
    }

    /// A synthetic library with analytically chosen constant delays — no
    /// circuit simulation. Intended for fast unit tests and examples that
    /// exercise synthesis/STA machinery rather than device physics.
    ///
    /// `gate_delay` sets the inverter delay (s); other cells scale from it
    /// with typical ratios. The wire model still matches the process.
    pub fn synthetic(process: Process, gate_delay: f64) -> Self {
        let tech = process.tech();
        let k = tech.synthetic;
        let vdd = tech.vdd;
        let mk = |kind: CellKind, d: f64, area: f64, cap: f64| Cell {
            kind,
            area: area * k.area_scale,
            input_cap: cap * k.cap_scale,
            leakage_w: k.leakage_w * d,
            switching_energy: 2.0 * cap * k.cap_scale * vdd * vdd,
            timing: GateTiming {
                delay_rise: NldmTable::constant(d * gate_delay),
                delay_fall: NldmTable::constant(d * gate_delay * 1.15),
                out_slew: NldmTable::constant(d * gate_delay * 0.8),
            },
        };
        let cells = vec![
            mk(CellKind::Inv, 1.0, 1.0, 1.0),
            mk(CellKind::Nand2, 1.4, 1.4, 1.4),
            mk(CellKind::Nand3, 1.9, 1.9, 1.9),
            mk(CellKind::Nor2, 1.5, 1.4, 1.4),
            mk(CellKind::Nor3, 2.1, 1.9, 1.9),
            mk(CellKind::Dff, 3.4, k.dff_area, 1.4),
        ];
        let dff = DffTiming {
            setup: 2.8 * gate_delay,
            hold: 0.4 * gate_delay,
            clk_to_q: 3.1 * gate_delay,
        };
        CellLibrary::from_cells(k.name, process, vdd, tech.vss, tech.wire, dff, cells)
    }
}

// ---------------------------------------------------------------------------
// Per-cell artifact serialization (the stage cache's on-disk unit)
// ---------------------------------------------------------------------------

/// Serializes one characterized cell as a bit-exact store record
/// (`bdccell v1`, on [`RecordWriter`]): every `f64` is written as the hex
/// of its bit pattern, so [`parse_cell_text`] reconstructs the exact same
/// values and a cell loaded from cache is indistinguishable from a
/// freshly characterized one.
pub fn write_cell_text(cell: &Cell) -> String {
    let mut w = RecordWriter::new("bdccell v1");
    w.line("kind").name(cell.kind.name());
    w.line("area").f64(cell.area);
    w.line("input_cap").f64(cell.input_cap);
    w.line("leakage_w").f64(cell.leakage_w);
    w.line("switching_energy").f64(cell.switching_energy);
    let timing = &cell.timing;
    for (label, t) in [
        ("delay_rise", &timing.delay_rise),
        ("delay_fall", &timing.delay_fall),
        ("out_slew", &timing.out_slew),
    ] {
        let (slews, loads) = (t.slews(), t.loads());
        w.line("table")
            .name(label)
            .int(slews.len())
            .int(loads.len());
        w.line("slews").f64s(slews);
        w.line("loads").f64s(loads);
        for row in t.values() {
            w.line("row").f64s(row);
        }
    }
    w.finish()
}

/// Parses a `bdccell v1` record back into a [`Cell`]. Any malformed
/// input — wrong header, bad hex, short rows, non-increasing axes,
/// trailing junk — returns `None` (a cache miss), never a panic: the
/// stage cache treats corrupt artifacts as absent and recomputes.
pub fn parse_cell_text(text: &str) -> Option<Cell> {
    fn table(r: &mut RecordReader<'_>, label: &str) -> Option<NldmTable> {
        (r.line("table")?.name()? == label).then_some(())?;
        let (n_slews, n_loads): (usize, usize) = (r.int()?, r.int()?);
        let slews = r.line("slews")?.f64s(n_slews)?;
        let loads = r.line("loads")?.f64s(n_loads)?;
        // NldmTable::new panics on empty or non-increasing axes; validate
        // here so corruption stays a miss. NaN fails the `<` and is
        // rejected too.
        for a in [&slews, &loads] {
            if a.is_empty() || !a.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
        }
        let values = (0..n_slews)
            .map(|_| r.line("row")?.f64s(n_loads))
            .collect::<Option<Vec<_>>>()?;
        Some(NldmTable::new(slews, loads, values))
    }
    let mut r = RecordReader::new(text, "bdccell v1")?;
    // Fields are read in the order written, which is the record's order.
    let cell = Cell {
        kind: CellKind::from_name(r.line("kind")?.name()?)?,
        area: r.line("area")?.f64()?,
        input_cap: r.line("input_cap")?.f64()?,
        leakage_w: r.line("leakage_w")?.f64()?,
        switching_energy: r.line("switching_energy")?.f64()?,
        timing: GateTiming {
            delay_rise: table(&mut r, "delay_rise")?,
            delay_fall: table(&mut r, "delay_fall")?,
            out_slew: table(&mut r, "out_slew")?,
        },
    };
    r.finish().and(Some(cell))
}

/// Returns a load-independent summary row for reports: name, area, input
/// cap, and nominal delay.
pub fn cell_summary(lib: &CellLibrary) -> Vec<(String, f64, f64, f64)> {
    lib.cells()
        .iter()
        .map(|c| {
            let slews = c.timing.delay_rise.slews();
            let s = slews[slews.len() / 2];
            let d = c.timing.delay_worst().lookup(s, 2.0 * c.input_cap);
            (c.kind.name().to_string(), c.area, c.input_cap, d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full library construction is exercised end-to-end in the integration
    // tests; here we cover the pure-logic pieces with the synthetic library.

    #[test]
    fn cell_kind_roundtrip_names() {
        for k in CellKind::all() {
            assert_eq!(CellKind::from_name(k.name()), Some(k));
        }
        assert_eq!(CellKind::from_name("xor2"), None);
    }

    #[test]
    fn library_lookup_and_fo4() {
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0e-12);
        assert_eq!(lib.cell(CellKind::Nand3).kind, CellKind::Nand3);
        // Constant tables → fo4 = worst-case inv delay = 1.15 ps.
        assert!((lib.fo4_delay() - 1.15e-12).abs() < 1e-17);
        assert_eq!(lib.cells().len(), 6);
    }

    #[test]
    fn synthetic_processes_differ_where_they_should() {
        let org = CellLibrary::synthetic(Process::Organic, 1.0e-4);
        let si = CellLibrary::synthetic(Process::Silicon, 1.5e-11);
        assert!(org.cell(CellKind::Inv).input_cap > 1.0e4 * si.cell(CellKind::Inv).input_cap);
        // Organic DFF is relatively larger vs its NAND2 than silicon's.
        let r_org = org.cell(CellKind::Dff).area / org.cell(CellKind::Nand2).area;
        let r_si = si.cell(CellKind::Dff).area / si.cell(CellKind::Nand2).area;
        assert!(
            r_org > 1.5 * r_si,
            "organic {r_org:.1} vs silicon {r_si:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "exactly six cells")]
    fn from_cells_rejects_wrong_count() {
        let lib = CellLibrary::synthetic(Process::Organic, 1.0);
        let mut cells = lib.cells().to_vec();
        cells.pop();
        let dff = lib.dff;
        let _ = CellLibrary::from_cells("bad", Process::Organic, 5.0, -15.0, lib.wire, dff, cells);
    }

    #[test]
    fn with_wire_swaps_model() {
        let lib = CellLibrary::synthetic(Process::Silicon, 1.0);
        let lib = lib.with_wire(WireModel::ideal());
        assert_eq!(lib.wire.delay(1.0, 1.0e3), 0.0);
    }

    // A cell with multi-point tables and awkward bit patterns for the
    // round-trip tests (synthetic constants exercise only 1×1 tables).
    fn gridded_cell() -> Cell {
        let t = |scale: f64| {
            NldmTable::new(
                vec![1.0e-6, 3.0e-6, 9.0e-6],
                vec![1.0e-12, 2.0e-12],
                vec![
                    vec![scale, scale * 1.5],
                    vec![scale * 2.0, scale * 0.1],
                    vec![scale * std::f64::consts::PI, scale * 4.0],
                ],
            )
        };
        Cell {
            kind: CellKind::Nor3,
            area: 1234.5678,
            input_cap: 3.0e-13,
            leakage_w: 5.0e-9,
            switching_energy: 7.25e-15,
            timing: GateTiming {
                delay_rise: t(1.0e-9),
                delay_fall: t(1.3e-9),
                out_slew: t(0.8e-9),
            },
        }
    }

    #[test]
    fn cell_text_roundtrip_is_bit_exact() {
        let cell = gridded_cell();
        let text = write_cell_text(&cell);
        let back = parse_cell_text(&text).expect("parse");
        assert_eq!(back.kind, cell.kind);
        for (a, b) in [
            (back.area, cell.area),
            (back.input_cap, cell.input_cap),
            (back.leakage_w, cell.leakage_w),
            (back.switching_energy, cell.switching_energy),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (ta, tb) in [
            (&back.timing.delay_rise, &cell.timing.delay_rise),
            (&back.timing.delay_fall, &cell.timing.delay_fall),
            (&back.timing.out_slew, &cell.timing.out_slew),
        ] {
            assert_eq!(ta.slews(), tb.slews());
            assert_eq!(ta.loads(), tb.loads());
            assert_eq!(ta.values(), tb.values());
        }
        // Re-serializing the parsed cell reproduces the exact artifact.
        assert_eq!(write_cell_text(&back), text);
    }

    #[test]
    fn malformed_cell_text_is_a_miss_not_a_panic() {
        let good = write_cell_text(&gridded_cell());
        assert!(parse_cell_text(&good).is_some());
        assert!(parse_cell_text("").is_none());
        assert!(parse_cell_text("bdccell v2\n").is_none());
        assert!(parse_cell_text(&good[..good.len() - 20]).is_none());
        assert!(parse_cell_text(&format!("{good}extra\n")).is_none());
        // Corrupt one hex digit of the slew axis into a non-increasing
        // (or NaN) axis: must reject before NldmTable::new can panic.
        let swapped = good.replace("slews", "loads").replacen("loads", "slews", 1);
        assert!(parse_cell_text(&swapped).is_none());
        let bad_hex = good.replacen("area ", "area z", 1);
        assert!(parse_cell_text(&bad_hex).is_none());
    }
}
