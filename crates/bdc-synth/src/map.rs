//! Library-driven remapping.
//!
//! The paper observes (§5.5) that synthesis covers the same RTL differently
//! per library: the silicon library leans on 3-input NAND gates, while the
//! organic library — whose unipolar p-type cells have imbalanced rise/fall
//! times — prefers 2-input NAND coverage. [`remap_for_library`] makes that
//! decision explicitly: it compares each 3-input cell's characterized
//! worst-case delay against its 2-input decomposition and rewrites the
//! netlist when the decomposition wins.

use bdc_cells::{CellKind, CellLibrary};

use crate::gate::{GateKind, Netlist};

/// What the mapper decided and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapReport {
    /// Whether NAND3 cells were decomposed into NAND2/INV logic.
    pub nand3_decomposed: bool,
    /// Whether NOR3 cells were decomposed into NOR2/INV logic.
    pub nor3_decomposed: bool,
    /// Gate count before remapping.
    pub gates_before: usize,
    /// Gate count after remapping.
    pub gates_after: usize,
}

/// Nominal delay of a cell at mid slew, driving two copies of itself.
fn nominal_delay(lib: &CellLibrary, kind: CellKind) -> f64 {
    let cell = lib.cell(kind);
    let slews = cell.timing.delay_rise.slews();
    let s = slews[slews.len() / 2];
    cell.timing.delay_worst().lookup(s, 2.0 * cell.input_cap)
}

/// Returns true when the library prefers decomposing the given 3-input cell
/// into 2-input logic: the decomposition's worst path is
/// `2-input gate + INV + 2-input gate`.
pub fn prefers_decomposition(lib: &CellLibrary, three_input: CellKind) -> bool {
    let (two_input, three) = match three_input {
        CellKind::Nand3 => (CellKind::Nand2, CellKind::Nand3),
        CellKind::Nor3 => (CellKind::Nor2, CellKind::Nor3),
        other => panic!("prefers_decomposition is about 3-input cells, got {other:?}"),
    };
    let d3 = nominal_delay(lib, three);
    let d_decomp = 2.0 * nominal_delay(lib, two_input) + nominal_delay(lib, CellKind::Inv);
    d3 > d_decomp
}

/// Rewrites a netlist for a specific library, decomposing 3-input cells the
/// library times poorly. Function is preserved exactly (verified by the
/// property tests in `tests/`).
pub fn remap_for_library(netlist: &Netlist, lib: &CellLibrary) -> (Netlist, MapReport) {
    let drop_nand3 = prefers_decomposition(lib, CellKind::Nand3);
    let drop_nor3 = prefers_decomposition(lib, CellKind::Nor3);
    let gates_before = netlist.gates().len();
    if !drop_nand3 && !drop_nor3 {
        return (
            netlist.clone(),
            MapReport {
                nand3_decomposed: false,
                nor3_decomposed: false,
                gates_before,
                gates_after: gates_before,
            },
        );
    }

    // Rebuild the netlist, translating nets through a map.
    let mut out = Netlist::new(netlist.name.clone());
    let mut net_map = vec![usize::MAX; netlist.net_count()];
    for &i in netlist.inputs() {
        net_map[i] = out.input(netlist.net_name(i).unwrap_or("in").to_string());
    }
    let (c0, c1) = netlist.constants();
    if let Some(c) = c0 {
        net_map[c] = out.const0();
    }
    if let Some(c) = c1 {
        net_map[c] = out.const1();
    }
    for f in netlist.flops() {
        // Flop Qs are sources; we will re-add flops after gates, so allocate
        // their Q nets now.
        net_map[f.q] = out.net();
    }
    // Gates in topological order.
    let mut q_nets: Vec<usize> = netlist.flops().iter().map(|f| net_map[f.q]).collect();
    for g in netlist.gates() {
        let ins: Vec<usize> = g.inputs.iter().map(|&i| net_map[i]).collect();
        let new_out = match g.kind {
            GateKind::Nand3 if drop_nand3 => {
                // nand3(a,b,c) = nand2(and2(a,b), c)
                let ab = out.and2(ins[0], ins[1]);
                out.nand2(ab, ins[2])
            }
            GateKind::Nor3 if drop_nor3 => {
                // nor3(a,b,c) = nor2(or2(a,b), c)
                let ab = out.or2(ins[0], ins[1]);
                out.nor2(ab, ins[2])
            }
            kind => out.gate(kind, &ins),
        };
        net_map[g.output] = new_out;
    }
    // Re-add flops wiring their (pre-allocated) Q nets. The IR appends flop
    // Q nets via `flop`, so emulate by pushing flops with mapped d and
    // patching q: easiest is to add a buffer-free alias — we instead rebuild
    // by inserting flops whose q is a fresh net and remapping later uses.
    // Since all gate uses were already mapped through net_map (q allocated
    // above), we need the flop's q to *be* that net; Netlist::flop allocates
    // its own. To keep the IR append-only we add a `flop_with_q` path here.
    for (f, q) in netlist.flops().iter().zip(q_nets.drain(..)) {
        out.flop_into(net_map[f.d], q);
    }
    for &o in netlist.outputs() {
        out.output(net_map[o], netlist.net_name(o).unwrap_or("out").to_string());
    }
    let gates_after = out.gates().len();
    (
        out,
        MapReport {
            nand3_decomposed: drop_nand3,
            nor3_decomposed: drop_nor3,
            gates_before,
            gates_after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcsim::simulate_comb;
    use bdc_cells::{Cell, CellLibrary, Process};
    use std::collections::BTreeMap;

    /// A library whose NAND3 is pathologically slow.
    fn slow_nand3_lib() -> CellLibrary {
        let base = CellLibrary::synthetic(Process::Silicon, 10.0e-12);
        let cells: Vec<Cell> = base
            .cells()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                if c.kind == CellKind::Nand3 {
                    c.timing.delay_rise = c.timing.delay_rise.map(|d| d * 10.0);
                    c.timing.delay_fall = c.timing.delay_fall.map(|d| d * 10.0);
                }
                c
            })
            .collect();
        CellLibrary::from_cells(
            "slow-nand3",
            base.process,
            base.vdd,
            base.vss,
            base.wire,
            base.dff,
            cells,
        )
    }

    #[test]
    fn balanced_library_keeps_three_input_cells() {
        let lib = CellLibrary::synthetic(Process::Silicon, 10.0e-12);
        assert!(!prefers_decomposition(&lib, CellKind::Nand3));
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let y = n.nand3(a, b, c);
        n.output(y, "y");
        let (m, report) = remap_for_library(&n, &lib);
        assert!(!report.nand3_decomposed);
        assert_eq!(m.gates().len(), 1);
    }

    #[test]
    fn slow_nand3_gets_decomposed_and_function_preserved() {
        let lib = slow_nand3_lib();
        assert!(prefers_decomposition(&lib, CellKind::Nand3));
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let y = n.nand3(a, b, c);
        let z = n.nor3(a, b, y);
        n.output(y, "y");
        n.output(z, "z");
        let (m, report) = remap_for_library(&n, &lib);
        assert!(report.nand3_decomposed);
        assert!(report.gates_after > report.gates_before);
        m.validate().unwrap();
        // Exhaustive equivalence.
        for bits in 0..8u32 {
            let vals = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let mk = |nl: &Netlist| {
                let mut mp = BTreeMap::new();
                for (i, &inp) in nl.inputs().iter().enumerate() {
                    mp.insert(inp, vals[i]);
                }
                simulate_comb(nl, &mp)
            };
            let v0 = mk(&n);
            let v1 = mk(&m);
            assert_eq!(v0[n.outputs()[0]], v1[m.outputs()[0]], "y at {bits:03b}");
            assert_eq!(v0[n.outputs()[1]], v1[m.outputs()[1]], "z at {bits:03b}");
        }
    }

    #[test]
    fn remap_preserves_sequential_structure() {
        let lib = slow_nand3_lib();
        let mut n = Netlist::new("seq");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let y = n.nand3(a, b, c);
        let q = n.flop(y);
        let z = n.nand3(q, b, c);
        n.output(z, "z");
        let (m, _) = remap_for_library(&n, &lib);
        m.validate().unwrap();
        assert_eq!(m.flops().len(), 1);
    }
}
