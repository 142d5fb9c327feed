//! Datapath and control block generators.
//!
//! These produce the gate-level netlists the experiments synthesize: the
//! complex-ALU multiplier/divider cluster (Figure 12), per-stage core blocks
//! (Figures 11/13/14), and the width-dependent structures — bypass networks,
//! wakeup CAMs, select trees — whose growth drives the superscalar-width
//! tradeoff.

use crate::gate::{NetId, Netlist};

/// Finds the nets of a declared bus by name, ordered by index.
///
/// # Panics
/// Panics if the bus does not exist.
pub fn bus(netlist: &Netlist, name: &str) -> Vec<NetId> {
    let parse = |nm: &str| -> Option<usize> {
        let rest = nm.strip_prefix(name)?;
        rest.strip_prefix('[')?.strip_suffix(']')?.parse().ok()
    };
    let mut found: Vec<(usize, NetId)> = (0..netlist.net_count())
        .filter_map(|n| {
            let idx = netlist
                .input_name(n)
                .and_then(parse)
                .or_else(|| netlist.output_name(n).and_then(parse))?;
            Some((idx, n))
        })
        .collect();
    found.sort();
    assert!(!found.is_empty(), "no bus named {name}");
    found.into_iter().map(|(_, n)| n).collect()
}

/// Ripple-carry adder: `sum = a + b + cin`, plus `cout`.
pub fn ripple_adder(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("ripple_adder{width}"));
    let a = n.input_bus("a", width);
    let b = n.input_bus("b", width);
    let cin = n.input("cin");
    let mut carry = cin;
    let mut sums = Vec::with_capacity(width);
    for i in 0..width {
        let (s, c) = n.full_adder(a[i], b[i], carry);
        sums.push(s);
        carry = c;
    }
    n.output_bus(&sums, "sum");
    n.output(carry, "cout");
    n
}

/// Carry-select adder with √width blocks — the "fast adder" used in the
/// execute stages.
pub fn carry_select_adder(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("csel_adder{width}"));
    let a = n.input_bus("a", width);
    let b = n.input_bus("b", width);
    let cin = n.input("cin");
    let block = ((width as f64).sqrt().ceil() as usize).max(2);
    let mut sums = vec![0; width];
    let mut carry_in = cin;
    let mut i = 0;
    while i < width {
        let hi = (i + block).min(width);
        // Two ripple chains: cin = 0 and cin = 1.
        let c0 = n.const0();
        let c1 = n.const1();
        let mut carry0 = c0;
        let mut carry1 = c1;
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        for j in i..hi {
            let (s, c) = n.full_adder(a[j], b[j], carry0);
            s0.push(s);
            carry0 = c;
            let (s, c) = n.full_adder(a[j], b[j], carry1);
            s1.push(s);
            carry1 = c;
        }
        // Select by the incoming carry.
        for (k, j) in (i..hi).enumerate() {
            sums[j] = n.mux2(carry_in, s0[k], s1[k]);
        }
        carry_in = n.mux2(carry_in, carry0, carry1);
        i = hi;
    }
    n.output_bus(&sums, "sum");
    n.output(carry_in, "cout");
    n
}

/// Kogge–Stone parallel-prefix adder: log-depth carries at the cost of
/// O(n log n) gates and heavy fanout/wiring — the structure whose
/// attractiveness *depends on the process's wire cost* (the adder-
/// architecture ablation).
pub fn kogge_stone_adder(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("ks_adder{width}"));
    let a = n.input_bus("a", width);
    let b = n.input_bus("b", width);
    let cin = n.input("cin");
    let pp: Vec<NetId> = (0..width).map(|i| n.xor2(a[i], b[i])).collect();
    let gg: Vec<NetId> = (0..width).map(|i| n.and2(a[i], b[i])).collect();
    let mut big_g = gg.clone();
    let mut big_p = pp.clone();
    let mut d = 1;
    while d < width {
        let (pg, ppv) = (big_g.clone(), big_p.clone());
        for i in d..width {
            // G = G | (P & G_prev), P = P & P_prev.
            let t = n.and2(ppv[i], pg[i - d]);
            big_g[i] = n.or2(pg[i], t);
            big_p[i] = n.and2(ppv[i], ppv[i - d]);
        }
        d *= 2;
    }
    // carry into bit i: c0 = cin; c_i = G_{i-1} | (P_{i-1} & cin).
    let mut sums = Vec::with_capacity(width);
    for i in 0..width {
        let carry = if i == 0 {
            cin
        } else {
            let t = n.and2(big_p[i - 1], cin);
            n.or2(big_g[i - 1], t)
        };
        sums.push(n.xor2(pp[i], carry));
    }
    let t = n.and2(big_p[width - 1], cin);
    let cout = n.or2(big_g[width - 1], t);
    n.output_bus(&sums, "sum");
    n.output(cout, "cout");
    n
}

/// Array multiplier: AND partial products, carry-save reduction rows, final
/// ripple adder. `product` is `2·width` bits.
pub fn array_multiplier(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("array_mult{width}"));
    let a = n.input_bus("a", width);
    let b = n.input_bus("b", width);
    // pp[i][j] = a[j] & b[i], weight i + j.
    let mut rows: Vec<Vec<NetId>> = Vec::with_capacity(width);
    for bi in &b {
        let row: Vec<NetId> = a.iter().map(|aj| n.and2(*aj, *bi)).collect();
        rows.push(row);
    }
    // Carry-save accumulate rows.
    let mut acc: Vec<Option<NetId>> = vec![None; 2 * width];
    for (i, row) in rows.into_iter().enumerate() {
        let mut carry: Option<NetId> = None;
        for (j, p) in row.into_iter().enumerate() {
            let w = i + j;
            let existing = acc[w];
            let (sum, new_carry) = match (existing, carry) {
                (None, None) => (p, None),
                (Some(x), None) => {
                    let (s, c) = n.half_adder(x, p);
                    (s, Some(c))
                }
                (None, Some(c0)) => {
                    let (s, c) = n.half_adder(c0, p);
                    (s, Some(c))
                }
                (Some(x), Some(c0)) => {
                    let (s, c) = n.full_adder(x, p, c0);
                    (s, Some(c))
                }
            };
            acc[w] = Some(sum);
            carry = new_carry;
        }
        // Propagate the row's final carry up the accumulator.
        let mut w = i + width;
        while let Some(c) = carry {
            let existing = acc[w];
            match existing {
                None => {
                    acc[w] = Some(c);
                    carry = None;
                }
                Some(x) => {
                    let (s, c2) = n.half_adder(x, c);
                    acc[w] = Some(s);
                    carry = Some(c2);
                }
            }
            w += 1;
        }
    }
    let zero = n.const0();
    let product: Vec<NetId> = acc.into_iter().map(|o| o.unwrap_or(zero)).collect();
    n.output_bus(&product, "p");
    n
}

/// One row of a restoring divider: conditional subtract + restore mux over
/// `width+1` bits. This is the per-cycle logic of a *stallable* sequential
/// divider (DesignWare-style): the full divide iterates this row, so only
/// the row participates in pipeline retiming.
pub fn divider_stage(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("div_row{width}"));
    let rem = n.input_bus("rem", width + 1);
    let divisor = n.input_bus("d", width);
    let one = n.const1();
    let ndiv: Vec<NetId> = divisor.iter().map(|d| n.inv(*d)).collect();
    let mut carry = one;
    let mut trial = Vec::with_capacity(width + 1);
    for j in 0..=width {
        let dj = if j < width { ndiv[j] } else { one };
        let (s, c) = n.full_adder(rem[j], dj, carry);
        trial.push(s);
        carry = c;
    }
    let accept = carry;
    let next: Vec<NetId> = (0..=width)
        .map(|j| n.mux2(accept, rem[j], trial[j]))
        .collect();
    n.output_bus(&next, "next");
    n.output(accept, "qbit");
    n
}

/// Logarithmic barrel shifter (left shift by `shamt`, zero fill).
pub fn barrel_shifter(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("bshift{width}"));
    let a = n.input_bus("a", width);
    let stages = (usize::BITS - (width - 1).leading_zeros()) as usize;
    let sh = n.input_bus("sh", stages);
    let zero = n.const0();
    let mut cur = a;
    for (s, &sel) in sh.iter().enumerate() {
        let k = 1usize << s;
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let shifted_in = if i >= k { cur[i - k] } else { zero };
            next.push(n.mux2(sel, cur[i], shifted_in));
        }
        cur = next;
    }
    n.output_bus(&cur, "y");
    n
}

/// `k`-to-1 mux tree over `data_width`-bit words, one-hot-free binary
/// select. Sources are buses `in0 … in{k-1}`; select is `sel` (⌈log₂k⌉
/// bits). The heart of bypass networks and register-file read ports.
pub fn mux_tree(k: usize, data_width: usize) -> Netlist {
    assert!(k >= 2, "mux tree needs at least two inputs");
    let mut n = Netlist::new(format!("mux{k}x{data_width}"));
    let sel_bits = (usize::BITS - (k - 1).leading_zeros()) as usize;
    let sources: Vec<Vec<NetId>> = (0..k)
        .map(|i| n.input_bus(&format!("in{i}"), data_width))
        .collect();
    let sel = n.input_bus("sel", sel_bits);
    let mut layer = sources;
    for (s, &sbit) in sel.iter().enumerate() {
        let _ = s;
        let mut next = Vec::new();
        let mut i = 0;
        while i < layer.len() {
            if i + 1 < layer.len() {
                let merged: Vec<NetId> = (0..data_width)
                    .map(|b| n.mux2(sbit, layer[i][b], layer[i + 1][b]))
                    .collect();
                next.push(merged);
                i += 2;
            } else {
                next.push(layer[i].clone());
                i += 1;
            }
        }
        layer = next;
        if layer.len() == 1 {
            break;
        }
    }
    let out = layer.into_iter().next().expect("non-empty");
    n.output_bus(&out, "y");
    n
}

/// Binary decoder: `nbits` address → `2^nbits` one-hot outputs.
pub fn decoder(nbits: usize) -> Netlist {
    let mut n = Netlist::new(format!("dec{nbits}"));
    let a = n.input_bus("a", nbits);
    let na: Vec<NetId> = a.iter().map(|x| n.inv(*x)).collect();
    let mut outs = Vec::with_capacity(1 << nbits);
    for code in 0..(1usize << nbits) {
        // AND of the appropriate polarity per bit, as a NAND/INV tree.
        let lits: Vec<NetId> = (0..nbits)
            .map(|b| if code & (1 << b) != 0 { a[b] } else { na[b] })
            .collect();
        let mut acc = lits[0];
        let mut i = 1;
        while i < lits.len() {
            if i + 1 < lits.len() {
                acc = n.and3(acc, lits[i], lits[i + 1]);
                i += 2;
            } else {
                acc = n.and2(acc, lits[i]);
                i += 1;
            }
        }
        outs.push(acc);
    }
    n.output_bus(&outs, "y");
    n
}

/// Equality comparator over `width` bits: `eq = (a == b)`.
pub fn comparator(width: usize) -> Netlist {
    let mut n = Netlist::new(format!("cmp{width}"));
    let a = n.input_bus("a", width);
    let b = n.input_bus("b", width);
    let eqs: Vec<NetId> = (0..width).map(|i| n.xnor2(a[i], b[i])).collect();
    let eq = and_tree(&mut n, &eqs);
    n.output(eq, "eq");
    n
}

/// Fixed-priority select: grants the lowest-index request. Uses a
/// Kogge–Stone prefix-OR, so depth grows with log(entries) — the
/// issue-select structure.
pub fn priority_select(entries: usize) -> Netlist {
    let mut n = Netlist::new(format!("select{entries}"));
    let req = n.input_bus("req", entries);
    // incl[i] = OR(req[0..=i]) by doubling. Grants only read incl up to
    // index entries−2, so the prefix runs over the first entries−1
    // requests; computing incl[entries−1] would just build a dead cone.
    let m = entries - 1;
    let mut incl: Vec<NetId> = req[..m].to_vec();
    let mut d = 1;
    while d < m {
        let mut next = incl.clone();
        for i in d..m {
            let g = n.or2(incl[i], incl[i - d]);
            next[i] = g;
        }
        incl = next;
        d *= 2;
    }
    // grant[i] = req[i] & !incl[i-1].
    let grants: Vec<NetId> = (0..entries)
        .map(|i| {
            if i == 0 {
                req[0]
            } else {
                let np = n.inv(incl[i - 1]);
                n.and2(req[i], np)
            }
        })
        .collect();
    n.output_bus(&grants, "grant");
    n
}

/// Wakeup CAM: `entries` issue-queue slots each compare their source tag
/// against `ports` broadcast result tags of `tag_bits` bits; an entry wakes
/// when any port matches. Port count scales with issue width — the quadratic
/// structure behind the width experiment.
pub fn wakeup_cam(entries: usize, tag_bits: usize, ports: usize) -> Netlist {
    let mut n = Netlist::new(format!("wakeup{entries}x{ports}"));
    let tags: Vec<Vec<NetId>> = (0..ports)
        .map(|p| n.input_bus(&format!("tag{p}"), tag_bits))
        .collect();
    let entry_tags: Vec<Vec<NetId>> = (0..entries)
        .map(|e| n.input_bus(&format!("src{e}"), tag_bits))
        .collect();
    let mut wakes = Vec::with_capacity(entries);
    for etag in &entry_tags {
        let mut port_match = Vec::with_capacity(ports);
        for tag in &tags {
            let eqs: Vec<NetId> = (0..tag_bits).map(|b| n.xnor2(etag[b], tag[b])).collect();
            port_match.push(and_tree(&mut n, &eqs));
        }
        wakes.push(or_tree(&mut n, &port_match));
    }
    n.output_bus(&wakes, "wake");
    n
}

/// Bypass network: each of `consumers` functional-unit inputs muxes among
/// `producers` + 1 (register file) data sources of `data_width` bits.
/// Producer count scales with back-end width.
pub fn bypass_network(producers: usize, consumers: usize, data_width: usize) -> Netlist {
    let mut n = Netlist::new(format!("bypass{producers}x{consumers}"));
    let k = producers + 1;
    let sel_bits = (usize::BITS - (k - 1).leading_zeros()).max(1) as usize;
    let sources: Vec<Vec<NetId>> = (0..k)
        .map(|i| n.input_bus(&format!("src{i}"), data_width))
        .collect();
    for cidx in 0..consumers {
        let sel = n.input_bus(&format!("sel{cidx}"), sel_bits);
        let mut layer = sources.clone();
        for &sbit in &sel {
            let mut next = Vec::new();
            let mut i = 0;
            while i < layer.len() {
                if i + 1 < layer.len() {
                    let merged: Vec<NetId> = (0..data_width)
                        .map(|b| n.mux2(sbit, layer[i][b], layer[i + 1][b]))
                        .collect();
                    next.push(merged);
                    i += 2;
                } else {
                    next.push(layer[i].clone());
                    i += 1;
                }
            }
            layer = next;
            if layer.len() == 1 {
                break;
            }
        }
        n.output_bus(&layer[0], &format!("out{cidx}"));
    }
    n
}

/// Pseudorandom control-logic block: a reproducible DAG of `gates` library
/// gates over `inputs` primary inputs — the stand-in for decode/steering
/// random logic. Uses a fixed LCG so identical parameters produce identical
/// netlists.
pub fn random_logic(inputs: usize, gates: usize, seed: u64) -> Netlist {
    let mut n = Netlist::new(format!("rand{inputs}x{gates}"));
    let ins = n.input_bus("in", inputs);
    let mut pool: Vec<NetId> = ins.clone();
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..gates {
        let r = next() % 100;
        // Bias toward the newest nets to build depth.
        let pick = |n: usize, next: &mut dyn FnMut() -> usize, pool: &Vec<NetId>| -> Vec<NetId> {
            (0..n)
                .map(|_| {
                    let span = (pool.len() / 3).max(1);
                    let idx = pool.len() - 1 - (next() % span);
                    pool[idx]
                })
                .collect()
        };
        let out = match r {
            0..=14 => {
                let p = pick(1, &mut next, &pool);
                n.inv(p[0])
            }
            15..=44 => {
                let p = pick(2, &mut next, &pool);
                n.nand2(p[0], p[1])
            }
            45..=59 => {
                let p = pick(3, &mut next, &pool);
                n.nand3(p[0], p[1], p[2])
            }
            60..=84 => {
                let p = pick(2, &mut next, &pool);
                n.nor2(p[0], p[1])
            }
            _ => {
                let p = pick(3, &mut next, &pool);
                n.nor3(p[0], p[1], p[2])
            }
        };
        pool.push(out);
    }
    // Expose every sink as an output: gate outputs nothing reads (so no
    // cone is dead logic) and untouched primary inputs (payload bits fed
    // straight through the stage).
    let mut read = vec![false; n.net_count()];
    for g in n.gates() {
        for &i in &g.inputs {
            read[i] = true;
        }
    }
    let outs: Vec<NetId> = (0..n.net_count()).filter(|&net| !read[net]).collect();
    n.output_bus(&outs, "out");
    n
}

fn and_tree(n: &mut Netlist, nets: &[NetId]) -> NetId {
    reduce_tree(n, nets, true)
}

fn or_tree(n: &mut Netlist, nets: &[NetId]) -> NetId {
    reduce_tree(n, nets, false)
}

fn reduce_tree(n: &mut Netlist, nets: &[NetId], is_and: bool) -> NetId {
    assert!(!nets.is_empty());
    let mut layer = nets.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(3));
        let mut i = 0;
        while i < layer.len() {
            let rest = layer.len() - i;
            if rest >= 3 {
                let g = if is_and {
                    n.and3(layer[i], layer[i + 1], layer[i + 2])
                } else {
                    n.or3(layer[i], layer[i + 1], layer[i + 2])
                };
                next.push(g);
                i += 3;
            } else if rest == 2 {
                let g = if is_and {
                    n.and2(layer[i], layer[i + 1])
                } else {
                    n.or2(layer[i], layer[i + 1])
                };
                next.push(g);
                i += 2;
            } else {
                next.push(layer[i]);
                i += 1;
            }
        }
        layer = next;
    }
    layer[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcsim::{bus_to_u64, simulate_comb, u64_to_bus};
    use std::collections::BTreeMap;

    fn eval_adder(n: &Netlist, a_v: u64, b_v: u64, cin_v: bool, width: usize) -> (u64, bool) {
        let a = bus(n, "a");
        let b = bus(n, "b");
        let cin = n
            .inputs()
            .iter()
            .copied()
            .find(|&x| n.net_name(x) == Some("cin"))
            .unwrap();
        let mut m = BTreeMap::new();
        u64_to_bus(&mut m, &a, a_v);
        u64_to_bus(&mut m, &b, b_v);
        m.insert(cin, cin_v);
        let v = simulate_comb(n, &m);
        let sum = bus_to_u64(&v, &bus(n, "sum"));
        let cout = n
            .outputs()
            .iter()
            .copied()
            .find(|&x| n.net_name(x) == Some("cout"))
            .unwrap();
        let _ = width;
        (sum, v[cout])
    }

    #[test]
    fn ripple_adder_adds() {
        let n = ripple_adder(16);
        n.validate().unwrap();
        for (a, b, c) in [
            (0u64, 0u64, false),
            (1234, 4321, false),
            (0xFFFF, 1, false),
            (0x8000, 0x8000, true),
        ] {
            let (s, co) = eval_adder(&n, a, b, c, 16);
            let expect = a + b + c as u64;
            assert_eq!(s, expect & 0xFFFF, "{a}+{b}+{c}");
            assert_eq!(co, expect > 0xFFFF);
        }
    }

    #[test]
    fn carry_select_matches_ripple() {
        let n = carry_select_adder(16);
        n.validate().unwrap();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = x & 0xFFFF;
            let b = (x >> 16) & 0xFFFF;
            let c = (x >> 32) & 1 == 1;
            let (s, co) = eval_adder(&n, a, b, c, 16);
            let expect = a + b + c as u64;
            assert_eq!(s, expect & 0xFFFF);
            assert_eq!(co, expect > 0xFFFF);
        }
    }

    #[test]
    fn kogge_stone_matches_ripple() {
        let n = kogge_stone_adder(16);
        n.validate().unwrap();
        let mut x = 0xDEADBEEFCAFEu64;
        for _ in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = x & 0xFFFF;
            let b = (x >> 16) & 0xFFFF;
            let c = (x >> 40) & 1 == 1;
            let (s, co) = eval_adder(&n, a, b, c, 16);
            let expect = a + b + c as u64;
            assert_eq!(s, expect & 0xFFFF, "{a}+{b}+{c}");
            assert_eq!(co, expect > 0xFFFF);
        }
    }

    #[test]
    fn kogge_stone_is_log_depth() {
        // Gate count grows superlinearly but the XOR-to-sum path is short.
        use crate::sta::{analyze, StaConfig};
        use bdc_cells::{CellLibrary, Process};
        let lib = CellLibrary::synthetic(Process::Silicon, 10.0e-12);
        let cfg = StaConfig::default();
        let ks = analyze(&kogge_stone_adder(32), &lib, &cfg);
        let ripple = analyze(&ripple_adder(32), &lib, &cfg);
        assert!(ks.max_arrival < 0.35 * ripple.max_arrival);
    }

    #[test]
    fn multiplier_multiplies() {
        let n = array_multiplier(8);
        n.validate().unwrap();
        let a_bus = bus(&n, "a");
        let b_bus = bus(&n, "b");
        let p_bus = bus(&n, "p");
        for (a, b) in [
            (0u64, 0u64),
            (1, 255),
            (17, 19),
            (255, 255),
            (128, 2),
            (99, 101),
        ] {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &a_bus, a);
            u64_to_bus(&mut m, &b_bus, b);
            let v = simulate_comb(&n, &m);
            assert_eq!(bus_to_u64(&v, &p_bus), a * b, "{a}*{b}");
        }
    }

    #[test]
    fn barrel_shifter_shifts() {
        let n = barrel_shifter(16);
        n.validate().unwrap();
        let a_bus = bus(&n, "a");
        let sh_bus = bus(&n, "sh");
        let y_bus = bus(&n, "y");
        for (a, s) in [(0x0001u64, 0u64), (0x0001, 5), (0xABCD, 4), (0xFFFF, 15)] {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &a_bus, a);
            u64_to_bus(&mut m, &sh_bus, s);
            let v = simulate_comb(&n, &m);
            assert_eq!(bus_to_u64(&v, &y_bus), (a << s) & 0xFFFF, "{a:#x} << {s}");
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let n = decoder(4);
        n.validate().unwrap();
        let a_bus = bus(&n, "a");
        let y_bus = bus(&n, "y");
        for code in 0..16u64 {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &a_bus, code);
            let v = simulate_comb(&n, &m);
            assert_eq!(bus_to_u64(&v, &y_bus), 1 << code);
        }
    }

    #[test]
    fn comparator_detects_equality() {
        let n = comparator(12);
        let a_bus = bus(&n, "a");
        let b_bus = bus(&n, "b");
        let eq = n.outputs()[0];
        for (a, b) in [(5u64, 5u64), (5, 6), (0xFFF, 0xFFF), (0, 0x800)] {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &a_bus, a);
            u64_to_bus(&mut m, &b_bus, b);
            let v = simulate_comb(&n, &m);
            assert_eq!(v[eq], a == b, "{a} == {b}");
        }
    }

    #[test]
    fn priority_select_grants_lowest() {
        let n = priority_select(8);
        let req_bus = bus(&n, "req");
        let grant_bus = bus(&n, "grant");
        for req in [0b0000_0000u64, 0b0001_0000, 0b1010_1000, 0b1111_1111] {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &req_bus, req);
            let v = simulate_comb(&n, &m);
            let grant = bus_to_u64(&v, &grant_bus);
            if req == 0 {
                assert_eq!(grant, 0);
            } else {
                assert_eq!(
                    grant,
                    req & req.wrapping_neg(),
                    "lowest set bit of {req:#b}"
                );
            }
        }
    }

    #[test]
    fn mux_tree_selects() {
        let n = mux_tree(4, 8);
        let y_bus = bus(&n, "y");
        let sel_bus = bus(&n, "sel");
        let data = [0x11u64, 0x22, 0x33, 0x44];
        for sel in 0..4u64 {
            let mut m = BTreeMap::new();
            for (i, d) in data.iter().enumerate() {
                u64_to_bus(&mut m, &bus(&n, &format!("in{i}")), *d);
            }
            u64_to_bus(&mut m, &sel_bus, sel);
            let v = simulate_comb(&n, &m);
            assert_eq!(bus_to_u64(&v, &y_bus), data[sel as usize], "sel={sel}");
        }
    }

    #[test]
    fn wakeup_cam_matches_any_port() {
        let n = wakeup_cam(4, 6, 2);
        let wake_bus = bus(&n, "wake");
        let mut m = BTreeMap::new();
        u64_to_bus(&mut m, &bus(&n, "tag0"), 13);
        u64_to_bus(&mut m, &bus(&n, "tag1"), 44);
        for (e, src) in [(0u64, 13u64), (1, 44), (2, 13), (3, 7)] {
            u64_to_bus(&mut m, &bus(&n, &format!("src{e}")), src);
        }
        let v = simulate_comb(&n, &m);
        assert_eq!(bus_to_u64(&v, &wake_bus), 0b0111);
    }

    #[test]
    fn bypass_network_size_grows_with_width() {
        let small = bypass_network(3, 2, 32);
        let big = bypass_network(7, 2, 32);
        small.validate().unwrap();
        big.validate().unwrap();
        assert!(big.gates().len() as f64 > 1.5 * small.gates().len() as f64);
    }

    #[test]
    fn random_logic_is_deterministic_and_valid() {
        let a = random_logic(16, 300, 42);
        let b = random_logic(16, 300, 42);
        let c = random_logic(16, 300, 43);
        a.validate().unwrap();
        assert_eq!(a.gates().len(), b.gates().len());
        assert_eq!(
            format!("{:?}", a.gates()[..20].to_vec()),
            format!("{:?}", b.gates()[..20].to_vec())
        );
        // Different seed → different structure (overwhelmingly likely).
        assert_ne!(format!("{:?}", a.gates()), format!("{:?}", c.gates()));
    }
}
