//! Property tests: pipeline register insertion preserves function.
//!
//! `insert_registers` materializes the stage cuts that `pipeline_cut` only
//! times; the pipelined netlist must produce the same outputs as the
//! combinational original, delayed by `stages − 1` cycles.

use std::collections::BTreeMap;

use proptest::prelude::*;

use bdc_cells::{CellLibrary, Process};
use bdc_synth::blocks;
use bdc_synth::funcsim::{bus_to_u64, simulate_comb, simulate_seq, u64_to_bus};
use bdc_synth::gate::Netlist;
use bdc_synth::pipeline::insert_registers;
use bdc_synth::sta::StaConfig;

fn lib() -> CellLibrary {
    CellLibrary::synthetic(Process::Silicon, 10.0e-12)
}

/// Drives the same input sequence through comb and pipelined versions and
/// checks output alignment.
fn check_equivalence(comb: &Netlist, stages: usize, input_seqs: &[BTreeMap<usize, bool>]) {
    let piped = insert_registers(comb, &lib(), &StaConfig::default(), stages);
    piped.validate().expect("pipelined netlist is valid");
    let latency = stages - 1;
    // Translate input maps: same names, different net ids.
    let name_of: BTreeMap<&str, usize> = comb
        .inputs()
        .iter()
        .map(|&i| (comb.net_name(i).unwrap(), i))
        .collect();
    let piped_inputs: Vec<BTreeMap<usize, bool>> = input_seqs
        .iter()
        .map(|m| {
            piped
                .inputs()
                .iter()
                .map(|&i| {
                    let name = piped.net_name(i).unwrap();
                    (i, m[&name_of[name]])
                })
                .collect()
        })
        .collect();
    let traces = simulate_seq(&piped, &piped_inputs, input_seqs.len());
    for (c, m) in input_seqs.iter().enumerate() {
        let t = c + latency;
        if t >= traces.len() {
            break;
        }
        let expect = simulate_comb(comb, m);
        for (&co, &po) in comb.outputs().iter().zip(piped.outputs()) {
            let name = comb.net_name(co).unwrap();
            assert_eq!(
                expect[co], traces[t][po],
                "output {name} mismatch at cycle {t} (stages={stages})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adder_pipeline_is_equivalent(
        stages in 2usize..6,
        inputs in proptest::collection::vec((0u64..=0xFFFF, 0u64..=0xFFFF, any::<bool>()), 8..12),
    ) {
        let comb = blocks::ripple_adder(16);
        let a = blocks::bus(&comb, "a");
        let b = blocks::bus(&comb, "b");
        let cin = comb.inputs().iter().copied()
            .find(|&x| comb.net_name(x) == Some("cin")).unwrap();
        let seqs: Vec<BTreeMap<usize, bool>> = inputs.iter().map(|&(av, bv, cv)| {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &a, av);
            u64_to_bus(&mut m, &b, bv);
            m.insert(cin, cv);
            m
        }).collect();
        check_equivalence(&comb, stages, &seqs);
    }

    #[test]
    fn random_logic_pipeline_is_equivalent(
        seed in 0u64..1000,
        stages in 2usize..7,
        patterns in proptest::collection::vec(0u64..(1 << 12), 6..10),
    ) {
        let comb = blocks::random_logic(12, 150, seed);
        let ins = blocks::bus(&comb, "in");
        let seqs: Vec<BTreeMap<usize, bool>> = patterns.iter().map(|&p| {
            let mut m = BTreeMap::new();
            u64_to_bus(&mut m, &ins, p);
            m
        }).collect();
        check_equivalence(&comb, stages, &seqs);
    }

    #[test]
    fn multiplier_pipeline_computes_products(
        a_v in 0u64..=255,
        b_v in 0u64..=255,
        stages in 2usize..9,
    ) {
        let comb = blocks::array_multiplier(8);
        let piped = insert_registers(&comb, &lib(), &StaConfig::default(), stages);
        let a = blocks::bus(&piped, "a");
        let b = blocks::bus(&piped, "b");
        let p_bus = blocks::bus(&piped, "p");
        let mut m = BTreeMap::new();
        u64_to_bus(&mut m, &a, a_v);
        u64_to_bus(&mut m, &b, b_v);
        // Hold inputs until the pipeline drains.
        let traces = simulate_seq(&piped, &[m], stages + 1);
        let product = bus_to_u64(traces.last().unwrap(), &p_bus);
        prop_assert_eq!(product, a_v * b_v);
    }
}

#[test]
fn register_count_grows_with_stage_count() {
    let comb = blocks::array_multiplier(8);
    let p2 = insert_registers(&comb, &lib(), &StaConfig::default(), 2);
    let p6 = insert_registers(&comb, &lib(), &StaConfig::default(), 6);
    assert!(p6.flops().len() > p2.flops().len());
    assert!(!p2.flops().is_empty());
}
