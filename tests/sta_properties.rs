//! Property tests on the timing/pipelining machinery.

use proptest::prelude::*;

use bdc_cells::{CellLibrary, Process};
use bdc_synth::blocks;
use bdc_synth::pipeline::{depth_sweep, pipeline_cut, stage_assignment, PipelineOptions};
use bdc_synth::sta::{analyze, StaConfig};

fn lib(organic: bool) -> CellLibrary {
    if organic {
        CellLibrary::synthetic(Process::Organic, 6.5e-4)
    } else {
        CellLibrary::synthetic(Process::Silicon, 1.0e-11)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arrivals_are_monotone_along_gate_order(seed in 0u64..300, organic in any::<bool>()) {
        // Each gate's output arrival must be at least its worst input's.
        let n = blocks::random_logic(10, 150, seed);
        let r = analyze(&n, &lib(organic), &StaConfig::default());
        for g in n.gates() {
            let worst_in = g.inputs.iter().map(|&i| r.arrival[i]).fold(0.0, f64::max);
            prop_assert!(r.arrival[g.output] >= worst_in);
        }
        prop_assert!(r.max_gate_delay <= r.max_arrival + 1e-30);
    }

    #[test]
    fn stage_assignment_is_a_monotone_partition(
        seed in 0u64..300,
        stages in 2usize..8,
    ) {
        let n = blocks::random_logic(10, 200, seed);
        let l = lib(false);
        let cfg = StaConfig::default();
        let assign = stage_assignment(&n, &l, &cfg, stages);
        prop_assert_eq!(assign.len(), n.gates().len());
        // Consumers never sit in an earlier stage than their producers.
        let mut stage_of_net = vec![0usize; n.net_count()];
        for (g, &s) in n.gates().iter().zip(&assign) {
            prop_assert!(s < stages);
            for &i in &g.inputs {
                prop_assert!(stage_of_net[i] <= s, "net {} from stage {} used in {}", i, stage_of_net[i], s);
            }
            stage_of_net[g.output] = s;
        }
    }

    #[test]
    fn deeper_cuts_never_lengthen_stage_logic(
        seed in 0u64..100,
        organic in any::<bool>(),
    ) {
        let n = blocks::random_logic(12, 400, seed);
        let l = lib(organic);
        let cfg = StaConfig::default();
        let base = PipelineOptions::with_stages(1);
        let sweep = depth_sweep(&n, &l, &cfg, &[1, 2, 4, 8], &base);
        for w in sweep.windows(2) {
            let worst_a = w[0].stage_logic.iter().copied().fold(0.0, f64::max);
            let worst_b = w[1].stage_logic.iter().copied().fold(0.0, f64::max);
            prop_assert!(worst_b <= worst_a * 1.0 + 1e-30);
            // Registers and area grow monotonically with depth.
            prop_assert!(w[1].registers >= w[0].registers);
            prop_assert!(w[1].area_um2 >= w[0].area_um2 - 1e-9);
        }
    }

    #[test]
    fn period_bounded_below_by_overheads(
        seed in 0u64..100,
        stages in 1usize..12,
    ) {
        let n = blocks::random_logic(8, 150, seed);
        let l = lib(false);
        let r = pipeline_cut(&n, &l, &StaConfig::default(), &PipelineOptions::with_stages(stages));
        prop_assert!(r.period >= r.seq_overhead + r.wire_overhead);
        prop_assert!(r.frequency > 0.0);
        prop_assert_eq!(r.stage_logic.len(), stages);
    }
}

#[test]
fn sta_reports_identical_results_on_identical_inputs() {
    // Determinism: the whole timing stack is pure.
    let n = blocks::array_multiplier(16);
    let l = lib(true);
    let cfg = StaConfig::default();
    let a = analyze(&n, &l, &cfg);
    let b = analyze(&n, &l, &cfg);
    assert_eq!(a.max_arrival, b.max_arrival);
    assert_eq!(a.arrival, b.arrival);
}

#[test]
fn fanout_buffering_bounds_worst_gate_delay() {
    // A fanout-256 net must not cost 256 pin-loads of delay.
    use bdc_synth::gate::Netlist;
    let mut heavy = Netlist::new("fanout");
    let a = heavy.input("a");
    let x = heavy.inv(a);
    let mut outs = Vec::new();
    for _ in 0..256 {
        outs.push(heavy.inv(x));
    }
    heavy.output(outs[0], "y");
    let l = lib(true);
    let r = analyze(&heavy, &l, &StaConfig::default());
    // Unbuffered, the organic driver would see 256 × 350 pF ≈ 90 nF and
    // take ~100 ms; the buffer tree keeps it within ~a dozen gate delays.
    assert!(
        r.max_gate_delay < 20.0 * l.fo4_delay(),
        "max gate delay {:.3e} vs FO4 {:.3e}",
        r.max_gate_delay,
        l.fo4_delay()
    );
}
