//! Criterion micro-benchmarks for the simulation substrates: how fast the
//! framework itself runs (device evaluation, circuit solving, STA,
//! pipeline cutting, cycle-accurate simulation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bdc_cells::{CellLibrary, Process};
use bdc_circuit::{Circuit, DcSolver};
use bdc_device::{DeviceModel, Level61Model, TftParams};
use bdc_synth::blocks;
use bdc_synth::pipeline::{pipeline_cut, PipelineOptions};
use bdc_synth::sta::{analyze, StaConfig};
use bdc_uarch::{build_workload, CoreConfig, OooCore, Workload};

fn bench_device(c: &mut Criterion) {
    let m = Level61Model::new(TftParams::pentacene());
    c.bench_function("device/level61_ids", |b| {
        b.iter(|| black_box(m.ids(black_box(-5.0), black_box(-2.5))))
    });
}

fn bench_dc_solver(c: &mut Criterion) {
    let gate = bdc_cells::organic_inverter(
        bdc_cells::OrganicStyle::PseudoE,
        &bdc_cells::OrganicSizing::library_default(),
        5.0,
        -15.0,
    );
    c.bench_function("circuit/pseudo_e_dc_op", |b| {
        b.iter(|| {
            let mut circuit = gate.circuit.clone();
            circuit.set_vsource(gate.inputs[0].1, 2.5);
            black_box(DcSolver::new().solve(&circuit).unwrap());
        })
    });
    c.bench_function("circuit/divider_dc_op", |b| {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let mid = circuit.node("m");
        circuit.vsource(a, Circuit::GND, 10.0);
        circuit.resistor(a, mid, 1.0e3);
        circuit.resistor(mid, Circuit::GND, 1.0e3);
        b.iter(|| black_box(DcSolver::new().solve(&circuit).unwrap()))
    });
}

fn bench_sta(c: &mut Criterion) {
    let lib = CellLibrary::synthetic(Process::Silicon, 12.0e-12);
    let mult = blocks::array_multiplier(32);
    let cfg = StaConfig::default();
    c.bench_function("synth/sta_mult32", |b| {
        b.iter(|| black_box(analyze(&mult, &lib, &cfg)))
    });
    c.bench_function("synth/pipeline_cut_mult32_x8", |b| {
        b.iter(|| {
            black_box(pipeline_cut(
                &mult,
                &lib,
                &cfg,
                &PipelineOptions::with_stages(8),
            ))
        })
    });
}

fn bench_uarch(c: &mut Criterion) {
    let program = build_workload(Workload::Dhrystone, 10_000);
    let mut group = c.benchmark_group("uarch");
    group.sample_size(10);
    group.bench_function("ooo_dhrystone_50k_instrs", |b| {
        b.iter(|| {
            let mut core = OooCore::new(
                &program,
                CoreConfig::baseline(),
                Workload::Dhrystone.memory_words(),
            );
            black_box(core.run(50_000))
        })
    });
    group.finish();
}

fn bench_workload_build(c: &mut Criterion) {
    c.bench_function("workload/build_gzip", |b| {
        b.iter(|| black_box(build_workload(Workload::Gzip, 100)))
    });
}

criterion_group!(
    benches,
    bench_device,
    bench_dc_solver,
    bench_sta,
    bench_uarch,
    bench_workload_build
);
criterion_main!(benches);
