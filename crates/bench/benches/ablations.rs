//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * RXX's operator-Schmidt rank 2 (the paper's footnote 5) vs a generic
//!   dense two-qubit unitary (rank 4): bond growth, and hence runtime,
//!   differs sharply.
//! * Interaction distance `d` in 1..=4 at `m = 12`: what one state costs
//!   once the router has scheduled each XX block as a sweep per qubit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qk_bench::sample_rows;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::{Circuit, Gate};
use qk_mps::MpsSimulator;
use qk_tensor::backend::CpuBackend;
use qk_tensor::complex::c64;
use qk_tensor::svd::split_two_qubit_gate;

fn bench_rxx_vs_generic_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_schmidt_rank");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    let m = 12;

    // Chain of RXX gates (Schmidt rank 2: half the theta singular values
    // vanish and are truncated).
    let mut rxx = Circuit::new(m);
    for q in 0..m {
        rxx.push1(Gate::H, q);
        rxx.push1(Gate::Rz(0.7), q);
    }
    for q in 0..m - 1 {
        rxx.push2(Gate::Rxx(0.9), q, q + 1);
    }

    // Same layout with a generic (rank-4) two-qubit unitary built from
    // composed rotations.
    let generic = {
        let a = Gate::Rxx(0.9).matrix();
        let b = Gate::Rzz(1.3).matrix();
        let ab = qk_tensor::contract(&a, &[1], &b, &[0]);
        let mut entries = [c64(0.0, 0.0); 16];
        entries.copy_from_slice(ab.data());
        Gate::Unitary2(Box::new(entries))
    };
    let mut dense = Circuit::new(m);
    for q in 0..m {
        dense.push1(Gate::H, q);
        dense.push1(Gate::Rz(0.7), q);
    }
    for q in 0..m - 1 {
        dense.push2(generic.clone(), q, q + 1);
    }

    group.bench_function("rxx_rank2_chain", |bch| {
        let sim = MpsSimulator::new(&cpu);
        bch.iter(|| sim.simulate(&rxx));
    });
    group.bench_function("generic_rank4_chain", |bch| {
        let sim = MpsSimulator::new(&cpu);
        bch.iter(|| sim.simulate(&dense));
    });
    group.bench_function("gate_split_svd", |bch| {
        let gate = Gate::Rxx(0.9).matrix();
        bch.iter(|| split_two_qubit_gate(gate.data(), 1e-12));
    });
    group.finish();
}

fn bench_interaction_distance(c: &mut Criterion) {
    // Cost of one state as the interaction distance grows: the router
    // schedules each XX block as one sweep per qubit whatever order the
    // edges were emitted in, so d (ops applied, bond reached) is the knob
    // left to ablate.
    let mut group = c.benchmark_group("xx_interaction_distance");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    let m = 12;
    let rows = sample_rows(1, m, 72);
    let sim = MpsSimulator::new(&cpu);
    for d in 1..=4 {
        let circuit = feature_map_circuit(&rows[0], &AnsatzConfig::new(2, d, 1.0));
        group.bench_with_input(BenchmarkId::new("d", d), &d, |bch, _| {
            bch.iter(|| sim.simulate(&circuit));
        });
    }
    group.finish();
}

fn bench_kernel_diagnostics(c: &mut Criterion) {
    // Spectral diagnostics cost: the Jacobi eigensolver is O(n^3) per
    // sweep, the geometric difference adds CG solves + power iteration.
    // Both must stay cheap relative to Gram assembly for the diagnostics
    // to be usable inline in the table2/table3 harnesses.
    use qk_svm::{effective_dimension, geometric_difference, KernelMatrix};
    let mut group = c.benchmark_group("kernel_diagnostics");
    group.sample_size(10);
    for &n in &[16usize, 48, 96] {
        let k1 = KernelMatrix::from_fn(n, |i, j| {
            let d = i as f64 - j as f64;
            (-d * d / 16.0).exp()
        });
        let k2 = KernelMatrix::from_fn(n, |i, j| if (i / 4) == (j / 4) { 1.0 } else { 0.05 });
        group.bench_with_input(BenchmarkId::new("effective_dimension", n), &n, |bch, _| {
            bch.iter(|| effective_dimension(&k1));
        });
        group.bench_with_input(BenchmarkId::new("geometric_difference", n), &n, |bch, _| {
            bch.iter(|| geometric_difference(&k1, &k2, 1e-6));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rxx_vs_generic_gate,
    bench_interaction_distance,
    bench_kernel_diagnostics
);
criterion_main!(benches);
