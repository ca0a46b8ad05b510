//! Criterion benchmarks of the MPS engine: full-circuit simulation and
//! inner products across interaction distances and qubit counts — the
//! per-primitive view of the paper's Figs. 5 and 7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qk_bench::sample_rows;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;

fn bench_simulation_vs_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("mps_sim_vs_distance");
    group.sample_size(10);
    let m = 16;
    let rows = sample_rows(1, m, 51);
    let cpu = CpuBackend::new();
    for &d in &[1usize, 2, 3] {
        let circuit = feature_map_circuit(&rows[0], &AnsatzConfig::new(2, d, 1.0));
        group.bench_with_input(BenchmarkId::new("cpu", d), &d, |bch, _| {
            let sim = MpsSimulator::new(&cpu);
            bch.iter(|| sim.simulate(&circuit));
        });
    }
    group.finish();
}

fn bench_simulation_vs_qubits(c: &mut Criterion) {
    let mut group = c.benchmark_group("mps_sim_vs_qubits");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    for &m in &[8usize, 16, 32, 64] {
        let rows = sample_rows(1, m, 52);
        let circuit = feature_map_circuit(&rows[0], &AnsatzConfig::qml_default());
        group.bench_with_input(BenchmarkId::new("d1_qml", m), &m, |bch, _| {
            let sim = MpsSimulator::new(&cpu);
            bch.iter(|| sim.simulate(&circuit));
        });
    }
    group.finish();
}

fn prepared_states(m: usize, d: usize) -> (Mps, Mps) {
    let cpu = CpuBackend::new();
    let sim = MpsSimulator::new(&cpu);
    let rows = sample_rows(2, m, 53);
    let a = sim
        .simulate(&feature_map_circuit(
            &rows[0],
            &AnsatzConfig::new(2, d, 1.0),
        ))
        .0;
    let b = sim
        .simulate(&feature_map_circuit(
            &rows[1],
            &AnsatzConfig::new(2, d, 1.0),
        ))
        .0;
    (a, b)
}

fn bench_inner_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("inner_product");
    let cpu = CpuBackend::new();
    for &d in &[1usize, 2, 3] {
        let (a, b) = prepared_states(16, d);
        group.bench_with_input(BenchmarkId::new("cpu", d), &d, |bch, _| {
            bch.iter(|| a.inner_with(&cpu, &b));
        });
    }
    group.finish();
}

fn bench_serialization(c: &mut Criterion) {
    // The round-robin strategy's communication payload.
    let mut group = c.benchmark_group("mps_serialization");
    let (a, _) = prepared_states(32, 2);
    group.bench_function("to_bytes", |bch| bch.iter(|| a.to_bytes()));
    let bytes = a.to_bytes();
    group.bench_function("from_bytes", |bch| bch.iter(|| Mps::from_bytes(&bytes)));
    group.finish();
}

fn bench_canonicalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonicalization");
    let (a, _) = prepared_states(24, 3);
    group.bench_function("full_sweep", |bch| {
        bch.iter(|| {
            let mut state = a.clone();
            state.canonicalize_to(23);
            state.canonicalize_to(0);
            state
        })
    });
    group.finish();
}

fn bench_truncation_cutoffs(c: &mut Criterion) {
    // Ablation: the paper's 1e-16 cutoff vs lossier settings.
    let mut group = c.benchmark_group("truncation_cutoff");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    let rows = sample_rows(1, 16, 54);
    let circuit = feature_map_circuit(&rows[0], &AnsatzConfig::new(2, 3, 1.0));
    for &cutoff in &[1e-16f64, 1e-8, 1e-4] {
        group.bench_with_input(
            BenchmarkId::new("cutoff", format!("{cutoff:e}")),
            &cutoff,
            |bch, &cutoff| {
                let sim =
                    MpsSimulator::new(&cpu).with_truncation(TruncationConfig::with_cutoff(cutoff));
                bch.iter(|| sim.simulate(&circuit));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation_vs_distance,
    bench_simulation_vs_qubits,
    bench_inner_product,
    bench_serialization,
    bench_canonicalization,
    bench_truncation_cutoffs
);
criterion_main!(benches);
