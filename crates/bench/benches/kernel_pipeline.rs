//! Criterion benchmarks of the kernel-level pipeline: Gram assembly,
//! distribution strategies, the SVM solve, and the classical baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qk_bench::sample_rows;
use qk_circuit::AnsatzConfig;
use qk_core::distributed::{distributed_gram, Strategy};
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_svm::{gaussian_gram, scale_bandwidth, train_svc, SmoParams};
use qk_tensor::backend::CpuBackend;

fn bench_gram_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_assembly");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    let tc = TruncationConfig::default();
    let ansatz = AnsatzConfig::qml_default();
    for &n in &[16usize, 32, 64] {
        let rows = sample_rows(n, 16, 61);
        let states = simulate_states(&rows, &ansatz, &cpu, &tc).states;
        group.bench_with_input(BenchmarkId::new("in_memory", n), &n, |bch, _| {
            bch.iter(|| gram_matrix(&states, &cpu));
        });
    }
    group.finish();
}

fn bench_distribution_strategies(c: &mut Criterion) {
    // The paper's Fig. 4 strategies head to head at equal process counts.
    let mut group = c.benchmark_group("distribution_strategy");
    group.sample_size(10);
    let cpu = CpuBackend::new();
    let tc = TruncationConfig::default();
    let ansatz = AnsatzConfig::qml_default();
    let rows = sample_rows(32, 16, 62);
    for strategy in [Strategy::NoMessaging, Strategy::RoundRobin] {
        group.bench_with_input(
            BenchmarkId::new(format!("{strategy:?}"), 4),
            &strategy,
            |bch, &strategy| {
                bch.iter(|| distributed_gram(&rows, &ansatz, &cpu, &tc, 4, strategy));
            },
        );
    }
    group.finish();
}

fn bench_svm_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("svm_solve");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let data = generate(&SyntheticConfig {
            num_features: 10,
            num_illicit: n,
            num_licit: n,
            latent_dim: 6,
            noise: 1.6,
            seed: 63,
        });
        let split = prepare_experiment(&data, n, 10, 63);
        let alpha = scale_bandwidth(&split.train.features);
        let kernel = gaussian_gram(&split.train.features, alpha);
        let labels = split.train.label_signs();
        group.bench_with_input(BenchmarkId::new("smo", n), &n, |bch, _| {
            bch.iter(|| train_svc(&kernel, &labels, &SmoParams::with_c(1.0)));
        });
    }
    group.finish();
}

fn bench_gaussian_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_kernel");
    for &n in &[64usize, 256] {
        let rows = sample_rows(n, 20, 64);
        group.bench_with_input(BenchmarkId::new("gram", n), &n, |bch, _| {
            bch.iter(|| gaussian_gram(&rows, 0.5));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gram_assembly,
    bench_distribution_strategies,
    bench_svm_solve,
    bench_gaussian_kernel
);
criterion_main!(benches);
