//! Criterion micro-benchmarks of the tensor primitives: GEMM, the Jacobi
//! SVD and QR on the matrix sizes an MPS simulation actually produces —
//! the microscopic cause of the paper's Fig. 5 crossover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qk_tensor::complex::{c64, Complex64};
use qk_tensor::matrix::gemm_serial;
use qk_tensor::svd::svd;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..rows * cols)
        .map(|_| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            c64(next(), next())
        })
        .collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[8usize, 32, 64, 128] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let mut out = vec![Complex64::ZERO; n * n];
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bch, &n| {
            bch.iter(|| gemm_serial(n, n, n, &a, &b, &mut out));
        });
    }
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    group.sample_size(10);
    for &n in &[8usize, 24, 48, 96] {
        let a = random_matrix(n, n, 3);
        group.bench_with_input(BenchmarkId::new("jacobi_serial", n), &n, |bch, &n| {
            bch.iter(|| svd(n, n, &a));
        });
    }
    group.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr");
    for &n in &[16usize, 64, 128] {
        let a = random_matrix(n, n, 4);
        group.bench_with_input(BenchmarkId::new("householder", n), &n, |bch, &n| {
            bch.iter(|| qk_tensor::qr::qr(n, n, &a));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_svd, bench_qr);
criterion_main!(benches);
