//! Property-based tests of the linear-algebra core on random complex
//! matrices: factorization residuals, orthogonality, contraction algebra.

use proptest::prelude::*;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::{route_for_mps, Circuit, Gate};
use qk_mps::{MpsSimulator, TruncationConfig};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::{c64, Complex64};
use qk_tensor::contract::contract;
use qk_tensor::matrix::{conj_transpose, gemm_serial};
use qk_tensor::qr::{lq, qr};
use qk_tensor::svd::{svd, svd_parallel, svd_parallel_scalar, svd_scalar, Svd};
use qk_tensor::tensor::Tensor;
use std::sync::Mutex;

fn complex_entry() -> impl Strategy<Value = Complex64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| c64(re, im))
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(complex_entry(), rows * cols)
}

fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..9, 1usize..9)
}

fn frob(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SVD reconstructs the input to numerical accuracy on any shape.
    #[test]
    fn svd_reconstructs((m, n) in dims(), seed in 0u64..1000) {
        let a = deterministic_matrix(m, n, seed);
        let f = svd(m, n, &a);
        let recon = f.reconstruct();
        let scale = frob(&a).max(1.0);
        let err: f64 = recon.iter().zip(&a).map(|(x, y)| (*x - *y).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err < 1e-9 * scale, "residual {err}");
        // Singular values are sorted and non-negative.
        prop_assert!(f.s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
        // Frobenius norm is preserved by the spectrum.
        prop_assert!((f.weight().sqrt() - frob(&a)).abs() < 1e-9 * scale);
    }

    /// Serial and parallel Jacobi agree on the spectrum.
    #[test]
    fn svd_parallel_agrees((m, n) in dims(), seed in 0u64..1000) {
        let a = deterministic_matrix(m, n, seed);
        let fs = svd(m, n, &a);
        let fp = svd_parallel(m, n, &a);
        for (x, y) in fs.s.iter().zip(&fp.s) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    /// Exact rank-r matrices (sums of r outer products, r < n <= 64, both
    /// orientations) meet the truncation contract, the parallel driver
    /// agrees on them, and each driver's dispatched path (AVX kernels on
    /// an AVX host) returns its scalar path's bits.
    #[test]
    fn svd_converges_on_exact_rank_r(
        (n, extra, wide) in (2usize..65, 0usize..9, prop::bool::ANY),
        (r_pick, seed) in (0usize..64, 0u64..1000),
    ) {
        let r = 1 + r_pick % (n - 1);
        let long = n + extra;
        let (rows, cols) = if wide { (n, long) } else { (long, n) };
        let left = deterministic_matrix(rows, r, seed);
        let right = deterministic_matrix(r, cols, seed + 1);
        let mut a = vec![Complex64::ZERO; rows * cols];
        gemm_serial(rows, r, cols, &left, &right, &mut a);
        let fs = assert_truncation_svd(rows, cols, &a);
        prop_assert!(fs.s[r..].iter().all(|&s| s == 0.0), "rank {r}: {:?}", fs.s);
        assert_same_bits(&fs, &svd_scalar(rows, cols, &a), "serial");
        let fp = svd_parallel(rows, cols, &a);
        assert_same_bits(&fp, &svd_parallel_scalar(rows, cols, &a), "round-robin");
        prop_assert!(fp.converged(), "parallel driver hit the sweep cap");
        for (x, y) in fs.s.iter().zip(&fp.s) {
            prop_assert!((x - y).abs() <= 1e-12 * frob(&a), "{x} vs {y}");
        }
    }

    /// QR reconstructs with orthonormal Q on any shape.
    #[test]
    fn qr_reconstructs((m, n) in dims(), seed in 0u64..1000) {
        let a = deterministic_matrix(m, n, seed);
        let f = qr(m, n, &a);
        let mut recon = vec![Complex64::ZERO; m * n];
        gemm_serial(m, f.k, n, &f.q, &f.r, &mut recon);
        let scale = frob(&a).max(1.0);
        let err: f64 = recon.iter().zip(&a).map(|(x, y)| (*x - *y).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err < 1e-9 * scale);
        // Q^H Q = I.
        for c1 in 0..f.k {
            for c2 in 0..f.k {
                let mut dot = Complex64::ZERO;
                for i in 0..m {
                    dot = dot.conj_mul_add(f.q[i * f.k + c1], f.q[i * f.k + c2]);
                }
                let expect = if c1 == c2 { Complex64::ONE } else { Complex64::ZERO };
                prop_assert!((dot - expect).norm() < 1e-9);
            }
        }
    }

    /// LQ reconstructs on any shape.
    #[test]
    fn lq_reconstructs((m, n) in dims(), seed in 0u64..1000) {
        let a = deterministic_matrix(m, n, seed);
        let f = lq(m, n, &a);
        let mut recon = vec![Complex64::ZERO; m * n];
        gemm_serial(m, f.k, n, &f.l, &f.q, &mut recon);
        let scale = frob(&a).max(1.0);
        let err: f64 = recon.iter().zip(&a).map(|(x, y)| (*x - *y).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err < 1e-9 * scale);
    }

    /// GEMM distributes over addition: (A + B) C = AC + BC.
    #[test]
    fn gemm_is_linear(seed in 0u64..500) {
        let (m, k, n) = (4usize, 5usize, 3usize);
        let a = deterministic_matrix(m, k, seed);
        let b = deterministic_matrix(m, k, seed + 7);
        let c = deterministic_matrix(k, n, seed + 13);
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut lhs = vec![Complex64::ZERO; m * n];
        gemm_serial(m, k, n, &sum, &c, &mut lhs);
        let mut ac = vec![Complex64::ZERO; m * n];
        let mut bc = vec![Complex64::ZERO; m * n];
        gemm_serial(m, k, n, &a, &c, &mut ac);
        gemm_serial(m, k, n, &b, &c, &mut bc);
        for i in 0..m * n {
            prop_assert!((lhs[i] - (ac[i] + bc[i])).norm() < 1e-10);
        }
    }

    /// Conjugate transpose is an involution and reverses products:
    /// (AB)^H = B^H A^H.
    #[test]
    fn dagger_reverses_products(seed in 0u64..500) {
        let (m, k, n) = (3usize, 4usize, 5usize);
        let a = deterministic_matrix(m, k, seed);
        let b = deterministic_matrix(k, n, seed + 3);
        let mut ab = vec![Complex64::ZERO; m * n];
        gemm_serial(m, k, n, &a, &b, &mut ab);
        let abh = conj_transpose(m, n, &ab); // n x m
        let ah = conj_transpose(m, k, &a); // k x m
        let bh = conj_transpose(k, n, &b); // n x k
        let mut bh_ah = vec![Complex64::ZERO; n * m];
        gemm_serial(n, k, m, &bh, &ah, &mut bh_ah);
        for i in 0..n * m {
            prop_assert!((abh[i] - bh_ah[i]).norm() < 1e-10);
        }
    }

    /// Tensor contraction over a matching middle axis is associative with
    /// matrix multiplication: contract(contract(A,B),C) = contract(A,contract(B,C)).
    #[test]
    fn contraction_is_associative(seed in 0u64..500) {
        let a = Tensor::from_data(&[3, 4], deterministic_matrix(3, 4, seed));
        let b = Tensor::from_data(&[4, 2], deterministic_matrix(4, 2, seed + 1));
        let c = Tensor::from_data(&[2, 5], deterministic_matrix(2, 5, seed + 2));
        let left = contract(&contract(&a, &[1], &b, &[0]), &[1], &c, &[0]);
        let right = contract(&a, &[1], &contract(&b, &[1], &c, &[0]), &[0]);
        prop_assert_eq!(left.shape(), right.shape());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((*x - *y).norm() < 1e-10);
        }
    }

    /// Permuting axes preserves the multiset of entries and the norm.
    #[test]
    fn permute_preserves_norm(seed in 0u64..500) {
        let t = Tensor::from_data(&[2, 3, 4], deterministic_matrix(6, 4, seed));
        for perm in [[1usize, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1]] {
            let p = t.permute(&perm);
            prop_assert!((p.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
        }
    }

    /// SVD also holds on proptest-generated (shrinkable) inputs, and the
    /// rank never exceeds min(m, n).
    #[test]
    fn svd_on_arbitrary_matrices(a in matrix(5, 3)) {
        let f = svd(5, 3, &a);
        prop_assert!(f.s.len() <= 3);
        let recon = f.reconstruct();
        let scale = frob(&a).max(1.0);
        let err: f64 =
            recon.iter().zip(&a).map(|(x, y)| (*x - *y).norm_sqr()).sum::<f64>().sqrt();
        prop_assert!(err < 1e-9 * scale, "residual {err}");
    }

    /// Scaling a matrix by a complex scalar scales the Frobenius norm by
    /// its modulus.
    #[test]
    fn scalar_scales_frobenius_norm(z in complex_entry(), a in matrix(4, 4)) {
        let scaled: Vec<Complex64> = a.iter().map(|&x| z * x).collect();
        prop_assert!((frob(&scaled) - z.norm() * frob(&a)).abs() < 1e-10);
    }

    /// GEMM on flat buffers agrees with the generic tensor contraction.
    #[test]
    fn gemm_matches_tensor_contract(a in matrix(3, 4), b in matrix(4, 2)) {
        let mut ab = vec![Complex64::ZERO; 3 * 2];
        gemm_serial(3, 4, 2, &a, &b, &mut ab);
        let ta = Tensor::from_data(&[3, 4], a);
        let tb = Tensor::from_data(&[4, 2], b);
        let tc = contract(&ta, &[1], &tb, &[0]);
        for (x, y) in ab.iter().zip(tc.data()) {
            prop_assert!((*x - *y).norm() < 1e-10);
        }
    }
}

// Truncation-SVD regression corpus. What `qk-mps` factorises is not a
// random dense matrix: an RXX gate has operator-Schmidt rank 2, so almost
// every theta is rank-deficient, and the d = 3 thetas have spectra graded
// over twelve orders. Before the deflation floor, the per-sweep norm
// refresh and the pivoting, 18-30 % of these ran all 60 sweeps.
//
// Mutation check (run when this landed), each failing all three
// `svd_converges_*` tests below:
// * `floor = 0.0` in `svd_tall`: null directions come back as sigma
//   ~ 1e-17 |a| with junk vectors ("sigma below the floor survived"), and
//   the chi = 4 thetas take up to 7 sweeps instead of 4;
// * `norms_sqr` computed once before the sweep loop instead of at the
//   start of every sweep: a column whose tracked norm has cancelled below
//   zero is skipped as deflated while its real norm is above the floor,
//   and comes back parallel to another ("thin side off by 9.99e-1").
// With neither rule (the code before them) the thetas run to the cap.

/// Most sweeps any corpus matrix may take (the cap is 60).
const CORPUS_MAX_SWEEPS: usize = 12;

/// Factorises `a` and checks what gate application needs of the result:
/// few sweeps, a residual at rounding level, every singular value at or
/// below `ε‖a‖_F` exactly zero with a zero vector on the thin side (`u`
/// columns, or `vh` rows when `m < n`), and orthonormal vectors elsewhere.
fn assert_truncation_svd(m: usize, n: usize, a: &[Complex64]) -> Svd {
    let f = svd(m, n, a);
    let norm = frob(a);
    assert!(
        f.sweeps <= CORPUS_MAX_SWEEPS,
        "{m}x{n}: {} sweeps",
        f.sweeps
    );
    let residual = frob(
        &f.reconstruct()
            .iter()
            .zip(a)
            .map(|(x, y)| *x - *y)
            .collect::<Vec<_>>(),
    );
    assert!(
        residual <= 1e-13 * norm,
        "{m}x{n}: residual {residual:e} against norm {norm:e}"
    );
    let k = f.k;
    let u_col = |c: usize| (0..m).map(|i| f.u[i * k + c]).collect::<Vec<_>>();
    let vh_row = |r: usize| f.vh[r * n..(r + 1) * n].to_vec();
    let (thin, full): (Vec<_>, Vec<_>) = if m >= n {
        ((0..k).map(u_col).collect(), (0..k).map(vh_row).collect())
    } else {
        ((0..k).map(vh_row).collect(), (0..k).map(u_col).collect())
    };
    let inner = |x: &[Complex64], y: &[Complex64]| {
        x.iter()
            .zip(y)
            .fold(Complex64::ZERO, |acc, (a, b)| acc.conj_mul_add(*a, *b))
    };
    for r1 in 0..k {
        let live = f.s[r1] > f64::EPSILON * norm;
        if !live {
            assert_eq!(f.s[r1], 0.0, "{m}x{n}: sigma below the floor survived");
            assert!(
                thin[r1].iter().all(|z| *z == Complex64::ZERO),
                "{m}x{n}: deflated direction {r1} is not a zero vector"
            );
        }
        for r2 in 0..k {
            let expect = if r1 == r2 { 1.0 } else { 0.0 };
            let dev = (inner(&full[r1], &full[r2]) - c64(expect, 0.0)).norm();
            assert!(dev <= 1e-12, "{m}x{n}: full side off by {dev:e}");
            if live && f.s[r2] > f64::EPSILON * norm {
                let dev = (inner(&thin[r1], &thin[r2]) - c64(expect, 0.0)).norm();
                assert!(dev <= 1e-12, "{m}x{n}: thin side off by {dev:e}");
            }
        }
    }
    f
}

/// The theta of `RXX(t)` across a fresh bond between two bond-2 neighbours:
/// `cos(t/2) u v^T - i sin(t/2) (X u)(X v)^T`, a 4 x 4 matrix of rank 2.
#[test]
fn svd_converges_on_rxx_theta() {
    for seed in 0..32u64 {
        let t = 0.1 + 0.09 * seed as f64;
        let u = deterministic_matrix(4, 1, 2 * seed + 1); // [(chi_l, p1)]
        let v = deterministic_matrix(1, 4, 2 * seed + 2); // [(p2, chi_r)]
        let (cos, sin) = (c64((t / 2.0).cos(), 0.0), c64(0.0, -(t / 2.0).sin()));
        let mut theta = vec![Complex64::ZERO; 16];
        for row in 0..4 {
            for col in 0..4 {
                // X flips the physical bit: p1 is the low bit of the row
                // index, p2 the high bit of the column index.
                theta[row * 4 + col] = cos * u[row] * v[col] + sin * u[row ^ 1] * v[col ^ 2];
            }
        }
        let f = assert_truncation_svd(4, 4, &theta);
        assert!(f.s[1] > 0.0 && f.s[2] == 0.0 && f.s[3] == 0.0, "{:?}", f.s);
    }
}

/// Hands every matrix the simulator factorises to the test.
#[derive(Default)]
struct CaptureBackend {
    thetas: Mutex<Vec<(usize, usize, Vec<Complex64>)>>,
}

impl ExecutionBackend for CaptureBackend {
    fn name(&self) -> &'static str {
        "capture"
    }

    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        gemm_serial(m, k, n, a, b, c);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        self.thetas
            .lock()
            .expect("capture lock")
            .push((m, n, a.to_vec()));
        svd(m, n, a)
    }
}

/// Every matrix the simulator factorises for one feature-map state on
/// `m` qubits at interaction distance `d` (routed), under the paper's
/// 1e-16 cutoff, with the circuit that produced them.
fn feature_map_thetas(
    m: usize,
    d: usize,
    gamma: f64,
) -> (Circuit, Vec<(usize, usize, Vec<Complex64>)>) {
    let features: Vec<f64> = (0..m)
        .map(|i| 0.1 + 1.8 * (i as f64 * 0.618_033_988_75).fract())
        .collect();
    let circuit = route_for_mps(&feature_map_circuit(
        &features,
        &AnsatzConfig::new(2, d, gamma),
    ));
    let be = CaptureBackend::default();
    MpsSimulator::new(&be)
        .with_truncation(TruncationConfig {
            cutoff: 1e-16,
            max_bond: None,
        })
        .simulate(&circuit);
    (circuit, be.thetas.into_inner().expect("capture lock"))
}

/// Every matrix the simulator factorises for the paper's feature map at
/// the benchmark's two shapes meets the truncation contract, in at most 8
/// sweeps on average: at m = 8, d = 1 the m - 1 site matrices of the one
/// compression sweep that closes the exact RXX splits, at m = 12, d = 3
/// (routed) one theta per two-qubit op, SWAP and fused SWAP-RXX included.
#[test]
fn svd_converges_on_feature_map_thetas() {
    for (m, d, gamma) in [(8usize, 1usize, 0.5f64), (12, 3, 1.0)] {
        let (circuit, thetas) = feature_map_thetas(m, d, gamma);
        let swaps = circuit.ops().iter().filter(|op| op.gate == Gate::Swap);
        assert_eq!(swaps.count() > 0, d > 1, "routing inserts SWAPs for d > 1");
        let two_qubit = circuit.ops().iter().filter(|op| op.qubits.len() == 2);
        let factorised = if d == 1 { m - 1 } else { two_qubit.count() };
        assert_eq!(thetas.len(), factorised);
        let sweeps: usize = thetas
            .iter()
            .map(|(rows, cols, a)| assert_truncation_svd(*rows, *cols, a).sweeps)
            .sum();
        assert!(
            sweeps <= 8 * thetas.len(),
            "m={m} d={d}: {sweeps} sweeps over {} thetas",
            thetas.len()
        );
    }
}

/// The dispatched drivers return the scalar drivers' bits on every theta
/// of a `deep_d3`-shaped (m = 12, d = 3) and a `wide_d1`-shaped (m = 64,
/// d = 1) state: the matrices whose factors become the states' bits.
#[test]
fn dispatched_svd_matches_scalar_on_feature_map_thetas() {
    for (m, d, gamma) in [(12usize, 3usize, 1.0f64), (64, 1, 0.5)] {
        let (_, thetas) = feature_map_thetas(m, d, gamma);
        assert!(!thetas.is_empty());
        for (rows, cols, a) in &thetas {
            let what = format!("m={m} d={d} {rows}x{cols}");
            assert_same_bits(&svd(*rows, *cols, a), &svd_scalar(*rows, *cols, a), &what);
            assert_same_bits(
                &svd_parallel(*rows, *cols, a),
                &svd_parallel_scalar(*rows, *cols, a),
                &format!("{what} round-robin"),
            );
        }
    }
}

/// Two factorizations' `u`, `s`, `vh` and sweeps, bit for bit.
fn assert_same_bits(x: &Svd, y: &Svd, what: &str) {
    let bits = |v: &[Complex64]| -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    };
    assert_eq!(bits(&x.u), bits(&y.u), "{what}: u differs");
    assert_eq!(bits(&x.vh), bits(&y.vh), "{what}: vh differs");
    let s_bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(s_bits(&x.s), s_bits(&y.s), "{what}: s differs");
    assert_eq!(x.sweeps, y.sweeps, "{what}: sweeps differ");
}

/// Deterministic pseudo-random matrix (xorshift), so failures replay.
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
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
