//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! One-sided Jacobi is chosen over bidiagonal QR because it is simple,
//! numerically robust (singular values accurate to machine precision, which
//! the paper's 1e-16 truncation criterion relies on), and its rotation
//! rounds parallelize cleanly. For the bond dimensions an MPS simulator
//! produces (tens to a few hundred), its O(n^3)-per-sweep cost is a good
//! trade against implementation risk.
//!
//! The matrices the pipeline factorises are rank-deficient almost every
//! time (an RXX gate has operator-Schmidt rank 2, so the first sweep
//! annihilates half the columns of a theta). Three rules make the iteration
//! converge on them instead of running to its cap (DESIGN.md, "Truncation
//! SVD", has the measured sweep histograms):
//!
//! * **Deflation floor.** A column whose squared norm is at most
//!   `ε²‖A‖_F²` is never paired again and is reported as `σ = 0` with a
//!   zero `u` column. It is below the rounding error `ε‖A‖_F` of the
//!   rotations that produced it, so its direction is noise; truncation
//!   downstream compares *weights* `σ²/‖A‖_F²` with 1e-16, sixteen orders
//!   above the `ε² ≈ 4.9e-32` a deflated column could have carried.
//! * **Norm refresh.** Within a sweep squared norms are tracked per
//!   rotation (`α' = α − tγ`, `β' = β + tγ`), with an absolute error of `~ε`
//!   times the largest norm the column has had. A column that rotations
//!   shrink, in one step or by a few digits against each column it depends
//!   on, ends with a tracked norm of `0.0` or of garbage `~ε·α` while it is
//!   itself `~ε²·α`; the relative test `γ > 1e-14·sqrt(αβ)` then degenerates
//!   to `γ > 0`, the pair "rotates" by an angle that changes nothing, and no
//!   sweep comes up clean. So every sweep starts from norms recomputed
//!   from the columns (`n` dot products beside its `n²/2`), and the clean
//!   sweep that ends the iteration has judged every pair on exact norms.
//! * **de Rijk pivoting.** At each `i` of a sweep the largest remaining
//!   column is swapped into place, which sorts the columns as it goes and
//!   halves the sweeps a graded spectrum takes (a d = 3 ansatz's 60 x 60
//!   theta, σ spread over twelve orders: 20 cyclic sweeps, 11 pivoted).
//!
//! The matrix is stored column-major internally so that a Jacobi rotation
//! touches two contiguous columns.

use crate::complex::Complex64;
use crate::matrix::conj_transpose;

/// Result of a thin SVD `a = u * diag(s) * vh` with `a: m x n`.
///
/// `u` is row-major `m x k`, `s` holds `k = min(m, n)` non-negative singular
/// values sorted in descending order, and `vh` is row-major `k x n`.
/// Singular values at or below `ε‖a‖_F` are reported as exactly zero and
/// their columns of `u` (rows of `vh` when `m < n`) are zero vectors: they
/// carry no weight in the reconstruction.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, row-major `m x k`.
    pub u: Vec<Complex64>,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (conjugate-transposed), row-major `k x n`.
    pub vh: Vec<Complex64>,
    /// Rows of the input.
    pub m: usize,
    /// Columns of the input.
    pub n: usize,
    /// `min(m, n)`.
    pub k: usize,
    /// Jacobi sweeps run, the final clean one included.
    pub sweeps: usize,
}

impl Svd {
    /// Reconstructs the original matrix (row-major `m x n`); test helper and
    /// the basis of the truncation-error accounting.
    pub fn reconstruct(&self) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.m * self.n];
        for (r, sr) in self.s.iter().enumerate() {
            if *sr == 0.0 {
                continue;
            }
            for i in 0..self.m {
                let uir = self.u[i * self.k + r] * *sr;
                if uir == Complex64::ZERO {
                    continue;
                }
                let row = &mut out[i * self.n..(i + 1) * self.n];
                let vrow = &self.vh[r * self.n..(r + 1) * self.n];
                for (o, v) in row.iter_mut().zip(vrow) {
                    *o = o.mul_add(uir, *v);
                }
            }
        }
        out
    }

    /// Sum of squared singular values (equals the squared Frobenius norm of
    /// the input).
    pub fn weight(&self) -> f64 {
        self.s.iter().map(|s| s * s).sum()
    }

    /// Whether the iteration ended on a clean sweep, not on the sweep cap
    /// (which no matrix the pipeline produces should come near).
    pub fn converged(&self) -> bool {
        self.sweeps < MAX_SWEEPS
    }
}

/// Relative off-diagonal threshold at which a column pair counts as
/// orthogonal and the rotation is skipped.
const JACOBI_TOL: f64 = 1e-14;
/// Hard cap on Jacobi sweeps. Pipeline thetas take 2–13 (mean 3–5) and
/// random dense matrices 6–8; reaching the cap means a column pair kept
/// "rotating" without converging, which [`Svd::converged`] reports.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of a row-major `m x n` complex matrix.
///
/// # Panics
/// Panics if `a.len() != m * n`.
pub fn svd(m: usize, n: usize, a: &[Complex64]) -> Svd {
    assert_eq!(a.len(), m * n, "svd: matrix size mismatch");
    debug_assert!(
        a.iter().all(|z| z.is_finite()),
        "svd input contains non-finite entries"
    );
    via_tall(m, n, a, svd_tall)
}

/// Runs a tall-matrix driver on either orientation: `a = u s vh  <=>
/// a^H = v s u^H`, so a wide matrix is factored as its tall conjugate
/// transpose with the roles of `u` and `v` swapped.
fn via_tall(
    m: usize,
    n: usize,
    a: &[Complex64],
    tall: impl Fn(usize, usize, &[Complex64]) -> Svd,
) -> Svd {
    if m >= n {
        return tall(m, n, a);
    }
    // a^H = U1 S V1h with U1: n x m, V1h: m x m, so u = V1, vh = U1h.
    let f = tall(n, m, &conj_transpose(m, n, a));
    Svd {
        u: conj_transpose(m, m, &f.vh),
        vh: conj_transpose(n, m, &f.u),
        m,
        n,
        ..f
    }
}

fn norm_sqr(col: &[Complex64]) -> f64 {
    col.iter().map(|z| z.norm_sqr()).sum()
}

/// `x^H y`.
fn dot(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    x.iter()
        .zip(y)
        .fold(Complex64::ZERO, |acc, (a, b)| acc.conj_mul_add(*a, *b))
}

/// Column-major working copy of `a` and the identity `V` beside it.
fn jacobi_columns(
    m: usize,
    n: usize,
    a: &[Complex64],
) -> (Vec<Vec<Complex64>>, Vec<Vec<Complex64>>) {
    let cols = (0..n)
        .map(|j| (0..m).map(|i| a[i * n + j]).collect())
        .collect();
    let vcols = (0..n)
        .map(|j| {
            let mut col = vec![Complex64::ZERO; n];
            col[j] = Complex64::ONE;
            col
        })
        .collect();
    (cols, vcols)
}

/// The rotation decision both drivers share. `alpha`, `beta` are the
/// squared norms of columns `i`, `j` and `gamma_c = col_i^H col_j`; returns
/// `(c, s_neg, s_pos)` for [`rotate_slices`], or `None` when either column
/// is deflated (at or below `floor`) or the pair is already orthogonal.
fn jacobi_rotation(
    alpha: f64,
    beta: f64,
    gamma_c: Complex64,
    floor: f64,
) -> Option<(f64, Complex64, Complex64)> {
    let gamma = gamma_c.norm();
    // The negated `>` is deliberate: it also trips when a norm or gamma is
    // NaN, which `<=` would silently let through. A subnormal gamma would
    // overflow 1/gamma when normalizing the phase.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if alpha <= floor
        || beta <= floor
        || !(gamma > JACOBI_TOL * (alpha * beta).sqrt())
        || gamma < f64::MIN_POSITIVE
    {
        return None;
    }
    // Phase so the effective off-diagonal is real: gamma_c = gamma e^{i phi};
    // then the classic Jacobi angles for the 2x2 Hermitian Gram block.
    let phase = gamma_c / gamma;
    let tau = (beta - alpha) / (2.0 * gamma);
    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    Some((c, phase.conj() * s, phase * s))
}

/// One-sided Jacobi on a tall (or square) matrix, `m >= n`.
fn svd_tall(m: usize, n: usize, a: &[Complex64]) -> Svd {
    let (mut cols, mut vcols) = jacobi_columns(m, n, a);
    let mut norms_sqr = vec![0.0f64; n];
    let floor = f64::EPSILON * f64::EPSILON * norm_sqr(a);

    let mut sweeps = 0;
    let mut rotated = true;
    while rotated && sweeps < MAX_SWEEPS {
        sweeps += 1;
        rotated = false;
        // Norm refresh (module doc): every sweep starts from exact norms.
        for (w, col) in norms_sqr.iter_mut().zip(&cols) {
            *w = norm_sqr(col);
        }
        for i in 0..n {
            // de Rijk pivot: the largest remaining column goes to `i`.
            let mut p = i;
            for j in i + 1..n {
                if norms_sqr[j] > norms_sqr[p] {
                    p = j;
                }
            }
            cols.swap(i, p);
            vcols.swap(i, p);
            norms_sqr.swap(i, p);
            if norms_sqr[i] <= floor {
                break; // every remaining column is deflated
            }
            for j in i + 1..n {
                let (alpha, beta) = (norms_sqr[i], norms_sqr[j]);
                if beta <= floor {
                    continue; // deflated: not worth the dot product
                }
                let (lo, hi) = cols.split_at_mut(j);
                let (ci, cj) = (&mut lo[i], &mut hi[0]);
                let gamma_c = dot(ci, cj);
                let Some((c, s_neg, s_pos)) = jacobi_rotation(alpha, beta, gamma_c, floor) else {
                    continue;
                };
                rotated = true;
                rotate_slices(ci, cj, c, s_neg, s_pos);
                let (lo, hi) = vcols.split_at_mut(j);
                rotate_slices(&mut lo[i], &mut hi[0], c, s_neg, s_pos);
                // The rotation moves t * gamma of squared norm from column i
                // to column j; s_pos * conj(gamma_c) = s * gamma, real.
                let shift = (s_pos * gamma_c.conj()).re / c;
                norms_sqr[i] = alpha - shift;
                norms_sqr[j] = beta + shift;
            }
        }
    }
    finalize_svd(m, n, cols, vcols, floor, sweeps)
}

/// Computes the thin SVD with Jacobi rotations in round-robin order.
///
/// Each round of the tournament schedule pairs every column with exactly
/// one partner, so the `n/2` rotations of a round touch disjoint column
/// pairs. The accelerator backend's `DeviceModel` prices this driver as
/// device work, where a round's rotations would run in parallel; here
/// every round executes sequentially on the calling thread (ROADMAP item
/// 5 replaces the driver). Column norms are recomputed per pair; the
/// rotation decision and the deflation floor are the serial driver's.
pub fn svd_parallel(m: usize, n: usize, a: &[Complex64]) -> Svd {
    assert_eq!(a.len(), m * n, "svd_parallel: matrix size mismatch");
    via_tall(m, n, a, svd_tall_parallel)
}

fn svd_tall_parallel(m: usize, n: usize, a: &[Complex64]) -> Svd {
    let floor = f64::EPSILON * f64::EPSILON * norm_sqr(a);
    let (mut cols, mut vcols) = jacobi_columns(m, n, a);

    // Round-robin (circle method) schedule over n slots (pad odd n).
    let slots = if n.is_multiple_of(2) { n } else { n + 1 };
    let rounds = slots - 1;

    let mut sweeps = 0;
    let mut rotated = true;
    while rotated && sweeps < MAX_SWEEPS {
        sweeps += 1;
        rotated = false;
        for round in 0..rounds {
            for p in 0..slots / 2 {
                let (x, y) = circle_pair(slots, round, p);
                let (i, j) = (x.min(y), x.max(y));
                if j >= n {
                    continue; // paired with the padding slot
                }
                let (lo, hi) = cols.split_at_mut(j);
                let (ci, cj) = (&mut lo[i], &mut hi[0]);
                let Some((c, s_neg, s_pos)) =
                    jacobi_rotation(norm_sqr(ci), norm_sqr(cj), dot(ci, cj), floor)
                else {
                    continue;
                };
                rotated = true;
                rotate_slices(ci, cj, c, s_neg, s_pos);
                let (lo, hi) = vcols.split_at_mut(j);
                rotate_slices(&mut lo[i], &mut hi[0], c, s_neg, s_pos);
            }
        }
    }

    finalize_svd(m, n, cols, vcols, floor, sweeps)
}

/// Pairing for round `r`, pair slot `p`, of the circle-method tournament on
/// `slots` participants (`slots` even). Participant `slots-1` stays fixed.
fn circle_pair(slots: usize, round: usize, p: usize) -> (usize, usize) {
    let n1 = slots - 1;
    if p == 0 {
        (n1, round % n1)
    } else {
        let a = (round + p) % n1;
        let b = (round + n1 - p) % n1;
        (a, b)
    }
}

/// Shared tail of both Jacobi drivers: sort columns by norm, zero the
/// deflated ones, and emit `u`, `s`, `vh` (`k = n`).
fn finalize_svd(
    m: usize,
    n: usize,
    cols: Vec<Vec<Complex64>>,
    vcols: Vec<Vec<Complex64>>,
    floor: f64,
    sweeps: usize,
) -> Svd {
    let k = n;
    let to_sigma = |w: f64| if w > floor { w.sqrt() } else { 0.0 };
    let sigmas: Vec<f64> = cols.iter().map(|col| to_sigma(norm_sqr(col))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| sigmas[y].total_cmp(&sigmas[x]));

    let mut u = vec![Complex64::ZERO; m * k];
    let mut s = vec![0.0f64; k];
    let mut vh = vec![Complex64::ZERO; k * n];
    for (rank, &src) in order.iter().enumerate() {
        let sigma = sigmas[src];
        s[rank] = sigma;
        if sigma > 0.0 {
            let inv = 1.0 / sigma;
            for i in 0..m {
                u[i * k + rank] = cols[src][i] * inv;
            }
        }
        for j in 0..n {
            vh[rank * n + j] = vcols[src][j].conj();
        }
    }
    Svd {
        u,
        s,
        vh,
        m,
        n,
        k,
        sweeps,
    }
}

/// Applies the 2x2 column rotation to two column slices:
/// `col_i' = c col_i - s_neg col_j`, `col_j' = s_pos col_i + c col_j`.
#[inline]
fn rotate_slices(
    ci: &mut [Complex64],
    cj: &mut [Complex64],
    c: f64,
    s_neg: Complex64,
    s_pos: Complex64,
) {
    for (x, y) in ci.iter_mut().zip(cj.iter_mut()) {
        let xi = *x;
        let yj = *y;
        *x = xi * c - s_neg * yj;
        *y = s_pos * xi + yj * c;
    }
}

/// Splits a two-qubit gate (4x4 unitary reshaped to act on two physical
/// legs) into left and right factors via SVD, dropping zero singular values.
///
/// Returns `(left, right, rank)` where `left` is `(2*2) x rank` interpreted
/// as `[p_out_1][p_in_1][r]` and `right` is `rank x (2*2)` as
/// `[r][p_out_2][p_in_2]`. This implements the paper's footnote-5
/// optimisation: an RXX gate has two exactly-zero singular values in this
/// bipartition, so its bond contribution is 2, not 4.
pub fn split_two_qubit_gate(
    gate: &[Complex64],
    cutoff: f64,
) -> (Vec<Complex64>, Vec<Complex64>, usize) {
    assert_eq!(gate.len(), 16, "two-qubit gate must be 4x4");
    // gate[(p1_out*2 + p2_out) * 4 + (p1_in*2 + p2_in)]
    // Rearrange into M[(p1_out, p1_in)][(p2_out, p2_in)].
    let mut m = vec![Complex64::ZERO; 16];
    for p1o in 0..2 {
        for p2o in 0..2 {
            for p1i in 0..2 {
                for p2i in 0..2 {
                    let src = (p1o * 2 + p2o) * 4 + (p1i * 2 + p2i);
                    let dst = (p1o * 2 + p1i) * 4 + (p2o * 2 + p2i);
                    m[dst] = gate[src];
                }
            }
        }
    }
    let f = svd(4, 4, &m);
    let mut rank = 0;
    for &sv in &f.s {
        if sv > cutoff {
            rank += 1;
        }
    }
    let rank = rank.max(1);
    // left[(p1_out, p1_in)][r] = u[.][r] * sqrt(s_r); right[r][(p2_out,
    // p2_in)] = sqrt(s_r) * vh[r][.]. Splitting sqrt(s) symmetrically keeps
    // both factors well-conditioned.
    let mut left = vec![Complex64::ZERO; 4 * rank];
    let mut right = vec![Complex64::ZERO; rank * 4];
    for r in 0..rank {
        let w = f.s[r].sqrt();
        for row in 0..4 {
            left[row * rank + r] = f.u[row * 4 + r] * w;
        }
        for col in 0..4 {
            right[r * 4 + col] = f.vh[r * 4 + col] * w;
        }
    }
    (left, right, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{approx_eq, c64};

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
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

    fn frob(a: &[Complex64]) -> f64 {
        a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    fn assert_svd_valid(m: usize, n: usize, a: &[Complex64], tol: f64) {
        let f = svd(m, n, a);
        assert_eq!(f.k, m.min(n));
        // Reconstruction.
        let recon = f.reconstruct();
        let mut err = 0.0f64;
        for (x, y) in recon.iter().zip(a) {
            err += (*x - *y).norm_sqr();
        }
        let scale = frob(a).max(1.0);
        assert!(
            err.sqrt() <= tol * scale,
            "reconstruction error {} for {m}x{n}",
            err.sqrt()
        );
        // Descending non-negative singular values.
        for w in f.s.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "singular values not sorted: {:?}",
                f.s
            );
        }
        assert!(f.s.iter().all(|&s| s >= 0.0));
        // Orthonormality of u columns with non-negligible sigma. Columns
        // whose singular value is at noise level carry junk directions by
        // construction (they are removed by truncation downstream).
        let floor = f.s.first().copied().unwrap_or(0.0) * 1e-12;
        for c1 in 0..f.k {
            if f.s[c1] <= floor {
                continue;
            }
            for c2 in 0..f.k {
                if f.s[c2] <= floor {
                    continue;
                }
                let mut dot = Complex64::ZERO;
                for i in 0..m {
                    dot = dot.conj_mul_add(f.u[i * f.k + c1], f.u[i * f.k + c2]);
                }
                let expect = if c1 == c2 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!(approx_eq(dot, expect, 1e-9), "u not orthonormal");
            }
        }
        // Orthonormality of vh rows.
        for r1 in 0..f.k {
            for r2 in 0..f.k {
                let mut dot = Complex64::ZERO;
                for j in 0..n {
                    dot = dot.conj_mul_add(f.vh[r2 * n + j], f.vh[r1 * n + j]);
                }
                let expect = if r1 == r2 {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!(approx_eq(dot, expect, 1e-9), "vh not row-orthonormal");
            }
        }
    }

    #[test]
    fn svd_square() {
        let a = test_matrix(6, 6, 1);
        assert_svd_valid(6, 6, &a, 1e-10);
    }

    #[test]
    fn svd_tall_matrix() {
        let a = test_matrix(10, 4, 2);
        assert_svd_valid(10, 4, &a, 1e-10);
    }

    #[test]
    fn svd_wide_matrix() {
        let a = test_matrix(3, 9, 3);
        assert_svd_valid(3, 9, &a, 1e-10);
    }

    #[test]
    fn svd_vector_shapes() {
        let a = test_matrix(7, 1, 4);
        assert_svd_valid(7, 1, &a, 1e-12);
        let b = test_matrix(1, 7, 5);
        assert_svd_valid(1, 7, &b, 1e-12);
    }

    #[test]
    fn svd_identity_has_unit_singular_values() {
        let n = 5;
        let mut a = vec![Complex64::ZERO; n * n];
        for i in 0..n {
            a[i * n + i] = Complex64::ONE;
        }
        let f = svd(n, n, &a);
        for &s in &f.s {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn svd_diagonal_recovers_entries() {
        let n = 4;
        let diag = [3.0, 1.0, 4.0, 1.5];
        let mut a = vec![Complex64::ZERO; n * n];
        for i in 0..n {
            a[i * n + i] = c64(diag[i], 0.0);
        }
        let f = svd(n, n, &a);
        let mut expect = diag.to_vec();
        expect.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (s, e) in f.s.iter().zip(&expect) {
            assert!((s - e).abs() < 1e-12, "{:?} vs {expect:?}", f.s);
        }
    }

    #[test]
    fn svd_rank_deficient() {
        // Outer product => rank 1.
        let m = 6;
        let n = 5;
        let u = test_matrix(m, 1, 7);
        let v = test_matrix(1, n, 8);
        let mut a = vec![Complex64::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                a[i * n + j] = u[i] * v[j];
            }
        }
        let f = svd(m, n, &a);
        assert!(f.s[0] > 1e-6);
        for &s in &f.s[1..] {
            assert!(
                s < 1e-10,
                "rank-1 matrix has extra singular values {:?}",
                f.s
            );
        }
        assert_svd_valid(m, n, &a, 1e-10);
    }

    #[test]
    fn svd_zero_matrix() {
        let f = svd(4, 3, &[Complex64::ZERO; 12]);
        assert!(f.s.iter().all(|&s| s == 0.0));
        assert!(f.reconstruct().iter().all(|z| z.norm() == 0.0));
    }

    #[test]
    fn svd_weight_matches_frobenius() {
        let a = test_matrix(8, 5, 9);
        let f = svd(8, 5, &a);
        let fr = frob(&a);
        assert!((f.weight().sqrt() - fr).abs() < 1e-10 * fr.max(1.0));
    }

    #[test]
    fn parallel_matches_serial_singular_values() {
        for &(m, n, seed) in &[(12usize, 12usize, 21u64), (20, 7, 22), (5, 16, 23)] {
            let a = test_matrix(m, n, seed);
            let fs = svd(m, n, &a);
            let fp = svd_parallel(m, n, &a);
            for (x, y) in fs.s.iter().zip(&fp.s) {
                assert!((x - y).abs() < 1e-9, "sv mismatch {x} vs {y}");
            }
            // Reconstruction from the parallel factorization.
            let recon = fp.reconstruct();
            for (x, y) in recon.iter().zip(&a) {
                assert!(approx_eq(*x, *y, 1e-9));
            }
        }
    }

    #[test]
    fn circle_schedule_covers_all_pairs_disjointly() {
        let slots = 8;
        let mut seen = std::collections::HashSet::new();
        for round in 0..slots - 1 {
            let mut used = std::collections::HashSet::new();
            for p in 0..slots / 2 {
                let (a, b) = circle_pair(slots, round, p);
                assert_ne!(a, b);
                assert!(used.insert(a), "slot reused within round");
                assert!(used.insert(b), "slot reused within round");
                seen.insert((a.min(b), a.max(b)));
            }
        }
        assert_eq!(seen.len(), slots * (slots - 1) / 2, "not all pairs covered");
    }

    #[test]
    fn split_rxx_gate_has_rank_two() {
        // RXX(theta) = cos(t/2) I - i sin(t/2) XX; its operator-Schmidt rank
        // across the qubit bipartition is 2 (the paper's footnote 5).
        let theta: f64 = 0.7;
        let ct = c64((theta / 2.0).cos(), 0.0);
        let st = c64(0.0, -(theta / 2.0).sin());
        // Basis order |00>,|01>,|10>,|11>.
        let mut gate = vec![Complex64::ZERO; 16];
        gate[0] = ct;
        gate[5] = ct;
        gate[10] = ct;
        gate[15] = ct;
        gate[3] = st;
        gate[6] = st;
        gate[9] = st;
        gate[12] = st;
        let (_, _, rank) = split_two_qubit_gate(&gate, 1e-12);
        assert_eq!(rank, 2);
    }

    #[test]
    fn split_gate_reconstructs() {
        let gate = test_matrix(4, 4, 10);
        let (left, right, rank) = split_two_qubit_gate(&gate, 0.0);
        // Recombine: gate'[(p1o p2o)][(p1i p2i)] =
        //   sum_r left[(p1o p1i)][r] right[r][(p2o p2i)].
        let mut recon = vec![Complex64::ZERO; 16];
        for p1o in 0..2 {
            for p2o in 0..2 {
                for p1i in 0..2 {
                    for p2i in 0..2 {
                        let mut acc = Complex64::ZERO;
                        for r in 0..rank {
                            acc += left[(p1o * 2 + p1i) * rank + r] * right[r * 4 + p2o * 2 + p2i];
                        }
                        recon[(p1o * 2 + p2o) * 4 + (p1i * 2 + p2i)] = acc;
                    }
                }
            }
        }
        for (x, y) in recon.iter().zip(&gate) {
            assert!(approx_eq(*x, *y, 1e-9), "gate split reconstruction failed");
        }
    }
}
