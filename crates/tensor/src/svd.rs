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
//!
//! There is one driver, `svd_tall`: the accelerator's device model
//! prices the CPU backend's tallied calls to it instead of running a
//! schedule of its own, so both Fig. 5 columns see the same bits.
//!
//! **Kernels.** The driver has one body, generic over its inner loops:
//! the dot product `x^H y`, the rotation of a column pair and the fused
//! step that rotates a pair (and its `V` columns) and returns the next
//! pair's dot product on the rotated column. That next pair is known
//! before the rotation (only a pair's own rotation moves its second
//! column's norm), and a pair that does not rotate gets a plain dot
//! product instead. [`svd`] checks for AVX once per call and then runs
//! the body inside a `#[target_feature(enable = "avx")]` wrapper on AVX
//! kernels (two complex entries per 256-bit vector); [`svd_scalar`] runs
//! it on the portable scalar kernels. The two return the same bits: every
//! value goes through the scalar code's float operations in the scalar
//! code's order, lane for lane, with no FMA, and the dot product stays one
//! chain over the entries in increasing order. The serial dot chain's add
//! latency is what the fused step hides the rotations behind.

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
/// Runs the AVX kernels when the CPU has AVX (one check per call) and
/// [`svd_scalar`] otherwise; the two return the same bits.
///
/// # Panics
/// Panics if `a.len() != m * n`.
pub fn svd(m: usize, n: usize, a: &[Complex64]) -> Svd {
    assert_eq!(a.len(), m * n, "svd: matrix size mismatch");
    debug_assert!(
        a.iter().all(|z| z.is_finite()),
        "svd input contains non-finite entries"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime, the only
        // requirement of `svd_avx`: it is a safe `#[target_feature]` fn
        // over bounds-checked slices and register-only intrinsics.
        return unsafe { svd_avx(m, n, a) };
    }
    svd_scalar(m, n, a)
}

/// [`svd`] on the portable scalar kernels: the fallback without AVX and
/// the bitwise reference of the AVX path.
///
/// # Panics
/// Panics if `a.len() != m * n`.
pub fn svd_scalar(m: usize, n: usize, a: &[Complex64]) -> Svd {
    assert_eq!(a.len(), m * n, "svd: matrix size mismatch");
    via_tall(m, n, a, |m, n, a| {
        svd_tall(m, n, a, dot, rotate_slices, rotate_dot)
    })
}

/// [`svd`]'s driver on the AVX kernels. The closures inherit the AVX
/// feature, so the `#[inline(always)]` driver body and the kernels
/// compile into this one function.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn svd_avx(m: usize, n: usize, a: &[Complex64]) -> Svd {
    via_tall(m, n, a, |m, n, a| {
        svd_tall(
            m,
            n,
            a,
            |x, y| dot_avx(x, y),
            |x, y, c, sn, sp| rotate_avx(x, y, c, sn, sp),
            |c, v, next, cos, sn, sp| rotate_dot_avx(c, v, next, cos, sn, sp),
        )
    })
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

/// The rotation decision of one column pair. `alpha`, `beta` are the
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

/// One-sided Jacobi on a tall (or square) matrix, `m >= n`, on the kernels
/// `dot` ([`dot`]'s contract), `rotate` ([`rotate_slices`]'s) and
/// `rotate_dot` ([`rotate_dot`]'s). Inlined into each caller so the
/// kernels inline into the body.
#[inline(always)]
fn svd_tall(
    m: usize,
    n: usize,
    a: &[Complex64],
    dot: impl Fn(&[Complex64], &[Complex64]) -> Complex64,
    rotate: impl Fn(&mut [Complex64], &mut [Complex64], f64, Complex64, Complex64),
    rotate_dot: impl Fn(Pair<'_>, Pair<'_>, &[Complex64], f64, Complex64, Complex64) -> Complex64,
) -> Svd {
    let (mut cols, mut vcols) = jacobi_columns(m, n, a);
    let mut norms_sqr = vec![0.0f64; n];
    let floor = f64::EPSILON * f64::EPSILON * norm_sqr(a);
    // First column at or after `j` above the deflation floor (deflated
    // columns are not worth a dot product). Only the pair `(i, j)`'s own
    // rotation changes `norms_sqr[j]`, so this can be asked ahead.
    let live = |norms_sqr: &[f64], j: usize| (j..n).find(|&j| norms_sqr[j] > floor).unwrap_or(n);

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
            let mut j = live(&norms_sqr, i + 1);
            let mut gamma_c = if j < n {
                dot(&cols[i], &cols[j])
            } else {
                Complex64::ZERO
            };
            while j < n {
                let next = live(&norms_sqr, j + 1);
                let (alpha, beta) = (norms_sqr[i], norms_sqr[j]);
                let Some((c, s_neg, s_pos)) = jacobi_rotation(alpha, beta, gamma_c, floor) else {
                    if next < n {
                        gamma_c = dot(&cols[i], &cols[next]);
                    }
                    j = next;
                    continue;
                };
                rotated = true;
                let (ci, cj, cn) = three_columns(&mut cols, i, j, next);
                let (vi, vj, _) = three_columns(&mut vcols, i, j, next);
                // The next pair's dot product rides on this rotation.
                let gamma_next = match cn {
                    Some(cn) => rotate_dot((ci, cj), (vi, vj), cn, c, s_neg, s_pos),
                    None => {
                        rotate(ci, cj, c, s_neg, s_pos);
                        rotate(vi, vj, c, s_neg, s_pos);
                        Complex64::ZERO
                    }
                };
                // The rotation moves t * gamma of squared norm from column i
                // to column j; s_pos * conj(gamma_c) = s * gamma, real.
                let shift = (s_pos * gamma_c.conj()).re / c;
                norms_sqr[i] = alpha - shift;
                norms_sqr[j] = beta + shift;
                gamma_c = gamma_next;
                j = next;
            }
        }
    }
    finalize_svd(m, n, cols, vcols, floor, sweeps)
}

/// Two columns a rotation updates together.
type Pair<'a> = (&'a mut [Complex64], &'a mut [Complex64]);

/// Columns `i < j` mutably and column `next > j` (when `next < n`) shared.
fn three_columns(
    cols: &mut [Vec<Complex64>],
    i: usize,
    j: usize,
    next: usize,
) -> (&mut [Complex64], &mut [Complex64], Option<&[Complex64]>) {
    let (lo, hi) = cols.split_at_mut(j);
    let (cj, rest) = hi.split_first_mut().expect("j < n");
    let cn = rest.get(next - j - 1).map(Vec::as_slice);
    (&mut lo[i], cj, cn)
}

/// Tail of the Jacobi driver: sort columns by norm, zero the
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

/// Rotates the columns `c = (c_i, c_j)` and their `V` columns `v` and
/// returns `c_i'^H next`: the next pair's dot product, on the rotated
/// column.
#[inline]
fn rotate_dot(
    c: Pair<'_>,
    v: Pair<'_>,
    next: &[Complex64],
    cos: f64,
    s_neg: Complex64,
    s_pos: Complex64,
) -> Complex64 {
    rotate_slices(c.0, c.1, cos, s_neg, s_pos);
    rotate_slices(v.0, v.1, cos, s_neg, s_pos);
    dot(c.0, next)
}

/// [`dot`] with AVX: the same single chain, one entry at a time in
/// increasing order (see [`dot_step_avx`]); an odd last entry runs the
/// scalar `conj_mul_add`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn dot_avx(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    use std::arch::x86_64::*;
    let mut acc = _mm_setzero_pd();
    let (xs, ys) = (x.chunks_exact(2), y.chunks_exact(2));
    let (x_tail, y_tail) = (xs.remainder(), ys.remainder());
    for (a, b) in xs.zip(ys) {
        acc = dot_step_avx(acc, load_pair(a), b);
    }
    finish_dot(acc, x_tail, y_tail)
}

/// [`rotate_slices`] with AVX, two entries per 256-bit vector (see
/// [`rotate_pair_avx`]); an odd last entry runs the scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn rotate_avx(
    ci: &mut [Complex64],
    cj: &mut [Complex64],
    c: f64,
    s_neg: Complex64,
    s_pos: Complex64,
) {
    let rot = Rotation::new(c, s_neg, s_pos);
    let mut xs = ci.chunks_exact_mut(2);
    let mut ys = cj.chunks_exact_mut(2);
    for (x, y) in (&mut xs).zip(&mut ys) {
        rotate_pair_avx(x, y, &rot);
    }
    rotate_slices(xs.into_remainder(), ys.into_remainder(), c, s_neg, s_pos);
}

/// [`rotate_dot`] with AVX in one pass: entry pair `k` of `c` is rotated,
/// stored and fed straight to the dot product with `next`, and the `V`
/// pair `k` is rotated beside it while `k < v.len()`. The dot product
/// still visits the entries in increasing order on one chain, so both
/// rotations ride on its latency and every value gets [`rotate_avx`]'s
/// and [`dot_avx`]'s bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn rotate_dot_avx(
    (ci, cj): Pair<'_>,
    (vi, vj): Pair<'_>,
    next: &[Complex64],
    cos: f64,
    s_neg: Complex64,
    s_pos: Complex64,
) -> Complex64 {
    let rot = Rotation::new(cos, s_neg, s_pos);
    let (m, n) = (ci.len(), vi.len());
    let mut acc = std::arch::x86_64::_mm_setzero_pd();
    let mut k = 0;
    while k + 2 <= m {
        let rotated = rotate_pair_avx(&mut ci[k..k + 2], &mut cj[k..k + 2], &rot);
        if k + 2 <= n {
            rotate_pair_avx(&mut vi[k..k + 2], &mut vj[k..k + 2], &rot);
        }
        acc = dot_step_avx(acc, rotated, &next[k..k + 2]);
        k += 2;
    }
    let v_even = n - n % 2;
    rotate_slices(&mut vi[v_even..], &mut vj[v_even..], cos, s_neg, s_pos);
    rotate_slices(&mut ci[k..], &mut cj[k..], cos, s_neg, s_pos);
    finish_dot(acc, &ci[k..], &next[k..])
}

/// A rotation's scalars broadcast to every lane.
#[cfg(target_arch = "x86_64")]
struct Rotation {
    c: std::arch::x86_64::__m256d,
    neg_re: std::arch::x86_64::__m256d,
    neg_im: std::arch::x86_64::__m256d,
    pos_re: std::arch::x86_64::__m256d,
    pos_im: std::arch::x86_64::__m256d,
}

#[cfg(target_arch = "x86_64")]
impl Rotation {
    #[target_feature(enable = "avx")]
    #[inline]
    fn new(c: f64, s_neg: Complex64, s_pos: Complex64) -> Self {
        use std::arch::x86_64::_mm256_set1_pd;
        Rotation {
            c: _mm256_set1_pd(c),
            neg_re: _mm256_set1_pd(s_neg.re),
            neg_im: _mm256_set1_pd(s_neg.im),
            pos_re: _mm256_set1_pd(s_pos.re),
            pos_im: _mm256_set1_pd(s_pos.im),
        }
    }
}

/// Rotates the entry pairs `x[0..2]`, `y[0..2]` in place and returns the
/// new `x`. Each entry keeps [`rotate_slices`]'s sequence: `x c`, the
/// complex product `s_neg y` as `addsub(bcast(s.re) * y, bcast(s.im) *
/// swap(y))` (lane for lane `Mul`'s `re = s.re y.re - s.im y.im`,
/// `im = s.re y.im + s.im y.re`), then the subtraction; `y'` likewise with
/// `s_pos x` and an addition. No FMA is issued.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn rotate_pair_avx(
    x: &mut [Complex64],
    y: &mut [Complex64],
    rot: &Rotation,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let (xv, yv) = (load_pair(x), load_pair(y));
    let neg_y = _mm256_addsub_pd(
        _mm256_mul_pd(rot.neg_re, yv),
        _mm256_mul_pd(rot.neg_im, _mm256_permute_pd::<0b0101>(yv)),
    );
    let pos_x = _mm256_addsub_pd(
        _mm256_mul_pd(rot.pos_re, xv),
        _mm256_mul_pd(rot.pos_im, _mm256_permute_pd::<0b0101>(xv)),
    );
    let x_new = _mm256_sub_pd(_mm256_mul_pd(xv, rot.c), neg_y);
    store_pair(x, x_new);
    store_pair(y, _mm256_add_pd(pos_x, _mm256_mul_pd(yv, rot.c)));
    x_new
}

/// `acc + conj(a) b` over the two entries of `a` and `b[0..2]`, the first
/// entry first, with `acc` packed as `[re, im]`. Per entry it adds
/// `a.re * [b.re, b.im]` and then `a.im * [b.im, -b.re]`; `y * (-x)` is
/// exactly `-(y * x)` and `t + (-u)` exactly `t - u`, so each lane rounds
/// as [`Complex64::conj_mul_add`] does. Both entries' products come from
/// one 256-bit multiply each; only the four adds are serial. No FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn dot_step_avx(
    acc: std::arch::x86_64::__m128d,
    a: std::arch::x86_64::__m256d,
    b: &[Complex64],
) -> std::arch::x86_64::__m128d {
    use std::arch::x86_64::*;
    let bv = load_pair(b);
    let p_re = _mm256_mul_pd(_mm256_movedup_pd(a), bv);
    let b_swapped = _mm256_permute_pd::<0b0101>(bv);
    let b_conj = _mm256_xor_pd(b_swapped, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
    let p_im = _mm256_mul_pd(_mm256_permute_pd::<0b1111>(a), b_conj);
    let acc = _mm_add_pd(acc, _mm256_castpd256_pd128(p_re));
    let acc = _mm_add_pd(acc, _mm256_castpd256_pd128(p_im));
    let acc = _mm_add_pd(acc, _mm256_extractf128_pd::<1>(p_re));
    _mm_add_pd(acc, _mm256_extractf128_pd::<1>(p_im))
}

/// Unpacks `acc` and runs the scalar chain on the tails left over.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn finish_dot(acc: std::arch::x86_64::__m128d, x: &[Complex64], y: &[Complex64]) -> Complex64 {
    use std::arch::x86_64::*;
    let acc = Complex64::new(_mm_cvtsd_f64(acc), _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc)));
    x.iter()
        .zip(y)
        .fold(acc, |acc, (a, b)| acc.conj_mul_add(*a, *b))
}

/// `[p[0].re, p[0].im, p[1].re, p[1].im]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn load_pair(p: &[Complex64]) -> std::arch::x86_64::__m256d {
    std::arch::x86_64::_mm256_setr_pd(p[0].re, p[0].im, p[1].re, p[1].im)
}

/// Writes the two entries of `v` to `p[0]`, `p[1]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn store_pair(p: &mut [Complex64], v: std::arch::x86_64::__m256d) {
    use std::arch::x86_64::*;
    let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
    p[0] = Complex64::new(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
    p[1] = Complex64::new(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
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

    /// Both factorizations' `u`, `s`, `vh` and sweeps, bit for bit.
    fn assert_same_bits(x: &Svd, y: &Svd, what: &str) {
        assert_eq!(bits(&x.u), bits(&y.u), "{what}: u differs");
        assert_eq!(bits(&x.vh), bits(&y.vh), "{what}: vh differs");
        let s_bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(s_bits(&x.s), s_bits(&y.s), "{what}: s differs");
        assert_eq!(x.sweeps, y.sweeps, "{what}: sweeps differ");
    }

    /// The dispatched drivers (AVX kernels on an AVX host) against the
    /// scalar ones on `a` in both orientations.
    fn assert_paths_agree(m: usize, n: usize, a: &[Complex64]) {
        let at = conj_transpose(m, n, a);
        for (rows, cols, x) in [(m, n, a), (n, m, &at[..])] {
            let what = format!("{rows}x{cols}");
            assert_same_bits(&svd(rows, cols, x), &svd_scalar(rows, cols, x), &what);
        }
    }

    /// `m x n` with singular values `sigmas` (fewer than `min(m, n)` makes
    /// it rank-deficient): a sum of outer products of pseudo-random vectors.
    fn with_spectrum(m: usize, n: usize, sigmas: &[f64], seed: u64) -> Vec<Complex64> {
        let mut a = vec![Complex64::ZERO; m * n];
        for (r, &sigma) in sigmas.iter().enumerate() {
            let u = test_matrix(m, 1, seed + 2 * r as u64);
            let v = test_matrix(1, n, seed + 2 * r as u64 + 1);
            for i in 0..m {
                for j in 0..n {
                    a[i * n + j] += u[i] * v[j] * sigma;
                }
            }
        }
        a
    }

    fn bits(v: &[Complex64]) -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

    #[test]
    fn avx_kernels_match_scalar_kernels_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            // Signed zeros, pure-real and pure-imaginary entries and an odd
            // tail are where a lane-level mistake would show first.
            let specials = [
                c64(0.0, 0.0),
                c64(-0.0, 0.0),
                c64(0.0, -0.0),
                c64(-0.0, -0.0),
                c64(1.5, 0.0),
                c64(0.0, -2.25),
                c64(-3.0, 0.5),
                c64(1e-300, -1e300),
            ];
            for len in 0..=9 {
                for seed in 0..8u64 {
                    let mut x = test_matrix(len, 1, 100 + seed);
                    let mut y = test_matrix(len, 1, 200 + seed);
                    for (k, z) in x.iter_mut().chain(&mut y).enumerate() {
                        if (k as u64 + seed).is_multiple_of(3) {
                            *z = specials[(k + seed as usize) % specials.len()];
                        }
                    }
                    // SAFETY: AVX support was just verified at runtime.
                    let fast = unsafe { dot_avx(&x, &y) };
                    let slow = dot(&x, &y);
                    assert_eq!(bits(&[fast]), bits(&[slow]), "dot, len {len}, seed {seed}");
                    let (c, s) = (0.8, c64(0.36, -0.48));
                    let (mut x2, mut y2) = (x.clone(), y.clone());
                    // SAFETY: AVX support was just verified at runtime.
                    unsafe { rotate_avx(&mut x, &mut y, c, s.conj(), s) };
                    rotate_slices(&mut x2, &mut y2, c, s.conj(), s);
                    assert_eq!(bits(&x), bits(&x2), "rotate x, len {len}, seed {seed}");
                    assert_eq!(bits(&y), bits(&y2), "rotate y, len {len}, seed {seed}");
                    // The fused step on every `V` length up to the column's.
                    for vlen in 0..=len {
                        let next = test_matrix(len, 1, 300 + seed);
                        let mut v = test_matrix(vlen, 2, 400 + seed);
                        let (mut c1, mut v1) = ([x.clone(), y.clone()], v.clone());
                        let (vi, vj) = v.split_at_mut(vlen);
                        let [ci, cj] = &mut [x.clone(), y.clone()];
                        // SAFETY: AVX support was just verified at runtime.
                        let fast =
                            unsafe { rotate_dot_avx((ci, cj), (vi, vj), &next, c, s.conj(), s) };
                        let [ci1, cj1] = &mut c1;
                        let (vi1, vj1) = v1.split_at_mut(vlen);
                        let slow = rotate_dot((ci1, cj1), (vi1, vj1), &next, c, s.conj(), s);
                        let what = format!("rotate_dot, len {len}, v {vlen}, seed {seed}");
                        assert_eq!(bits(&[fast]), bits(&[slow]), "{what}");
                        assert_eq!(bits(ci), bits(ci1), "{what}");
                        assert_eq!(bits(cj), bits(cj1), "{what}");
                        assert_eq!(bits(&v), bits(&v1), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn dispatched_svd_matches_scalar_on_a_shape_grid() {
        // Column lengths 1..=70, odd and even, against a few widths.
        for len in 1..=70usize {
            for n in [1, 2, 3, 8, 17] {
                if n <= len {
                    assert_paths_agree(len, n, &test_matrix(len, n, (len * 100 + n) as u64));
                }
            }
        }
        for len in [4usize, 9, 16, 33] {
            assert_paths_agree(len, len, &test_matrix(len, len, 7 + len as u64));
        }
    }

    #[test]
    fn dispatched_svd_matches_scalar_on_degenerate_input() {
        // Rank-deficient, every rank from 0 (the zero matrix) up.
        for rank in 0..=5usize {
            let sigmas: Vec<f64> = (0..rank).map(|r| 1.0 + r as f64).collect();
            assert_paths_agree(12, 7, &with_spectrum(12, 7, &sigmas, 31 + rank as u64));
        }
        // Graded spectra over up to fourteen orders of magnitude.
        for (spread, len) in [(2.0f64, 10usize), (6.0, 15), (14.0, 24)] {
            let sigmas: Vec<f64> = (0..len)
                .map(|r| 10f64.powf(-spread * r as f64 / (len - 1) as f64))
                .collect();
            assert_paths_agree(len + 3, len, &with_spectrum(len + 3, len, &sigmas, 57));
        }
        // Zero columns, and a duplicated column the first rotation deflates.
        let (m, n) = (11usize, 6usize);
        let mut a = test_matrix(m, n, 77);
        for i in 0..m {
            a[i * n + 1] = Complex64::ZERO;
            a[i * n + 4] = a[i * n + 2];
        }
        assert_paths_agree(m, n, &a);
        assert_paths_agree(m, n, &vec![Complex64::ZERO; m * n]);
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
