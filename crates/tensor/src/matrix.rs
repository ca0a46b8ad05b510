//! Dense complex matrix kernels: GEMM and friends.
//!
//! All kernels operate on row-major slices (`a` is `m x k`, `b` is `k x n`,
//! `c` is `m x n`) on the calling thread; callers parallelise across
//! independent products, never inside one. [`gemm_serial`] and
//! [`gemm_conj_a`] pick one of three paths from the shape alone (and, for
//! the SIMD paths, the CPU's AVX bit):
//!
//! | shape | path |
//! |---|---|
//! | `m, n, k >= 4` and `m*k*n >= 4096` | blocked: packed panels + `4 x 4` register tile |
//! | anything smaller, AVX | small: unpacked AVX kernel, accumulators in registers |
//! | anything smaller, no AVX | scalar row loops (the bitwise reference, and the small kernel's odd-column tail) |
//!
//! The blocked path is the workhorse at χ ≳ 12:
//!
//! * Operands are packed into planar re/im panels (`KC x MR` strips of A,
//!   `KC x NR` strips of B) so the inner loop reads contiguous `f64`
//!   lanes instead of strided interleaved complex values. Conjugation is
//!   applied **during packing** (the A panel's imaginary plane is negated),
//!   which is how the conjugated product `a^H b` runs without ever
//!   materializing `conj(a)`.
//! * An `MR x NR` register tile accumulates `C` entries across one `KC`
//!   slice of the contraction per pass, so each `C` element is loaded and
//!   stored once per `KC` block instead of once per scalar `p`.
//! * The dense inner loop is branch-free: no per-element zero check (see
//!   [`gemm_row`] for why the old check was removed).
//!
//! The small path ([`gemm_small_avx`]) is the zipper at 5 ≤ χ ≤ 12, where
//! both GEMMs of a site are a few hundred multiply-adds and packing,
//! zero-filling `c` and re-loading it per `p` cost more than the
//! arithmetic. It reads the interleaved operands in place, two complex
//! per 256-bit vector.
//!
//! Below that, a zipper site whose four bonds are all at most
//! `FUSED_MAX_BOND` = 4 (the paper's d = 1 regime) does not go through
//! GEMM at all: `zipper_site` runs the transfer `T = E · B` and the
//! absorb `E' = A^H · T` as one fused AVX kernel with the column count a
//! constant — no per-call shape checks, path choice or tile loops, and
//! each `T` row loaded once for every output row. Without AVX, or at any
//! larger bond, `zipper_site` is the two GEMM calls.
//!
//! **Determinism contract.** Every kernel in this module accumulates each
//! output element in strictly increasing `p` order with the exact
//! [`Complex64::mul_add`] / [`Complex64::conj_mul_add`] operation order.
//! Blocking only changes *when* partial sums are parked in memory, never
//! the order terms are added, so the blocked, small, fused and scalar
//! paths are bitwise identical on the same finite operands.
//! (A skipped `0 * x` term cannot show either: every element starts from
//! `+0.0`, and under round-to-nearest a sum that starts there never
//! becomes `-0.0`, so adding `±0` leaves it as it was.) The Gram engine's
//! bitwise-reproducibility pins rest on this.

use crate::complex::Complex64;
use std::cell::RefCell;

/// Register-tile rows (`C` rows held in accumulators at once).
const MR: usize = 4;
/// Register-tile columns.
const NR: usize = 4;
/// Contraction-dimension block: one `KC x MR` A-strip (8 KiB planar) and
/// `KC x NR` B-strip stay L1-resident while the register tile runs.
const KC: usize = 256;
/// Row block of packed A (`MC x KC` panel, 256 KiB planar, L2-resident).
const MC: usize = 64;
/// Column block of packed B.
const NC: usize = 256;

/// Below this `m * k * n` (or when a tile edge cannot fill the register
/// kernel) packing costs more than it saves and the scalar row kernel
/// runs instead. Dispatch depends only on the problem shape, so every
/// call with the same operands takes the same path.
const BLOCKED_FLOOR: usize = 4096;

#[inline]
fn use_blocked(m: usize, k: usize, n: usize) -> bool {
    m >= MR && n >= NR && k >= 4 && m * k * n >= BLOCKED_FLOOR
}

thread_local! {
    /// Packing panels (planar re/im for A and B), grown once per thread
    /// and reused by every blocked GEMM on that thread: the inner-product
    /// hot path calls GEMM millions of times and must not allocate.
    static PACK: RefCell<PackBufs> = const {
        RefCell::new(PackBufs {
            a_re: Vec::new(),
            a_im: Vec::new(),
            b_re: Vec::new(),
            b_im: Vec::new(),
        })
    };
}

struct PackBufs {
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    b_re: Vec<f64>,
    b_im: Vec<f64>,
}

impl PackBufs {
    fn ensure(&mut self) {
        let a_len = MC * KC;
        let b_len = NC * KC;
        if self.a_re.len() < a_len {
            self.a_re.resize(a_len, 0.0);
            self.a_im.resize(a_len, 0.0);
        }
        if self.b_re.len() < b_len {
            self.b_re.resize(b_len, 0.0);
            self.b_im.resize(b_len, 0.0);
        }
    }
}

/// `c = a * b` with `a: m x k`, `b: k x n`, on the path the shape selects:
/// blocked, small AVX or scalar.
///
/// # Panics
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_serial(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    check_dims(m, k, n, a.len(), b.len(), c.len());
    if use_blocked(m, k, n) {
        c.fill(Complex64::ZERO);
        gemm_blocked(m, k, n, Operand::Plain { a, lda: k }, b, c);
    } else {
        gemm_small::<false>(m, k, n, a, b, c);
    }
}

/// Scalar row kernel: `c_row += a_row * b` for one output row.
///
/// The historical `apk == ZERO` early-out was removed from this loop: MPS
/// site tensors and zipper environments are dense, so the branch never
/// fired on hot data but still cost a compare per `p` and blocked the
/// compiler from pipelining the row updates (measured ~1.5x on χ = 64
/// zipper GEMMs in the `kernel_hotpath` bench). Zero-skip survives only
/// in the scalar path of [`gemm_conj_a`], where boundary sites of
/// basis-state MPS really are sparse.
#[inline]
fn gemm_row(a_row: &[Complex64], b: &[Complex64], n: usize, c_row: &mut [Complex64]) {
    for (p, &apk) in a_row.iter().enumerate() {
        let b_row = &b[p * n..(p + 1) * n];
        for (cj, &bj) in c_row.iter_mut().zip(b_row) {
            *cj = cj.mul_add(apk, bj);
        }
    }
}

/// The pre-blocking i-k-j kernel with its per-element zero check, kept
/// verbatim as the measurement baseline for the `kernel_hotpath` bench
/// and as the bitwise reference the blocked kernel is pinned against.
/// Not used by any production path.
pub fn gemm_unblocked_reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    check_dims(m, k, n, a.len(), b.len(), c.len());
    c.fill(Complex64::ZERO);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &apk) in a_row.iter().enumerate() {
            if apk == Complex64::ZERO {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj = cj.mul_add(apk, bj);
            }
        }
    }
}

/// Sub-floor shapes: overwrites `c` with `a * b` (`CONJ = false`, `a` is
/// `m x k`) or `a^H * b` (`CONJ = true`, `a` stored `k x m`). Nothing is
/// packed: with AVX the unpacked register kernel runs, otherwise the
/// scalar loops that are its bitwise reference.
fn gemm_small<const CONJ: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime, the only
        // requirement of `gemm_small_avx`: it is a safe `#[target_feature]`
        // fn over bounds-checked slices and register-only intrinsics.
        unsafe { gemm_small_avx::<CONJ>(m, k, n, a, b, c) };
        return;
    }
    c.fill(Complex64::ZERO);
    if CONJ {
        gemm_conj_a_scalar(m, k, n, a, b, c);
    } else {
        for i in 0..m {
            gemm_row(&a[i * k..(i + 1) * k], b, n, &mut c[i * n..(i + 1) * n]);
        }
    }
}

/// Unpacked AVX kernel for sub-floor shapes. `Complex64` is `repr(C)`
/// interleaved, so one 256-bit vector holds two adjacent entries of a `b`
/// row and of the `c` row they update. Output rows are taken two at a time
/// (a last odd row alone) and cut into 8-, 4- and 2-column segments whose
/// accumulators stay in registers over the whole contraction
/// ([`small_tile_avx`]); an odd last column runs the scalar `mul_add`
/// chain. Every element still accumulates from `+0.0` in strictly
/// increasing `p` order, so the result is bitwise equal to the scalar
/// loops in [`gemm_small`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn gemm_small_avx<const CONJ: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    let mut i = 0;
    while m - i >= 2 {
        small_rows_avx::<2, CONJ>(i, m, k, n, a, b, c);
        i += 2;
    }
    if i < m {
        small_rows_avx::<1, CONJ>(i, m, k, n, a, b, c);
    }
}

/// Output rows `i..i + R`, all columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn small_rows_avx<const R: usize, const CONJ: bool>(
    i: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    let mut j = 0;
    while n - j >= 8 {
        small_tile_avx::<R, 4, CONJ>(i, j, m, k, n, a, b, c);
        j += 8;
    }
    if n - j >= 4 {
        small_tile_avx::<R, 2, CONJ>(i, j, m, k, n, a, b, c);
        j += 4;
    }
    if n - j >= 2 {
        small_tile_avx::<R, 1, CONJ>(i, j, m, k, n, a, b, c);
        j += 2;
    }
    if j < n {
        for row in i..i + R {
            let mut acc = Complex64::ZERO;
            for p in 0..k {
                let bj = b[p * n + j];
                if CONJ {
                    let api = a[p * m + row];
                    if api != Complex64::ZERO {
                        acc = acc.conj_mul_add(api, bj);
                    }
                } else {
                    acc = acc.mul_add(a[row * k + p], bj);
                }
            }
            c[row * n + j] = acc;
        }
    }
}

/// The `R x 2 NV` block of `c` at row `i`, column `j`: `R * NV`
/// accumulators (at most 8 of the 16 `ymm` registers).
///
/// With `b = [b0.re, b0.im, b1.re, b1.im]` loaded and its re/im-swapped
/// copy `s` made (`vpermilpd`) once per `p` for all `R` rows, each row does
/// `t1 = acc + bcast(a.re) * b`, `t2 = bcast(a.im) * s` and
/// `acc = vaddsubpd(t1, t2)`, which subtracts in the even (re) lanes and
/// adds in the odd (im) lanes:
///
/// ```text
/// re = (acc.re + a.re b.re) - a.im b.im
/// im = (acc.im + a.re b.im) + a.im b.re
/// ```
///
/// lane for lane the association of [`Complex64::mul_add`]. For `CONJ`,
/// `s` is negated: `y * (-x)` is exactly `-(y * x)` and `t - (-u)` is
/// exactly `t + u`, so the lanes compute [`Complex64::conj_mul_add`]. No
/// FMA is issued. The `CONJ` zero-skip is the scalar conj loop's own, kept
/// so the two stay equal on any operand.
///
/// Plain counted loops over the const-sized arrays, no closures: a closure
/// here is compiled without the AVX feature, is not inlined, and passes
/// every vector through memory (measured 3x slower).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
#[allow(clippy::too_many_arguments)]
fn small_tile_avx<const R: usize, const NV: usize, const CONJ: bool>(
    i: usize,
    j: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); NV]; R];
    for p in 0..k {
        let mut live = [true; R];
        let mut are = [_mm256_setzero_pd(); R];
        let mut aim = [_mm256_setzero_pd(); R];
        for r in 0..R {
            let api = if CONJ {
                a[p * m + i + r]
            } else {
                a[(i + r) * k + p]
            };
            live[r] = !CONJ || api != Complex64::ZERO;
            are[r] = _mm256_set1_pd(api.re);
            aim[r] = _mm256_set1_pd(api.im);
        }
        let b_seg = &b[p * n + j..][..2 * NV];
        for v in 0..NV {
            let (b0, b1) = (b_seg[2 * v], b_seg[2 * v + 1]);
            let bv = _mm256_setr_pd(b0.re, b0.im, b1.re, b1.im);
            let mut sv = _mm256_permute_pd::<0b0101>(bv);
            if CONJ {
                sv = _mm256_xor_pd(sv, _mm256_set1_pd(-0.0));
            }
            for r in 0..R {
                if live[r] {
                    let t1 = _mm256_add_pd(acc[r][v], _mm256_mul_pd(are[r], bv));
                    acc[r][v] = _mm256_addsub_pd(t1, _mm256_mul_pd(aim[r], sv));
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let out = &mut c[(i + r) * n + j..][..2 * NV];
        for (acc_v, pair) in acc_row.iter().zip(out.chunks_exact_mut(2)) {
            let lo = _mm256_castpd256_pd128(*acc_v);
            let hi = _mm256_extractf128_pd::<1>(*acc_v);
            pair[0] = Complex64::new(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
            pair[1] = Complex64::new(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
        }
    }
}

/// Largest bond on every side of a zipper site that [`zipper_site`] runs
/// fused: the paper's d = 1, r = 2 regime, where no bond exceeds
/// `2^r = 4`.
const FUSED_MAX_BOND: usize = 4;

/// Zero `env` entries for the missing second row of an odd-`la` pass.
const ZERO_ROW: [Complex64; FUSED_MAX_BOND] = [Complex64::ZERO; FUSED_MAX_BOND];

/// One zipper site: the transfer `panel = env · b` (`env: la x lb`,
/// `b: lb x 2·rb`) and then the absorb `out = a^H · panel` (`a` stored
/// `2·la x ra`, `panel` read as `2·la x rb`), overwriting `out`
/// (`ra x rb`).
///
/// With every bond at most [`FUSED_MAX_BOND`] and AVX present this runs
/// the fused AVX kernel, both steps in one call with the column count a
/// constant; otherwise it is [`gemm_serial`] followed by [`gemm_conj_a`].
/// The two produce the same bits.
///
/// # Panics
/// Panics if slice lengths do not match the bonds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn zipper_site(
    la: usize,
    lb: usize,
    ra: usize,
    rb: usize,
    env: &[Complex64],
    a: &[Complex64],
    b: &[Complex64],
    panel: &mut [Complex64],
    out: &mut [Complex64],
) {
    #[cfg(target_arch = "x86_64")]
    if la.max(lb).max(ra) <= FUSED_MAX_BOND
        && (1..=FUSED_MAX_BOND).contains(&rb)
        && std::arch::is_x86_feature_detected!("avx")
    {
        // SAFETY: AVX support was just verified at runtime, the only
        // requirement of `zipper_site_avx`: it is a safe `#[target_feature]`
        // fn over bounds-checked slices and register-only intrinsics.
        unsafe { zipper_site_avx(la, lb, ra, rb, env, a, b, panel, out) };
        return;
    }
    gemm_serial(la, lb, 2 * rb, env, b, panel);
    gemm_conj_a(ra, 2 * la, rb, a, panel, out);
}

/// The fused small-bond site: dispatches `rb` to a const vector count
/// (`rb` vectors per transfer row, `ceil(rb / 2)` per absorb row) so
/// [`fused_site_avx`] runs with every column offset a constant; `la`,
/// `lb` and `ra` stay runtime loop bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
fn zipper_site_avx(
    la: usize,
    lb: usize,
    ra: usize,
    rb: usize,
    env: &[Complex64],
    a: &[Complex64],
    b: &[Complex64],
    panel: &mut [Complex64],
    out: &mut [Complex64],
) {
    assert!(
        env.len() == la * lb
            && b.len() == lb * 2 * rb
            && a.len() == 2 * la * ra
            && panel.len() == la * 2 * rb
            && out.len() == ra * rb,
        "zipper site operands must match bonds ({la}, {lb}, {ra}, {rb})"
    );
    match rb {
        1 => fused_site_avx::<1, 1, true>(la, lb, ra, env, a, b, panel, out),
        2 => fused_site_avx::<2, 1, false>(la, lb, ra, env, a, b, panel, out),
        3 => fused_site_avx::<3, 2, true>(la, lb, ra, env, a, b, panel, out),
        _ => fused_site_avx::<4, 2, false>(la, lb, ra, env, a, b, panel, out),
    }
}

/// [`zipper_site_avx`] at `rb = RB`, in one body with no call inside.
///
/// Transfer: two rows of `T = env · b` per pass, `RB` accumulators each
/// (at most 8 `ymm` registers), `env` entries broadcast straight from
/// memory; an odd last row is paired with a zero row that is never
/// stored. Each finished row pair is parked in `panel`.
///
/// Absorb: every row of `out = a^H · T` at once, `NA` accumulators per
/// row (at most 8), so each `T` row is loaded and re/im-swapped once for
/// all `ra` outputs. With `ODD` the last vector's upper lane pair is
/// loaded as `0.0`; lanes never mix in `vmulpd`/`vaddpd`/`vaddsubpd`,
/// and the in-lane swap only pairs a complex with itself, so that lane
/// pair is discarded unstored.
///
/// Every element runs [`small_tile_avx`]'s exact sequence: from `+0.0`,
/// strictly increasing `p`, `t1 = acc + bcast(re) * b`,
/// `acc = addsub(t1, bcast(im) * s)` with `s` negated for `a^H`, no FMA.
/// Unlike that kernel the absorb does not skip zero `a` entries: a sum
/// that starts at `+0.0` never becomes `-0.0` under round-to-nearest, so
/// adding the `±0` term of a zero entry (and finite `T`) leaves it as it
/// was, and the bits agree (the module doc's zero-skip argument).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
#[allow(clippy::too_many_arguments)]
fn fused_site_avx<const RB: usize, const NA: usize, const ODD: bool>(
    la: usize,
    lb: usize,
    ra: usize,
    env: &[Complex64],
    a: &[Complex64],
    b: &[Complex64],
    panel: &mut [Complex64],
    out: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    let mut i = 0;
    while i < la {
        let pair = la - i >= 2;
        let e0_row = &env[i * lb..][..lb];
        let e1_row = if pair {
            &env[(i + 1) * lb..][..lb]
        } else {
            &ZERO_ROW[..lb]
        };
        let mut acc = [[_mm256_setzero_pd(); RB]; 2];
        for p in 0..lb {
            let (e0, e1) = (&e0_row[p], &e1_row[p]);
            let are = [_mm256_broadcast_sd(&e0.re), _mm256_broadcast_sd(&e1.re)];
            let aim = [_mm256_broadcast_sd(&e0.im), _mm256_broadcast_sd(&e1.im)];
            let b_row = &b[p * 2 * RB..][..2 * RB];
            for v in 0..RB {
                let (b0, b1) = (b_row[2 * v], b_row[2 * v + 1]);
                let bv = _mm256_setr_pd(b0.re, b0.im, b1.re, b1.im);
                let sv = _mm256_permute_pd::<0b0101>(bv);
                for r in 0..2 {
                    let t1 = _mm256_add_pd(acc[r][v], _mm256_mul_pd(are[r], bv));
                    acc[r][v] = _mm256_addsub_pd(t1, _mm256_mul_pd(aim[r], sv));
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate().take(if pair { 2 } else { 1 }) {
            let t_row = &mut panel[(i + r) * 2 * RB..][..2 * RB];
            for (v, acc_v) in acc_row.iter().enumerate() {
                let (lo, hi) = (
                    _mm256_castpd256_pd128(*acc_v),
                    _mm256_extractf128_pd::<1>(*acc_v),
                );
                t_row[2 * v] =
                    Complex64::new(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
                t_row[2 * v + 1] =
                    Complex64::new(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
            }
        }
        i += 2;
    }

    let neg = _mm256_set1_pd(-0.0);
    let mut acc = [[_mm256_setzero_pd(); NA]; FUSED_MAX_BOND];
    for q in 0..2 * la {
        let t_row = &panel[q * RB..][..RB];
        let mut tv = [_mm256_setzero_pd(); NA];
        let mut sv = [_mm256_setzero_pd(); NA];
        for v in 0..NA {
            let t0 = t_row[2 * v];
            let t1 = if ODD && v == NA - 1 {
                Complex64::ZERO
            } else {
                t_row[2 * v + 1]
            };
            tv[v] = _mm256_setr_pd(t0.re, t0.im, t1.re, t1.im);
            sv[v] = _mm256_xor_pd(_mm256_permute_pd::<0b0101>(tv[v]), neg);
        }
        let a_row = &a[q * ra..][..ra];
        for (acc_row, x) in acc.iter_mut().zip(a_row) {
            let (xre, xim) = (_mm256_broadcast_sd(&x.re), _mm256_broadcast_sd(&x.im));
            for v in 0..NA {
                let t1 = _mm256_add_pd(acc_row[v], _mm256_mul_pd(xre, tv[v]));
                acc_row[v] = _mm256_addsub_pd(t1, _mm256_mul_pd(xim, sv[v]));
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(ra) {
        let o_row = &mut out[r * RB..][..RB];
        for (v, acc_v) in acc_row.iter().enumerate() {
            let lo = _mm256_castpd256_pd128(*acc_v);
            o_row[2 * v] =
                Complex64::new(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)));
            if !(ODD && v == NA - 1) {
                let hi = _mm256_extractf128_pd::<1>(*acc_v);
                o_row[2 * v + 1] =
                    Complex64::new(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)));
            }
        }
    }
}

/// How the A operand reaches the packing step.
enum Operand<'a> {
    /// `a` is the plain `m x k` row-major left operand.
    Plain { a: &'a [Complex64], lda: usize },
    /// `a` is stored `k x m` row-major and enters the product as `a^H`:
    /// the packing step transposes and conjugates, so the conjugate is
    /// never materialized (the zipper's fused-conjugate transfer).
    ConjTransposed { a: &'a [Complex64], ldm: usize },
}

/// Cache-blocked, register-tiled GEMM over planar packed panels.
/// `c` must be pre-zeroed (or hold the value to accumulate onto).
fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    a: Operand<'_>,
    b: &[Complex64],
    c: &mut [Complex64],
) {
    PACK.with(|bufs| {
        let bufs = &mut *bufs.borrow_mut();
        bufs.ensure();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b(b, n, pc, jc, kc, nc, &mut bufs.b_re, &mut bufs.b_im);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    match a {
                        Operand::Plain { a, lda } => {
                            pack_a(a, lda, ic, pc, mc, kc, &mut bufs.a_re, &mut bufs.a_im)
                        }
                        Operand::ConjTransposed { a, ldm } => {
                            pack_a_conj_t(a, ldm, ic, pc, mc, kc, &mut bufs.a_re, &mut bufs.a_im)
                        }
                    }
                    block_tiles(
                        mc, nc, kc, &bufs.a_re, &bufs.a_im, &bufs.b_re, &bufs.b_im, c, n, ic, jc,
                    );
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
}

/// Runs the register tile over one packed `(mc x kc) x (kc x nc)` block,
/// accumulating onto `c`.
#[allow(clippy::too_many_arguments)]
fn block_tiles(
    mc: usize,
    nc: usize,
    kc: usize,
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    c: &mut [Complex64],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let b_strip = (jr / NR) * kc * NR;
        let (bsr, bsi) = (
            &b_re[b_strip..b_strip + kc * NR],
            &b_im[b_strip..b_strip + kc * NR],
        );
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let a_strip = (ir / MR) * kc * MR;
            let (asr, asi) = (
                &a_re[a_strip..a_strip + kc * MR],
                &a_im[a_strip..a_strip + kc * MR],
            );

            // Load the C tile (zero-padded at the edges: padded lanes
            // multiply packed zeros and are never stored back).
            let mut acc_re = [[0.0f64; NR]; MR];
            let mut acc_im = [[0.0f64; NR]; MR];
            for r in 0..mr {
                let row = (ic + ir + r) * ldc + jc + jr;
                for (q, slot) in c[row..row + nr].iter().enumerate() {
                    acc_re[r][q] = slot.re;
                    acc_im[r][q] = slot.im;
                }
            }
            micro_tile(asr, asi, bsr, bsi, &mut acc_re, &mut acc_im);
            for r in 0..mr {
                let row = (ic + ir + r) * ldc + jc + jr;
                for (q, slot) in c[row..row + nr].iter_mut().enumerate() {
                    *slot = Complex64::new(acc_re[r][q], acc_im[r][q]);
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// The register tile: `MR x NR` complex accumulators advanced over one
/// packed `KC` slice. The update order and association are exactly
/// [`Complex64::mul_add`]'s, so results are bitwise identical to the
/// scalar kernel. On x86-64 with AVX the same tile runs on 4-wide
/// `vmulpd`/`vaddpd`/`vsubpd` — lane-exact IEEE operations in the same
/// association, so the SIMD and scalar paths (and therefore different
/// machines) still agree bitwise; FMA contraction is deliberately never
/// used, since it *would* change results.
#[inline(always)]
fn micro_tile(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [[f64; NR]; MR],
    acc_im: &mut [[f64; NR]; MR],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified at runtime.
        unsafe { micro_tile_avx(a_re, a_im, b_re, b_im, acc_re, acc_im) };
        return;
    }
    micro_tile_scalar(a_re, a_im, b_re, b_im, acc_re, acc_im)
}

/// Portable scalar register tile (also the bitwise reference for the
/// AVX path).
#[inline(always)]
fn micro_tile_scalar(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [[f64; NR]; MR],
    acc_im: &mut [[f64; NR]; MR],
) {
    for (((ar, ai), br), bi) in a_re
        .chunks_exact(MR)
        .zip(a_im.chunks_exact(MR))
        .zip(b_re.chunks_exact(NR))
        .zip(b_im.chunks_exact(NR))
    {
        for r in 0..MR {
            let (are, aim) = (ar[r], ai[r]);
            for q in 0..NR {
                // Same association as Complex64::mul_add:
                //   re = (re + a.re b.re) - a.im b.im
                //   im = (im + a.re b.im) + a.im b.re
                acc_re[r][q] = (acc_re[r][q] + are * br[q]) - aim * bi[q];
                acc_im[r][q] = (acc_im[r][q] + are * bi[q]) + aim * br[q];
            }
        }
    }
}

/// AVX register tile: one 4-lane vector per accumulator row/plane
/// (`NR == 4`), A entries broadcast. Only `vmulpd`/`vaddpd`/`vsubpd`
/// are issued, in [`micro_tile_scalar`]'s exact association — no FMA —
/// so every lane computes the identical IEEE sequence and the result is
/// bitwise equal to the scalar tile.
///
/// # Safety
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn micro_tile_avx(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    acc_re: &mut [[f64; NR]; MR],
    acc_im: &mut [[f64; NR]; MR],
) {
    // SAFETY: the caller verified AVX support at runtime (the only call
    // site is behind `is_x86_feature_detected!("avx")`), so the
    // `target_feature(enable = "avx")` intrinsics below are available.
    // All pointer arithmetic stays in bounds: `p < kc`, `r < MR`, and
    // the debug asserts pin `a_*`/`b_*` to exactly `kc * MR` / `kc * NR`
    // elements, while loads/stores of `acc_*` rows read `NR == 4` lanes
    // from `[f64; NR]` arrays.
    use std::arch::x86_64::*;
    const { assert!(NR == 4, "AVX tile assumes 4 f64 lanes") };
    let kc = a_re.len() / MR;
    debug_assert_eq!(a_re.len(), kc * MR);
    debug_assert_eq!(b_re.len(), kc * NR);
    let mut cr = [_mm256_setzero_pd(); MR];
    let mut ci = [_mm256_setzero_pd(); MR];
    for r in 0..MR {
        cr[r] = _mm256_loadu_pd(acc_re[r].as_ptr());
        ci[r] = _mm256_loadu_pd(acc_im[r].as_ptr());
    }
    for p in 0..kc {
        let br = _mm256_loadu_pd(b_re.as_ptr().add(p * NR));
        let bi = _mm256_loadu_pd(b_im.as_ptr().add(p * NR));
        for r in 0..MR {
            let are = _mm256_broadcast_sd(&*a_re.as_ptr().add(p * MR + r));
            let aim = _mm256_broadcast_sd(&*a_im.as_ptr().add(p * MR + r));
            // re = (re + a.re b.re) - a.im b.im
            cr[r] = _mm256_sub_pd(
                _mm256_add_pd(cr[r], _mm256_mul_pd(are, br)),
                _mm256_mul_pd(aim, bi),
            );
            // im = (im + a.re b.im) + a.im b.re
            ci[r] = _mm256_add_pd(
                _mm256_add_pd(ci[r], _mm256_mul_pd(are, bi)),
                _mm256_mul_pd(aim, br),
            );
        }
    }
    for r in 0..MR {
        _mm256_storeu_pd(acc_re[r].as_mut_ptr(), cr[r]);
        _mm256_storeu_pd(acc_im[r].as_mut_ptr(), ci[r]);
    }
}

/// Packs `mc x kc` of row-major `a` (leading dimension `lda`) into
/// `MR`-row planar strips: strip `s`, lane `p * MR + r` holds
/// `a[(ic + s*MR + r) * lda + pc + p]`, zero-padded past `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[Complex64],
    lda: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let mut strip = 0;
    let mut s0 = 0;
    while strip < mc {
        for p in 0..kc {
            for r in 0..MR {
                let (re, im) = if strip + r < mc {
                    let z = a[(ic + strip + r) * lda + pc + p];
                    (z.re, z.im)
                } else {
                    (0.0, 0.0)
                };
                out_re[s0 + p * MR + r] = re;
                out_im[s0 + p * MR + r] = im;
            }
        }
        strip += MR;
        s0 += kc * MR;
    }
}

/// Packs `mc x kc` of `a^H` where `a` is stored `kc x mc` row-major with
/// leading dimension `ldm`: the fused-conjugate transfer. Lane
/// `p * MR + r` of strip `s` holds `conj(a[(pc + p) * ldm + ic + s*MR + r])`.
#[allow(clippy::too_many_arguments)]
fn pack_a_conj_t(
    a: &[Complex64],
    ldm: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let mut strip = 0;
    let mut s0 = 0;
    while strip < mc {
        for p in 0..kc {
            let a_row = &a[(pc + p) * ldm..];
            for r in 0..MR {
                let (re, im) = if strip + r < mc {
                    let z = a_row[ic + strip + r];
                    (z.re, -z.im)
                } else {
                    (0.0, 0.0)
                };
                out_re[s0 + p * MR + r] = re;
                out_im[s0 + p * MR + r] = im;
            }
        }
        strip += MR;
        s0 += kc * MR;
    }
}

/// Packs `kc x nc` of row-major `b` into `NR`-column planar strips,
/// zero-padded past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[Complex64],
    ldb: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let mut strip = 0;
    let mut s0 = 0;
    while strip < nc {
        for p in 0..kc {
            let b_row = &b[(pc + p) * ldb..];
            for q in 0..NR {
                let (re, im) = if strip + q < nc {
                    let z = b_row[jc + strip + q];
                    (z.re, z.im)
                } else {
                    (0.0, 0.0)
                };
                out_re[s0 + p * NR + q] = re;
                out_im[s0 + p * NR + q] = im;
            }
        }
        strip += NR;
        s0 += kc * NR;
    }
}

/// `c = a^H * b` with `a: k x m` (so `a^H: m x k`), `b: k x n`.
///
/// Conjugation is fused into the kernel — the packing step for the
/// blocked path, [`Complex64::conj_mul_add`] for the scalar path — so
/// `a^H` is never materialized. Above the blocking floor this runs the
/// same register-tiled kernel as [`gemm_serial`].
pub fn gemm_conj_a(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    assert_eq!(a.len(), k * m, "a must be k x m for gemm_conj_a");
    assert_eq!(b.len(), k * n, "b must be k x n");
    assert_eq!(c.len(), m * n, "c must be m x n");
    if use_blocked(m, k, n) {
        c.fill(Complex64::ZERO);
        gemm_blocked(m, k, n, Operand::ConjTransposed { a, ldm: m }, b, c);
    } else {
        gemm_small::<true>(m, k, n, a, b, c);
    }
}

/// Scalar conjugated kernel: `c += a^H * b` onto a pre-zeroed `c`.
///
/// The zero-skip stays *here only* (and in the small AVX kernel that
/// mirrors this loop): the sub-floor shapes are boundary zipper steps
/// (bond 1-2 sites of basis-like states) where site tensors genuinely
/// carry structural zeros — measured on basis-state Gram rows, the skip
/// removes ~40% of the boundary-step work, while on dense interior data
/// the same branch was pure cost (see `gemm_row`).
fn gemm_conj_a_scalar(
    m: usize,
    k: usize,
    n: usize,
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
) {
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let api = a_row[i];
            if api == Complex64::ZERO {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj = cj.conj_mul_add(api, bj);
            }
        }
    }
}

/// Conjugated dot product `sum_i conj(a_i) * b_i` (the Hilbert-space inner
/// product convention: antilinear in the first argument).
pub fn dot_conj(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = Complex64::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc = acc.conj_mul_add(*x, *y);
    }
    acc
}

/// In-place conjugate transpose of a row-major `m x n` matrix, returning the
/// `n x m` result as a new vector.
pub fn conj_transpose(m: usize, n: usize, a: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), m * n);
    let mut out = vec![Complex64::ZERO; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j].conj();
        }
    }
    out
}

#[inline]
fn check_dims(m: usize, k: usize, n: usize, la: usize, lb: usize, lc: usize) {
    assert_eq!(la, m * k, "a must be m x k");
    assert_eq!(lb, k * n, "b must be k x n");
    assert_eq!(lc, m * n, "c must be m x n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{approx_eq, c64};

    fn naive_gemm(
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
    ) -> Vec<Complex64> {
        let mut c = vec![Complex64::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = Complex64::ZERO;
                for p in 0..k {
                    acc = acc.mul_add(a[i * k + p], b[p * n + j]);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
        // Simple deterministic pseudo-random fill; avoids a rand dependency
        // in unit tests while exercising non-trivial values.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((state >> 33) as f64) / (u32::MAX as f64) - 0.5;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((state >> 33) as f64) / (u32::MAX as f64) - 0.5;
                c64(re, im)
            })
            .collect()
    }

    fn bits(c: &[Complex64]) -> Vec<(u64, u64)> {
        c.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// `test_matrix` with structural zeros, `-0.0` parts and purely real /
    /// purely imaginary entries sprinkled in: the operands on which a
    /// skipped `0 * x` term and an added one could part ways.
    fn sparse_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
        let mut a = test_matrix(rows, cols, seed);
        for (idx, z) in a.iter_mut().enumerate() {
            match idx % 7 {
                0 => *z = Complex64::ZERO,
                2 => *z = c64(-0.0, -0.0),
                3 => z.im = -0.0,
                5 => z.re = 0.0,
                _ => {}
            }
        }
        a
    }

    /// Every way the small kernel cuts a shape: all of 1..=9 (odd and even
    /// `m` and `n`, each segment width, the scalar tail) plus `n = 16` (two
    /// 8-column segments) and `n = 18` (two and a 2-column one).
    fn small_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in 1..=9 {
            for k in 1..=9 {
                shapes.extend((1..=9).chain([16, 18]).map(|n| (m, k, n)));
            }
        }
        shapes
    }

    #[test]
    fn serial_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 2, 9), (16, 16, 16)] {
            let a = test_matrix(m, k, 1);
            let b = test_matrix(k, n, 2);
            let mut c = vec![Complex64::ZERO; m * n];
            gemm_serial(m, k, n, &a, &b, &mut c);
            let expect = naive_gemm(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&expect) {
                assert!(approx_eq(*x, *y, 1e-10));
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_identical_to_reference() {
        // The register-tiled kernel must be bitwise identical to the
        // pre-blocking i-k-j loop on dense data: both accumulate every
        // output element in strict p order with the same mul_add. Sizes
        // cross the blocking floor, the MR/NR edges and the KC boundary;
        // the small shapes run the unpacked AVX kernel, which must land on
        // the same bits from a dirty output buffer, with and without
        // zeros in A (the reference skips them, the kernels do not).
        let large = [
            (4, 64, 4),
            (5, 64, 7),
            (16, 16, 16),
            (64, 64, 128),
            (33, 300, 47),
            (130, 257, 66),
            (1, 64, 256),
            (64, 3, 64),
            (3, 5, 301),
        ];
        for (m, k, n) in large.into_iter().chain(small_shapes()) {
            let b = test_matrix(k, n, n as u64 + 2);
            for a in [
                test_matrix(m, k, m as u64 + 1),
                sparse_matrix(m, k, m as u64 + 1),
            ] {
                let mut c1 = vec![c64(f64::NAN, 7.0); m * n];
                let mut c2 = vec![Complex64::ZERO; m * n];
                gemm_serial(m, k, n, &a, &b, &mut c1);
                gemm_unblocked_reference(m, k, n, &a, &b, &mut c2);
                assert_eq!(bits(&c1), bits(&c2), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = test_matrix(4, 4, 5);
        let id: Vec<Complex64> = Tensor4Identity::build();
        let mut c = vec![Complex64::ZERO; 16];
        gemm_serial(4, 4, 4, &a, &id, &mut c);
        for (x, y) in c.iter().zip(&a) {
            assert!(approx_eq(*x, *y, 1e-12));
        }
    }

    struct Tensor4Identity;
    impl Tensor4Identity {
        fn build() -> Vec<Complex64> {
            let mut id = vec![Complex64::ZERO; 16];
            for i in 0..4 {
                id[i * 4 + i] = Complex64::ONE;
            }
            id
        }
    }

    #[test]
    fn conj_a_matches_materialized() {
        // Both the scalar path (small shapes) and the blocked path with
        // fused-conjugate packing (large shapes) must match an explicit
        // conj-transpose followed by plain GEMM.
        for &(m, k, n) in &[(3, 5, 4), (64, 128, 64), (37, 130, 29)] {
            // a is stored k x m.
            let a = test_matrix(k, m, 6);
            let b = test_matrix(k, n, 7);
            let mut c = vec![Complex64::ZERO; m * n];
            gemm_conj_a(m, k, n, &a, &b, &mut c);
            let ah = conj_transpose(k, m, &a); // m x k
            let expect = naive_gemm(m, k, n, &ah, &b);
            for (x, y) in c.iter().zip(&expect) {
                assert!(approx_eq(*x, *y, 1e-10), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn conj_a_blocked_is_bitwise_identical_to_scalar() {
        // The blocked conj kernel, the small AVX kernel and the scalar
        // conj_mul_add loop accumulate identically — on dense data and on
        // A operands with zeros, where `gemm_conj_a`'s sub-floor paths skip
        // the term and this loop adds it.
        for (m, k, n) in [(64, 128, 64)].into_iter().chain(small_shapes()) {
            let b = test_matrix(k, n, 9);
            for a in [test_matrix(k, m, 8), sparse_matrix(k, m, 8)] {
                let mut c1 = vec![c64(f64::NAN, 7.0); m * n];
                gemm_conj_a(m, k, n, &a, &b, &mut c1);
                let mut c2 = vec![Complex64::ZERO; m * n];
                for p in 0..k {
                    for i in 0..m {
                        for (cj, &bj) in c2[i * n..(i + 1) * n]
                            .iter_mut()
                            .zip(&b[p * n..(p + 1) * n])
                        {
                            *cj = cj.conj_mul_add(a[p * m + i], bj);
                        }
                    }
                }
                assert_eq!(bits(&c1), bits(&c2), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn fused_zipper_site_is_bitwise_identical_to_two_gemms() {
        // Every bond shape the fused step takes, (la, lb, ra, rb) in
        // {1..4}^4: even and odd `la` (a transfer row paired with a zero
        // row), odd `rb` (the padded absorb lane) and `ra` below 4 (the
        // skipped output rows). Operands dense and full of 0.0 / -0.0 /
        // pure-real / pure-imaginary entries, where the fused absorb adds
        // the zero terms the two-GEMM path skips; `panel` and `out` start
        // NaN-dirty, so an unwritten or misplaced entry shows.
        for la in 1..=FUSED_MAX_BOND {
            for lb in 1..=FUSED_MAX_BOND {
                for ra in 1..=FUSED_MAX_BOND {
                    for rb in 1..=FUSED_MAX_BOND {
                        let seed = (la * 1000 + lb * 100 + ra * 10 + rb) as u64;
                        let dense = (
                            test_matrix(la, lb, seed),
                            test_matrix(2 * la, ra, seed + 1),
                            test_matrix(lb, 2 * rb, seed + 2),
                        );
                        let sparse = (
                            sparse_matrix(la, lb, seed),
                            sparse_matrix(2 * la, ra, seed + 1),
                            sparse_matrix(lb, 2 * rb, seed + 2),
                        );
                        for (env, a, b) in [dense, sparse] {
                            let dirty = c64(f64::NAN, -7.0);
                            let mut panel = vec![dirty; la * 2 * rb];
                            let mut out = vec![dirty; ra * rb];
                            zipper_site(la, lb, ra, rb, &env, &a, &b, &mut panel, &mut out);
                            let mut panel2 = vec![Complex64::ZERO; la * 2 * rb];
                            let mut out2 = vec![Complex64::ZERO; ra * rb];
                            gemm_serial(la, lb, 2 * rb, &env, &b, &mut panel2);
                            gemm_conj_a(ra, 2 * la, rb, &a, &panel2, &mut out2);
                            let shape = (la, lb, ra, rb);
                            assert_eq!(bits(&panel), bits(&panel2), "panel {shape:?}");
                            assert_eq!(bits(&out), bits(&out2), "out {shape:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_conj_is_antilinear_first() {
        let a = vec![c64(0.0, 1.0)];
        let b = vec![c64(0.0, 1.0)];
        // <i, i> = conj(i) * i = 1.
        assert!(approx_eq(dot_conj(&a, &b), c64(1.0, 0.0), 1e-12));
    }

    #[test]
    fn conj_transpose_roundtrip() {
        let a = test_matrix(3, 5, 10);
        let at = conj_transpose(3, 5, &a);
        let back = conj_transpose(5, 3, &at);
        for (x, y) in a.iter().zip(&back) {
            assert!(approx_eq(*x, *y, 1e-15));
        }
    }
}
