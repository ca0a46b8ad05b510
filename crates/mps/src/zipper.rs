//! Zero-allocation zipper inner products (the paper's Fig. 2).
//!
//! The generic contraction path (`Tensor::conj` + two `contract_with`
//! calls per site) allocates a conjugated copy of every site tensor,
//! permute-copies both operands and heap-allocates the environment at
//! each of the `m` sites. This module walks the two states' flat
//! buffers directly, front to back: site `q` of each is the next
//! `chi_l · 2 · chi_r` amplitudes, with its bonds read from the state's
//! bond vector, so no site is reached through a pointer of its own. Per
//! site, one [`ExecutionBackend::zipper_site`] call into preallocated
//! buffers computes
//!
//! 1. transfer: `T[l_a, (p, r_b)] = E[l_a, l_b] · B[l_b, (p, r_b)]`
//!    (no permute needed: the contracted bond of `E` and of `B` already
//!    sit at the matrix boundary in row-major layout);
//! 2. fused-conjugate absorb:
//!    `E'[r_a, r_b] = Σ_{l_a, p} conj(A[(l_a, p), r_a]) · T[(l_a, p), r_b]`,
//!    which is `A^H · T` with `A` read as an `(l_a·2) x r_a` matrix —
//!    conjugation happens inside the kernel, so `conj(A)` is never
//!    materialized.
//!
//! The trait's default runs these as two GEMM calls (`gemm`, then
//! `gemm_conj_a`), which is what the accelerator's cost model prices.
//! `CpuBackend` runs a site whose four bonds are all at most 4 (the
//! paper's d = 1, r = 2 regime) as one fused AVX kernel
//! (`qk_tensor::matrix::zipper_site`): `T` is computed in registers and
//! parked in the panel, and `E'` is absorbed from there in the same
//! call. Any larger site takes the two GEMMs. Between sites the
//! environment is always row-major `l_a x l_b`, so fused and general
//! sites mix in one chain.
//!
//! A [`ZipperWorkspace`] holds two ping-pong environment buffers and one
//! transfer panel, grown during the walk (never shrunk) and reused
//! across calls; after warm-up an inner product performs **zero** heap
//! allocation. `qk-gram`'s tile workers (behind `core::gram` too) and
//! `qk-serve`'s batch workers each hold one workspace per worker, which
//! amortizes the buffers across whole Gram tiles and kernel rows.
//!
//! **Determinism.** The per-element accumulation order of a site is
//! fixed by `qk-tensor`'s kernels independent of path, backend or thread
//! count: the fused small-bond step (bonds ≤ 4), the blocked GEMM
//! (χ ≥ 13), the unpacked small AVX GEMM (χ ≤ 12) or, without AVX, the
//! scalar loops, and all of them produce the same bits. So every caller
//! of [`crate::Mps::inner_with`] / [`crate::Mps::inner_into`] sees
//! bitwise-identical values for the same operands — the property
//! `qk-gram`'s tile × workers × spill × resume reproducibility pins rely
//! on. The backend is shared by every worker and called once per site,
//! so it must stay free of shared mutable state (`CpuBackend` is
//! zero-sized).

use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::Complex64;

/// Reusable buffers for the zipper contraction: two ping-pong
/// environments plus one transfer panel. Construct once per worker (or
/// let [`crate::Mps::inner_with`] use its thread-local instance) and
/// pass to [`crate::Mps::inner_into`]; buffers grow to the largest bond
/// dimension seen and are never shrunk.
#[derive(Debug, Default)]
pub struct ZipperWorkspace {
    /// Current environment `E[l_a, l_b]` (row-major).
    env: Vec<Complex64>,
    /// Next environment, swapped in after each site.
    env_next: Vec<Complex64>,
    /// Transfer panel `T[l_a, (p, r_b)]`.
    panel: Vec<Complex64>,
}

impl ZipperWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the buffers to hold `env_len` environment entries and
    /// `panel_len` panel entries.
    fn ensure(&mut self, env_len: usize, panel_len: usize) {
        if self.env.len() < env_len {
            self.env.resize(env_len, Complex64::ZERO);
            self.env_next.resize(env_len, Complex64::ZERO);
        }
        if self.panel.len() < panel_len {
            self.panel.resize(panel_len, Complex64::ZERO);
        }
    }
}

/// One operand of the zipper: a state's `m + 1` bond dimensions and its
/// flat amplitude buffer (see [`crate::Mps::site`] for the layout).
pub(crate) type Chain<'a> = (&'a [usize], &'a [Complex64]);

/// Runs the zipper over two flat chains, site by site: each site is the
/// next `chi_l · 2 · chi_r` amplitudes of its buffer. Both chains must
/// have equal length (checked by the caller) and valid MPS bond
/// structure.
pub(crate) fn zip_inner(
    ws: &mut ZipperWorkspace,
    (a_bonds, mut a): Chain<'_>,
    (b_bonds, mut b): Chain<'_>,
    backend: &dyn ExecutionBackend,
) -> Complex64 {
    // Buffers grow during the walk (`Vec::resize` keeps the live
    // environment); on a warm workspace each check is two compares.
    ws.ensure(1, 0);
    // Trivial 1x1 boundary environment.
    ws.env[0] = Complex64::ONE;
    for (ba, bb) in a_bonds.windows(2).zip(b_bonds.windows(2)) {
        let ((la, ra), (lb, rb)) = ((ba[0], ba[1]), (bb[0], bb[1]));
        let (site_a, rest_a) = a.split_at(la * 2 * ra);
        let (site_b, rest_b) = b.split_at(lb * 2 * rb);
        (a, b) = (rest_a, rest_b);
        ws.ensure((la * lb).max(ra * rb), la * 2 * rb);
        // T[l_a, (p, r_b)] = E · B, then E'[r_a, r_b] = A^H · T.
        backend.zipper_site(
            la,
            lb,
            ra,
            rb,
            &ws.env[..la * lb],
            site_a,
            site_b,
            &mut ws.panel[..la * 2 * rb],
            &mut ws.env_next[..ra * rb],
        );
        std::mem::swap(&mut ws.env, &mut ws.env_next);
    }
    ws.env[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_tensor::backend::{AcceleratorBackend, CpuBackend, DeviceModel};

    #[test]
    fn workspace_grows_and_reports_capacity() {
        let lens = |ws: &ZipperWorkspace| [ws.env.len(), ws.env_next.len(), ws.panel.len()];
        let mut ws = ZipperWorkspace::new();
        assert_eq!(lens(&ws), [0; 3]);
        ws.ensure(16, 32);
        assert_eq!(lens(&ws), [16, 16, 32]);
        // Never shrinks.
        ws.ensure(4, 4);
        assert_eq!(lens(&ws), [16, 16, 32]);
    }

    /// A flat buffer for the given bonds, with pseudo-random entries.
    fn chain(bonds: &[usize], seed: u64) -> Vec<Complex64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let len = bonds.windows(2).map(|w| w[0] * 2 * w[1]).sum();
        (0..len).map(|_| Complex64::new(next(), next())).collect()
    }

    fn dirty(ws: &mut ZipperWorkspace) {
        let nan = Complex64::new(f64::NAN, -7.0);
        for buf in [&mut ws.env, &mut ws.env_next, &mut ws.panel] {
            buf.fill(nan);
        }
    }

    #[test]
    fn fused_and_general_sites_mix_in_one_chain() {
        // Bra and ket bonds differ, so sites go fused (every bond <= 4),
        // general at chi = 5 and general at chi = 8 within one walk; the
        // workspace starts empty (it grows mid-walk), is reused across
        // calls in both size orders and is NaN-dirtied before each one.
        let bras = [
            vec![1, 2, 4, 5, 8, 8, 5, 4, 2, 1],
            vec![1, 2, 3, 4, 4, 3, 4, 2, 2, 1],
        ];
        let kets = [
            vec![1, 2, 4, 4, 8, 5, 4, 3, 2, 1],
            vec![1, 2, 4, 3, 4, 4, 2, 4, 2, 1],
        ];
        // The accelerator inherits the trait's two-GEMM `zipper_site`.
        let two_gemm = AcceleratorBackend::new(DeviceModel::ideal());
        let (mut ws_fused, mut ws_two) = (ZipperWorkspace::new(), ZipperWorkspace::new());
        for round in 0..2u64 {
            for (i, bra) in bras.iter().enumerate() {
                for (j, ket) in kets.iter().enumerate() {
                    let a = chain(bra, round * 10 + i as u64);
                    let b = chain(ket, round * 10 + 5 + j as u64);
                    let (a, b) = ((&bra[..], &a[..]), (&ket[..], &b[..]));
                    let fused = zip_inner(&mut ws_fused, a, b, &CpuBackend);
                    let two = zip_inner(&mut ws_two, a, b, &two_gemm);
                    assert!(fused.norm() > 0.0);
                    assert_eq!(fused.re.to_bits(), two.re.to_bits(), "{bra:?} {ket:?}");
                    assert_eq!(fused.im.to_bits(), two.im.to_bits(), "{bra:?} {ket:?}");
                    dirty(&mut ws_fused);
                    dirty(&mut ws_two);
                }
            }
        }
    }
}
