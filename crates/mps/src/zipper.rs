//! Zero-allocation zipper inner products (the paper's Fig. 2).
//!
//! The generic contraction path (`Tensor::conj` + two `contract_with`
//! calls per site) allocates a conjugated copy of every site tensor,
//! permute-copies both operands and heap-allocates the environment at
//! each of the `m` sites. This module walks the site slices directly:
//! per site, exactly two GEMM calls into preallocated buffers —
//!
//! 1. transfer: `T[l_a, (p, r_b)] = E[l_a, l_b] · B[l_b, (p, r_b)]`
//!    (no permute needed: the contracted bond of `E` and of `B` already
//!    sit at the matrix boundary in row-major layout);
//! 2. fused-conjugate absorb:
//!    `E'[r_a, r_b] = Σ_{l_a, p} conj(A[(l_a, p), r_a]) · T[(l_a, p), r_b]`,
//!    which is `A^H · T` with `A` read as an `(l_a·2) x r_a` matrix —
//!    conjugation happens inside [`ExecutionBackend::gemm_conj_a`], so
//!    `conj(A)` is never materialized.
//!
//! A [`ZipperWorkspace`] holds two ping-pong environment buffers and one
//! transfer panel, sized once from the largest bond product and reused
//! across calls; after warm-up an inner product performs **zero** heap
//! allocation. `qk-gram`'s tile workers (behind `core::gram` too) and
//! `qk-serve`'s batch workers each hold one workspace per worker, which
//! amortizes the buffers across whole Gram tiles and kernel rows.
//!
//! **Determinism.** The per-element accumulation order of both GEMMs is
//! fixed by `qk-tensor`'s kernels independent of path, backend or thread
//! count: the shape of a step picks the blocked kernel (χ ≥ 13), the
//! unpacked small AVX kernel (χ ≤ 12, so all of the paper's d = 1 regime)
//! or, without AVX, the scalar loops, and all three produce the same bits.
//! So every caller of [`crate::Mps::inner_with`] /
//! [`crate::Mps::inner_into`] sees bitwise-identical values for the same
//! operands — the property `qk-gram`'s tile × workers × spill × resume
//! reproducibility pins rely on. The backend is shared by every worker and
//! called twice per site, so it must stay free of shared mutable state
//! (`CpuBackend` is zero-sized).

use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::Complex64;
use qk_tensor::tensor::Tensor;

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

    /// A workspace pre-sized for states of bond dimension up to `chi`,
    /// so even the first call allocates nothing.
    pub fn with_bond_capacity(chi: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(chi * chi, chi * 2 * chi);
        ws
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

    /// Current heap footprint of the buffers, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        (self.env.len() + self.env_next.len() + self.panel.len()) * std::mem::size_of::<Complex64>()
    }
}

/// Runs the zipper over two site chains. Both chains must have equal
/// length (checked by the caller) and valid MPS bond structure.
pub(crate) fn zip_inner(
    ws: &mut ZipperWorkspace,
    a_sites: &[Tensor],
    b_sites: &[Tensor],
    backend: &dyn ExecutionBackend,
) -> Complex64 {
    // Size pass (no allocation: reads shapes only), so the walk below
    // never reallocates mid-chain.
    let mut env_len = 1usize;
    let mut panel_len = 2usize;
    for (a, b) in a_sites.iter().zip(b_sites) {
        let (la, ra) = (a.shape()[0], a.shape()[2]);
        let (lb, rb) = (b.shape()[0], b.shape()[2]);
        env_len = env_len.max(la * lb).max(ra * rb);
        panel_len = panel_len.max(la * 2 * rb);
    }
    ws.ensure(env_len, panel_len);

    // Trivial 1x1 boundary environment.
    ws.env[0] = Complex64::ONE;
    for (a, b) in a_sites.iter().zip(b_sites) {
        let (la, ra) = (a.shape()[0], a.shape()[2]);
        let (lb, rb) = (b.shape()[0], b.shape()[2]);
        // T[l_a, (p, r_b)] = E · B, with B read as an (l_b x 2 r_b) matrix.
        backend.gemm(
            la,
            lb,
            2 * rb,
            &ws.env[..la * lb],
            b.data(),
            &mut ws.panel[..la * 2 * rb],
        );
        // E'[r_a, r_b] = A^H · T, with A read as an (l_a·2 x r_a) matrix;
        // conjugation is fused into the kernel.
        backend.gemm_conj_a(
            ra,
            la * 2,
            rb,
            a.data(),
            &ws.panel[..la * 2 * rb],
            &mut ws.env_next[..ra * rb],
        );
        std::mem::swap(&mut ws.env, &mut ws.env_next);
    }
    ws.env[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_grows_and_reports_capacity() {
        let mut ws = ZipperWorkspace::new();
        assert_eq!(ws.capacity_bytes(), 0);
        ws.ensure(16, 32);
        let bytes = ws.capacity_bytes();
        assert_eq!(bytes, (16 + 16 + 32) * 16);
        // Never shrinks.
        ws.ensure(4, 4);
        assert_eq!(ws.capacity_bytes(), bytes);
        let pre = ZipperWorkspace::with_bond_capacity(8);
        assert_eq!(pre.capacity_bytes(), (64 + 64 + 128) * 16);
    }
}
