//! MPS arithmetic and bond compression.
//!
//! Two-qubit gate application truncates locally, but several operations —
//! the simulator's exact RXX splits at d = 1, adding states, applying an
//! MPO, deserializing a state built elsewhere — produce an MPS whose bonds
//! are larger than the entanglement warrants. [`Mps::compress`] restores
//! the minimal bond dimension with a full right-to-left SVD sweep in
//! canonical form, which makes every local truncation globally optimal and
//! lets the discarded weight be accounted against the same eq.-(8) budget
//! the simulator uses.

use crate::mps::{decide_rank, Mps, TruncationConfig, TruncationStats};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::Complex64;
use qk_tensor::tensor::Tensor;

impl Mps {
    /// Multiplies the state by a complex scalar (applied at the center
    /// tensor, so the canonical structure is untouched).
    pub fn scale(&mut self, k: Complex64) {
        let center = self.center();
        self.sites_mut()[center].scale_inplace(k);
    }

    /// Returns the direct-sum superposition `|self> + |other>` (not
    /// normalized). Interior bonds add; boundary bonds stay 1 by summing
    /// (left edge) and stacking (right edge is handled by the same block
    /// embedding because chi_r = 1 collapses the column block).
    ///
    /// The result's bonds are the *sum* of the operands' bonds, which is
    /// in general far from minimal — follow with [`Mps::compress`].
    pub fn add(&self, other: &Mps) -> Mps {
        let m = self.num_qubits();
        assert_eq!(
            m,
            other.num_qubits(),
            "MPS addition requires equal qubit counts"
        );
        if m == 1 {
            let mut data = self.sites()[0].data().to_vec();
            for (z, w) in data.iter_mut().zip(other.sites()[0].data()) {
                *z += *w;
            }
            return Mps::from_sites(vec![Tensor::from_data(&[1, 2, 1], data)]);
        }
        let mut sites = Vec::with_capacity(m);
        for q in 0..m {
            let a = &self.sites()[q];
            let b = &other.sites()[q];
            let (al, ar) = (a.shape()[0], a.shape()[2]);
            let (bl, br) = (b.shape()[0], b.shape()[2]);
            let (nl, nr) = if q == 0 {
                (1, ar + br)
            } else if q == m - 1 {
                (al + bl, 1)
            } else {
                (al + bl, ar + br)
            };
            let mut data = vec![Complex64::ZERO; nl * 2 * nr];
            // Block-embed A at the top-left and B at the bottom-right of
            // every physical slice. Boundary sites place the blocks side
            // by side along the non-trivial bond.
            let mut write = |src: &Tensor, l_off: usize, r_off: usize| {
                let (sl, sr) = (src.shape()[0], src.shape()[2]);
                let sd = src.data();
                for l in 0..sl {
                    for p in 0..2 {
                        for r in 0..sr {
                            data[((l + l_off) * 2 + p) * nr + (r + r_off)] =
                                sd[(l * 2 + p) * sr + r];
                        }
                    }
                }
            };
            if q == 0 {
                write(a, 0, 0);
                write(b, 0, ar);
            } else if q == m - 1 {
                write(a, 0, 0);
                write(b, al, 0);
            } else {
                write(a, 0, 0);
                write(b, al, ar);
            }
            sites.push(Tensor::from_data(&[nl, 2, nr], data));
        }
        Mps::from_sites(sites)
    }

    /// Compresses every virtual bond with a right-to-left SVD sweep under
    /// `config`, returning the truncation record of the sweep (also merged
    /// into the state's cumulative stats).
    ///
    /// The state is first canonicalized to the last site so each SVD is
    /// optimal. The sweep leaves the center at site 0. Norm is preserved
    /// by the same kept-spectrum renormalization the gate path uses.
    pub fn compress(
        &mut self,
        backend: &dyn ExecutionBackend,
        config: &TruncationConfig,
    ) -> TruncationStats {
        let m = self.num_qubits();
        let mut sweep = TruncationStats::default();
        if m == 1 {
            return sweep;
        }
        self.canonicalize_to(m - 1);
        // Sweep q = m-1 .. 1: SVD the center site as (chi_l, 2 * chi_r),
        // keep the dominant right factor, absorb U * diag(s) leftwards.
        for q in (1..m).rev() {
            let site = &self.sites()[q];
            let (chi_l, chi_r) = (site.shape()[0], site.shape()[2]);
            let f = backend.svd(chi_l, 2 * chi_r, site.data());
            debug_assert!(f.converged(), "Jacobi did not converge on {}x{}", f.m, f.n);
            let (kept, discarded, count) = decide_rank(&f.s, config);

            sweep.truncations += 1;
            sweep.total_discarded_weight += discarded;
            sweep.max_discarded_weight = sweep.max_discarded_weight.max(discarded);
            sweep.values_discarded += count;

            let total_weight: f64 = f.s.iter().map(|s| s * s).sum();
            let kept_weight = total_weight - discarded;
            let renorm = if kept_weight > 0.0 {
                (total_weight / kept_weight).sqrt()
            } else {
                1.0
            };

            // New site q: top `kept` rows of Vh, shape (kept, 2, chi_r);
            // right-orthogonal by construction.
            let mut vh = vec![Complex64::ZERO; kept * 2 * chi_r];
            vh.copy_from_slice(&f.vh[..kept * 2 * chi_r]);
            self.sites_mut()[q] = Tensor::from_data(&[kept, 2, chi_r], vh);

            // Carry = U[:, :kept] * diag(s * renorm), absorbed into site q-1.
            let mut carry = vec![Complex64::ZERO; chi_l * kept];
            for row in 0..chi_l {
                for c in 0..kept {
                    carry[row * kept + c] = f.u[row * f.k + c].scale(f.s[c] * renorm);
                }
            }
            let prev = &self.sites()[q - 1];
            let (pl, pr) = (prev.shape()[0], prev.shape()[2]);
            debug_assert_eq!(pr, chi_l);
            let mut merged = vec![Complex64::ZERO; pl * 2 * kept];
            qk_tensor::matrix::gemm_serial(pl * 2, chi_l, kept, prev.data(), &carry, &mut merged);
            self.sites_mut()[q - 1] = Tensor::from_data(&[pl, 2, kept], merged);
        }
        self.set_center(0);
        self.merge_stats(&sweep);
        sweep
    }

    /// [`Mps::compress`] for a state whose recorded center went stale
    /// under [`Mps::apply_rxx_split`]. A left-to-right QR sweep from site 0
    /// needs no prior canonical structure, so recording the center at 0
    /// makes `compress` rebuild the canonical form from scratch.
    pub(crate) fn recompress(
        &mut self,
        backend: &dyn ExecutionBackend,
        config: &TruncationConfig,
    ) -> TruncationStats {
        self.set_center(0);
        self.compress(backend, config)
    }

    /// Fidelity `|<self|other>|^2 / (|self|^2 |other|^2)` between two
    /// states of equal qubit count; tolerant of unnormalized operands.
    pub fn fidelity(&self, other: &Mps) -> f64 {
        let na = self.norm();
        let nb = other.norm();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        self.inner(other).norm_sqr() / (na * na * nb * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_circuit::Gate;
    use qk_tensor::backend::CpuBackend;
    use qk_tensor::complex::{approx_eq, c64};

    fn backend() -> CpuBackend {
        CpuBackend::new()
    }

    fn entangled_state(m: usize, theta: f64) -> Mps {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::plus_state(m);
        for q in 0..m - 1 {
            mps.apply_gate2(&be, &Gate::Rxx(theta).matrix(), q, &cfg);
            mps.apply_gate1(&Gate::Rz(0.3 + 0.1 * q as f64).matrix(), q);
        }
        mps
    }

    #[test]
    fn scale_multiplies_every_amplitude() {
        let mut mps = Mps::plus_state(3);
        mps.scale(c64(0.0, 2.0));
        let sv = mps.to_statevector();
        let expect = c64(0.0, 2.0 / 8f64.sqrt());
        for z in sv {
            assert!(approx_eq(z, expect, 1e-12));
        }
    }

    #[test]
    fn add_superposes_basis_states() {
        let a = Mps::basis_state(&[0, 0, 0]);
        let b = Mps::basis_state(&[1, 1, 1]);
        let sum = a.add(&b);
        // Unnormalized GHZ: amplitude 1 on both extremes.
        assert!(approx_eq(sum.amplitude(&[0, 0, 0]), Complex64::ONE, 1e-10));
        assert!(approx_eq(sum.amplitude(&[1, 1, 1]), Complex64::ONE, 1e-10));
        assert!(approx_eq(sum.amplitude(&[0, 1, 0]), Complex64::ZERO, 1e-10));
        assert!((sum.norm() - 2f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn add_matches_statevector_sum() {
        let a = entangled_state(4, 0.8);
        let b = entangled_state(4, 1.3);
        let sum = a.add(&b);
        let sva = a.to_statevector();
        let svb = b.to_statevector();
        let svs = sum.to_statevector();
        for i in 0..16 {
            assert!(approx_eq(svs[i], sva[i] + svb[i], 1e-10), "index {i}");
        }
    }

    #[test]
    fn add_single_qubit() {
        let a = Mps::basis_state(&[0]);
        let b = Mps::basis_state(&[1]);
        let mut sum = a.add(&b);
        sum.normalize();
        let sv = sum.to_statevector();
        let amp = std::f64::consts::FRAC_1_SQRT_2;
        assert!(approx_eq(sv[0], c64(amp, 0.0), 1e-12));
        assert!(approx_eq(sv[1], c64(amp, 0.0), 1e-12));
    }

    #[test]
    fn compress_restores_minimal_bond_after_addition() {
        // |psi> + |psi| has the same entanglement as |psi>: bonds double
        // under addition and must return to the original after compression.
        let be = backend();
        let psi = entangled_state(5, 0.9);
        let doubled = psi.add(&psi);
        assert!(doubled.max_bond() >= psi.max_bond());
        let mut compressed = doubled.clone();
        let sweep = compressed.compress(&be, &TruncationConfig::default());
        assert!(compressed.max_bond() <= psi.max_bond());
        assert!(sweep.total_discarded_weight < 1e-12);
        // State unchanged up to normalization: fidelity 1 against psi.
        assert!((compressed.fidelity(&psi) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn compress_is_identity_on_already_minimal_states() {
        let be = backend();
        let mut psi = entangled_state(4, 1.1);
        let before = psi.to_statevector();
        let chi = psi.max_bond();
        psi.compress(&be, &TruncationConfig::default());
        assert_eq!(psi.max_bond(), chi);
        let after = psi.to_statevector();
        for (x, y) in before.iter().zip(&after) {
            assert!(approx_eq(*x, *y, 1e-10));
        }
    }

    #[test]
    fn lossy_compress_reports_discard_and_keeps_norm() {
        let be = backend();
        let mut psi = entangled_state(6, 1.4);
        let cfg = TruncationConfig::capped(1e-16, 2);
        let sweep = psi.compress(&be, &cfg);
        assert!(psi.max_bond() <= 2);
        assert!(sweep.truncations == 5);
        assert!((psi.norm() - 1.0).abs() < 1e-10);
        // The cumulative stats picked up the sweep.
        assert!(psi.stats().total_discarded_weight >= sweep.total_discarded_weight);
    }

    #[test]
    fn lossy_compress_fidelity_respects_error_budget() {
        let be = backend();
        let psi = entangled_state(6, 1.2);
        let mut lossy = psi.clone();
        let sweep = lossy.compress(&be, &TruncationConfig::capped(1e-16, 3));
        let f = lossy.fidelity(&psi);
        // Eq. (8): fidelity >= 1 - total discarded weight.
        assert!(
            f >= 1.0 - sweep.total_discarded_weight - 1e-10,
            "fidelity {f} vs budget {}",
            sweep.total_discarded_weight
        );
    }

    #[test]
    fn compress_leaves_center_at_zero() {
        let be = backend();
        let mut psi = entangled_state(5, 0.7);
        psi.compress(&be, &TruncationConfig::default());
        assert_eq!(psi.center(), 0);
        // Canonical invariant: norm still reads correctly at the center.
        assert!((psi.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = Mps::basis_state(&[0, 0]);
        let b = Mps::basis_state(&[1, 1]);
        assert!(a.fidelity(&b) < 1e-12);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_sites_roundtrip_preserves_state() {
        let psi = entangled_state(4, 1.0);
        let rebuilt = Mps::from_sites(psi.sites().to_vec());
        assert!((rebuilt.fidelity(&psi) - 1.0).abs() < 1e-10);
        assert!((rebuilt.norm() - 1.0).abs() < 1e-10);
    }
}
