//! MPS scaling and bond compression.
//!
//! Two-qubit gate application truncates locally, but the simulator's exact
//! RXX splits at d = 1 produce an MPS whose bonds are larger than the
//! entanglement warrants. [`Mps::compress`] restores the minimal bond
//! dimension with a full right-to-left SVD sweep in canonical form, which
//! makes every local truncation globally optimal and lets the discarded
//! weight be accounted against the same eq.-(8) budget the simulator uses.

use crate::mps::{decide_rank, Mps, TruncationConfig, TruncationStats};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::Complex64;
use qk_tensor::tensor::Tensor;

impl Mps {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_circuit::Gate;
    use qk_tensor::backend::CpuBackend;
    use qk_tensor::complex::approx_eq;

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

    /// `RXX(0)` applied by its exact split on every bond: each bond
    /// doubles, and the added half is exactly zero.
    fn zero_padded(psi: &Mps) -> Mps {
        let mut padded = psi.clone();
        for q in 0..psi.num_qubits() - 1 {
            padded.apply_rxx_split(0.0, q);
        }
        let doubled: Vec<usize> = psi.bond_dims().iter().map(|b| 2 * b).collect();
        assert_eq!(padded.bond_dims(), doubled);
        padded
    }

    fn assert_same_state(a: &Mps, b: &Mps, tol: f64) {
        for (x, y) in a.to_statevector().iter().zip(&b.to_statevector()) {
            assert!(approx_eq(*x, *y, tol), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn compress_restores_minimal_bond_after_addition() {
        // Adding an exactly zero half doubles every bond without changing
        // the state; compression must return the original bonds.
        let be = backend();
        let psi = entangled_state(5, 0.9);
        let mut padded = zero_padded(&psi);
        let sweep = padded.recompress(&be, &TruncationConfig::default());
        assert_eq!(padded.bond_dims(), psi.bond_dims());
        assert!(sweep.total_discarded_weight < 1e-12);
        assert_same_state(&padded, &psi, 1e-12);
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
        let f = lossy.overlap_sqr(&psi);
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
        assert!(a.overlap_sqr(&b) < 1e-12);
        assert!((a.overlap_sqr(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_sites_roundtrip_preserves_state() {
        let psi = entangled_state(4, 1.0);
        let rebuilt = Mps::from_sites(psi.sites().to_vec());
        assert!((rebuilt.overlap_sqr(&psi) - 1.0).abs() < 1e-10);
        assert!((rebuilt.norm() - 1.0).abs() < 1e-10);
    }
}
