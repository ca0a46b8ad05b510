//! Property-based checks of bond compression on feature-map states:
//! lossless at the machine cutoff, and within the eq.-(8) error budget
//! when capped.

use proptest::prelude::*;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;
use qk_tensor::complex::Complex64;
use qk_tensor::tensor::Tensor;

fn feature_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..2.0, len)
}

fn ansatz_state(features: &[f64], gamma: f64) -> Mps {
    let d = (features.len() - 1).clamp(1, 2);
    let cfg = AnsatzConfig::new(2, d, gamma);
    let be = CpuBackend::new();
    MpsSimulator::new(&be)
        .simulate(&feature_map_circuit(features, &cfg))
        .0
}

/// Embeds every site in the top-left block of a site with doubled
/// interior bonds; the added half is exactly zero, so the state is
/// unchanged. `from_sites`' QR sweeps keep the padding only on bonds below
/// their `2^min(q, m - q)` cap; the split-padded unit test in
/// `compress.rs` pins the doubled case.
fn zero_padded(psi: &Mps) -> Mps {
    let m = psi.num_qubits();
    let sites = psi
        .sites()
        .iter()
        .enumerate()
        .map(|(q, a)| {
            let (l, r) = (a.shape()[0], a.shape()[2]);
            let nl = if q == 0 { 1 } else { 2 * l };
            let nr = if q == m - 1 { 1 } else { 2 * r };
            let mut data = vec![Complex64::ZERO; nl * 2 * nr];
            for lp in 0..l * 2 {
                data[lp * nr..lp * nr + r].copy_from_slice(&a.data()[lp * r..(lp + 1) * r]);
            }
            Tensor::from_data(&[nl, 2, nr], data)
        })
        .collect();
    Mps::from_sites(sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Lossless compression of a zero-padded state restores the original
    /// bonds and the state.
    #[test]
    fn compression_is_lossless_at_machine_cutoff(
        features in feature_vec(3..6),
        gamma in 0.2f64..1.3,
    ) {
        let be = CpuBackend::new();
        let psi = ansatz_state(&features, gamma);
        let mut padded = zero_padded(&psi);
        padded.compress(&be, &TruncationConfig::default());
        prop_assert_eq!(padded.bond_dims(), psi.bond_dims());
        for (x, y) in padded.to_statevector().iter().zip(&psi.to_statevector()) {
            prop_assert!((*x - *y).norm() < 1e-12);
        }
    }

    /// Capped compression respects the cap and the eq.-(8) fidelity bound.
    #[test]
    fn capped_compression_respects_error_budget(
        features in feature_vec(4..7),
        cap in 1usize..4,
    ) {
        let be = CpuBackend::new();
        let psi = ansatz_state(&features, 1.2);
        let mut lossy = psi.clone();
        let sweep = lossy.compress(&be, &TruncationConfig::capped(1e-16, cap));
        prop_assert!(lossy.max_bond() <= cap);
        let f = lossy.overlap_sqr(&psi);
        prop_assert!(f >= 1.0 - sweep.total_discarded_weight - 1e-9);
    }
}
