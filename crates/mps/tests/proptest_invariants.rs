//! Property-based invariants of the MPS engine under random ansatz
//! parameters and random local circuits.

use proptest::prelude::*;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::{Circuit, Gate};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_statevector::StateVector;
use qk_tensor::backend::CpuBackend;

fn feature_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unitary evolution keeps the MPS normalized.
    #[test]
    fn simulation_preserves_norm(
        features in feature_vec(2..7),
        layers in 1usize..4,
        gamma in 0.05f64..1.5,
    ) {
        let d = 1 + features.len() % 3;
        let cfg = AnsatzConfig::new(layers, d.min(features.len() - 1).max(1), gamma);
        let c = feature_map_circuit(&features, &cfg);
        let be = CpuBackend::new();
        let (mps, _) = MpsSimulator::new(&be).simulate(&c);
        prop_assert!((mps.norm() - 1.0).abs() < 1e-9);
    }

    /// Kernel entries are valid fidelities: within [0, 1], symmetric, and
    /// 1 on the diagonal.
    #[test]
    fn kernel_entries_are_fidelities(
        xa in feature_vec(3..4),
        xb in feature_vec(3..4),
        gamma in 0.1f64..1.2,
    ) {
        let cfg = AnsatzConfig::new(2, 2, gamma);
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be);
        let a = sim.simulate(&feature_map_circuit(&xa, &cfg)).0;
        let b = sim.simulate(&feature_map_circuit(&xb, &cfg)).0;
        let kab = a.overlap_sqr(&b);
        let kba = b.overlap_sqr(&a);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&kab));
        prop_assert!((kab - kba).abs() < 1e-9);
        prop_assert!((a.overlap_sqr(&a) - 1.0).abs() < 1e-9);
    }

    /// The MPS agrees with the exact statevector for random feature maps.
    #[test]
    fn mps_matches_statevector(
        features in feature_vec(2..6),
        layers in 1usize..3,
        gamma in 0.1f64..1.2,
    ) {
        let d = (features.len() - 1).max(1);
        let cfg = AnsatzConfig::new(layers, d, gamma);
        let c = feature_map_circuit(&features, &cfg);
        let be = CpuBackend::new();
        let (mps, _) = MpsSimulator::new(&be).simulate(&c);
        let sv = StateVector::simulate(&c);
        let mut dot = qk_tensor::complex::Complex64::ZERO;
        for (a, b) in mps.to_statevector().iter().zip(sv.amplitudes()) {
            dot = dot.conj_mul_add(*a, *b);
        }
        prop_assert!((dot.norm_sqr() - 1.0).abs() < 1e-8);
    }

    /// Canonicalization to any site never changes the state.
    #[test]
    fn canonicalization_is_gauge_only(
        features in feature_vec(3..6),
        target in 0usize..6,
    ) {
        let cfg = AnsatzConfig::new(2, 2, 0.9);
        let c = feature_map_circuit(&features, &cfg);
        let be = CpuBackend::new();
        let (mut mps, _) = MpsSimulator::new(&be).simulate(&c);
        let before = mps.to_statevector();
        mps.canonicalize_to(target.min(features.len() - 1));
        let after = mps.to_statevector();
        for (x, y) in before.iter().zip(&after) {
            prop_assert!((*x - *y).norm() < 1e-9);
        }
    }

    /// Serialization round-trips exactly.
    #[test]
    fn bytes_roundtrip_is_exact(features in feature_vec(2..6)) {
        let cfg = AnsatzConfig::new(2, 1, 0.7);
        let c = feature_map_circuit(&features, &cfg);
        let be = CpuBackend::new();
        let (mps, _) = MpsSimulator::new(&be).simulate(&c);
        let back = Mps::from_bytes(&mps.to_bytes());
        prop_assert!((mps.overlap_sqr(&back) - 1.0).abs() < 1e-12);
        prop_assert_eq!(mps.bond_dims(), back.bond_dims());
    }

    /// A bond cap is always respected, and the state stays normalized.
    #[test]
    fn bond_cap_respected(
        features in feature_vec(4..7),
        cap in 1usize..4,
    ) {
        let cfg = AnsatzConfig::new(3, 3.min(features.len() - 1), 1.2);
        let c = feature_map_circuit(&features, &cfg);
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be)
            .with_truncation(TruncationConfig::capped(1e-16, cap));
        let (mps, rec) = sim.simulate(&c);
        prop_assert!(mps.max_bond() <= cap);
        prop_assert!(rec.peak_bond <= cap.max(1) * 4); // theta before truncation may exceed briefly
        prop_assert!((mps.norm() - 1.0).abs() < 1e-9);
    }

    /// d = 1 circuits take the exact split path: the bonds it returns are
    /// the per-gate path's and its amplitudes the statevector's, also at
    /// the feature boundaries 0 / 2 and at x = 1 (an exactly zero RXX).
    #[test]
    fn exact_d1_path_keeps_per_gate_bonds(
        features in prop::collection::vec(
            prop_oneof![Just(0.0), Just(1.0), Just(2.0), 0.0f64..2.0],
            2..9,
        ),
        layers in 1usize..5,
        gamma in 0.05f64..1.5,
    ) {
        let c = feature_map_circuit(&features, &AnsatzConfig::new(layers, 1, gamma));
        let be = CpuBackend::new();
        let config = TruncationConfig::paper_default();
        let (mps, _) = MpsSimulator::new(&be).with_truncation(config).simulate(&c);
        let mut per_gate = Mps::basis_state(&vec![0; features.len()]);
        for op in c.ops() {
            match op.qubits.as_slice() {
                [q] => per_gate.apply_gate1(&op.gate.matrix(), *q),
                [a, _] => per_gate.apply_gate2(&be, &op.gate.matrix(), *a, &config),
                _ => unreachable!(),
            }
        }
        prop_assert_eq!(mps.bond_dims(), per_gate.bond_dims());
        let sv = StateVector::simulate(&c);
        let mut dot = qk_tensor::complex::Complex64::ZERO;
        for (a, b) in mps.to_statevector().iter().zip(sv.amplitudes()) {
            dot = dot.conj_mul_add(*a, *b);
        }
        prop_assert!((dot.norm_sqr() - 1.0).abs() < 1e-8);
    }

    /// GHZ-type circuits: inner products between different basis-aligned
    /// states remain in [0, 1] whatever the gate angles.
    #[test]
    fn random_rxx_chain_keeps_valid_overlaps(angles in prop::collection::vec(-3.0f64..3.0, 3..8)) {
        let m = angles.len() + 1;
        let mut c = Circuit::new(m);
        for q in 0..m {
            c.push1(Gate::H, q);
        }
        for (q, &t) in angles.iter().enumerate() {
            c.push2(Gate::Rxx(t), q, q + 1);
            c.push1(Gate::Rz(t * 0.5), q);
        }
        let be = CpuBackend::new();
        let (mps, _) = MpsSimulator::new(&be).simulate(&c);
        let plus = Mps::plus_state(m);
        let overlap = mps.overlap_sqr(&plus);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&overlap));
    }
}
