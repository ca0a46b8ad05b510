//! Property-based tests of the ansatz builder and the MPS router.

use proptest::prelude::*;
use qk_circuit::ansatz::{
    feature_map_circuit, linear_chain_edges, scheduled_xx_ops, xx_gate_count, xx_layers,
    AnsatzConfig,
};
use qk_circuit::{route_for_mps, Circuit, Gate};
use qk_statevector::StateVector;
use qk_tensor::complex::Complex64;
use qk_tensor::contract;

fn features() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..2.0, 2..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ansatz gate counts follow the closed forms for every (m, d, r).
    #[test]
    fn gate_counts_match_formulas(
        features in features(),
        layers in 1usize..5,
        d in 1usize..6,
        gamma in 0.0f64..2.0,
    ) {
        let m = features.len();
        let d = d.min(m - 1).max(1);
        let cfg = AnsatzConfig::new(layers, d, gamma);
        let c = feature_map_circuit(&features, &cfg);
        prop_assert_eq!(c.one_qubit_count(), m + layers * m);
        prop_assert_eq!(c.two_qubit_count(), layers * xx_gate_count(m, d));
    }

    /// The routed ansatz is the same unitary on `|0>^m` as the logical one
    /// amplitude by amplitude (so every qubit is back where it started,
    /// fused SWAPs included), is nearest-neighbour, and costs one
    /// there-and-back sweep per qubit and block.
    #[test]
    fn routing_invariants(
        features in prop::collection::vec(0.0f64..2.0, 2..9),
        layers in 1usize..4,
        d in 0usize..7,
        gamma in 0.1f64..1.5,
    ) {
        let m = features.len();
        let d = 1 + d % (m - 1);
        let c = feature_map_circuit(&features, &AnsatzConfig::new(layers, d, gamma));
        let routed = route_for_mps(&c);
        prop_assert!(routed.is_mps_local());
        prop_assert_eq!(routed.two_qubit_count(), layers * scheduled_xx_ops(m, d));
        if d == 1 {
            prop_assert_eq!(&routed, &c);
        }
        let (a, b) = (StateVector::simulate(&routed), StateVector::simulate(&c));
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((*x - *y).norm() <= 1e-12, "{x:?} vs {y:?}");
        }
    }

    /// Any RXX run — duplicate edges, either operand order, partner sets
    /// with gaps — routes to the same dense unitary, column by column.
    #[test]
    fn routed_xx_run_is_the_same_unitary(
        n in 3usize..7,
        edges in prop::collection::vec((0usize..6, 0usize..6, -3.0f64..3.0), 1..10),
    ) {
        let mut run = Circuit::new(n);
        for &(a, b, theta) in &edges {
            if a % n != b % n {
                run.push2(Gate::Rxx(theta), a % n, b % n);
            }
        }
        let routed = route_for_mps(&run);
        prop_assert!(routed.is_mps_local());
        for k in 0..1usize << n {
            let mut basis = vec![Complex64::ZERO; 1 << n];
            basis[k] = Complex64::ONE;
            let mut a = StateVector::from_amplitudes(basis.clone());
            let mut b = StateVector::from_amplitudes(basis);
            a.apply_circuit(&routed);
            b.apply_circuit(&run);
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                prop_assert!((*x - *y).norm() <= 1e-12, "column {k}: {x:?} vs {y:?}");
            }
        }
    }

    /// The commuting-RXX schedule is a partition of the chain edges into
    /// at most 2d matchings, for every (m, d).
    #[test]
    fn xx_layers_partition(m in 2usize..20, d in 1usize..8) {
        let d = d.min(m - 1);
        let layers = xx_layers(m, d);
        prop_assert!(layers.len() <= 2 * d);
        let mut all: Vec<(usize, usize)> = layers.iter().flatten().copied().collect();
        for layer in &layers {
            let mut used = std::collections::HashSet::new();
            for &(i, j) in layer {
                prop_assert!(used.insert(i));
                prop_assert!(used.insert(j));
            }
        }
        all.sort_unstable();
        let mut expect = linear_chain_edges(m, d);
        expect.sort_unstable();
        prop_assert_eq!(all, expect);
    }

    /// Every rotation gate is unitary for any angle.
    #[test]
    fn rotations_are_unitary(theta in -10.0f64..10.0) {
        for g in [Gate::Rx(theta), Gate::Ry(theta), Gate::Rz(theta),
                  Gate::Rxx(theta), Gate::Ryy(theta), Gate::Rzz(theta)] {
            let u = g.matrix();
            let n = u.shape()[0];
            let uhu = contract(&u.conj(), &[0], &u, &[0]);
            for (k, &z) in uhu.data().iter().enumerate() {
                let target = if k / n == k % n { 1.0 } else { 0.0 };
                prop_assert!((z - Complex64::from_real(target)).norm() < 1e-10,
                    "{} not unitary at {theta}", g.name());
            }
        }
    }

    /// Circuit depth is bounded by the op count and at least the
    /// per-qubit op count.
    #[test]
    fn depth_bounds(features in features(), layers in 1usize..4) {
        // Distance 1 is valid for every generated width (m >= 2).
        let cfg = AnsatzConfig::new(layers, 1, 0.5);
        let c = feature_map_circuit(&features, &cfg);
        let depth = c.depth();
        prop_assert!(depth <= c.len());
        // Every qubit sees at least 1 + layers gates (H + RZ per layer).
        prop_assert!(depth > layers);
    }
}
