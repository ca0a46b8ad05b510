//! The paper's feature-map circuit ansatz (Section II-A / II-C).
//!
//! A data vector `x` (rescaled to the `(0, 2)` interval) on `m` features is
//! encoded as `|psi(x)> = U(x) |+>^m` with
//!
//! ```text
//! U(x) = ( e^{-i H_XX(x)} e^{-i H_Z(x)} )^r
//! H_Z(x)  = gamma       * sum_i          x_i            Z_i          (eq. 4)
//! H_XX(x) = gamma^2 pi/2 * sum_{(i,j) in G} (1-x_i)(1-x_j) X_i X_j   (eq. 5)
//! ```
//!
//! where `G` is a linear chain with interaction distance `d`. With the
//! convention `RZ(t) = e^{-i t/2 Z}` the `H_Z` factor is `RZ(2 gamma x_i)`
//! per qubit and the `H_XX` factor is `RXX(pi gamma^2 (1-x_i)(1-x_j))` per
//! edge.
//!
//! The RXX gates within one `e^{-i H_XX}` block commute, so they are emitted
//! in a schedule of at most `2d` full layers (the paper's footnote 3),
//! produced by [`xx_layers`]. That layering is the *logical* circuit's: it
//! is what depth accounting sees. [`crate::routing`] uses the same
//! commutation to re-order each block into one sweep per qubit before the
//! MPS engine applies it ([`scheduled_xx_ops`] two-qubit ops per block).

use crate::circuit::Circuit;
use crate::gate::Gate;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Hyperparameters of the feature-map ansatz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnsatzConfig {
    /// Number of `e^{-i H_XX} e^{-i H_Z}` repetitions (`r` in the paper).
    pub layers: usize,
    /// Qubit interaction distance on the linear chain (`d`).
    pub interaction_distance: usize,
    /// Kernel bandwidth coefficient (`gamma`).
    pub gamma: f64,
}

impl AnsatzConfig {
    /// The configuration used for the paper's large-scale QML runs
    /// (Figs. 8-10): `r = 2`, `d = 1`, `gamma = 0.1`.
    pub fn qml_default() -> Self {
        AnsatzConfig {
            layers: 2,
            interaction_distance: 1,
            gamma: 0.1,
        }
    }

    /// New configuration.
    pub fn new(layers: usize, interaction_distance: usize, gamma: f64) -> Self {
        AnsatzConfig {
            layers,
            interaction_distance,
            gamma,
        }
    }
}

/// Edges of a linear chain of `m` qubits with interaction distance `d`:
/// all pairs `(i, j)` with `0 < j - i <= d`, in `(distance, i)` order.
pub fn linear_chain_edges(m: usize, d: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for k in 1..=d {
        for i in 0..m.saturating_sub(k) {
            edges.push((i, i + k));
        }
    }
    edges
}

/// Partitions the chain edges into layers of pairwise-disjoint edges.
///
/// Edges at distance `k` form `k` disjoint paths; 2-coloring each path by
/// the parity of `floor(i / k)` yields two layers per distance, hence at
/// most `2d` layers total — the construction behind the paper's claim that
/// `e^{-i H_XX}` realizes in `2d` layers.
pub fn xx_layers(m: usize, d: usize) -> Vec<Vec<(usize, usize)>> {
    let mut layers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 2 * d];
    for k in 1..=d {
        for i in 0..m.saturating_sub(k) {
            let parity = (i / k) % 2;
            layers[2 * (k - 1) + parity].push((i, i + k));
        }
    }
    layers.retain(|layer| !layer.is_empty());
    layers
}

/// Rotation angle of the `RZ` gate on qubit `i`: `2 gamma x_i` (eq. 4).
#[inline]
pub fn rz_angle(gamma: f64, xi: f64) -> f64 {
    2.0 * gamma * xi
}

/// Rotation angle of the `RXX` gate on edge `(i, j)`:
/// `pi gamma^2 (1 - x_i)(1 - x_j)` (eq. 5).
#[inline]
pub fn rxx_angle(gamma: f64, xi: f64, xj: f64) -> f64 {
    PI * gamma * gamma * (1.0 - xi) * (1.0 - xj)
}

/// Builds the full feature-map circuit `U(x) |+>^m` for one data point.
///
/// The number of qubits equals `features.len()`. Features are expected to
/// be rescaled to the `(0, 2)` interval (see `qk-data`); values outside
/// merely change angles, nothing panics.
///
/// # Panics
/// Panics if `features` is empty or any feature is non-finite.
pub fn feature_map_circuit(features: &[f64], cfg: &AnsatzConfig) -> Circuit {
    assert!(!features.is_empty(), "feature vector must be non-empty");
    assert!(
        features.iter().all(|x| x.is_finite()),
        "features must be finite"
    );
    let m = features.len();
    let mut circuit = Circuit::new(m);

    // |+>^m preparation.
    for q in 0..m {
        circuit.push1(Gate::H, q);
    }

    let layers = xx_layers(m, cfg.interaction_distance);
    for _rep in 0..cfg.layers {
        // e^{-i H_Z(x)}: one RZ per qubit.
        for (q, &x) in features.iter().enumerate() {
            circuit.push1(Gate::Rz(rz_angle(cfg.gamma, x)), q);
        }
        // e^{-i H_XX(x)}: RXX per edge, emitted layer by layer.
        for layer in &layers {
            for &(i, j) in layer {
                circuit.push2(
                    Gate::Rxx(rxx_angle(cfg.gamma, features[i], features[j])),
                    i,
                    j,
                );
            }
        }
    }
    circuit
}

/// Expected number of RXX gates in one `e^{-i H_XX}` block.
pub fn xx_gate_count(m: usize, d: usize) -> usize {
    (1..=d).map(|k| m.saturating_sub(k)).sum()
}

/// The paper's SWAP count for one `e^{-i H_XX}` block (Section II-C):
/// `2(k-1)` per distance-`k` edge, each gate swapped out and back on its
/// own. [`crate::routing`] applies fewer; see [`scheduled_xx_ops`].
pub fn swap_overhead(m: usize, d: usize) -> usize {
    (1..=d).map(|k| m.saturating_sub(k) * 2 * (k - 1)).sum()
}

/// Two-qubit ops (RXX, fused SWAP-RXX and return SWAPs together) that
/// [`crate::routing::route_for_mps`] emits for one `e^{-i H_XX}` block:
/// qubit `i` has `t = min(d, m-1-i)` partners to its right and its sweep
/// costs `2t - 1`.
pub fn scheduled_xx_ops(m: usize, d: usize) -> usize {
    (0..m.saturating_sub(1))
        .map(|i| 2 * d.min(m - 1 - i) - 1)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_edges_distance_one() {
        assert_eq!(linear_chain_edges(4, 1), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn chain_edges_distance_two() {
        let edges = linear_chain_edges(5, 2);
        assert_eq!(
            edges,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)]
        );
    }

    #[test]
    fn chain_edge_count_formula() {
        for m in [2usize, 5, 10, 33] {
            for d in 1..m {
                assert_eq!(linear_chain_edges(m, d).len(), xx_gate_count(m, d));
            }
        }
    }

    #[test]
    fn xx_layers_are_disjoint_and_cover() {
        for (m, d) in [(8usize, 1usize), (10, 3), (12, 5), (5, 4)] {
            let layers = xx_layers(m, d);
            assert!(layers.len() <= 2 * d, "more than 2d layers for m={m} d={d}");
            let mut all: Vec<(usize, usize)> = Vec::new();
            for layer in &layers {
                let mut used = std::collections::HashSet::new();
                for &(i, j) in layer {
                    assert!(used.insert(i), "qubit {i} reused within a layer");
                    assert!(used.insert(j), "qubit {j} reused within a layer");
                }
                all.extend_from_slice(layer);
            }
            all.sort_unstable();
            let mut expect = linear_chain_edges(m, d);
            expect.sort_unstable();
            assert_eq!(all, expect, "layers do not cover chain edges");
        }
    }

    #[test]
    fn angles_follow_equations() {
        assert!((rz_angle(0.5, 1.2) - 1.2).abs() < 1e-15);
        let g = 0.7f64;
        let (xi, xj) = (0.3, 1.5);
        let expect = PI * g * g * (1.0 - xi) * (1.0 - xj);
        assert!((rxx_angle(g, xi, xj) - expect).abs() < 1e-15);
    }

    #[test]
    fn circuit_structure_counts() {
        let features = [0.5, 1.0, 1.5, 0.2];
        let cfg = AnsatzConfig::new(3, 2, 1.0);
        let c = feature_map_circuit(&features, &cfg);
        let m = features.len();
        // H on every qubit + r * (m RZ).
        assert_eq!(c.one_qubit_count(), m + cfg.layers * m);
        // r * edges RXX, no SWAPs before routing.
        assert_eq!(c.two_qubit_count(), cfg.layers * xx_gate_count(m, 2));
        assert_eq!(c.swap_count(), 0);
        assert_eq!(c.num_qubits(), m);
    }

    #[test]
    fn d1_circuit_is_mps_local() {
        let features = [0.5, 1.0, 1.5];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 1, 0.5));
        assert!(c.is_mps_local());
    }

    #[test]
    fn d2_circuit_is_not_local() {
        let features = [0.5, 1.0, 1.5];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(1, 2, 0.5));
        assert!(!c.is_mps_local());
    }

    #[test]
    fn gamma_zero_gives_trivial_rotations() {
        // gamma = 0: all RZ and RXX angles vanish -> state stays |+>^m.
        let features = [0.4, 0.9];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(1, 1, 0.0));
        for op in c.ops() {
            match &op.gate {
                Gate::Rz(t) | Gate::Rxx(t) => assert_eq!(*t, 0.0),
                Gate::H => {}
                g => panic!("unexpected gate {}", g.name()),
            }
        }
    }

    #[test]
    fn swap_overhead_formula() {
        // m=5, d=3: distance-1 edges need 0 swaps, distance-2 edges (3 of
        // them) need 2 each, distance-3 edges (2) need 4 each.
        assert_eq!(swap_overhead(5, 3), 3 * 2 + 2 * 4);
        assert_eq!(swap_overhead(10, 1), 0);
    }

    #[test]
    fn scheduled_xx_ops_formula() {
        // m=12, d=3: nine qubits with three partners, then 2 and 1.
        assert_eq!(scheduled_xx_ops(12, 3), 9 * 5 + 3 + 1);
        for m in 1..20 {
            // d = 1 needs no routing: one op per edge.
            assert_eq!(scheduled_xx_ops(m, 1), m.saturating_sub(1));
        }
        // Never below one op per edge, never above the per-gate count.
        for (m, d) in [(5usize, 4usize), (12, 3), (16, 5)] {
            let edges = xx_gate_count(m, d);
            assert!(scheduled_xx_ops(m, d) >= edges);
            assert!(scheduled_xx_ops(m, d) <= edges + swap_overhead(m, d));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_features_panics() {
        feature_map_circuit(&[], &AnsatzConfig::qml_default());
    }
}
