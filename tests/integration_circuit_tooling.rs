//! Cross-crate validation of the circuit tooling: the optimizer and the
//! QASM interchange must preserve semantics as observed by both the
//! statevector ground truth and the MPS engine.

use proptest::prelude::*;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::{from_qasm, gate_histogram, optimize, route_for_mps, to_qasm, Circuit, Gate};
use qk_mps::MpsSimulator;
use qk_statevector::StateVector;
use qk_tensor::backend::CpuBackend;
use qk_tensor::complex::Complex64;

fn fidelity(a: &StateVector, b: &StateVector) -> f64 {
    let mut dot = Complex64::ZERO;
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        dot = dot.conj_mul_add(*x, *y);
    }
    dot.norm_sqr()
}

/// A random circuit with redundancy for the optimizer to find.
fn redundant_circuit(angles: &[f64], m: usize) -> Circuit {
    let mut c = Circuit::new(m);
    for q in 0..m {
        c.push1(Gate::H, q);
        c.push1(Gate::H, q); // cancels
        c.push1(Gate::Rz(angles[q % angles.len()]), q);
        c.push1(Gate::Rz(-angles[q % angles.len()] / 2.0), q); // merges
    }
    for q in 0..m - 1 {
        c.push2(Gate::Rxx(angles[q % angles.len()]), q, q + 1);
        c.push2(Gate::Rxx(0.0), q, q + 1); // drops
        c.push2(Gate::Swap, q, q + 1);
        c.push2(Gate::Swap, q + 1, q); // cancels
    }
    c
}

#[test]
fn optimizer_shrinks_ansatz_routing_overhead() {
    // A routed d>1 ansatz holds return SWAPs and fused SWAP-RXX unitaries
    // (no adjacent SWAP pair to cancel); the optimizer must not change
    // semantics and the histogram must reflect the gate mix.
    let features = [0.4, 1.3, 0.8, 1.6, 0.2];
    let circuit = route_for_mps(&feature_map_circuit(
        &features,
        &AnsatzConfig::new(2, 3, 0.9),
    ));
    let (opt, report) = optimize(&circuit);
    assert_eq!(report.ops_before, circuit.len());
    assert!(opt.len() <= circuit.len());
    let sv_orig = StateVector::simulate(&circuit);
    let sv_opt = StateVector::simulate(&opt);
    assert!((fidelity(&sv_orig, &sv_opt) - 1.0).abs() < 1e-9);
    let hist = gate_histogram(&circuit);
    assert!(hist.contains_key("SWAP"));
    assert!(hist.contains_key("Rxx"));
}

#[test]
fn optimized_circuit_runs_identically_on_mps() {
    let angles = [0.7, -1.2, 0.4];
    let circuit = redundant_circuit(&angles, 5);
    let (opt, report) = optimize(&circuit);
    assert!(report.ops_removed() > 0);

    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let (mps_orig, rec_orig) = sim.simulate(&circuit);
    let (mps_opt, rec_opt) = sim.simulate(&opt);
    assert!((mps_orig.overlap_sqr(&mps_opt) - 1.0).abs() < 1e-9);
    // The optimizer must reduce the two-qubit gate count the MPS engine
    // pays for.
    assert!(rec_opt.two_qubit_gates <= rec_orig.two_qubit_gates);
}

#[test]
fn qasm_roundtrip_preserves_mps_kernel_entries() {
    let cfg = AnsatzConfig::new(2, 2, 0.8);
    let xa = [0.3, 1.5, 0.9, 0.4];
    let xb = [1.1, 0.2, 1.8, 0.6];
    let ca = feature_map_circuit(&xa, &cfg);
    let cb = feature_map_circuit(&xb, &cfg);
    let ca2 = from_qasm(&to_qasm(&ca).unwrap()).unwrap();
    let cb2 = from_qasm(&to_qasm(&cb).unwrap()).unwrap();

    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let k_direct = sim.simulate(&ca).0.overlap_sqr(&sim.simulate(&cb).0);
    let k_roundtrip = sim.simulate(&ca2).0.overlap_sqr(&sim.simulate(&cb2).0);
    assert!((k_direct - k_roundtrip).abs() < 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Optimization preserves the state exactly for random redundant
    /// circuits.
    #[test]
    fn optimize_preserves_statevector(
        angles in prop::collection::vec(-2.0f64..2.0, 2..5),
        m in 3usize..6,
    ) {
        let circuit = redundant_circuit(&angles, m);
        let (opt, _) = optimize(&circuit);
        let a = StateVector::simulate(&circuit);
        let b = StateVector::simulate(&opt);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((*x - *y).norm() < 1e-10);
        }
    }

    /// QASM round-trips are exact for the ansatz family (the logical
    /// circuit: the MPS engine routes on its side of the exchange).
    #[test]
    fn qasm_roundtrip_is_exact(
        features in prop::collection::vec(0.0f64..2.0, 2..6),
        layers in 1usize..3,
        gamma in 0.1f64..1.2,
    ) {
        let d = (features.len() - 1).clamp(1, 2);
        let c = feature_map_circuit(&features, &AnsatzConfig::new(layers, d, gamma));
        let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        prop_assert_eq!(back.ops(), c.ops());
    }

    /// Optimizing an already optimized circuit is a no-op (idempotence).
    #[test]
    fn optimize_is_idempotent(
        angles in prop::collection::vec(-2.0f64..2.0, 2..5),
        m in 3usize..6,
    ) {
        let circuit = redundant_circuit(&angles, m);
        let (once, _) = optimize(&circuit);
        let (twice, report) = optimize(&once);
        prop_assert_eq!(once.ops(), twice.ops());
        prop_assert_eq!(report.ops_removed(), 0);
    }
}
