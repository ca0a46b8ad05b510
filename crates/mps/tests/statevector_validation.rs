//! Ground-truth validation: the MPS engine must agree with the exact
//! statevector simulator on every circuit family the framework uses, in
//! the small-qubit regime where both run.

use qk_circuit::ansatz::{feature_map_circuit, scheduled_xx_ops, AnsatzConfig};
use qk_circuit::{route_for_mps, Circuit, Gate};
use qk_mps::{MpsSimulator, TruncationConfig};
use qk_statevector::StateVector;
use qk_tensor::backend::{AcceleratorBackend, CpuBackend, DeviceModel};

fn assert_states_match(circuit: &Circuit, tol: f64) {
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let (mps, _) = sim.simulate(circuit);
    let mps_vec = mps.to_statevector();
    let sv = StateVector::simulate(circuit);
    let exact = sv.amplitudes();
    assert_eq!(mps_vec.len(), exact.len());
    let mut dot = qk_tensor::complex::Complex64::ZERO;
    for (a, b) in mps_vec.iter().zip(exact) {
        dot = dot.conj_mul_add(*a, *b);
    }
    let fidelity = dot.norm_sqr();
    assert!(
        (fidelity - 1.0).abs() < tol,
        "MPS/statevector fidelity {fidelity} for circuit with {} ops",
        circuit.len()
    );
}

#[test]
fn ghz_state_matches() {
    let mut c = Circuit::new(5);
    c.push1(Gate::H, 0);
    for q in 0..4 {
        c.push2(Gate::Cx, q, q + 1);
    }
    assert_states_match(&c, 1e-10);
}

#[test]
fn random_local_circuit_matches() {
    // Deterministic pseudo-random local circuit mixing all gate types.
    let mut c = Circuit::new(6);
    let mut state = 0x12345678u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..40 {
        let r = next();
        let q = (r % 6) as usize;
        match r % 5 {
            0 => {
                c.push1(Gate::H, q);
            }
            1 => {
                c.push1(Gate::Rz((r % 100) as f64 / 20.0), q);
            }
            2 => {
                c.push1(Gate::Rx((r % 100) as f64 / 25.0), q);
            }
            3 if q < 5 => {
                c.push2(Gate::Rxx((r % 100) as f64 / 30.0), q, q + 1);
            }
            _ if q < 5 => {
                c.push2(Gate::Cx, q, q + 1);
            }
            _ => {
                c.push1(Gate::H, q);
            }
        }
    }
    assert_states_match(&c, 1e-9);
}

#[test]
fn ansatz_d1_matches() {
    let features = [0.3, 1.7, 0.9, 1.1, 0.5];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 1, 1.0));
    assert_states_match(&c, 1e-9);
}

#[test]
fn ansatz_d1_without_cutoff_matches() {
    // `cutoff: 0` keeps every direction whose singular value is not exactly
    // zero. The null directions of a rank-2 RXX theta must therefore come
    // back from the SVD as exact zeros: a junk direction (sigma ~ 1e-20
    // with a non-orthonormal `u` column) that survived here would grow the
    // bonds to their 2^(m/2) ceiling and cost the state its unit norm.
    let features = [0.3, 1.7, 0.9, 1.1, 0.5, 1.4, 0.2, 0.8];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 1, 0.5));
    let be = CpuBackend::new();
    let exact_rank = TruncationConfig {
        cutoff: 0.0,
        max_bond: None,
    };
    let (mps, rec) = MpsSimulator::new(&be)
        .with_truncation(exact_rank)
        .simulate(&c);
    assert!((mps.norm() - 1.0).abs() <= 1e-12, "norm {}", mps.norm());
    assert_eq!(rec.peak_bond, 4, "null directions survived truncation");
    assert_eq!(rec.truncation.total_discarded_weight, 0.0);
    let exact = StateVector::simulate(&c);
    for (a, b) in mps.to_statevector().iter().zip(exact.amplitudes()) {
        assert!((*a - *b).norm() <= 1e-12, "amplitude {a:?} vs {b:?}");
    }
}

#[test]
fn ansatz_d2_routed_matches() {
    let features = [0.8, 0.2, 1.4, 1.9];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 2, 0.7));
    assert_states_match(&c, 1e-9);
}

#[test]
fn ansatz_full_distance_matches() {
    // d = m - 1: every pair interacts; stress test for routing + SVD.
    let features = [0.6, 1.2, 0.4, 1.8, 1.0];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 4, 0.9));
    assert_states_match(&c, 1e-8);
}

#[test]
fn deep_ansatz_matches() {
    // r = 8 layers: accumulation of truncation error must stay at machine
    // precision with the paper-default cutoff.
    let features = [1.5, 0.3, 0.9];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(8, 2, 1.0));
    assert_states_match(&c, 1e-8);
}

#[test]
fn gamma_sweep_matches() {
    for &gamma in &[0.1, 0.5, 1.0, 2.0] {
        let features = [0.7, 1.3, 0.2, 1.6];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 3, gamma));
        assert_states_match(&c, 1e-8);
    }
}

#[test]
fn ansatz_grid_matches_unrouted_statevector() {
    // Differential coverage across the ansatz grid and therefore across
    // routing schedules: the MPS engine routes, the dense oracle runs the
    // logical circuit as built. `cutoff: 0` discards exact zeros only, so
    // the comparison is at rounding level; the paper-default 1e-16 weight
    // cutoff alone moves amplitudes by up to 1e-8.
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be).with_truncation(TruncationConfig::with_cutoff(0.0));
    for m in [4usize, 7, 10, 12] {
        // Two fixed points per width, spread over the (0, 2) feature range.
        let xa: Vec<f64> = (0..m)
            .map(|i| 0.15 + 1.7 * ((i * 7) % m) as f64 / m as f64)
            .collect();
        let xb: Vec<f64> = (0..m)
            .map(|i| 1.9 - 1.6 * ((i * 5 + 2) % m) as f64 / m as f64)
            .collect();
        for d in (1..=5).filter(|&d| d < m) {
            for r in 1..=3 {
                for gamma in [0.1, 0.5, 1.0] {
                    let cell = format!("m={m} d={d} r={r} gamma={gamma}");
                    let cfg = AnsatzConfig::new(r, d, gamma);
                    let (ca, cb) = (
                        feature_map_circuit(&xa, &cfg),
                        feature_map_circuit(&xb, &cfg),
                    );
                    let (mps_a, rec) = sim.simulate(&ca);
                    assert_eq!(rec.two_qubit_gates, r * scheduled_xx_ops(m, d), "{cell}");
                    assert_eq!(rec.truncation.truncations, rec.two_qubit_gates, "{cell}");
                    let sv_a = StateVector::simulate(&ca);
                    for (a, b) in mps_a.to_statevector().iter().zip(sv_a.amplitudes()) {
                        assert!((*a - *b).norm() <= 1e-12, "{cell}: {a:?} vs {b:?}");
                    }
                    let k_mps = mps_a.overlap_sqr(&sim.simulate(&cb).0);
                    let k_sv = sv_a.overlap_sqr(&StateVector::simulate(&cb));
                    assert!((k_mps - k_sv).abs() <= 1e-10, "{cell}: {k_mps} vs {k_sv}");
                }
            }
        }
    }
}

#[test]
fn kernel_entries_match_statevector() {
    // The end observable of the whole stack: |<psi(x_i)|psi(x_j)>|^2 from
    // MPS must equal the exact value.
    let cfg = AnsatzConfig::new(2, 2, 0.8);
    let points: [&[f64]; 3] = [
        &[0.3, 1.2, 0.7, 1.8],
        &[1.1, 0.4, 1.5, 0.2],
        &[0.9, 0.9, 0.9, 0.9],
    ];
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let mps_states: Vec<_> = points
        .iter()
        .map(|x| sim.simulate(&feature_map_circuit(x, &cfg)).0)
        .collect();
    let sv_states: Vec<_> = points
        .iter()
        .map(|x| StateVector::simulate(&route_for_mps(&feature_map_circuit(x, &cfg))))
        .collect();
    for i in 0..3 {
        for j in 0..3 {
            let k_mps = mps_states[i].overlap_sqr(&mps_states[j]);
            let k_sv = sv_states[i].overlap_sqr(&sv_states[j]);
            assert!(
                (k_mps - k_sv).abs() < 1e-9,
                "K[{i}][{j}]: mps {k_mps} vs exact {k_sv}"
            );
        }
    }
}

#[test]
fn backends_produce_identical_bond_dimensions() {
    // Table I's check: CPU and accelerator run the same algorithm, so
    // their bond dimensions agree.
    let features = [0.4, 1.6, 0.8, 1.2, 0.6];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 3, 1.0));
    let cpu = CpuBackend::new();
    let acc = AcceleratorBackend::new(DeviceModel::ideal());
    let (mps_cpu, rec_cpu) = MpsSimulator::new(&cpu).simulate(&c);
    let (mps_acc, rec_acc) = MpsSimulator::new(&acc).simulate(&c);
    assert_eq!(mps_cpu.bond_dims(), mps_acc.bond_dims());
    assert_eq!(rec_cpu.peak_bond, rec_acc.peak_bond);
    // And the states agree.
    assert!((mps_cpu.overlap_sqr(&mps_acc) - 1.0).abs() < 1e-9);
}

#[test]
fn truncation_error_bound_holds() {
    // Simulate with an aggressive cutoff and verify eq. (8): the fidelity
    // against the exact state is at least the accumulated bound.
    let features = [0.5, 1.5, 0.9, 1.1, 0.3, 1.7];
    let c = feature_map_circuit(&features, &AnsatzConfig::new(3, 3, 1.0));
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be).with_truncation(TruncationConfig::with_cutoff(1e-4));
    let (mps, rec) = sim.simulate(&c);
    let approx = mps.to_statevector();
    let exact_sv = StateVector::simulate(&c);
    let mut dot = qk_tensor::complex::Complex64::ZERO;
    for (a, b) in approx.iter().zip(exact_sv.amplitudes()) {
        dot = dot.conj_mul_add(*a, *b);
    }
    let fidelity = dot.norm_sqr();
    let bound = rec.truncation.fidelity_lower_bound();
    assert!(
        fidelity >= bound - 1e-9,
        "fidelity {fidelity} violates truncation bound {bound}"
    );
    // With a 1e-4 cutoff some truncation should actually have happened on
    // this circuit; otherwise the test is vacuous.
    assert!(
        rec.truncation.values_discarded > 0,
        "no truncation exercised"
    );
}
