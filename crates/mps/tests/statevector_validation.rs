//! Ground-truth validation: the MPS engine must agree with the exact
//! statevector simulator on every circuit family the framework uses, in
//! the small-qubit regime where both run.

use qk_circuit::ansatz::{feature_map_circuit, scheduled_xx_ops, AnsatzConfig};
use qk_circuit::{route_for_mps, Circuit, Gate};
use qk_mps::sim::flip_two_qubit;
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_statevector::StateVector;
use qk_tensor::backend::CpuBackend;

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

/// A circuit replayed gate by gate through [`Mps::apply_gate2`], walking
/// every site after every gate: the per-gate path and its telemetry,
/// recomputed the slow way.
struct Walked {
    state: Mps,
    peak_bond: usize,
    peak_memory_bytes: usize,
    /// `(memory bytes, max bond)` after each gate.
    trace: Vec<(usize, usize)>,
}

fn walk(circuit: &Circuit, config: &TruncationConfig) -> Walked {
    let be = CpuBackend::new();
    let routed = if circuit.is_mps_local() {
        circuit.clone()
    } else {
        route_for_mps(circuit)
    };
    let mut state = Mps::basis_state(&vec![0; circuit.num_qubits()]);
    let (mut peak_bond, mut peak_memory_bytes) = (state.max_bond(), state.memory_bytes());
    let mut trace = Vec::new();
    for op in routed.ops() {
        match op.qubits.as_slice() {
            [q] => state.apply_gate1(&op.gate.matrix(), *q),
            [a, b] => {
                let g = if a < b {
                    op.gate.matrix()
                } else {
                    flip_two_qubit(&op.gate.matrix())
                };
                state.apply_gate2(&be, &g, *a.min(b), config);
            }
            _ => unreachable!(),
        }
        let now = (state.memory_bytes(), state.max_bond());
        peak_memory_bytes = peak_memory_bytes.max(now.0);
        peak_bond = peak_bond.max(now.1);
        trace.push(now);
    }
    Walked {
        state,
        peak_bond,
        peak_memory_bytes,
        trace,
    }
}

/// SVDs a d = 1 ansatz state costs: its RXX ops split exactly, and one
/// compression sweep (m - 1 SVDs) closes every XX block but the first,
/// which starts from a product state. At least one sweep always runs.
fn d1_compression_svds(m: usize, r: usize) -> usize {
    (m - 1) * (r - 1).max(1)
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
                    let svds = if d == 1 {
                        d1_compression_svds(m, r)
                    } else {
                        rec.two_qubit_gates
                    };
                    assert_eq!(rec.truncation.truncations, svds, "{cell}");
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

#[test]
fn sim_record_matches_a_full_walk_on_the_grid() {
    // The simulator keeps its peaks and trace from the sites each gate
    // touches; the reference walks all m sites after every gate. A cap
    // that never binds keeps d = 1 on the per-gate path too.
    let be = CpuBackend::new();
    let config = TruncationConfig::capped(1e-16, usize::MAX);
    let plain = MpsSimulator::new(&be).with_truncation(config);
    let traced = MpsSimulator::new(&be)
        .with_truncation(config)
        .with_memory_trace(true);
    for m in [4usize, 7, 10, 12] {
        let x: Vec<f64> = (0..m)
            .map(|i| 0.15 + 1.7 * ((i * 7) % m) as f64 / m as f64)
            .collect();
        for d in (1..=5).filter(|&d| d < m) {
            for r in 1..=3 {
                for gamma in [0.1, 0.5, 1.0] {
                    let cell = format!("m={m} d={d} r={r} gamma={gamma}");
                    let c = feature_map_circuit(&x, &AnsatzConfig::new(r, d, gamma));
                    let reference = walk(&c, &config);
                    for sim in [&plain, &traced] {
                        let (mps, rec) = sim.simulate(&c);
                        assert_eq!(mps.to_bytes(), reference.state.to_bytes(), "{cell}");
                        assert_eq!(rec.peak_bond, reference.peak_bond, "{cell}");
                        assert_eq!(rec.peak_memory_bytes, reference.peak_memory_bytes, "{cell}");
                    }
                    let trace: Vec<(usize, usize)> = traced
                        .simulate(&c)
                        .1
                        .trace
                        .iter()
                        .map(|p| (p.memory_bytes, p.max_bond))
                        .collect();
                    assert_eq!(trace, reference.trace, "{cell}");
                }
            }
        }
    }
}

/// Exact-path grid features: the boundaries 0 and 2, and x = 1, whose
/// RXX angle `pi gamma^2 (1 - x_i)(1 - x_j)` is exactly zero.
fn edge_features(m: usize, shift: usize) -> Vec<f64> {
    const VALUES: [f64; 8] = [0.0, 1.0, 2.0, 0.35, 1.6, 0.8, 1.0, 1.3];
    (0..m).map(|i| VALUES[(i + shift) % VALUES.len()]).collect()
}

/// SVDs the exact d = 1 path's schedule implies for `circuit`: one
/// (m - 1)-SVD sweep closes each block of consecutive two-qubit ops,
/// except a block that starts from a product state and is not the last.
/// After every sweep the bonds are the per-gate walk's, so the walk says
/// which blocks start from a product state (an all-zero RXX layer leaves
/// one behind).
fn exact_schedule_svds(circuit: &Circuit, walked: &Walked) -> usize {
    let ops = circuit.ops();
    let two_qubit = |i: usize| ops[i].gate.is_two_qubit();
    let last = (0..ops.len()).rev().find(|&i| two_qubit(i));
    let (mut sweeps, mut product, mut skip) = (0, true, false);
    for i in (0..ops.len()).filter(|&i| two_qubit(i)) {
        if i == 0 || !two_qubit(i - 1) {
            skip = product;
        }
        if i + 1 == ops.len() || !two_qubit(i + 1) {
            let swept = !skip || Some(i) == last;
            sweeps += usize::from(swept);
            product = swept && walked.trace[i].1 == 1;
        }
    }
    sweeps * (circuit.num_qubits() - 1)
}

#[test]
fn exact_d1_path_matches_statevector_and_per_gate_bonds() {
    let be = CpuBackend::new();
    let config = TruncationConfig::paper_default();
    let sim = MpsSimulator::new(&be)
        .with_truncation(config)
        .with_memory_trace(true);
    for m in [2usize, 3, 4, 8, 12] {
        let (xa, xb) = (edge_features(m, 0), edge_features(m, 3));
        for r in 1..=4 {
            for gamma in [0.1, 0.5, 1.0] {
                let cell = format!("m={m} r={r} gamma={gamma}");
                let cfg = AnsatzConfig::new(r, 1, gamma);
                let (ca, cb) = (
                    feature_map_circuit(&xa, &cfg),
                    feature_map_circuit(&xb, &cfg),
                );
                let (a, rec) = sim.simulate(&ca);
                let b = sim.simulate(&cb).0;
                let reference = walk(&ca, &config);
                assert_eq!(a.bond_dims(), reference.state.bond_dims(), "{cell}");
                assert_eq!(
                    b.bond_dims(),
                    walk(&cb, &config).state.bond_dims(),
                    "{cell}"
                );
                let svds = exact_schedule_svds(&ca, &reference);
                assert_eq!(rec.truncation.truncations, svds, "{cell}");
                assert!((a.norm() - 1.0).abs() <= 1e-12, "{cell}: norm {}", a.norm());
                // The trace ends on the returned state; the peaks cover it.
                let last = rec.trace.last().expect("traced");
                assert_eq!(
                    (last.memory_bytes, last.max_bond),
                    (a.memory_bytes(), a.max_bond())
                );
                assert!(
                    rec.trace
                        .iter()
                        .all(|p| p.memory_bytes <= rec.peak_memory_bytes
                            && p.max_bond <= rec.peak_bond),
                    "{cell}"
                );
                let k_mps = a.overlap_sqr(&b);
                let k_sv = StateVector::simulate(&ca).overlap_sqr(&StateVector::simulate(&cb));
                assert!((k_mps - k_sv).abs() <= 1e-10, "{cell}: {k_mps} vs {k_sv}");
            }
        }
    }
}

#[test]
fn exact_d1_path_compresses_every_block() {
    // Compressing only at the end would let every bond double r times
    // before the first SVD; one compression per block bounds the peak by
    // a single doubling of the returned state's bonds.
    let be = CpuBackend::new();
    let features: Vec<f64> = (0..32)
        .map(|i| 0.05 + 1.9 * ((i * 13) % 32) as f64 / 32.0)
        .collect();
    let c = feature_map_circuit(&features, &AnsatzConfig::new(6, 1, 0.5));
    let (mps, rec) = MpsSimulator::new(&be).simulate(&c);
    assert!(
        rec.peak_bond <= 2 * mps.max_bond(),
        "peak bond {} vs final {}",
        rec.peak_bond,
        mps.max_bond()
    );
    assert_eq!(rec.truncation.truncations, d1_compression_svds(32, 6));
}
