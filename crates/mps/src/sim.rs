//! Circuit simulation driver over the MPS representation.
//!
//! [`MpsSimulator`] walks a (routed) circuit, applying gates via the MPS
//! update rules, and records the resource telemetry the paper's evaluation
//! is built on: wall-clock time, per-gate memory/bond traces (Fig. 6),
//! peak bond dimension (Table I), and the truncation-error budget (eq. 8).

use crate::mps::{Mps, TruncationConfig, TruncationStats};
use qk_circuit::routing::route_for_mps;
use qk_circuit::{Circuit, Gate};
use qk_tensor::backend::ExecutionBackend;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One sample of the memory-evolution trace (Fig. 6's x/y axes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Index of the gate just applied (0-based).
    pub gate_index: usize,
    /// Percentage of gates applied so far, in `[0, 100]`.
    pub progress_percent: f64,
    /// MPS memory footprint after this gate, in bytes.
    pub memory_bytes: usize,
    /// Largest virtual bond dimension after this gate.
    pub max_bond: usize,
}

/// Telemetry of one circuit simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimRecord {
    /// Gates applied (after routing).
    pub gates_applied: usize,
    /// Two-qubit gates applied (after routing; includes SWAPs).
    pub two_qubit_gates: usize,
    /// Wall-clock simulation time.
    pub duration: Duration,
    /// Largest bond dimension ever observed during the run (on the exact
    /// d = 1 path, the uncompressed bonds just before each compression).
    pub peak_bond: usize,
    /// Peak MPS memory during the run, in bytes (read like `peak_bond`).
    pub peak_memory_bytes: usize,
    /// Truncation-error budget of the final state.
    pub truncation: TruncationStats,
    /// Optional per-gate memory trace (populated when tracing is enabled).
    pub trace: Vec<TracePoint>,
}

/// MPS circuit simulator bound to an execution backend.
pub struct MpsSimulator<'b> {
    backend: &'b dyn ExecutionBackend,
    truncation: TruncationConfig,
    trace_memory: bool,
}

impl<'b> MpsSimulator<'b> {
    /// Creates a simulator with the paper-default truncation policy.
    pub fn new(backend: &'b dyn ExecutionBackend) -> Self {
        MpsSimulator {
            backend,
            truncation: TruncationConfig::default(),
            trace_memory: false,
        }
    }

    /// Sets the truncation policy.
    pub fn with_truncation(mut self, truncation: TruncationConfig) -> Self {
        self.truncation = truncation;
        self
    }

    /// Enables the per-gate memory trace (Fig. 6). Adds O(gates) overhead.
    pub fn with_memory_trace(mut self, enabled: bool) -> Self {
        self.trace_memory = enabled;
        self
    }

    /// The truncation policy in effect.
    pub fn truncation(&self) -> TruncationConfig {
        self.truncation
    }

    /// Simulates a circuit from `|0>^m` (the ansatz itself begins with a
    /// Hadamard layer, matching the statevector convention).
    ///
    /// The circuit is routed for MPS locality first if needed.
    pub fn simulate(&self, circuit: &Circuit) -> (Mps, SimRecord) {
        let routed;
        let local = if circuit.is_mps_local() {
            circuit
        } else {
            routed = route_for_mps(circuit);
            &routed
        };
        let mps = Mps::basis_state(&vec![0u8; circuit.num_qubits()]);
        self.run(mps, local)
    }

    /// Applies a (local) circuit to an existing state.
    ///
    /// A circuit whose two-qubit ops are all `Rxx` (any d = 1 ansatz
    /// circuit) under a truncation policy without a bond cap takes the
    /// exact path: each RXX is split onto a doubled bond with no SVD
    /// (`Mps::apply_rxx_split`), and one compression sweep at the end of
    /// each block of consecutive two-qubit ops restores the canonical form
    /// and truncates. A block that starts from a product state skips its
    /// compression (its bonds reach 2 at most); the next one covers it.
    /// Every other circuit applies each two-qubit gate with its own SVD.
    pub fn run(&self, mut mps: Mps, circuit: &Circuit) -> (Mps, SimRecord) {
        assert!(
            circuit.is_mps_local(),
            "circuit must be routed for MPS locality first"
        );
        assert_eq!(
            circuit.num_qubits(),
            mps.num_qubits(),
            "register size mismatch"
        );
        let start = Instant::now();
        let ops = circuit.ops();
        let total_gates = ops.len().max(1);
        let exact = self.truncation.max_bond.is_none()
            && ops
                .iter()
                .all(|op| !op.gate.is_two_qubit() || matches!(op.gate, Gate::Rxx(_)));
        // Bytes held by the sites, kept current from the sites each op
        // touches (walking all m sites per gate would cost O(m^2) a state).
        let mut memory = mps.memory_bytes();
        let mut record = SimRecord {
            gates_applied: 0,
            two_qubit_gates: 0,
            peak_bond: mps.max_bond(),
            peak_memory_bytes: memory,
            ..SimRecord::default()
        };
        // Exact path: whether the current block skips its compression
        // (never the last block: the returned state is always compressed).
        let mut skip_block = false;
        let last_two_qubit = ops.iter().rposition(|op| op.gate.is_two_qubit());

        for (idx, op) in ops.iter().enumerate() {
            match (op.qubits.as_slice(), &op.gate) {
                ([q], gate) => mps.apply_gate1(&gate.matrix(), *q),
                ([a, b], &Gate::Rxx(theta)) if exact => {
                    let lo = *a.min(b);
                    if idx == 0 || !ops[idx - 1].gate.is_two_qubit() {
                        skip_block = mps.max_bond() == 1;
                    }
                    let before = span_bytes(&mps, lo..=lo + 1);
                    mps.apply_rxx_split(theta, lo);
                    memory = memory - before + span_bytes(&mps, lo..=lo + 1);
                    let block_ends = ops
                        .get(idx + 1)
                        .is_none_or(|next| !next.gate.is_two_qubit());
                    if block_ends && (!skip_block || Some(idx) == last_two_qubit) {
                        self.close_block(&mut mps, &mut record, &mut memory);
                    }
                    record.two_qubit_gates += 1;
                }
                ([a, b], gate) => {
                    // Orient so the gate acts on (min, min+1). RXX/SWAP are
                    // symmetric; for oriented gates permute the matrix.
                    let (lo, hi) = (*a.min(b), *a.max(b));
                    debug_assert_eq!(hi - lo, 1);
                    // Reshape the owned matrix to the [2, 2, 2, 2] view
                    // once here (free: reshape moves, it never copies)
                    // instead of letting apply_gate2 clone per call.
                    let matrix = gate.matrix();
                    let g4 = if a < b {
                        matrix.reshape(&[2, 2, 2, 2])
                    } else {
                        flip_two_qubit(&matrix).reshape(&[2, 2, 2, 2])
                    };
                    // Moving the center to `lo` rewrites every site between
                    // the old center and the gate, and nothing else.
                    let span = mps.center().min(lo)..=mps.center().max(hi);
                    let before = span_bytes(&mps, span.clone());
                    mps.apply_gate2_reshaped(self.backend, &g4, lo, &self.truncation);
                    memory = memory - before + span_bytes(&mps, span.clone());
                    let bond = span.map(|q| mps.sites()[q].shape()[2]).max().unwrap_or(1);
                    record.peak_bond = record.peak_bond.max(bond);
                    record.peak_memory_bytes = record.peak_memory_bytes.max(memory);
                    record.two_qubit_gates += 1;
                }
                _ => unreachable!(),
            }
            record.gates_applied += 1;
            if self.trace_memory {
                record.trace.push(TracePoint {
                    gate_index: idx,
                    progress_percent: 100.0 * (idx + 1) as f64 / total_gates as f64,
                    memory_bytes: memory,
                    max_bond: mps.max_bond(),
                });
            }
        }
        debug_assert!(
            !exact || mps.is_canonical(1e-10),
            "non-canonical state escaped run"
        );

        record.duration = start.elapsed();
        record.truncation = *mps.stats();
        (mps, record)
    }

    /// Closes a block of exact splits: reads the peaks, which the splits
    /// only ever raise, then compresses once over every bond.
    fn close_block(&self, mps: &mut Mps, record: &mut SimRecord, memory: &mut usize) {
        record.peak_bond = record.peak_bond.max(mps.max_bond());
        record.peak_memory_bytes = record.peak_memory_bytes.max(*memory);
        mps.recompress(self.backend, &self.truncation);
        *memory = mps.memory_bytes();
    }
}

/// Bytes held by the sites in `span`.
fn span_bytes(mps: &Mps, span: std::ops::RangeInclusive<usize>) -> usize {
    mps.sites()[span]
        .iter()
        .map(qk_tensor::Tensor::memory_bytes)
        .sum()
}

/// Reverses the qubit order of a 4x4 two-qubit gate:
/// `G'[(b_o a_o)][(b_i a_i)] = G[(a_o b_o)][(a_i b_i)]`.
pub fn flip_two_qubit(gate: &qk_tensor::Tensor) -> qk_tensor::Tensor {
    assert_eq!(gate.shape(), &[4, 4]);
    let mut out = qk_tensor::Tensor::zeros(&[4, 4]);
    for ao in 0..2 {
        for bo in 0..2 {
            for ai in 0..2 {
                for bi in 0..2 {
                    out.set(
                        &[bo * 2 + ao, bi * 2 + ai],
                        gate.get(&[ao * 2 + bo, ai * 2 + bi]),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
    use qk_circuit::{Circuit, Gate};
    use qk_tensor::backend::CpuBackend;

    #[test]
    fn simulate_counts_gates() {
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be);
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push2(Gate::Cx, 0, 1)
            .push2(Gate::Cx, 1, 2);
        let (mps, rec) = sim.simulate(&c);
        assert_eq!(rec.gates_applied, 3);
        assert_eq!(rec.two_qubit_gates, 2);
        assert!((mps.norm() - 1.0).abs() < 1e-10);
        // GHZ state: bond dimension 2.
        assert_eq!(rec.peak_bond, 2);
    }

    #[test]
    fn simulate_routes_nonlocal_circuits() {
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be);
        let mut c = Circuit::new(4);
        c.push1(Gate::H, 0).push2(Gate::Cx, 0, 3);
        let (_, rec) = sim.simulate(&c);
        // 1 H + (2 * 2 SWAPs + CX) = 6 ops after routing.
        assert_eq!(rec.gates_applied, 6);
        assert_eq!(rec.two_qubit_gates, 5);
    }

    #[test]
    fn memory_trace_is_monotone_progress() {
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be).with_memory_trace(true);
        let features = [0.4, 1.3, 0.8, 1.6];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 2, 0.9));
        let (_, rec) = sim.simulate(&c);
        assert_eq!(rec.trace.len(), rec.gates_applied);
        for w in rec.trace.windows(2) {
            assert!(w[1].progress_percent >= w[0].progress_percent);
        }
        assert!(rec.trace.last().unwrap().progress_percent > 99.9);
        assert!(rec.peak_memory_bytes >= rec.trace[0].memory_bytes);
    }

    #[test]
    fn flipped_gate_matches_swap_conjugation() {
        // flip(G) = SWAP G SWAP.
        let g = Gate::Cx.matrix();
        let swap = Gate::Swap.matrix();
        let tmp = qk_tensor::contract(&swap, &[1], &g, &[0]);
        let conj = qk_tensor::contract(&tmp, &[1], &swap, &[0]);
        let flipped = flip_two_qubit(&g);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (conj.get(&[i, j]) - flipped.get(&[i, j])).norm() < 1e-12,
                    "[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn fused_swap_rxx_needs_no_orientation() {
        // The router's fused SWAP-RXX op is symmetric in its qubits, so
        // the `a < b` orientation branch of `run` cannot change it.
        let mut c = Circuit::new(3);
        c.push2(Gate::Rxx(0.7), 0, 1).push2(Gate::Rxx(0.3), 0, 2);
        let routed = route_for_mps(&c);
        let fused = &routed.ops()[0].gate;
        assert!(matches!(fused, Gate::Unitary2(_)));
        assert_eq!(flip_two_qubit(&fused.matrix()), fused.matrix());
    }

    #[test]
    fn oriented_gate_respects_qubit_order() {
        // CX with control below target (qubits (2, 1)).
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be);
        let mut c = Circuit::new(3);
        c.push1(Gate::X, 2); // |001>
        c.push2(Gate::Cx, 2, 1); // control qubit 2 -> flips qubit 1
        let (mps, _) = sim.simulate(&c);
        let sv = mps.to_statevector();
        let idx = 0b011;
        assert!((sv[idx].norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn exact_path_rebuilds_canonical_form_from_site_zero() {
        // A per-gate run leaves the center at the last site. The splits
        // that follow make that record stale, so the exact path must
        // sweep from site 0 rather than trust it.
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be);
        // Site 0 holds |+>, an X eigenstate: the first split leaves its
        // doubled bond rank 1, which only the QR sweep reveals.
        let mut prep = Circuit::new(5);
        prep.push1(Gate::H, 0).push1(Gate::Ry(0.7), 1);
        for q in 1..4 {
            prep.push2(Gate::Cx, q, q + 1);
        }
        let (start, _) = sim.simulate(&prep);
        assert_eq!(start.center(), 4);

        let mut block = Circuit::new(5);
        for q in 0..4 {
            block.push2(Gate::Rxx(0.4 + 0.3 * q as f64), q, q + 1);
        }
        block.push1(Gate::Rz(0.9), 2);
        let (out, rec) = sim.run(start.clone(), &block);

        let mut per_gate = start;
        let cfg = TruncationConfig::default();
        for op in block.ops() {
            match op.qubits.as_slice() {
                [q] => per_gate.apply_gate1(&op.gate.matrix(), *q),
                [a, _] => per_gate.apply_gate2(&be, &op.gate.matrix(), *a, &cfg),
                _ => unreachable!(),
            }
        }
        assert!(out.is_canonical(1e-10));
        assert_eq!(out.bond_dims(), per_gate.bond_dims());
        // The prep's three SVDs, then one four-SVD sweep.
        assert_eq!(rec.truncation.truncations, 3 + 4);
        for (x, y) in out.to_statevector().iter().zip(per_gate.to_statevector()) {
            assert!((*x - y).norm() < 1e-12);
        }
    }

    #[test]
    fn truncation_config_is_plumbed() {
        let be = CpuBackend::new();
        let sim = MpsSimulator::new(&be).with_truncation(TruncationConfig::capped(1e-16, 2));
        let features: Vec<f64> = (0..6).map(|i| 0.2 + 0.25 * i as f64).collect();
        let c = feature_map_circuit(&features, &AnsatzConfig::new(3, 3, 1.0));
        let (mps, rec) = sim.simulate(&c);
        assert!(mps.max_bond() <= 2);
        assert!(rec.peak_bond <= 2);
    }
}
