//! Routing for MPS locality: every two-qubit gate ends up on adjacent
//! chain positions, the only place the MPS simulator applies one.
//!
//! **RXX runs are scheduled as a block.** The RXX terms of one
//! `e^{-i H_XX}` block all commute (eq. 5 is a sum of XX terms; the
//! paper's footnote 3 uses the same fact), so a maximal run of consecutive
//! `Gate::Rxx` ops may be applied in any order. The run's edges are grouped
//! by lower qubit `lo`; for `lo` ascending that qubit sweeps right across
//! `(lo, lo+1), (lo+1, lo+2), ..` up to its farthest partner, and the op
//! on `(p, p+1)` is
//!
//! * the fused `SWAP · RXX(theta)` — one 4x4 unitary, so one SVD — when the
//!   qubit now sitting at `p+1` is a partner and not the last one,
//! * a plain `RXX(theta)` for the last partner (nothing left to move past),
//! * a plain `SWAP` past a qubit that is not a partner (generic circuits
//!   only; on the chain ansatz every qubit passed is a partner),
//!
//! followed by plain SWAPs straight back to `lo`. A qubit with `t`
//! positions to cross therefore costs `2t - 1` SVD-bearing ops where
//! gate-by-gate SWAP conjugation costs `t^2` on the chain ansatz (`m = 12`,
//! `d = 3`: 49 ops per block against 86); one op per edge is the floor.
//!
//! **No permutation needs tracking.** A trip shifts the qubits it passes
//! one place left and the return shifts them back, so every trip — and
//! every conjugated gate below — leaves all positions where they were. A
//! schedule that never swaps back would need a logical-to-physical map on
//! the state; this one does not.
//!
//! **RXX runs only.** The run test is the only recogniser: there is no
//! commutation analysis, and a run in which every gate is already adjacent
//! (all of a `d = 1` circuit) is copied through unchanged. Every other
//! long-range two-qubit gate is conjugated on its own: `k - 1` SWAPs out,
//! the gate on `(hi-1, hi)` in its original orientation, `k - 1` SWAPs
//! back.
//!
//! This departs deliberately from Section II-C's accounting of `2(k - 1)`
//! SWAPs per distance-`k` gate ([`crate::ansatz::swap_overhead`] keeps
//! that count; [`crate::ansatz::scheduled_xx_ops`] is what is applied).
//! The state is the same: the schedule only reorders commuting gates and
//! merges a SWAP into its neighbour.

use crate::circuit::{Circuit, Operation};
use crate::gate::Gate;
use qk_tensor::complex::Complex64;
use std::collections::BTreeMap;

/// Rewrites a circuit so that every two-qubit gate acts on adjacent
/// positions and no qubit ends up moved.
///
/// Single-qubit gates and already-local gates pass through unchanged. A
/// run of RXX gates with a long-range member is scheduled as one sweep per
/// qubit (see the module docs); any other long-range gate gets SWAP
/// conjugation with its qubit orientation preserved (relevant for
/// non-symmetric gates such as CX).
pub fn route_for_mps(circuit: &Circuit) -> Circuit {
    let is_rxx = |op: &Operation| matches!(op.gate, Gate::Rxx(_));
    let mut out = Circuit::new(circuit.num_qubits());
    // Consecutive RXX ops chunk together; every other op is its own chunk.
    for chunk in circuit.ops().chunk_by(|a, b| is_rxx(a) && is_rxx(b)) {
        if chunk.iter().all(Operation::is_local) {
            out.extend_ops(chunk);
        } else if is_rxx(&chunk[0]) {
            schedule_xx_run(&mut out, chunk);
        } else {
            let op = &chunk[0];
            route_two_qubit(&mut out, op.gate.clone(), op.qubits[0], op.qubits[1]);
        }
    }
    out
}

/// Emits one long-range two-qubit gate with SWAP conjugation.
fn route_two_qubit(out: &mut Circuit, gate: Gate, a: usize, b: usize) {
    let (lo, hi) = (a.min(b), a.max(b));
    // Move the qubit at `lo` right until it sits at `hi - 1`.
    for p in lo..hi - 1 {
        out.push2(Gate::Swap, p, p + 1);
    }
    // The logical qubit originally at `lo` now sits at `hi - 1`; keep the
    // original orientation.
    if a < b {
        out.push2(gate, hi - 1, hi);
    } else {
        out.push2(gate, hi, hi - 1);
    }
    for p in (lo..hi - 1).rev() {
        out.push2(Gate::Swap, p, p + 1);
    }
}

/// Number of SWAPs the conjugation of a single gate spanning distance `k`
/// takes (a lone long-range RXX run sweeps the same way).
pub fn swaps_for_distance(k: usize) -> usize {
    2 * k.saturating_sub(1)
}

/// Emits a run of (mutually commuting) RXX gates as one there-and-back
/// sweep per lower qubit, lowest first.
fn schedule_xx_run(out: &mut Circuit, run: &[Operation]) {
    // Per lower qubit, its partners ascending; RXX is symmetric in its
    // qubits and repeated edges add their angles.
    let mut partners: BTreeMap<usize, BTreeMap<usize, f64>> = BTreeMap::new();
    for op in run {
        let (Gate::Rxx(theta), &[a, b]) = (&op.gate, op.qubits.as_slice()) else {
            unreachable!("an RXX run holds two-qubit RXX gates only");
        };
        *partners
            .entry(a.min(b))
            .or_default()
            .entry(a.max(b))
            .or_insert(0.0) += theta;
    }
    // Ascending `lo` keeps orthogonality-centre travel short: the next
    // sweep starts one site right of where this one came back to.
    for (lo, his) in partners {
        let hi_max = *his.keys().next_back().expect("a group has an edge");
        for p in lo..hi_max {
            let gate = match his.get(&(p + 1)) {
                Some(&theta) if p + 1 == hi_max => Gate::Rxx(theta),
                Some(&theta) => swap_rxx(theta),
                None => Gate::Swap,
            };
            out.push2(gate, p, p + 1);
        }
        for p in (lo..hi_max - 1).rev() {
            out.push2(Gate::Swap, p, p + 1);
        }
    }
}

/// `SWAP · RXX(theta)` as one gate: the RXX matrix with rows `|01>` and
/// `|10>` exchanged. Symmetric in its two qubits, like both factors.
fn swap_rxx(theta: f64) -> Gate {
    let rxx = Gate::Rxx(theta).matrix();
    let mut u: [Complex64; 16] = rxx.data().try_into().expect("RXX is 4x4");
    for col in 0..4 {
        u.swap(4 + col, 8 + col);
    }
    Gate::Unitary2(Box::new(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{feature_map_circuit, scheduled_xx_ops, AnsatzConfig};
    use crate::circuit::Operation as _Op;
    use crate::test_dense::simulate_dense;

    fn assert_same_state(a: &Circuit, b: &Circuit) {
        for (x, y) in simulate_dense(a).iter().zip(&simulate_dense(b)) {
            assert!((*x - *y).norm() <= 1e-12, "amplitude {x:?} vs {y:?}");
        }
    }

    #[test]
    fn local_circuit_unchanged() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push2(Gate::Rxx(0.5), 0, 1)
            .push2(Gate::Cx, 2, 1);
        let routed = route_for_mps(&c);
        assert_eq!(routed, c);
    }

    #[test]
    fn d1_ansatz_unchanged() {
        for m in 2..9 {
            let features: Vec<f64> = (0..m).map(|i| 0.1 + 0.2 * i as f64).collect();
            let c = feature_map_circuit(&features, &AnsatzConfig::new(3, 1, 0.7));
            assert_eq!(route_for_mps(&c), c, "m = {m}");
        }
    }

    #[test]
    fn distance_two_inserts_two_swaps() {
        for gate in [Gate::Rxx(0.3), Gate::Cx, Gate::Cz] {
            let mut c = Circuit::new(3);
            c.push2(gate.clone(), 0, 2);
            let routed = route_for_mps(&c);
            assert_eq!(routed.swap_count(), 2);
            assert_eq!(routed.two_qubit_count(), 3);
            assert!(routed.is_mps_local());
            // SWAP(0,1) G(1,2) SWAP(0,1)
            assert_eq!(routed.ops()[0], _Op::two(Gate::Swap, 0, 1));
            assert_eq!(routed.ops()[1], _Op::two(gate, 1, 2));
            assert_eq!(routed.ops()[2], _Op::two(Gate::Swap, 0, 1));
        }
    }

    #[test]
    fn swap_count_matches_formula() {
        for k in 1..6 {
            for gate in [Gate::Rxx(0.1), Gate::Cz] {
                let mut c = Circuit::new(k + 1);
                c.push2(gate, 0, k);
                let routed = route_for_mps(&c);
                assert_eq!(routed.swap_count(), swaps_for_distance(k), "k = {k}");
                assert!(routed.is_mps_local());
            }
        }
    }

    #[test]
    fn orientation_preserved_for_cx() {
        // CX with control above target and reversed.
        let mut c = Circuit::new(4);
        c.push2(Gate::Cx, 0, 3);
        let routed = route_for_mps(&c);
        let gate_op = routed
            .ops()
            .iter()
            .find(|op| matches!(op.gate, Gate::Cx))
            .unwrap();
        assert_eq!(gate_op.qubits, vec![2, 3], "control moved to position 2");

        let mut c2 = Circuit::new(4);
        c2.push2(Gate::Cx, 3, 0);
        let routed2 = route_for_mps(&c2);
        let gate_op2 = routed2
            .ops()
            .iter()
            .find(|op| matches!(op.gate, Gate::Cx))
            .unwrap();
        assert_eq!(gate_op2.qubits, vec![3, 2], "control stays on the right");
    }

    #[test]
    fn fused_gate_is_swap_times_rxx() {
        let theta = 0.37;
        let Gate::Unitary2(fused) = swap_rxx(theta) else {
            panic!("fused op is a Unitary2");
        };
        let product =
            qk_tensor::contract(&Gate::Swap.matrix(), &[1], &Gate::Rxx(theta).matrix(), &[0]);
        assert_eq!(fused.as_slice(), product.data());
    }

    #[test]
    fn sweep_emits_fused_then_plain_then_return() {
        // Qubit 0 meets 1 (fused), passes 2 (no edge), ends on 3; qubit 1
        // then meets 2 where it stands.
        let mut c = Circuit::new(4);
        c.push2(Gate::Rxx(0.4), 0, 3)
            .push2(Gate::Rxx(0.9), 2, 1)
            .push2(Gate::Rxx(0.2), 0, 1);
        let routed = route_for_mps(&c);
        let expect = [
            _Op::two(swap_rxx(0.2), 0, 1),
            _Op::two(Gate::Swap, 1, 2),
            _Op::two(Gate::Rxx(0.4), 2, 3),
            _Op::two(Gate::Swap, 1, 2),
            _Op::two(Gate::Swap, 0, 1),
            _Op::two(Gate::Rxx(0.9), 1, 2),
        ];
        assert_eq!(routed.ops(), expect);
        assert_same_state(&routed, &c);
    }

    #[test]
    fn single_qubit_gate_splits_a_run() {
        // RZ does not commute with XX, so the edges either side of it must
        // not be pooled: each side is scheduled on its own.
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push2(Gate::Rxx(0.6), 0, 2)
            .push1(Gate::Rz(0.8), 0)
            .push2(Gate::Rxx(0.5), 0, 1)
            .push2(Gate::Rxx(0.7), 0, 2);
        let routed = route_for_mps(&c);
        let rz_at = routed
            .ops()
            .iter()
            .position(|op| matches!(op.gate, Gate::Rz(_)))
            .unwrap();
        assert_eq!(rz_at, 4, "H, then SWAP RXX SWAP, then RZ");
        assert_eq!(routed.two_qubit_count(), 3 + 3);
        assert_same_state(&routed, &c);
    }

    #[test]
    fn routing_restores_positions() {
        // Same amplitudes as the unrouted circuit: every sweep, fused
        // SWAPs included, put each qubit back where it started.
        let features = [0.1, 0.7, 1.3, 1.9, 0.5, 1.1, 0.3];
        for d in 1..6 {
            let c = feature_map_circuit(&features, &AnsatzConfig::new(2, d, 0.8));
            let routed = route_for_mps(&c);
            assert!(routed.is_mps_local());
            assert_same_state(&routed, &c);
        }
    }

    #[test]
    fn ansatz_swap_overhead_matches_closed_form() {
        for (m, d) in [(7, 1), (7, 2), (7, 4), (12, 3), (12, 5)] {
            let features: Vec<f64> = (0..m).map(|i| 0.1 + 0.15 * i as f64).collect();
            let c = feature_map_circuit(&features, &AnsatzConfig::new(2, d, 0.5));
            let routed = route_for_mps(&c);
            assert_eq!(routed.one_qubit_count(), c.one_qubit_count());
            assert_eq!(routed.two_qubit_count(), 2 * scheduled_xx_ops(m, d));
            // One op per edge, plus one plain SWAP per position crossed on
            // the way back.
            let overhead = routed.two_qubit_count() - c.two_qubit_count();
            assert_eq!(routed.swap_count(), overhead, "m = {m}, d = {d}");
        }
        // deep_d3's shape: 172 ops and 112 SWAPs under per-gate conjugation.
        let c = feature_map_circuit(&[0.5; 12], &AnsatzConfig::new(2, 3, 1.0));
        let routed = route_for_mps(&c);
        assert_eq!((routed.two_qubit_count(), routed.swap_count()), (98, 38));
    }
}
