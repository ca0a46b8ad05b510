//! Circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered list of gate applications on a register of
//! `m` qubits. Qubit indices are positions on the linear chain; the MPS
//! simulator requires two-qubit gates on *adjacent* positions, which
//! [`crate::routing`] guarantees.

use crate::gate::Gate;

/// A gate applied to specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// The gate.
    pub gate: Gate,
    /// Target qubits; length 1 or 2 matching the gate arity. For two-qubit
    /// gates the order is significant (first entry is the gate's first
    /// qubit).
    pub qubits: Vec<usize>,
}

impl Operation {
    /// Single-qubit operation.
    pub fn one(gate: Gate, q: usize) -> Self {
        debug_assert_eq!(gate.arity(), 1);
        Operation {
            gate,
            qubits: vec![q],
        }
    }

    /// Two-qubit operation.
    pub fn two(gate: Gate, q0: usize, q1: usize) -> Self {
        debug_assert_eq!(gate.arity(), 2);
        debug_assert_ne!(q0, q1);
        Operation {
            gate,
            qubits: vec![q0, q1],
        }
    }

    /// `true` when the operation acts on adjacent chain positions.
    pub fn is_local(&self) -> bool {
        match self.qubits.as_slice() {
            [_] => true,
            [a, b] => a.abs_diff(*b) == 1,
            _ => false,
        }
    }
}

/// An ordered quantum circuit on `m` qubits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Operation>,
}

impl Circuit {
    /// An empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            ops: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the circuit has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a single-qubit gate.
    ///
    /// # Panics
    /// Panics if `q` is out of range or the gate is not single-qubit.
    pub fn push1(&mut self, gate: Gate, q: usize) -> &mut Self {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        assert_eq!(gate.arity(), 1, "push1 requires a single-qubit gate");
        self.ops.push(Operation::one(gate, q));
        self
    }

    /// Appends a two-qubit gate.
    ///
    /// # Panics
    /// Panics if qubits are out of range, equal, or the gate arity is wrong.
    pub fn push2(&mut self, gate: Gate, q0: usize, q1: usize) -> &mut Self {
        assert!(
            q0 < self.num_qubits && q1 < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(q0, q1, "two-qubit gate needs distinct qubits");
        assert_eq!(gate.arity(), 2, "push2 requires a two-qubit gate");
        self.ops.push(Operation::two(gate, q0, q1));
        self
    }

    /// Appends all operations of another circuit.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.num_qubits, other.num_qubits, "register size mismatch");
        self.extend_ops(&other.ops);
        self
    }

    /// Appends operations already validated against a register of this
    /// size (a slice of another circuit's [`Circuit::ops`]).
    pub(crate) fn extend_ops(&mut self, ops: &[Operation]) {
        self.ops.extend_from_slice(ops);
    }

    /// Count of two-qubit gates — the cost driver of MPS simulation.
    pub fn two_qubit_count(&self) -> usize {
        self.ops.iter().filter(|op| op.gate.is_two_qubit()).count()
    }

    /// Count of single-qubit gates.
    pub fn one_qubit_count(&self) -> usize {
        self.ops.len() - self.two_qubit_count()
    }

    /// Count of SWAP gates (routing overhead).
    pub fn swap_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op.gate, Gate::Swap))
            .count()
    }

    /// `true` when every two-qubit gate acts on adjacent chain positions,
    /// i.e. the circuit is directly simulable by the MPS engine.
    pub fn is_mps_local(&self) -> bool {
        self.ops.iter().all(Operation::is_local)
    }

    /// Circuit depth: the number of layers when each qubit participates in
    /// at most one gate per layer (greedy ASAP schedule).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let start = op.qubits.iter().map(|&q| level[q]).max().unwrap_or(0);
            for &q in &op.qubits {
                level[q] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0)
            .push1(Gate::H, 1)
            .push2(Gate::Rxx(0.5), 0, 1)
            .push2(Gate::Swap, 1, 2)
            .push1(Gate::Rz(1.0), 2);
        assert_eq!(c.len(), 5);
        assert_eq!(c.two_qubit_count(), 2);
        assert_eq!(c.one_qubit_count(), 3);
        assert_eq!(c.swap_count(), 1);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    fn locality_detection() {
        let mut c = Circuit::new(4);
        c.push2(Gate::Rxx(0.1), 0, 1);
        assert!(c.is_mps_local());
        c.push2(Gate::Rxx(0.1), 0, 3);
        assert!(!c.is_mps_local());
    }

    #[test]
    fn depth_greedy_schedule() {
        let mut c = Circuit::new(4);
        // Two disjoint gates: depth 1.
        c.push2(Gate::Rxx(0.1), 0, 1);
        c.push2(Gate::Rxx(0.1), 2, 3);
        assert_eq!(c.depth(), 1);
        // Overlapping gate: depth 2.
        c.push2(Gate::Rxx(0.1), 1, 2);
        assert_eq!(c.depth(), 2);
        // Single-qubit gate on an idle wire does not raise depth.
        let mut c2 = Circuit::new(2);
        c2.push1(Gate::H, 0);
        c2.push1(Gate::H, 1);
        assert_eq!(c2.depth(), 1);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2);
        a.push1(Gate::H, 0);
        let mut b = Circuit::new(2);
        b.push1(Gate::H, 1);
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Circuit::new(2).push1(Gate::H, 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn equal_qubits_panic() {
        Circuit::new(2).push2(Gate::Cx, 1, 1);
    }
}
