//! Gate set for the quantum-kernel circuits.
//!
//! Conventions (matching pytket / standard circuit notation):
//!
//! * `RZ(theta) = exp(-i theta/2 Z)` — so the paper's `exp(-i gamma x_i Z)`
//!   is `RZ(2 gamma x_i)`.
//! * `RXX(theta) = exp(-i theta/2 X (x) X)` — so the paper's
//!   `exp(-i gamma^2 (pi/2)(1-x_i)(1-x_j) XX)` is
//!   `RXX(pi gamma^2 (1-x_i)(1-x_j))`.
//!
//! Two-qubit matrices are given in the computational basis ordered
//! `|q_a q_b> = |00>, |01>, |10>, |11>` where `q_a` is the first qubit the
//! gate is applied to.

use qk_tensor::complex::{c64, Complex64};
use qk_tensor::tensor::Tensor;
use std::f64::consts::FRAC_1_SQRT_2;

/// A quantum gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// `exp(-i theta/2 X)`.
    Rx(f64),
    /// `exp(-i theta/2 Y)`.
    Ry(f64),
    /// `exp(-i theta/2 Z)`.
    Rz(f64),
    /// Controlled-X (first qubit is control).
    Cx,
    /// Controlled-Z.
    Cz,
    /// SWAP.
    Swap,
    /// `exp(-i theta/2 X (x) X)`.
    Rxx(f64),
    /// `exp(-i theta/2 Y (x) Y)`.
    Ryy(f64),
    /// `exp(-i theta/2 Z (x) Z)`.
    Rzz(f64),
    /// Arbitrary two-qubit unitary (row-major 4x4).
    Unitary2(Box<[Complex64; 16]>),
}

impl Gate {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::H | Gate::X | Gate::Y | Gate::Z | Gate::Rx(_) | Gate::Ry(_) | Gate::Rz(_) => 1,
            _ => 2,
        }
    }

    /// `true` for two-qubit gates; the MPS cost metric of the paper.
    pub fn is_two_qubit(&self) -> bool {
        self.arity() == 2
    }

    /// The gate's unitary matrix as a rank-2 tensor (`2x2` or `4x4`).
    // Matrix entries are written as `row * 4 + col` even when row is 0/1
    // so the layout stays visually aligned.
    #[allow(clippy::identity_op, clippy::erasing_op)]
    pub fn matrix(&self) -> Tensor {
        match self {
            Gate::H => {
                let s = FRAC_1_SQRT_2;
                mat2([c64(s, 0.0), c64(s, 0.0), c64(s, 0.0), c64(-s, 0.0)])
            }
            Gate::X => mat2([
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ONE,
                Complex64::ZERO,
            ]),
            Gate::Y => mat2([
                Complex64::ZERO,
                c64(0.0, -1.0),
                c64(0.0, 1.0),
                Complex64::ZERO,
            ]),
            Gate::Z => mat2([
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                c64(-1.0, 0.0),
            ]),
            Gate::Rx(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                mat2([c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0)])
            }
            Gate::Ry(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                mat2([c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0)])
            }
            Gate::Rz(theta) => {
                let half = theta / 2.0;
                mat2([
                    Complex64::cis(-half),
                    Complex64::ZERO,
                    Complex64::ZERO,
                    Complex64::cis(half),
                ])
            }
            Gate::Cx => {
                let mut u = ident4();
                u[2 * 4 + 2] = Complex64::ZERO;
                u[2 * 4 + 3] = Complex64::ONE;
                u[3 * 4 + 3] = Complex64::ZERO;
                u[3 * 4 + 2] = Complex64::ONE;
                mat4(u)
            }
            Gate::Cz => {
                let mut u = ident4();
                u[3 * 4 + 3] = c64(-1.0, 0.0);
                mat4(u)
            }
            Gate::Swap => {
                let mut u = [Complex64::ZERO; 16];
                u[0] = Complex64::ONE;
                u[1 * 4 + 2] = Complex64::ONE;
                u[2 * 4 + 1] = Complex64::ONE;
                u[3 * 4 + 3] = Complex64::ONE;
                mat4(u)
            }
            Gate::Rxx(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                let ct = c64(c, 0.0);
                let st = c64(0.0, -s);
                let mut u = [Complex64::ZERO; 16];
                u[0] = ct;
                u[5] = ct;
                u[10] = ct;
                u[15] = ct;
                u[3] = st;
                u[6] = st;
                u[9] = st;
                u[12] = st;
                mat4(u)
            }
            Gate::Ryy(theta) => {
                let (s, c) = (theta / 2.0).sin_cos();
                let ct = c64(c, 0.0);
                let mut u = [Complex64::ZERO; 16];
                u[0] = ct;
                u[5] = ct;
                u[10] = ct;
                u[15] = ct;
                u[3] = c64(0.0, s);
                u[12] = c64(0.0, s);
                u[6] = c64(0.0, -s);
                u[9] = c64(0.0, -s);
                mat4(u)
            }
            Gate::Rzz(theta) => {
                let half = theta / 2.0;
                let mut u = [Complex64::ZERO; 16];
                u[0] = Complex64::cis(-half);
                u[5] = Complex64::cis(half);
                u[10] = Complex64::cis(half);
                u[15] = Complex64::cis(-half);
                mat4(u)
            }
            Gate::Unitary2(u) => mat4(**u),
        }
    }

    /// Short mnemonic for display and logging.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H => "H",
            Gate::X => "X",
            Gate::Y => "Y",
            Gate::Z => "Z",
            Gate::Rx(_) => "Rx",
            Gate::Ry(_) => "Ry",
            Gate::Rz(_) => "Rz",
            Gate::Cx => "CX",
            Gate::Cz => "CZ",
            Gate::Swap => "SWAP",
            Gate::Rxx(_) => "Rxx",
            Gate::Ryy(_) => "Ryy",
            Gate::Rzz(_) => "Rzz",
            Gate::Unitary2(_) => "U2q",
        }
    }
}

fn mat2(entries: [Complex64; 4]) -> Tensor {
    Tensor::from_data(&[2, 2], entries.to_vec())
}

fn mat4(entries: [Complex64; 16]) -> Tensor {
    Tensor::from_data(&[4, 4], entries.to_vec())
}

fn ident4() -> [Complex64; 16] {
    let mut u = [Complex64::ZERO; 16];
    for i in 0..4 {
        u[i * 4 + i] = Complex64::ONE;
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_tensor::complex::approx_eq;

    fn all_gates() -> Vec<Gate> {
        vec![
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::Rx(0.3),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Rxx(0.7),
            Gate::Ryy(1.1),
            Gate::Rzz(-0.4),
        ]
    }

    #[test]
    fn every_gate_is_unitary() {
        for g in all_gates() {
            let u = g.matrix();
            let n = u.shape()[0];
            let uhu = qk_tensor::contract(&u.conj(), &[0], &u, &[0]);
            for (k, &z) in uhu.data().iter().enumerate() {
                let target = if k / n == k % n { 1.0 } else { 0.0 };
                assert!(
                    approx_eq(z, c64(target, 0.0), 1e-12),
                    "{} not unitary",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn arities() {
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Rz(1.0).arity(), 1);
        assert_eq!(Gate::Rxx(1.0).arity(), 2);
        assert_eq!(Gate::Swap.arity(), 2);
        assert!(Gate::Cx.is_two_qubit());
        assert!(!Gate::X.is_two_qubit());
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let theta = 0.9;
        let u = Gate::Rz(theta).matrix();
        assert!(approx_eq(
            u.get(&[0, 0]),
            Complex64::cis(-theta / 2.0),
            1e-12
        ));
        assert!(approx_eq(
            u.get(&[1, 1]),
            Complex64::cis(theta / 2.0),
            1e-12
        ));
        assert_eq!(u.get(&[0, 1]), Complex64::ZERO);
    }

    #[test]
    fn rxx_at_zero_is_identity() {
        let u = Gate::Rxx(0.0).matrix();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!(approx_eq(u.get(&[i, j]), expect, 1e-12));
            }
        }
    }

    #[test]
    fn rxx_at_pi_is_minus_i_xx() {
        // RXX(pi) = -i X(x)X: anti-diagonal of -i.
        let u = Gate::Rxx(std::f64::consts::PI).matrix();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i + j == 3 {
                    c64(0.0, -1.0)
                } else {
                    Complex64::ZERO
                };
                assert!(approx_eq(u.get(&[i, j]), expect, 1e-12), "[{i}][{j}]");
            }
        }
    }

    #[test]
    fn swap_exchanges_basis_states() {
        let u = Gate::Swap.matrix();
        assert_eq!(u.get(&[1, 2]), Complex64::ONE); // |01> <- |10>
        assert_eq!(u.get(&[2, 1]), Complex64::ONE);
        assert_eq!(u.get(&[1, 1]), Complex64::ZERO);
    }

    #[test]
    fn cx_flips_target_when_control_set() {
        let u = Gate::Cx.matrix();
        assert_eq!(u.get(&[2, 3]), Complex64::ONE); // |10> <- |11>
        assert_eq!(u.get(&[3, 2]), Complex64::ONE);
        assert_eq!(u.get(&[0, 0]), Complex64::ONE);
        assert_eq!(u.get(&[1, 1]), Complex64::ONE);
    }

    #[test]
    fn h_squares_to_identity() {
        let h = Gate::H.matrix();
        let prod = qk_tensor::contract(&h, &[1], &h, &[0]);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!(approx_eq(prod.get(&[i, j]), expect, 1e-12));
            }
        }
    }

    #[test]
    fn rotation_composition_adds_angles() {
        // RZ(a) RZ(b) = RZ(a + b) up to nothing (exact).
        let a = 0.4;
        let b = 1.3;
        let ua = Gate::Rz(a).matrix();
        let ub = Gate::Rz(b).matrix();
        let uc = Gate::Rz(a + b).matrix();
        let prod = qk_tensor::contract(&ua, &[1], &ub, &[0]);
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx_eq(prod.get(&[i, j]), uc.get(&[i, j]), 1e-12));
            }
        }
    }

    #[test]
    fn rxx_equals_rzz_conjugated_by_hadamards() {
        // (H(x)H) RZZ(t) (H(x)H) = RXX(t).
        let t = 0.8;
        let h = Gate::H.matrix();
        let hh = {
            // Kron product H (x) H as a 4x4 tensor.
            let mut u = Tensor::zeros(&[4, 4]);
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        for d in 0..2 {
                            u.set(&[a * 2 + b, c * 2 + d], h.get(&[a, c]) * h.get(&[b, d]));
                        }
                    }
                }
            }
            u
        };
        let rzz = Gate::Rzz(t).matrix();
        let tmp = qk_tensor::contract(&hh, &[1], &rzz, &[0]);
        let conj = qk_tensor::contract(&tmp, &[1], &hh, &[0]);
        let rxx = Gate::Rxx(t).matrix();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    approx_eq(conj.get(&[i, j]), rxx.get(&[i, j]), 1e-12),
                    "[{i}][{j}]"
                );
            }
        }
    }
}
