//! Local observables on MPS states.
//!
//! Implements single-site expectation values and reduced density matrices
//! via the standard environment contraction: moving the orthogonality
//! centre to the qubit reduces either to a sum over one site tensor.

use crate::mps::Mps;
use qk_tensor::complex::Complex64;
use qk_tensor::tensor::Tensor;

/// The three Pauli matrices as 2x2 tensors.
pub fn pauli_x() -> Tensor {
    Tensor::from_data(
        &[2, 2],
        vec![
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        ],
    )
}

/// Pauli Y.
pub fn pauli_y() -> Tensor {
    Tensor::from_data(
        &[2, 2],
        vec![
            Complex64::ZERO,
            Complex64::new(0.0, -1.0),
            Complex64::new(0.0, 1.0),
            Complex64::ZERO,
        ],
    )
}

/// Pauli Z.
pub fn pauli_z() -> Tensor {
    Tensor::from_data(
        &[2, 2],
        vec![
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::new(-1.0, 0.0),
        ],
    )
}

impl Mps {
    /// Reduced density matrix of qubit `q` as a row-major 2x2 buffer
    /// `rho[p_out][p_in]`.
    ///
    /// Moves the orthogonality center to `q` (gauge-only operation), after
    /// which `rho = sum_{l,r} A[l, p_out, r] conj(A[l, p_in, r])` over the
    /// center tensor alone.
    pub fn reduced_density_matrix(&mut self, q: usize) -> [Complex64; 4] {
        assert!(q < self.num_qubits(), "qubit {q} out of range");
        self.canonicalize_to(q);
        let site = &self.sites()[q];
        let (chi_l, chi_r) = (site.shape()[0], site.shape()[2]);
        let data = site.data();
        let mut rho = [Complex64::ZERO; 4];
        for l in 0..chi_l {
            for r in 0..chi_r {
                let a0 = data[(l * 2) * chi_r + r];
                let a1 = data[(l * 2 + 1) * chi_r + r];
                rho[0] = rho[0].conj_mul_add(a0, a0); // rho[0][0] += a0 conj(a0)
                rho[1] = rho[1].conj_mul_add(a1, a0); // rho[0][1] += a0 conj(a1)
                rho[2] = rho[2].conj_mul_add(a0, a1); // rho[1][0] += a1 conj(a0)
                rho[3] = rho[3].conj_mul_add(a1, a1);
            }
        }
        rho
    }

    /// Expectation value `<psi| O_q |psi>` of a single-qubit observable on
    /// qubit `q`. Hermitian `O` yields a real value; the real part is
    /// returned.
    pub fn expectation_1q(&mut self, observable: &Tensor, q: usize) -> f64 {
        assert_eq!(observable.shape(), &[2, 2], "observable must be 2x2");
        let rho = self.reduced_density_matrix(q);
        // tr(rho O) with rho[p_out][p_in]: sum_{a,b} rho[a][b] O[b][a].
        let o = observable.data();
        let tr = rho[0] * o[0] + rho[1] * o[2] + rho[2] * o[1] + rho[3] * o[3];
        tr.re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mps::TruncationConfig;
    use qk_circuit::Gate;
    use qk_tensor::backend::CpuBackend;

    const TOL: f64 = 1e-10;

    #[test]
    fn zero_state_expectations() {
        let mut mps = Mps::basis_state(&[0, 0, 0]);
        for q in 0..3 {
            assert!((mps.expectation_1q(&pauli_z(), q) - 1.0).abs() < TOL);
            assert!(mps.expectation_1q(&pauli_x(), q).abs() < TOL);
            assert!(mps.expectation_1q(&pauli_y(), q).abs() < TOL);
        }
    }

    #[test]
    fn one_state_flips_z() {
        let mut mps = Mps::basis_state(&[1, 0]);
        assert!((mps.expectation_1q(&pauli_z(), 0) + 1.0).abs() < TOL);
        assert!((mps.expectation_1q(&pauli_z(), 1) - 1.0).abs() < TOL);
    }

    #[test]
    fn plus_state_aligns_with_x() {
        let mut mps = Mps::plus_state(4);
        for q in 0..4 {
            assert!((mps.expectation_1q(&pauli_x(), q) - 1.0).abs() < TOL);
            assert!(mps.expectation_1q(&pauli_z(), q).abs() < TOL);
        }
    }

    #[test]
    fn density_matrix_is_hermitian_unit_trace() {
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::basis_state(&[0, 0, 0]);
        let g = Gate::Rxx(0.9).matrix();
        mps.apply_gate1(&Gate::H.matrix(), 0);
        mps.apply_gate2(&be, &g, 0, &cfg);
        mps.apply_gate2(&be, &g, 1, &cfg);
        for q in 0..3 {
            let rho = mps.reduced_density_matrix(q);
            // Trace 1.
            assert!(((rho[0] + rho[3]).re - 1.0).abs() < TOL);
            assert!((rho[0] + rho[3]).im.abs() < TOL);
            // Hermitian: rho[0][1] = conj(rho[1][0]).
            assert!((rho[1] - rho[2].conj()).norm() < TOL);
            // Diagonal entries are probabilities.
            assert!(rho[0].re >= -TOL && rho[0].re <= 1.0 + TOL);
        }
    }

    #[test]
    fn bell_state_is_maximally_mixed_locally() {
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::basis_state(&[0, 0]);
        mps.apply_gate1(&Gate::H.matrix(), 0);
        mps.apply_gate2(&be, &Gate::Cx.matrix(), 0, &cfg);
        for q in 0..2 {
            let rho = mps.reduced_density_matrix(q);
            assert!((rho[0].re - 0.5).abs() < TOL, "rho00 {:?}", rho[0]);
            assert!((rho[3].re - 0.5).abs() < TOL);
            assert!(rho[1].norm() < TOL);
            // All local Pauli expectations vanish on a Bell pair.
            for o in [pauli_x(), pauli_y(), pauli_z()] {
                assert!(mps.expectation_1q(&o, q).abs() < TOL);
            }
        }
    }

    #[test]
    fn expectations_match_statevector() {
        use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
        use qk_statevector::StateVector;
        let features = [0.4, 1.3, 0.9];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 2, 0.8));
        let be = CpuBackend::new();
        let (mut mps, _) = crate::sim::MpsSimulator::new(&be).simulate(&c);
        let sv = StateVector::simulate(&qk_circuit::route_for_mps(&c));
        // <Z_q> from the dense vector.
        for q in 0..3 {
            let mut expect = 0.0;
            for (idx, amp) in sv.amplitudes().iter().enumerate() {
                let bit = (idx >> (3 - 1 - q)) & 1;
                let sign = if bit == 0 { 1.0 } else { -1.0 };
                expect += sign * amp.norm_sqr();
            }
            let got = mps.expectation_1q(&pauli_z(), q);
            assert!((got - expect).abs() < 1e-9, "qubit {q}: {got} vs {expect}");
        }
    }
}
