//! Matrix Product Operators: Hamiltonians and channels in chain form.
//!
//! The paper's feature map is a Trotterized evolution under the Ising-type
//! Hamiltonians of eqs. (4) and (5). An MPO represents such an operator in
//! the same chain layout as the state, which gives the library direct
//! access to `<psi(x)| H |psi(x)>` energies (an encoding diagnostic) and to
//! operator application with controlled truncation. Site tensors have
//! shape `(w_l, 2, 2, w_r)` with legs ordered `(bond, out, in, bond)`.

use crate::mps::{decide_rank, Mps, TruncationConfig, TruncationStats};
use qk_tensor::backend::ExecutionBackend;
use qk_tensor::complex::{c64, Complex64};
use qk_tensor::contract::contract;
use qk_tensor::tensor::Tensor;

/// A single-qubit Pauli operator label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// The 2x2 matrix of the operator.
    pub fn matrix(self) -> [Complex64; 4] {
        let (zero, one) = (Complex64::ZERO, Complex64::ONE);
        match self {
            Pauli::I => [one, zero, zero, one],
            Pauli::X => [zero, one, one, zero],
            Pauli::Y => [zero, c64(0.0, -1.0), c64(0.0, 1.0), zero],
            Pauli::Z => [one, zero, zero, -one],
        }
    }
}

/// A weighted Pauli string: `coeff * P_{q_1} P_{q_2} ...` with identities
/// on every unlisted qubit.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliString {
    /// Real coefficient (Hamiltonian terms are Hermitian).
    pub coeff: f64,
    /// `(qubit, operator)` pairs; qubits must be distinct.
    pub ops: Vec<(usize, Pauli)>,
}

impl PauliString {
    /// Convenience constructor.
    pub fn new(coeff: f64, ops: Vec<(usize, Pauli)>) -> Self {
        PauliString { coeff, ops }
    }
}

/// A Matrix Product Operator on `m` qubits.
#[derive(Debug, Clone)]
pub struct Mpo {
    sites: Vec<Tensor>,
}

impl Mpo {
    /// The identity operator (all bonds trivial).
    pub fn identity(num_qubits: usize) -> Self {
        assert!(num_qubits >= 1, "need at least one qubit");
        let mut data = vec![Complex64::ZERO; 4];
        data[0] = Complex64::ONE;
        data[3] = Complex64::ONE;
        let site = Tensor::from_data(&[1, 2, 2, 1], data);
        Mpo {
            sites: vec![site; num_qubits],
        }
    }

    /// A single weighted Pauli string as a bond-dimension-1 MPO. The
    /// coefficient is absorbed into the first site.
    pub fn from_pauli_string(num_qubits: usize, term: &PauliString) -> Self {
        assert!(num_qubits >= 1, "need at least one qubit");
        let mut paulis = vec![Pauli::I; num_qubits];
        for &(q, p) in &term.ops {
            assert!(q < num_qubits, "qubit {q} out of range");
            assert_eq!(paulis[q], Pauli::I, "duplicate qubit {q} in Pauli string");
            paulis[q] = p;
        }
        let sites = paulis
            .iter()
            .enumerate()
            .map(|(q, p)| {
                let mut data = p.matrix().to_vec();
                if q == 0 {
                    for z in &mut data {
                        *z = z.scale(term.coeff);
                    }
                }
                Tensor::from_data(&[1, 2, 2, 1], data)
            })
            .collect();
        Mpo { sites }
    }

    /// The sum of weighted Pauli strings, built by direct-sum addition and
    /// compressed to (near-)minimal bond dimension.
    pub fn from_pauli_sum(num_qubits: usize, terms: &[PauliString]) -> Self {
        assert!(!terms.is_empty(), "need at least one term");
        let mut acc = Mpo::from_pauli_string(num_qubits, &terms[0]);
        for term in &terms[1..] {
            acc = acc.add(&Mpo::from_pauli_string(num_qubits, term));
            // Compress as we go so intermediate bonds stay proportional to
            // the operator's true rank rather than the term count.
            acc.compress(1e-14);
        }
        acc
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.sites.len()
    }

    /// The site tensors, each `(w_l, 2, 2, w_r)`.
    pub fn sites(&self) -> &[Tensor] {
        &self.sites
    }

    /// Operator bond dimensions (`m - 1` interior bonds).
    pub fn bond_dims(&self) -> Vec<usize> {
        self.sites[..self.sites.len() - 1]
            .iter()
            .map(|s| s.shape()[3])
            .collect()
    }

    /// Largest operator bond dimension.
    pub fn max_bond(&self) -> usize {
        self.bond_dims().into_iter().max().unwrap_or(1)
    }

    /// Direct-sum addition `self + other` (bonds add; boundaries stay 1).
    pub fn add(&self, other: &Mpo) -> Mpo {
        let m = self.num_qubits();
        assert_eq!(
            m,
            other.num_qubits(),
            "MPO addition requires equal qubit counts"
        );
        if m == 1 {
            let mut data = self.sites[0].data().to_vec();
            for (z, w) in data.iter_mut().zip(other.sites[0].data()) {
                *z += *w;
            }
            return Mpo {
                sites: vec![Tensor::from_data(&[1, 2, 2, 1], data)],
            };
        }
        let mut sites = Vec::with_capacity(m);
        for q in 0..m {
            let a = &self.sites[q];
            let b = &other.sites[q];
            let (al, ar) = (a.shape()[0], a.shape()[3]);
            let (bl, br) = (b.shape()[0], b.shape()[3]);
            let (nl, nr) = if q == 0 {
                (1, ar + br)
            } else if q == m - 1 {
                (al + bl, 1)
            } else {
                (al + bl, ar + br)
            };
            let mut data = vec![Complex64::ZERO; nl * 4 * nr];
            let mut write = |src: &Tensor, l_off: usize, r_off: usize| {
                let (sl, sr) = (src.shape()[0], src.shape()[3]);
                let sd = src.data();
                for l in 0..sl {
                    for p in 0..4 {
                        for r in 0..sr {
                            data[((l + l_off) * 4 + p) * nr + (r + r_off)] =
                                sd[(l * 4 + p) * sr + r];
                        }
                    }
                }
            };
            if q == 0 {
                write(a, 0, 0);
                write(b, 0, ar);
            } else if q == m - 1 {
                write(a, 0, 0);
                write(b, al, 0);
            } else {
                write(a, 0, 0);
                write(b, al, ar);
            }
            sites.push(Tensor::from_data(&[nl, 2, 2, nr], data));
        }
        Mpo { sites }
    }

    /// Scales the operator by a real factor (absorbed into the first site).
    pub fn scale(&mut self, k: f64) {
        self.sites[0].scale_real_inplace(k);
    }

    /// Compresses operator bonds with a right-to-left SVD sweep, fusing the
    /// two physical legs into one dimension-4 leg. `cutoff` is the relative
    /// discarded-weight budget per bond (operator norms are not tracked —
    /// MPO compression serves representation size, not the eq.-8 budget).
    pub fn compress(&mut self, cutoff: f64) {
        let m = self.sites.len();
        if m == 1 {
            return;
        }
        let config = TruncationConfig {
            cutoff,
            max_bond: None,
        };
        // Left-to-right QR pass to orthogonalize (reusing the SVD as an
        // orthogonalizer keeps the dependency surface small: U columns are
        // orthonormal).
        for q in 0..m - 1 {
            let site = &self.sites[q];
            let (wl, wr) = (site.shape()[0], site.shape()[3]);
            let f = qk_tensor::svd(wl * 4, wr, site.data());
            debug_assert!(f.converged(), "Jacobi did not converge on {}x{}", f.m, f.n);
            let k = f.k;
            self.sites[q] = Tensor::from_data(&[wl, 2, 2, k], f.u.clone());
            // carry = diag(s) Vh, absorbed into the next site.
            let mut carry = vec![Complex64::ZERO; k * wr];
            for r in 0..k {
                for c in 0..wr {
                    carry[r * wr + c] = f.vh[r * wr + c].scale(f.s[r]);
                }
            }
            let next = &self.sites[q + 1];
            let (nl, nr) = (next.shape()[0], next.shape()[3]);
            debug_assert_eq!(nl, wr);
            let mut merged = vec![Complex64::ZERO; k * 4 * nr];
            qk_tensor::matrix::gemm_serial(k, wr, 4 * nr, &carry, next.data(), &mut merged);
            self.sites[q + 1] = Tensor::from_data(&[k, 2, 2, nr], merged);
        }
        // Right-to-left truncating sweep.
        for q in (1..m).rev() {
            let site = &self.sites[q];
            let (wl, wr) = (site.shape()[0], site.shape()[3]);
            let f = qk_tensor::svd(wl, 4 * wr, site.data());
            debug_assert!(f.converged(), "Jacobi did not converge on {}x{}", f.m, f.n);
            let (kept, _, _) = decide_rank(&f.s, &config);
            let mut vh = vec![Complex64::ZERO; kept * 4 * wr];
            vh.copy_from_slice(&f.vh[..kept * 4 * wr]);
            self.sites[q] = Tensor::from_data(&[kept, 2, 2, wr], vh);
            let mut carry = vec![Complex64::ZERO; wl * kept];
            for row in 0..wl {
                for c in 0..kept {
                    carry[row * kept + c] = f.u[row * f.k + c].scale(f.s[c]);
                }
            }
            let prev = &self.sites[q - 1];
            let (pl, pr) = (prev.shape()[0], prev.shape()[3]);
            debug_assert_eq!(pr, wl);
            let mut merged = vec![Complex64::ZERO; pl * 4 * kept];
            qk_tensor::matrix::gemm_serial(pl * 4, wl, kept, prev.data(), &carry, &mut merged);
            self.sites[q - 1] = Tensor::from_data(&[pl, 2, 2, kept], merged);
        }
    }

    /// Expectation value `<psi| O |psi>` via the three-layer zipper
    /// contraction; cost `O(m chi^3 w + m chi^2 w^2)` for state bond `chi`
    /// and operator bond `w`.
    pub fn expectation(&self, state: &Mps) -> Complex64 {
        assert_eq!(
            self.num_qubits(),
            state.num_qubits(),
            "operator and state must agree on qubit count"
        );
        // env[(a, w, b)]: bra bond, operator bond, ket bond.
        let mut env = Tensor::from_data(&[1, 1, 1], vec![Complex64::ONE]);
        for (w_site, a_site) in self.sites.iter().zip(state.sites()) {
            // T1[(a, w, p_in, b_r)] = env[(a, w, b)] ket[(b, p_in, b_r)]
            let t1 = contract(&env, &[2], a_site, &[0]);
            // T2[(a, b_r, p_out, w_r)] = T1[(a, w, p_in, b_r)] W[(w, p_out, p_in, w_r)]
            let t2 = contract(&t1, &[1, 2], w_site, &[0, 2]);
            // env'[(a_r, b_r, w_r)] = conj(bra[(a, p_out, a_r)]) T2[(a, b_r, p_out, w_r)]
            let next = contract(&a_site.conj(), &[0, 1], &t2, &[0, 2]);
            env = next.permute(&[0, 2, 1]);
        }
        env.data()[0]
    }

    /// Real part of the expectation value (exact for Hermitian operators,
    /// which all Pauli-sum MPOs are).
    pub fn expectation_real(&self, state: &Mps) -> f64 {
        self.expectation(state).re
    }

    /// Applies the operator to a state: `|psi'> = O |psi>`, compressing the
    /// blown-up bonds (`chi * w`) back down under `config`. Returns the
    /// new state and the truncation record of the compression sweep.
    ///
    /// The result is *not* normalized: applying a non-unitary operator
    /// (e.g. a Hamiltonian) legitimately changes the norm, and callers
    /// computing Rayleigh quotients need it intact.
    pub fn apply(
        &self,
        backend: &dyn ExecutionBackend,
        state: &Mps,
        config: &TruncationConfig,
    ) -> (Mps, TruncationStats) {
        assert_eq!(
            self.num_qubits(),
            state.num_qubits(),
            "operator and state must agree on qubit count"
        );
        let sites = self
            .sites
            .iter()
            .zip(state.sites())
            .map(|(w, a)| {
                // T[(w_l, p_out, w_r, a_l, a_r)] = W[(w_l, p_out, p_in, w_r)] A[(a_l, p_in, a_r)]
                let t = contract(w, &[2], a, &[1]);
                let (wl, wr) = (w.shape()[0], w.shape()[3]);
                let (al, ar) = (a.shape()[0], a.shape()[2]);
                // Fuse (w_l, a_l) and (w_r, a_r).
                t.permute(&[0, 3, 1, 2, 4]).reshape(&[wl * al, 2, wr * ar])
            })
            .collect();
        let mut out = Mps::from_sites(sites);
        let norm = out.norm();
        let sweep = out.compress(backend, config);
        // from_sites + compress leave the state unit-normalized only if the
        // input was; restore the operator-induced norm explicitly.
        let achieved = out.norm();
        if achieved > 0.0 {
            out.scale(Complex64::from_real(norm / achieved));
        }
        (out, sweep)
    }

    /// Densifies the operator into a row-major `2^m x 2^m` matrix. Only
    /// sensible for small `m`; used for validation.
    pub fn to_dense(&self) -> Tensor {
        let m = self.num_qubits();
        assert!(m <= 12, "refusing to densify an MPO beyond 12 qubits");
        // acc[(out_prefix, in_prefix, w)] with fused prefixes.
        let mut acc = Tensor::from_data(&[1, 1, 1], vec![Complex64::ONE]);
        for site in &self.sites {
            // next[(o, i, p_out, p_in, w_r)] = acc[(o, i, w)] W[(w, p_out, p_in, w_r)]
            let next = contract(&acc, &[2], site, &[0]);
            let (o, i, wr) = (next.shape()[0], next.shape()[1], next.shape()[4]);
            // Fuse p_out into the out prefix and p_in into the in prefix.
            acc = next.permute(&[0, 2, 1, 3, 4]).reshape(&[o * 2, i * 2, wr]);
        }
        let dim = 1usize << m;
        acc.reshape(&[dim, dim])
    }
}

/// The single-qubit encoding Hamiltonian of eq. (4):
/// `H_Z(x) = gamma * sum_i x_i Z_i`.
pub fn hz_mpo(features: &[f64], gamma: f64) -> Mpo {
    let m = features.len();
    let terms: Vec<PauliString> = features
        .iter()
        .enumerate()
        .map(|(q, &x)| PauliString::new(gamma * x, vec![(q, Pauli::Z)]))
        .collect();
    Mpo::from_pauli_sum(m, &terms)
}

/// The two-qubit encoding Hamiltonian of eq. (5):
/// `H_XX(x) = gamma^2 * (pi/2) * sum_{(i,j) in G} (1 - x_i)(1 - x_j) X_i X_j`
/// over the linear chain with interaction distance `d`.
pub fn hxx_mpo(features: &[f64], gamma: f64, distance: usize) -> Mpo {
    let m = features.len();
    let scale = gamma * gamma * std::f64::consts::FRAC_PI_2;
    let terms: Vec<PauliString> = qk_circuit::linear_chain_edges(m, distance)
        .into_iter()
        .map(|(i, j)| {
            let coeff = scale * (1.0 - features[i]) * (1.0 - features[j]);
            PauliString::new(coeff, vec![(i, Pauli::X), (j, Pauli::X)])
        })
        .collect();
    Mpo::from_pauli_sum(m, &terms)
}

/// The full encoding Hamiltonian `H_Z(x) + H_XX(x)` for a feature vector,
/// matching the generators of the paper's feature map (eqs. 3-5).
pub fn encoding_hamiltonian(features: &[f64], gamma: f64, distance: usize) -> Mpo {
    let hz = hz_mpo(features, gamma);
    if distance == 0 || features.len() < 2 {
        return hz;
    }
    let mut h = hz.add(&hxx_mpo(features, gamma, distance));
    h.compress(1e-14);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_circuit::Gate;
    use qk_tensor::backend::CpuBackend;
    use qk_tensor::complex::approx_eq;

    const TOL: f64 = 1e-10;

    fn dense_pauli(m: usize, term: &PauliString) -> Vec<Complex64> {
        // Kronecker product of per-qubit matrices, qubit 0 most significant.
        let mut paulis = vec![Pauli::I; m];
        for &(q, p) in &term.ops {
            paulis[q] = p;
        }
        let mut acc = vec![Complex64::from_real(term.coeff)];
        let mut dim = 1usize;
        for p in paulis {
            let mat = p.matrix();
            let nd = dim * 2;
            let mut next = vec![Complex64::ZERO; nd * nd];
            for r in 0..dim {
                for c in 0..dim {
                    for pr in 0..2 {
                        for pc in 0..2 {
                            next[(r * 2 + pr) * nd + (c * 2 + pc)] =
                                acc[r * dim + c] * mat[pr * 2 + pc];
                        }
                    }
                }
            }
            acc = next;
            dim = nd;
        }
        acc
    }

    #[test]
    fn identity_mpo_fixes_any_state() {
        let op = Mpo::identity(4);
        let mps = Mps::plus_state(4);
        assert!(approx_eq(op.expectation(&mps), Complex64::ONE, TOL));
        assert_eq!(op.max_bond(), 1);
    }

    #[test]
    fn pauli_string_dense_agreement() {
        let m = 3;
        let term = PauliString::new(0.7, vec![(0, Pauli::X), (2, Pauli::Z)]);
        let op = Mpo::from_pauli_string(m, &term);
        let dense = op.to_dense();
        let expect = dense_pauli(m, &term);
        for (a, b) in dense.data().iter().zip(&expect) {
            assert!(approx_eq(*a, *b, TOL));
        }
    }

    #[test]
    fn pauli_sum_dense_agreement() {
        let m = 4;
        let terms = vec![
            PauliString::new(0.5, vec![(0, Pauli::Z)]),
            PauliString::new(-0.3, vec![(1, Pauli::X), (2, Pauli::X)]),
            PauliString::new(1.1, vec![(3, Pauli::Y)]),
            PauliString::new(0.2, vec![(0, Pauli::Z), (3, Pauli::Z)]),
        ];
        let op = Mpo::from_pauli_sum(m, &terms);
        let dense = op.to_dense();
        let dim = 1 << m;
        let mut expect = vec![Complex64::ZERO; dim * dim];
        for t in &terms {
            for (e, v) in expect.iter_mut().zip(dense_pauli(m, t)) {
                *e += v;
            }
        }
        for (a, b) in dense.data().iter().zip(&expect) {
            assert!(approx_eq(*a, *b, 1e-9));
        }
    }

    #[test]
    fn z_expectations_on_basis_states() {
        let m = 3;
        let op = Mpo::from_pauli_string(m, &PauliString::new(1.0, vec![(1, Pauli::Z)]));
        let up = Mps::basis_state(&[0, 0, 0]);
        let down = Mps::basis_state(&[0, 1, 0]);
        assert!((op.expectation_real(&up) - 1.0).abs() < TOL);
        assert!((op.expectation_real(&down) + 1.0).abs() < TOL);
    }

    #[test]
    fn expectation_matches_observe_module() {
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::plus_state(4);
        mps.apply_gate2(&be, &Gate::Rxx(0.9).matrix(), 1, &cfg);
        mps.apply_gate1(&Gate::Rz(0.5).matrix(), 2);
        for q in 0..4 {
            let op = Mpo::from_pauli_string(4, &PauliString::new(1.0, vec![(q, Pauli::Z)]));
            let via_mpo = op.expectation_real(&mps);
            let via_rho = mps.expectation_1q(&crate::observe::pauli_z(), q);
            assert!((via_mpo - via_rho).abs() < TOL, "qubit {q}");
        }
    }

    #[test]
    fn hz_mpo_energy_is_weighted_magnetization() {
        // On |0...0>, <Z_i> = 1, so <H_Z> = gamma * sum x_i.
        let x = [0.4, 1.2, 0.7, 1.9];
        let gamma = 0.8;
        let h = hz_mpo(&x, gamma);
        let zero = Mps::basis_state(&[0; 4]);
        let expect: f64 = gamma * x.iter().sum::<f64>();
        assert!((h.expectation_real(&zero) - expect).abs() < 1e-9);
        // H_Z is a sum of single-site terms: bond dimension 2 suffices.
        assert!(h.max_bond() <= 2, "bond {}", h.max_bond());
    }

    #[test]
    fn hxx_mpo_energy_on_plus_state() {
        // |+>^m is an eigenstate of every X_i X_j with eigenvalue +1, so
        // <H_XX> equals the sum of the coefficients.
        let x = [0.3, 0.6, 1.4, 0.2, 1.8];
        let gamma = 0.9;
        let d = 2;
        let h = hxx_mpo(&x, gamma, d);
        let plus = Mps::plus_state(5);
        let expect: f64 = qk_circuit::linear_chain_edges(5, d)
            .into_iter()
            .map(|(i, j)| gamma * gamma * std::f64::consts::FRAC_PI_2 * (1.0 - x[i]) * (1.0 - x[j]))
            .sum();
        assert!((h.expectation_real(&plus) - expect).abs() < 1e-9);
    }

    #[test]
    fn hxx_bond_grows_gently_with_distance() {
        let x = [0.5; 8];
        for d in 1..=4usize {
            let h = hxx_mpo(&x, 1.0, d);
            // The finite-state construction needs d + 2 states; the
            // SVD-compressed sum must not exceed that.
            assert!(
                h.max_bond() <= d + 2,
                "d = {d}: bond {} exceeds {}",
                h.max_bond(),
                d + 2
            );
        }
    }

    #[test]
    fn mpo_add_is_dense_sum() {
        let a = Mpo::from_pauli_string(3, &PauliString::new(0.4, vec![(0, Pauli::X)]));
        let b = Mpo::from_pauli_string(3, &PauliString::new(-0.9, vec![(2, Pauli::Z)]));
        let sum = a.add(&b);
        let da = a.to_dense();
        let db = b.to_dense();
        let ds = sum.to_dense();
        for i in 0..ds.len() {
            assert!(approx_eq(ds.data()[i], da.data()[i] + db.data()[i], TOL));
        }
    }

    #[test]
    fn compress_preserves_dense_form() {
        let terms = [
            PauliString::new(0.5, vec![(0, Pauli::Z)]),
            PauliString::new(0.5, vec![(1, Pauli::Z)]),
            PauliString::new(0.25, vec![(0, Pauli::X), (1, Pauli::X)]),
        ];
        // Build without intermediate compression to get a padded MPO.
        let mut op = Mpo::from_pauli_string(2, &terms[0]);
        for t in &terms[1..] {
            op = op.add(&Mpo::from_pauli_string(2, t));
        }
        let before = op.to_dense();
        let bond_before = op.max_bond();
        op.compress(1e-14);
        assert!(op.max_bond() <= bond_before);
        let after = op.to_dense();
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!(approx_eq(*a, *b, 1e-9));
        }
    }

    #[test]
    fn apply_matches_dense_matvec() {
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        let x = [0.7, 1.1, 0.4];
        let h = encoding_hamiltonian(&x, 0.8, 1);
        let mut psi = Mps::plus_state(3);
        psi.apply_gate2(&be, &Gate::Rxx(0.6).matrix(), 0, &cfg);
        let (hpsi, _) = h.apply(&be, &psi, &cfg);

        let dense = h.to_dense();
        let sv = psi.to_statevector();
        let mut expect = vec![Complex64::ZERO; 8];
        qk_tensor::matrix::matvec(8, 8, dense.data(), &sv, &mut expect);
        let got = hpsi.to_statevector();
        for i in 0..8 {
            assert!(approx_eq(got[i], expect[i], 1e-9), "index {i}");
        }
    }

    #[test]
    fn rayleigh_quotient_consistency() {
        // <psi|H|psi> computed two ways: zipper expectation vs apply+inner.
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        let x = [0.2, 1.5, 0.9, 0.6];
        let h = encoding_hamiltonian(&x, 1.0, 2);
        let mut psi = Mps::plus_state(4);
        psi.apply_gate2(&be, &Gate::Rxx(1.0).matrix(), 1, &cfg);
        let direct = h.expectation_real(&psi);
        let (hpsi, _) = h.apply(&be, &psi, &cfg);
        let via_apply = psi.inner(&hpsi).re;
        assert!((direct - via_apply).abs() < 1e-9, "{direct} vs {via_apply}");
    }

    #[test]
    fn encoding_energy_is_conserved_by_its_own_evolution() {
        // U(x) = (e^{-i H_XX} e^{-i H_Z})^r does not commute with H term
        // by term, but the *plus* state's H_XX energy must be invariant
        // under e^{-i H_XX} alone. Sanity-check the weaker, exact claim:
        // expectation of H in the evolved state equals the statevector
        // value.
        use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
        let x = [0.4, 1.6, 0.8];
        let gamma = 0.7;
        let be = CpuBackend::new();
        let circuit = feature_map_circuit(&x, &AnsatzConfig::new(1, 1, gamma));
        let (psi, _) = crate::sim::MpsSimulator::new(&be).simulate(&circuit);
        let h = encoding_hamiltonian(&x, gamma, 1);
        let dense = h.to_dense();
        let sv = psi.to_statevector();
        let mut hv = vec![Complex64::ZERO; 8];
        qk_tensor::matrix::matvec(8, 8, dense.data(), &sv, &mut hv);
        let expect: Complex64 = sv
            .iter()
            .zip(&hv)
            .map(|(a, b)| a.conj() * *b)
            .fold(Complex64::ZERO, |acc, z| acc + z);
        let got = h.expectation_real(&psi);
        assert!((got - expect.re).abs() < 1e-9, "{got} vs {}", expect.re);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn pauli_string_rejects_duplicates() {
        let term = PauliString::new(1.0, vec![(0, Pauli::X), (0, Pauli::Z)]);
        let _ = Mpo::from_pauli_string(2, &term);
    }
}
