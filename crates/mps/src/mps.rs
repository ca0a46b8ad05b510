//! The Matrix Product State representation and its update rules.
//!
//! An [`Mps`] on `m` qubits is a chain of rank-3 site tensors with shape
//! `(chi_left, 2, chi_right)`; boundary bonds have dimension 1. The state
//! is kept in *mixed canonical form* around an orthogonality center: sites
//! left of the center are left-orthogonal, sites right of it are
//! right-orthogonal. Canonicalization (QR/LQ sweeps) before each SVD
//! truncation makes the truncation optimal, which is what justifies the
//! paper's eq. (8) error accounting.
//!
//! **Storage.** A state is one amplitude buffer plus its `m + 1` bond
//! dimensions. Site `q` is the row-major `(bonds[q], 2, bonds[q + 1])`
//! block that starts after every site before it, so offsets are derived,
//! never stored, and [`Mps::site`] is a view. A simulated state's buffer
//! is exact-size: it costs its amplitude bytes ([`Mps::memory_bytes`])
//! plus `8 (m + 1)` bytes of bonds, in two heap blocks. Writes never move
//! the rest of the chain per site: a block of RXX splits fills one fresh
//! buffer, a QR, LQ or compression sweep rewrites the chain in place and
//! closes the gap it leaves once, and a two-site gate update rewrites its
//! sites in place unless the bond it truncates changes their size.

use crate::zipper::{self, ZipperWorkspace};
use qk_tensor::backend::{CpuBackend, ExecutionBackend};
use qk_tensor::complex::Complex64;
use qk_tensor::contract::contract_with;
use qk_tensor::matrix::{conj_transpose, gemm_conj_a, gemm_serial};
use qk_tensor::qr::{lq, qr};
use qk_tensor::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-thread workspace backing [`Mps::inner_with`]: every caller
    /// that does not thread an explicit [`ZipperWorkspace`] still gets
    /// the allocation-free kernel, with buffers reused across calls on
    /// the same thread.
    static INNER_WS: RefCell<ZipperWorkspace> = RefCell::new(ZipperWorkspace::new());
}

/// Truncation policy applied at every SVD: after each two-qubit gate on
/// the per-gate path, at each compression sweep on the exact d = 1 path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruncationConfig {
    /// Discard the smallest singular values whose cumulative squared sum
    /// stays at or below this fraction of the total weight. The paper uses
    /// `1e-16`, i.e. 64-bit machine precision: "virtually noiseless".
    pub cutoff: f64,
    /// Optional hard cap on the bond dimension (`None` = unbounded).
    pub max_bond: Option<usize>,
}

impl Default for TruncationConfig {
    fn default() -> Self {
        TruncationConfig {
            cutoff: 1e-16,
            max_bond: None,
        }
    }
}

impl TruncationConfig {
    /// The paper's configuration: cutoff `1e-16`, no bond cap.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A lossier configuration for ablation studies.
    pub fn with_cutoff(cutoff: f64) -> Self {
        TruncationConfig {
            cutoff,
            max_bond: None,
        }
    }

    /// Cutoff plus a hard bond cap.
    pub fn capped(cutoff: f64, max_bond: usize) -> Self {
        TruncationConfig {
            cutoff,
            max_bond: Some(max_bond),
        }
    }
}

/// Cumulative record of truncation activity (the eq. 8 error budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TruncationStats {
    /// Number of SVD truncations performed.
    pub truncations: usize,
    /// Total discarded squared singular-value weight, summed over
    /// truncations. The fidelity against the ideal state is bounded below
    /// by `prod(1 - w_i) >= 1 - total_discarded_weight`.
    pub total_discarded_weight: f64,
    /// Largest single-truncation discarded weight.
    pub max_discarded_weight: f64,
    /// Number of singular values discarded in total.
    pub values_discarded: usize,
}

impl TruncationStats {
    /// Lower bound on the squared overlap with the untruncated state.
    pub fn fidelity_lower_bound(&self) -> f64 {
        (1.0 - self.total_discarded_weight).max(0.0)
    }

    /// Records one truncation of the singular values `s` under `config`.
    /// Returns `(kept, renorm)`: scaled by `renorm`, the kept values carry
    /// the whole weight, so the state stays unit norm (eq. 8 then measures
    /// fidelity against the ideal state).
    pub(crate) fn record(&mut self, s: &[f64], config: &TruncationConfig) -> (usize, f64) {
        let (kept, discarded, count) = decide_rank(s, config);
        self.truncations += 1;
        self.total_discarded_weight += discarded;
        self.max_discarded_weight = self.max_discarded_weight.max(discarded);
        self.values_discarded += count;
        let total_weight: f64 = s.iter().map(|x| x * x).sum();
        let kept_weight = total_weight - discarded;
        let renorm = if kept_weight > 0.0 {
            (total_weight / kept_weight).sqrt()
        } else {
            1.0
        };
        (kept, renorm)
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &TruncationStats) {
        self.truncations += other.truncations;
        self.total_discarded_weight += other.total_discarded_weight;
        self.max_discarded_weight = self.max_discarded_weight.max(other.max_discarded_weight);
        self.values_discarded += other.values_discarded;
    }
}

/// A quantum state in Matrix Product State form.
#[derive(Clone)]
pub struct Mps {
    /// Every site's amplitudes, site after site; site `q` is row-major
    /// `(bonds[q], 2, bonds[q + 1])`, so `data.len() == chain_len(&bonds)`.
    data: Vec<Complex64>,
    /// Bond dimensions, `m + 1` of them: `bonds[0] = bonds[m] = 1`.
    bonds: Vec<usize>,
    /// Orthogonality center index.
    pub(crate) center: usize,
    /// Accumulated truncation record.
    pub(crate) stats: TruncationStats,
}

impl Mps {
    /// Product state `|+>^m`: every site is `(1, 2, 1)` with amplitude
    /// `1/sqrt(2)` for both physical values. This is the ansatz input.
    pub fn plus_state(num_qubits: usize) -> Self {
        assert!(num_qubits >= 1, "need at least one qubit");
        let mut mps = Self::basis_state(&vec![0; num_qubits]);
        mps.data
            .fill(Complex64::from_real(std::f64::consts::FRAC_1_SQRT_2));
        mps
    }

    /// Computational basis state `|b_0 b_1 ... b_{m-1}>`.
    pub fn basis_state(bits: &[u8]) -> Self {
        assert!(!bits.is_empty(), "need at least one qubit");
        let mut data = vec![Complex64::ZERO; 2 * bits.len()];
        for (q, &b) in bits.iter().enumerate() {
            assert!(b <= 1, "bits must be 0 or 1");
            data[2 * q + b as usize] = Complex64::ONE;
        }
        Self::from_parts(data, vec![1; bits.len() + 1])
    }

    /// A state from its amplitudes and bonds, centered at site 0.
    fn from_parts(data: Vec<Complex64>, bonds: Vec<usize>) -> Self {
        Mps {
            data,
            bonds,
            center: 0,
            stats: TruncationStats::default(),
        }
    }

    /// Builds an MPS from explicit site tensors, packed into one buffer,
    /// and establishes canonical form with a full QR sweep (center ends
    /// at site 0).
    ///
    /// Each tensor must have shape `(chi_l, 2, chi_r)` with matching
    /// interior bonds and trivial boundary bonds. The input need not be
    /// normalized or canonical; use [`Mps::normalize`] afterwards if a
    /// unit-norm state is required.
    pub fn from_sites(sites: Vec<Tensor>) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        let mut bonds = vec![1];
        for (q, site) in sites.iter().enumerate() {
            assert_eq!(site.rank(), 3, "site {q} must be rank 3");
            assert_eq!(site.shape()[1], 2, "site {q} physical dimension must be 2");
            assert_eq!(site.shape()[0], bonds[q], "bond mismatch left of site {q}");
            bonds.push(site.shape()[2]);
        }
        assert_eq!(bonds[sites.len()], 1, "right boundary bond must be 1");
        let data = sites.iter().map(Tensor::data).collect::<Vec<_>>().concat();
        let mut mps = Self::from_parts(data, bonds);
        // Left-to-right QR sweep: left-orthogonalizes every site, so the
        // mixed-canonical invariant holds with the center at the last site.
        mps.canonicalize_to(sites.len() - 1);
        mps.canonicalize_to(0);
        mps.shrink_to_fit();
        mps
    }

    /// Number of qubits (sites).
    pub fn num_qubits(&self) -> usize {
        self.bonds.len() - 1
    }

    /// Site `q`'s amplitudes: a view into the state's one buffer, row-major
    /// `(chi_l, 2, chi_r)` with `chi_l`, `chi_r` the bonds either side of
    /// it ([`Mps::bond_dims`], and 1 at the chain's ends).
    pub fn site(&self, q: usize) -> &[Complex64] {
        &self.data[self.site_range(q)]
    }

    /// Where site `q` sits in the buffer: after every site before it.
    fn site_range(&self, q: usize) -> std::ops::Range<usize> {
        let start = chain_len(&self.bonds[..=q]);
        start..start + self.bonds[q] * 2 * self.bonds[q + 1]
    }

    /// Drops the buffer's spare capacity, which splices and sweeps leave.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Current orthogonality center.
    pub fn center(&self) -> usize {
        self.center
    }

    /// Truncation record accumulated over this state's history.
    pub fn stats(&self) -> &TruncationStats {
        &self.stats
    }

    /// Virtual bond dimensions: `m - 1` interior bonds.
    pub fn bond_dims(&self) -> Vec<usize> {
        self.bonds[1..self.num_qubits()].to_vec()
    }

    /// Largest virtual bond dimension (chi), 1 for product states.
    /// Allocation-free (unlike [`Mps::bond_dims`]): the inner-product
    /// hot path reads it per call.
    pub fn max_bond(&self) -> usize {
        self.bonds.iter().copied().max().unwrap_or(1)
    }

    /// The state's amplitude bytes (Table I's "memory per MPS" column),
    /// which `mps.mean_state_bytes` averages. A simulated state holds
    /// exactly these in one buffer, plus its `m + 1` bond dimensions.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Complex64>()
    }

    /// Norm of the state; 1 after unitary evolution with renormalized
    /// truncation.
    pub fn norm(&self) -> f64 {
        // Mixed canonical form concentrates the norm at the center tensor.
        let center = self.site(self.center);
        center.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales the state to unit norm.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let k = 1.0 / n;
            let range = self.site_range(self.center);
            for z in &mut self.data[range] {
                *z *= k;
            }
        }
    }

    /// Moves the orthogonality center to `target` with QR/LQ sweeps.
    pub fn canonicalize_to(&mut self, target: usize) {
        assert!(target < self.num_qubits(), "target site out of range");
        if target > self.center {
            // (chi_l * 2, chi_r) -> QR; R is absorbed into the next site.
            self.sweep(target, |site, chi_l, chi_r| {
                let f = qr(chi_l * 2, chi_r, site);
                (f.k, [f.q, f.r])
            });
        } else if target < self.center {
            // (chi_l, 2 * chi_r) -> LQ; L is absorbed into the previous site.
            self.sweep(target, |site, chi_l, chi_r| {
                let f = lq(chi_l, 2 * chi_r, site);
                (f.k, [f.q, f.l])
            });
        }
    }

    /// Moves the center to `target` one site at a time. `factor(site,
    /// chi_l, chi_r)` splits the center site: moving right it returns
    /// `(k, [Q, R])` with `Q` the `(chi_l, 2, k)` site left behind and `R`
    /// the `k x chi_r` factor the next site absorbs (`R · next`); moving
    /// left, `Q` is `(k, 2, chi_r)` and the previous site absorbs the
    /// `chi_l x k` factor (`prev · L`).
    ///
    /// The chain is rewritten in place. No site grows (`k` never exceeds
    /// the bond it replaces), so each finished site lands behind the read
    /// cursor, and the gap they leave is closed by one move at the end.
    pub(crate) fn sweep(
        &mut self,
        target: usize,
        mut factor: impl FnMut(&[Complex64], usize, usize) -> (usize, [Vec<Complex64>; 2]),
    ) {
        let here = self.site_range(self.center);
        let mut carry = self.data[here.clone()].to_vec();
        let right = target > self.center;
        // Moving right, `write` is where the next finished site starts and
        // `read` where the next unread one does; moving left, both are ends.
        let (mut write, mut read) = if right {
            (here.start, here.end)
        } else {
            (here.end, here.start)
        };
        while self.center != target {
            let q = self.center;
            let (chi_l, chi_r) = (self.bonds[q], self.bonds[q + 1]);
            let (k, [site, f]) = factor(&carry, chi_l, chi_r);
            debug_assert!(k <= if right { chi_r } else { chi_l });
            carry.clear();
            if right {
                self.data[write..][..site.len()].copy_from_slice(&site);
                write += site.len();
                let n_r = self.bonds[q + 2];
                let next = &self.data[read..][..chi_r * 2 * n_r];
                read += next.len();
                carry.resize(k * 2 * n_r, Complex64::ZERO);
                gemm_serial(k, chi_r, 2 * n_r, &f, next, &mut carry);
            } else {
                write -= site.len();
                self.data[write..][..site.len()].copy_from_slice(&site);
                let p_l = self.bonds[q - 1];
                read -= p_l * 2 * chi_l;
                let prev = &self.data[read..][..p_l * 2 * chi_l];
                carry.resize(p_l * 2 * k, Complex64::ZERO);
                gemm_serial(p_l * 2, chi_l, k, prev, &f, &mut carry);
            }
            // The new bond joins `q` and the site the center moves to.
            self.center = if right { q + 1 } else { q - 1 };
            self.bonds[q.max(self.center)] = k;
        }
        if !right {
            write -= carry.len();
        }
        self.data[write..][..carry.len()].copy_from_slice(&carry);
        self.data.drain(if right {
            write + carry.len()..read
        } else {
            read..write
        });
    }

    /// Applies a single-qubit gate to site `q` (Fig. 1a of the paper), in
    /// place.
    ///
    /// Cost O(chi^2); canonical structure is preserved because the gate is
    /// unitary on the physical leg.
    pub fn apply_gate1(&mut self, gate: &Tensor, q: usize) {
        assert!(q < self.num_qubits(), "site {q} out of range");
        assert_eq!(gate.shape(), &[2, 2], "single-qubit gate must be 2x2");
        let g = gate.data();
        let (range, chi_r) = (self.site_range(q), self.bonds[q + 1]);
        // Each row `l` holds the p = 0 half, then the p = 1 half.
        for row in self.data[range].chunks_exact_mut(2 * chi_r) {
            let (s0, s1) = row.split_at_mut(chi_r);
            for (a0, a1) in s0.iter_mut().zip(s1) {
                let (x0, x1) = (*a0, *a1);
                *a0 = g[0] * x0 + g[1] * x1;
                *a1 = g[2] * x0 + g[3] * x1;
            }
        }
    }

    /// Applies a two-qubit gate to adjacent sites `(q, q+1)` with SVD
    /// truncation (Fig. 1b): contract the theta tensor, apply the gate,
    /// SVD, truncate, absorb singular values rightward.
    ///
    /// The orthogonality center is moved to `q` first so that the
    /// truncation is optimal. After the call the center is at `q + 1`.
    pub fn apply_gate2(
        &mut self,
        backend: &dyn ExecutionBackend,
        gate: &Tensor,
        q: usize,
        config: &TruncationConfig,
    ) {
        assert!(q + 1 < self.num_qubits(), "gate site {q} out of range");
        assert_eq!(gate.shape(), &[4, 4], "two-qubit gate must be 4x4");
        self.canonicalize_to(q);
        let (chi_l, chi, chi_r) = (self.bonds[q], self.bonds[q + 1], self.bonds[q + 2]);

        // theta[(chi_l, p1), (p2, chi_r)] = sum_a left[chi_l, p1, a] right[a, p2, chi_r]:
        // the two sites sit side by side in the buffer, one GEMM apart.
        let (left, right) = self.data[self.site_range(q).start..].split_at(chi_l * 2 * chi);
        let mut theta = vec![Complex64::ZERO; chi_l * 4 * chi_r];
        let right = &right[..chi * 2 * chi_r];
        backend.gemm(chi_l * 2, chi, 2 * chi_r, left, right, &mut theta);
        // Contract the gate's input pair (p1 p2) with theta's:
        // result[(out1 out2), chi_l, chi_r] -> permute to (chi_l, out1 out2, chi_r),
        // which is the (chi_l * 2, 2 * chi_r) matrix the SVD splits.
        let theta = Tensor::from_data(&[chi_l, 4, chi_r], theta);
        let applied = contract_with(backend, gate, &[1], &theta, &[1]).permute(&[1, 0, 2]);
        let f = backend.svd(chi_l * 2, 2 * chi_r, applied.data());
        debug_assert!(f.converged(), "Jacobi did not converge on {}x{}", f.m, f.n);
        let (kept, renorm) = self.stats.record(&f.s, config);

        // New left site: U (chi_l * 2, kept) -> (chi_l, 2, kept); each
        // output row is the kept prefix of the corresponding U row.
        let mut u = vec![Complex64::ZERO; chi_l * 2 * kept];
        for (dst, src) in u.chunks_exact_mut(kept).zip(f.u.chunks_exact(f.k)) {
            dst.copy_from_slice(&src[..kept]);
        }

        // New right site: diag(s) * Vh (kept, 2 * chi_r) -> (kept, 2, chi_r);
        // row r of Vh scaled by the renormalized singular value (the zip
        // stops after the `kept` output rows).
        let mut sv = vec![Complex64::ZERO; kept * 2 * chi_r];
        for ((dst, src), &s) in sv
            .chunks_exact_mut(2 * chi_r)
            .zip(f.vh.chunks_exact(2 * chi_r))
            .zip(&f.s)
        {
            let w = s * renorm;
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v * w;
            }
        }
        // A splice of equal length rewrites the two sites in place; only a
        // changed bond moves the sites behind them, once.
        let pair = self.site_range(q).start..self.site_range(q + 1).end;
        self.data.splice(pair, u.into_iter().chain(sv));
        self.bonds[q + 1] = kept;
        self.center = q + 1;
    }

    /// Applies `RXX(theta)` exactly for each `(q, theta)`, on sites
    /// `(q, q+1)` in order, with no SVD and no canonicalization.
    ///
    /// `RXX(theta) = c I⊗I - i s X⊗X` (`c = cos(theta/2)`,
    /// `s = sin(theta/2)`) has operator-Schmidt rank 2, so the gate is a
    /// sum of two products and fits on a doubled bond: the left site
    /// becomes `[A | X·A]` and the right site `[c·B ; -i s·X·B]`.
    ///
    /// Splits on distinct bonds commute bit for bit (each amplitude is a
    /// copy times at most one weight), so a run of them is written in one
    /// pass into one fresh, exact-size buffer; a repeated bond starts the
    /// next pass.
    ///
    /// The splits break the canonical form and leave the recorded center
    /// stale. The caller must follow them with [`Mps::recompress`] before
    /// anything reads the state.
    pub(crate) fn apply_rxx_splits(&mut self, splits: &[(usize, f64)]) {
        let m = self.num_qubits();
        let mut next = 0;
        while next < splits.len() {
            // Weights `(c, -i s)` of the split on each site's right bond.
            let mut weights = vec![None; m];
            while let Some(&(q, theta)) = splits.get(next) {
                assert!(q + 1 < m, "gate site {q} out of range");
                if weights[q].is_some() {
                    break;
                }
                let (s, c) = (theta / 2.0).sin_cos();
                weights[q] = Some((Complex64::from_real(c), Complex64::new(0.0, -s)));
                next += 1;
            }
            let bonds: Vec<usize> = (0..=m)
                .map(|b| self.bonds[b] * (1 + usize::from(b > 0 && weights[b - 1].is_some())))
                .collect();
            let mut out = Vec::with_capacity(chain_len(&bonds));
            let mut rest = &self.data[..];
            for q in 0..m {
                let (chi_l, chi_r) = (self.bonds[q], self.bonds[q + 1]);
                let (a, tail) = rest.split_at(chi_l * 2 * chi_r);
                rest = tail;
                // A split on the right bond appends X·A's columns to each
                // row; one on the left bond stacks -i s·X·B under c·B.
                let halves = 1 + usize::from(weights[q].is_some());
                let left = q.checked_sub(1).and_then(|b| weights[b]);
                for k in 0..bonds[q] {
                    let (l, flip, w) = match left {
                        Some((c, _)) if k < chi_l => (k, 0, Some(c)),
                        Some((_, s)) => (k - chi_l, 1, Some(s)),
                        None => (k, 0, None),
                    };
                    for p in 0..2 {
                        for half in 0..halves {
                            let row = &a[(l * 2 + (p ^ flip ^ half)) * chi_r..][..chi_r];
                            out.extend(row.iter().map(|&z| w.map_or(z, |w| z * w)));
                        }
                    }
                }
            }
            self.data = out;
            self.bonds = bonds;
        }
    }

    /// Whether every site left of the center is left-orthogonal and every
    /// site right of it right-orthogonal, to `tol` per entry of the
    /// isometry's Gram matrix. Costs `O(m chi^3)`: for debug assertions.
    pub(crate) fn is_canonical(&self, tol: f64) -> bool {
        (0..self.num_qubits()).all(|q| {
            let (chi_l, chi_r, site) = (self.bonds[q], self.bonds[q + 1], self.site(q));
            // A left site is an isometry as a (2 chi_l, chi_r) matrix, a
            // right site's conjugate transpose as a (2 chi_r, chi_l) one.
            let (rows, cols, a) = match q.cmp(&self.center) {
                std::cmp::Ordering::Less => (2 * chi_l, chi_r, site.to_vec()),
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Greater => {
                    (2 * chi_r, chi_l, conj_transpose(chi_l, 2 * chi_r, site))
                }
            };
            let mut gram = vec![Complex64::ZERO; cols * cols];
            gemm_conj_a(cols, rows, cols, &a, &a, &mut gram);
            gram.iter().enumerate().all(|(i, &z)| {
                let target = if i / cols == i % cols { 1.0 } else { 0.0 };
                (z - Complex64::from_real(target)).norm() <= tol
            })
        })
    }

    /// Site `q` copied out as a `(chi_l, 2, chi_r)` tensor.
    pub(crate) fn site_tensor(&self, q: usize) -> Tensor {
        Tensor::from_data(
            &[self.bonds[q], 2, self.bonds[q + 1]],
            self.site(q).to_vec(),
        )
    }

    /// Inner product `<self|other>` via the zipper contraction of Fig. 2;
    /// cost `O(m chi^3)`.
    pub fn inner(&self, other: &Mps) -> Complex64 {
        let backend = CpuBackend::new();
        self.inner_with(&backend, other)
    }

    /// Inner product with GEMM dispatched through a backend.
    ///
    /// Runs the zero-allocation zipper kernel on a thread-local
    /// [`ZipperWorkspace`] — bitwise identical to [`Mps::inner_into`]
    /// with any explicitly held workspace. Every inner-product path in
    /// the workspace (Gram assembly, tiled engine, serving, distributed
    /// strategies) routes through this one kernel, which is what keeps
    /// the tiled engine's bitwise-reproducibility guarantees intact.
    pub fn inner_with(&self, backend: &dyn ExecutionBackend, other: &Mps) -> Complex64 {
        INNER_WS.with(|ws| self.inner_into(&mut ws.borrow_mut(), backend, other))
    }

    /// Inner product into a caller-held workspace: the batched hot path.
    ///
    /// Walks the two flat buffers directly — no `Tensor` permute, no
    /// conjugated copies, no per-site environment allocation; after the
    /// workspace has warmed up to the operands' bond dimension, a call
    /// performs zero heap allocation. Workers that evaluate many inner
    /// products (a Gram tile row, a serving kernel row) hold one
    /// workspace and amortize its buffers across the whole batch.
    pub fn inner_into(
        &self,
        ws: &mut ZipperWorkspace,
        backend: &dyn ExecutionBackend,
        other: &Mps,
    ) -> Complex64 {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "inner product requires equal qubit counts"
        );
        zipper::zip_inner(
            ws,
            (&self.bonds, &self.data),
            (&other.bonds, &other.data),
            backend,
        )
    }

    /// Reference zipper via generic tensor contraction — the pre-PR-5
    /// implementation, kept verbatim for equivalence tests and as the
    /// `kernel_hotpath` baseline. Allocates a conjugated copy of every
    /// site tensor and fresh environments per site; agrees with
    /// [`Mps::inner_into`] to ~1e-12 (floating-point operation order in
    /// the GEMM legitimately differs).
    pub fn inner_via_contract(&self, backend: &dyn ExecutionBackend, other: &Mps) -> Complex64 {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "inner product requires equal qubit counts"
        );
        // E[(l_a, l_b)] starts as the trivial 1x1 boundary.
        let mut env = Tensor::from_data(&[1, 1], vec![Complex64::ONE]);
        for q in 0..self.num_qubits() {
            // T[(l_a, p, r_b)] = sum_{l_b} E[l_a, l_b] B[l_b, p, r_b]
            let t = contract_with(backend, &env, &[1], &other.site_tensor(q), &[0]);
            // E'[(r_a, r_b)] = sum_{l_a, p} conj(A[l_a, p, r_a]) T[l_a, p, r_b]
            env = contract_with(backend, &self.site_tensor(q).conj(), &[0, 1], &t, &[0, 1]);
        }
        env.data()[0]
    }

    /// Kernel entry `|<self|other>|^2` (eq. 1).
    pub fn overlap_sqr(&self, other: &Mps) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Contracts the full chain into a dense statevector (index convention:
    /// site 0 is the most significant bit). Only sensible for small `m`.
    pub fn to_statevector(&self) -> Vec<Complex64> {
        assert!(
            self.num_qubits() <= 26,
            "refusing to densify an MPS beyond 26 qubits"
        );
        let mut acc = Tensor::from_data(&[1, 1], vec![Complex64::ONE]); // (basis, chi)
        for q in 0..self.num_qubits() {
            // acc[(b, chi_l)] * site[(chi_l, p, chi_r)] -> (b, p, chi_r)
            let next = qk_tensor::contract(&acc, &[1], &self.site_tensor(q), &[0]);
            let (b, p, chi_r) = (next.shape()[0], next.shape()[1], next.shape()[2]);
            acc = next.reshape(&[b * p, chi_r]);
        }
        acc.into_data()
    }

    /// Serializes the MPS to a flat byte buffer (used by the round-robin
    /// distribution strategy to ship states between processes): the site
    /// count and center, then each site's two bonds and amplitudes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * (1 + self.bonds.len() + self.data.len()));
        out.extend_from_slice(&(self.num_qubits() as u64).to_le_bytes());
        out.extend_from_slice(&(self.center as u64).to_le_bytes());
        let mut rest = &self.data[..];
        for b in self.bonds.windows(2) {
            out.extend_from_slice(&(b[0] as u64).to_le_bytes());
            out.extend_from_slice(&(b[1] as u64).to_le_bytes());
            let (site, tail) = rest.split_at(b[0] * 2 * b[1]);
            rest = tail;
            for z in site {
                out.extend_from_slice(&z.re.to_le_bytes());
                out.extend_from_slice(&z.im.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes an MPS from [`Mps::to_bytes`] output.
    ///
    /// # Panics
    /// Panics on malformed input; use [`Mps::try_from_bytes`] to handle
    /// untrusted buffers.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self::try_from_bytes(bytes).unwrap_or_else(|e| panic!("corrupt MPS bytes: {e}"))
    }

    /// Fallible deserialization of [`Mps::to_bytes`] output.
    ///
    /// Rejects truncated buffers, bond dimensions whose tensor sizes
    /// overflow or exceed the remaining input (so corrupt headers cannot
    /// trigger huge allocations), out-of-range centers, mismatched
    /// interior bonds, non-trivial boundary bonds, and trailing bytes.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, MpsDecodeError> {
        let mut pos = 0usize;
        let read_u64 = |pos: &mut usize| -> Result<u64, MpsDecodeError> {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(MpsDecodeError::Truncated { offset: *pos })?;
            let v = u64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
            *pos = end;
            Ok(v)
        };
        let n_sites = read_u64(&mut pos)? as usize;
        let center = read_u64(&mut pos)? as usize;
        if n_sites == 0 {
            return Err(MpsDecodeError::NoSites);
        }
        if center >= n_sites {
            return Err(MpsDecodeError::BadCenter { center, n_sites });
        }
        let mut shapes = Vec::with_capacity(n_sites.min(bytes.len() / 16));
        let mut data = Vec::new();
        for q in 0..n_sites {
            let l = read_u64(&mut pos)? as usize;
            let r = read_u64(&mut pos)? as usize;
            // Bound the allocation by what the buffer can actually hold:
            // each amplitude is 16 bytes on the wire.
            let len = l
                .checked_mul(2)
                .and_then(|x| x.checked_mul(r))
                .filter(|&x| x <= (bytes.len() - pos) / 16 && l > 0 && r > 0)
                .ok_or(MpsDecodeError::OversizedSite {
                    site: q,
                    offset: pos,
                })?;
            let amplitudes = bytes[pos..pos + 16 * len].chunks_exact(16);
            data.extend(amplitudes.map(|z| {
                let re = f64::from_le_bytes(z[..8].try_into().unwrap());
                Complex64::new(re, f64::from_le_bytes(z[8..].try_into().unwrap()))
            }));
            pos += 16 * len;
            shapes.push((l, r));
        }
        if shapes[0].0 != 1 || shapes[n_sites - 1].1 != 1 {
            return Err(MpsDecodeError::BadBoundary);
        }
        if let Some(site) = (0..n_sites - 1).find(|&q| shapes[q].1 != shapes[q + 1].0) {
            return Err(MpsDecodeError::BondMismatch { site });
        }
        if pos != bytes.len() {
            return Err(MpsDecodeError::TrailingBytes {
                consumed: pos,
                len: bytes.len(),
            });
        }
        data.shrink_to_fit();
        let bonds = std::iter::once(1).chain(shapes.iter().map(|s| s.1));
        Ok(Mps {
            center,
            ..Self::from_parts(data, bonds.collect())
        })
    }
}

/// Amplitudes of a chain with these bonds: `chi_l · 2 · chi_r` a site.
pub(crate) fn chain_len(bonds: &[usize]) -> usize {
    bonds.windows(2).map(|b| b[0] * 2 * b[1]).sum()
}

/// Why a byte buffer failed to decode as an [`Mps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpsDecodeError {
    /// The buffer ended inside a header or amplitude at this offset.
    Truncated {
        /// Byte offset where more input was required.
        offset: usize,
    },
    /// The header declares zero sites.
    NoSites,
    /// The orthogonality center is outside the site range.
    BadCenter {
        /// Declared center.
        center: usize,
        /// Declared site count.
        n_sites: usize,
    },
    /// A site header declares a tensor larger than the remaining input
    /// (or with a zero/overflowing bond dimension).
    OversizedSite {
        /// Index of the offending site.
        site: usize,
        /// Byte offset of its amplitude data.
        offset: usize,
    },
    /// A boundary bond dimension is not 1.
    BadBoundary,
    /// Adjacent sites disagree on their shared bond dimension.
    BondMismatch {
        /// Left site of the mismatched bond.
        site: usize,
    },
    /// Input continues past the end of the encoded state.
    TrailingBytes {
        /// Bytes consumed by the decoder.
        consumed: usize,
        /// Total input length.
        len: usize,
    },
}

impl std::fmt::Display for MpsDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsDecodeError::Truncated { offset } => {
                write!(f, "input truncated at byte {offset}")
            }
            MpsDecodeError::NoSites => write!(f, "zero sites declared"),
            MpsDecodeError::BadCenter { center, n_sites } => {
                write!(f, "bad center {center} for {n_sites} sites")
            }
            MpsDecodeError::OversizedSite { site, offset } => {
                write!(
                    f,
                    "site {site} at byte {offset} larger than remaining input"
                )
            }
            MpsDecodeError::BadBoundary => write!(f, "boundary bond dimension is not 1"),
            MpsDecodeError::BondMismatch { site } => {
                write!(f, "bond mismatch between sites {site} and {}", site + 1)
            }
            MpsDecodeError::TrailingBytes { consumed, len } => {
                write!(f, "{} trailing bytes after site data", len - consumed)
            }
        }
    }
}

impl std::error::Error for MpsDecodeError {}

/// Decides how many singular values to keep under the truncation policy.
///
/// Returns `(kept, discarded_weight, discarded_count)`. At least one value
/// is always kept. The cutoff is relative to the total squared weight.
pub(crate) fn decide_rank(s: &[f64], config: &TruncationConfig) -> (usize, f64, usize) {
    let total: f64 = s.iter().map(|x| x * x).sum();
    if total == 0.0 {
        return (1, 0.0, s.len().saturating_sub(1));
    }
    let budget = config.cutoff * total;
    // Walk from the smallest value, accumulating discarded weight.
    let mut discarded = 0.0f64;
    let mut kept = s.len();
    while kept > 1 {
        let w = s[kept - 1] * s[kept - 1];
        if discarded + w > budget {
            break;
        }
        discarded += w;
        kept -= 1;
    }
    // Apply the hard cap afterwards (cap discards may exceed the cutoff;
    // that is the caller's explicit choice and still recorded).
    if let Some(cap) = config.max_bond {
        while kept > cap.max(1) {
            discarded += s[kept - 1] * s[kept - 1];
            kept -= 1;
        }
    }
    (kept, discarded, s.len() - kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_tensor::backend::CpuBackend;
    use qk_tensor::complex::{approx_eq, c64};

    fn backend() -> CpuBackend {
        CpuBackend::new()
    }

    #[test]
    fn plus_state_properties() {
        let mps = Mps::plus_state(5);
        assert_eq!(mps.num_qubits(), 5);
        assert_eq!(mps.max_bond(), 1);
        assert!((mps.norm() - 1.0).abs() < 1e-12);
        assert_eq!(mps.bond_dims(), vec![1, 1, 1, 1]);
        let sv = mps.to_statevector();
        let amp = 1.0 / 32f64.sqrt();
        for z in sv {
            assert!(approx_eq(z, c64(amp, 0.0), 1e-12));
        }
    }

    #[test]
    fn basis_state_statevector() {
        let mps = Mps::basis_state(&[1, 0, 1]);
        let sv = mps.to_statevector();
        for (idx, z) in sv.iter().enumerate() {
            let expect = if idx == 0b101 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            assert!(approx_eq(*z, expect, 1e-12), "index {idx}");
        }
    }

    #[test]
    fn inner_of_identical_states_is_one() {
        let mps = Mps::plus_state(6);
        assert!(approx_eq(mps.inner(&mps), Complex64::ONE, 1e-12));
    }

    #[test]
    fn inner_of_orthogonal_basis_states_is_zero() {
        let a = Mps::basis_state(&[0, 0, 1]);
        let b = Mps::basis_state(&[1, 0, 0]);
        assert!(approx_eq(a.inner(&b), Complex64::ZERO, 1e-12));
    }

    #[test]
    fn inner_plus_with_basis() {
        // <+++|000> = (1/sqrt(2))^3.
        let plus = Mps::plus_state(3);
        let zero = Mps::basis_state(&[0, 0, 0]);
        let expect = (0.5f64).sqrt().powi(3);
        assert!(approx_eq(plus.inner(&zero), c64(expect, 0.0), 1e-12));
    }

    #[test]
    fn gate1_hadamard_turns_plus_into_zero() {
        let mut mps = Mps::plus_state(4);
        let h = qk_circuit::Gate::H.matrix();
        for q in 0..4 {
            mps.apply_gate1(&h, q);
        }
        let zero = Mps::basis_state(&[0, 0, 0, 0]);
        assert!((mps.overlap_sqr(&zero) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate2_grows_bond_dimension() {
        let be = backend();
        let cfg = TruncationConfig::default();
        // Note |++> is an XX eigenstate, so start from |000> instead.
        let mut mps = Mps::basis_state(&[0, 0, 0]);
        let g = qk_circuit::Gate::Rxx(0.7).matrix();
        mps.apply_gate2(&be, &g, 0, &cfg);
        assert_eq!(mps.max_bond(), 2);
        assert!((mps.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate2_identity_keeps_bond_trivial() {
        // RXX(0) = I: SVD sees a product operator, bond stays 1 after
        // truncation of zero singular values.
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::plus_state(3);
        let g = qk_circuit::Gate::Rxx(0.0).matrix();
        mps.apply_gate2(&be, &g, 1, &cfg);
        assert_eq!(mps.max_bond(), 1);
    }

    #[test]
    fn canonicalization_preserves_state() {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::basis_state(&[0, 1, 0, 1, 0]);
        let g = qk_circuit::Gate::Rxx(0.9).matrix();
        mps.apply_gate2(&be, &g, 1, &cfg);
        mps.apply_gate2(&be, &g, 3, &cfg);
        let before = mps.to_statevector();
        mps.canonicalize_to(0);
        let after = mps.to_statevector();
        for (x, y) in before.iter().zip(&after) {
            assert!(approx_eq(*x, *y, 1e-10));
        }
        mps.canonicalize_to(4);
        let after2 = mps.to_statevector();
        for (x, y) in before.iter().zip(&after2) {
            assert!(approx_eq(*x, *y, 1e-10));
        }
    }

    #[test]
    fn norm_at_any_center() {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::basis_state(&[0, 0, 1, 1]);
        let g = qk_circuit::Gate::Rxx(1.2).matrix();
        mps.apply_gate2(&be, &g, 0, &cfg);
        mps.apply_gate2(&be, &g, 2, &cfg);
        for q in 0..4 {
            mps.canonicalize_to(q);
            assert!((mps.norm() - 1.0).abs() < 1e-10, "norm at center {q}");
        }
    }

    #[test]
    fn truncation_cap_limits_bond() {
        let be = backend();
        let cfg = TruncationConfig::capped(1e-16, 2);
        let mut mps = Mps::plus_state(4);
        let g = qk_circuit::Gate::Rxx(0.8).matrix();
        // Build entanglement that would exceed chi = 2 without the cap.
        for _ in 0..3 {
            for q in 0..3 {
                mps.apply_gate2(&be, &g, q, &cfg);
            }
        }
        assert!(mps.max_bond() <= 2);
        assert!(mps.stats().total_discarded_weight >= 0.0);
        // Norm stays 1 thanks to renormalization.
        assert!((mps.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn truncation_stats_track_discard() {
        let be = backend();
        let lossy = TruncationConfig::capped(1e-16, 1);
        let mut mps = Mps::basis_state(&[0, 0]);
        let g = qk_circuit::Gate::Rxx(std::f64::consts::FRAC_PI_2).matrix();
        // RXX(pi/2)|00> = (|00> - i|11>)/sqrt(2): Schmidt spectrum
        // (0.5, 0.5); capping at bond 1 discards weight 0.5.
        mps.apply_gate2(&be, &g, 0, &lossy);
        assert_eq!(mps.max_bond(), 1);
        assert!((mps.stats().total_discarded_weight - 0.5).abs() < 1e-10);
        assert!((mps.stats().fidelity_lower_bound() - 0.5).abs() < 1e-10);
        assert_eq!(mps.stats().truncations, 1);
        assert_eq!(mps.stats().values_discarded, 1);
    }

    #[test]
    fn decide_rank_keeps_all_without_cutoff() {
        let s = vec![0.9, 0.3, 0.1];
        let cfg = TruncationConfig {
            cutoff: 0.0,
            max_bond: None,
        };
        let (kept, w, n) = decide_rank(&s, &cfg);
        assert_eq!(kept, 3);
        assert_eq!(w, 0.0);
        assert_eq!(n, 0);
    }

    #[test]
    fn decide_rank_discards_tiny_tail() {
        let s = vec![1.0, 1e-9, 1e-10];
        let cfg = TruncationConfig::with_cutoff(1e-16);
        let (kept, w, n) = decide_rank(&s, &cfg);
        assert_eq!(kept, 1);
        assert!(w < 1e-17);
        assert_eq!(n, 2);
    }

    #[test]
    fn decide_rank_respects_budget_boundary() {
        // Weights: 1.0, 0.01, 0.01 -> total 1.0002. Cutoff 1e-4 allows
        // discarding one 1e-4-weight value but not both.
        let s = vec![1.0, 0.01, 0.01];
        let cfg = TruncationConfig::with_cutoff(1.0e-4);
        let (kept, _, _) = decide_rank(&s, &cfg);
        assert_eq!(kept, 2);
    }

    #[test]
    fn decide_rank_always_keeps_one() {
        let s = vec![0.0, 0.0];
        let (kept, _, _) = decide_rank(&s, &TruncationConfig::default());
        assert_eq!(kept, 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::plus_state(4);
        let g = qk_circuit::Gate::Rxx(0.6).matrix();
        mps.apply_gate2(&be, &g, 1, &cfg);
        let bytes = mps.to_bytes();
        let back = Mps::from_bytes(&bytes);
        assert_eq!(back.num_qubits(), 4);
        assert_eq!(back.center(), mps.center());
        assert!((mps.overlap_sqr(&back) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_from_bytes_rejects_mangled_buffers() {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::plus_state(4);
        let g = qk_circuit::Gate::Rxx(0.6).matrix();
        mps.apply_gate2(&be, &g, 1, &cfg);
        let bytes = mps.to_bytes();

        // Every proper prefix is rejected as truncated/oversized, never
        // accepted and never panicking.
        for cut in 0..bytes.len() {
            let err = Mps::try_from_bytes(&bytes[..cut])
                .err()
                .expect("prefix accepted");
            assert!(
                matches!(
                    err,
                    MpsDecodeError::Truncated { .. } | MpsDecodeError::OversizedSite { .. }
                ),
                "prefix {cut}: {err}"
            );
        }

        // Trailing junk.
        let mut long = bytes.clone();
        long.push(0xAB);
        assert!(matches!(
            Mps::try_from_bytes(&long),
            Err(MpsDecodeError::Truncated { .. } | MpsDecodeError::TrailingBytes { .. })
        ));

        // Corrupt center.
        let mut bad_center = bytes.clone();
        bad_center[8..16].copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(
            Mps::try_from_bytes(&bad_center).err(),
            Some(MpsDecodeError::BadCenter {
                center: 99,
                n_sites: 4
            })
        );

        // Huge bond dimension in the first site header must not allocate.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Mps::try_from_bytes(&huge),
            Err(MpsDecodeError::OversizedSite { site: 0, .. })
        ));

        // Zero sites.
        let mut empty = bytes.clone();
        empty[0..8].copy_from_slice(&0u64.to_le_bytes());
        let err = Mps::try_from_bytes(&empty)
            .err()
            .expect("zero sites accepted");
        assert!(matches!(
            err,
            MpsDecodeError::NoSites | MpsDecodeError::BadCenter { .. }
        ));

        // The pristine buffer still decodes.
        assert!(Mps::try_from_bytes(&bytes).is_ok());
    }

    #[test]
    #[should_panic(expected = "corrupt MPS bytes")]
    fn from_bytes_panics_on_truncation() {
        let bytes = Mps::plus_state(3).to_bytes();
        Mps::from_bytes(&bytes[..bytes.len() - 1]);
    }

    #[test]
    fn memory_bytes_grows_with_entanglement() {
        let be = backend();
        let cfg = TruncationConfig::default();
        let mut mps = Mps::basis_state(&[0; 6]);
        let base = mps.memory_bytes();
        let g = qk_circuit::Gate::Rxx(0.8).matrix();
        for q in 0..5 {
            mps.apply_gate2(&be, &g, q, &cfg);
        }
        assert!(mps.memory_bytes() > base);
    }
}
