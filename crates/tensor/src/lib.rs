//! # qk-tensor
//!
//! Dense complex tensor algebra underpinning the MPS quantum-kernel stack:
//!
//! * [`complex`] — `Complex64` scalar type.
//! * [`tensor`] — row-major dense tensors with reshape/permute (the paper's
//!   eq. 7 bijection is a free reshape).
//! * [`matrix`] — single-threaded GEMM kernels and helpers.
//! * [`mod@contract`] — pairwise tensor contraction (eq. 6).
//! * [`qr`] — Householder QR/LQ for MPS canonicalization.
//! * [`mod@svd`] — one-sided Jacobi SVD (pivoted cyclic sweeps) plus the
//!   two-qubit-gate operator-Schmidt split.
//! * [`backend`] — the CPU execution backend, and the per-thread call
//!   tally that the simulated accelerator prices for the paper's Fig. 5
//!   crossover study.
//!
//! Everything is hand-rolled: no BLAS, LAPACK, or external tensor crates.

#![warn(missing_docs)]

pub mod backend;
pub mod complex;
pub mod contract;
pub mod matrix;
pub mod qr;
pub mod svd;
pub mod tensor;

pub use backend::{tally, CpuBackend, DeviceModel, ExecutionBackend, Tally};
pub use complex::{c64, Complex64};
pub use contract::{contract, contract_with};
pub use svd::{split_two_qubit_gate, svd, Svd};
pub use tensor::Tensor;
