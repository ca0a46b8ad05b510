//! Workspace facade for the quantum-kernel MPS reproduction.
//!
//! Re-exports every `qk-*` crate under one roof so downstream users (and
//! this package's own integration suites and examples) can depend on a
//! single `qk` crate. The pipeline mirrors the paper:
//!
//! 1. [`data`] — datasets, synthetic generators, preprocessing into the
//!    feature-map domain;
//! 2. [`circuit`] — the IQP-style feature-map ansatz and circuit tooling;
//! 3. [`mps`] / [`statevector`] — matrix-product-state simulation and the
//!    dense ground-truth simulator;
//! 4. [`core`] — Gram-matrix assembly, distribution strategies,
//!    inference;
//! 5. [`gram`] — the out-of-core tiled Gram engine with
//!    checkpoint/resume and state spill;
//! 6. [`svm`] — kernel SVM training (SMO), calibration, metrics;
//! 7. [`serve`] — concurrent batched-inference serving with an MPS
//!    encoding cache and hot-swappable model versions;
//! 8. [`bench`](mod@bench) — figure/table reproduction harness;
//! 9. [`tensor`] — the shared dense linear-algebra substrate;
//! 10. [`mpi`] — the in-process MPI-shaped messaging shim;
//! 11. [`obs`] — unified tracing spans, metrics registry, and the
//!     durable lifecycle event journal;
//! 12. [`chaos`] — deterministic fault injection (seeded fault plans
//!     over named sites) and the bounded-backoff retry policy the
//!     hardened crates recover with.
#![forbid(unsafe_code)]

pub use qk_bench as bench;
pub use qk_chaos as chaos;
pub use qk_circuit as circuit;
pub use qk_core as core;
pub use qk_data as data;
pub use qk_gram as gram;
pub use qk_mpi as mpi;
pub use qk_mps as mps;
pub use qk_obs as obs;
pub use qk_serve as serve;
pub use qk_statevector as statevector;
pub use qk_svm as svm;
pub use qk_tensor as tensor;
