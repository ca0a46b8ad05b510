//! # qk-mps
//!
//! Matrix Product State simulation of quantum circuits — the substrate the
//! paper's quantum-kernel framework is built on:
//!
//! * [`mps`] — the MPS state type: mixed canonical form, 1q/2q gate
//!   application with SVD truncation (Fig. 1), zipper inner products
//!   (Fig. 2), serialization for inter-process shipping.
//! * [`sim`] — the circuit-walking simulator with the resource telemetry
//!   used by the paper's evaluation (memory traces, peak bond, truncation
//!   error budget). d = 1 circuits apply each RXX exactly by its rank-2
//!   split and compress once per XX block; every other circuit pays one
//!   SVD per two-qubit gate.
//! * [`compress`] — full-sweep bond compression with eq.-(8) error
//!   accounting: the simulator's d = 1 truncation.
//! * [`zipper`] — the allocation-free zipper inner-product kernel.
//!
//! The cost of simulation scales with the number of two-qubit gates and
//! the entanglement they generate (bond dimension chi), not with the
//! number of qubits: `O(m chi^3)` per gate/inner product and `O(m chi^2)`
//! memory.
//!
//! ## Example: simulate a feature-map circuit and take an overlap
//!
//! ```
//! use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
//! use qk_mps::{MpsSimulator, TruncationConfig};
//! use qk_tensor::backend::CpuBackend;
//!
//! let backend = CpuBackend::new();
//! let sim = MpsSimulator::new(&backend)
//!     .with_truncation(TruncationConfig::paper_default());
//! let config = AnsatzConfig::new(2, 1, 0.5);
//! let (a, _) = sim.simulate(&feature_map_circuit(&[0.3, 1.2, 0.7], &config));
//! let (b, _) = sim.simulate(&feature_map_circuit(&[0.4, 1.0, 0.9], &config));
//! let kernel_entry = a.overlap_sqr(&b); // |<psi(x)|psi(x')>|^2
//! assert!((0.0..=1.0).contains(&kernel_entry));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod mps;
pub mod sim;
pub mod zipper;

pub use mps::{Mps, MpsDecodeError, TruncationConfig, TruncationStats};
pub use sim::{MpsSimulator, SimRecord, TracePoint};
pub use zipper::ZipperWorkspace;
