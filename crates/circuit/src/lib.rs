//! # qk-circuit
//!
//! Quantum circuit intermediate representation and the paper's
//! data-encoding ansatz:
//!
//! * [`gate`] — the gate set with explicit unitary matrices.
//! * [`circuit`] — ordered gate lists with depth/cost accounting.
//! * [`ansatz`] — the spin-Hamiltonian feature map of eqs. (3)-(5),
//!   including the `<= 2d`-layer commuting-RXX schedule.
//! * [`routing`] — makes every two-qubit gate nearest-neighbour, as the
//!   MPS simulator requires: each commuting RXX block as one fused sweep
//!   per qubit, SWAP conjugation for any other long-range gate.
//!
//! ## Example: build and route the paper's feature map
//!
//! ```
//! use qk_circuit::{feature_map_circuit, route_for_mps, AnsatzConfig};
//!
//! // r = 2 layers, interaction distance d = 2, bandwidth gamma = 0.5.
//! let config = AnsatzConfig::new(2, 2, 0.5);
//! let circuit = feature_map_circuit(&[0.3, 1.2, 0.7, 1.8], &config);
//! let routed = route_for_mps(&circuit);
//! // Each XX block becomes one there-and-back sweep per qubit.
//! assert!(routed.is_mps_local());
//! assert!(routed.ops().len() >= circuit.ops().len());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
pub(crate) mod test_dense;

pub mod ansatz;
pub mod circuit;
pub mod gate;
pub mod routing;

pub use ansatz::{feature_map_circuit, linear_chain_edges, xx_layers, AnsatzConfig};
pub use circuit::{Circuit, Operation};
pub use gate::Gate;
pub use routing::route_for_mps;
