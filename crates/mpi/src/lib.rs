//! # qk-mpi
//!
//! A simulated message-passing substrate with an MPI-shaped API.
//!
//! The paper distributes its Gram-matrix computation over MPI ranks via
//! `mpi4py`. This crate reproduces the programming model — ranks and
//! tagged point-to-point messages — with OS threads standing in for
//! processes (DESIGN.md, substitution 2). What is preserved is precisely
//! what the paper's strategies exercise: data ownership (a message is the
//! only way state crosses a rank boundary), communication volume (every
//! payload byte is counted per rank), and blocking structure (receives
//! block until a matching message arrives).
//!
//! Two callers run on it: `qk_core::distributed` (the paper's Fig. 4
//! no-messaging and round-robin strategies) and `qk_gram::rank` (the
//! rank-death drill). Neither needs a collective, so there are none.
//!
//! * [`world`] — rank spawning and the per-rank [`world::Process`] handle.
//! * [`p2p`] — mailbox delivery: tagged send/recv with source/tag
//!   filtering, like `MPI_Send`/`MPI_Recv` with `MPI_ANY_SOURCE`.
//! * [`stats`] — per-rank traffic and blocked-time accounting.
//! * [`heartbeat`] — coordinator-side liveness tracking for rank-death
//!   detection (MPI itself has no failure detector).
//!
//! Sends are *buffered* (they never block), so the ring pattern of the
//! round-robin strategy is deadlock-free by construction.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heartbeat;
pub mod p2p;
pub mod stats;
pub mod world;

pub use heartbeat::HeartbeatMonitor;
pub use p2p::{Message, Source, ANY_TAG};
pub use stats::CommStats;
pub use world::{run_world, Process};
