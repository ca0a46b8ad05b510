//! qk-chaos: deterministic fault injection for the quantum-kernel
//! pipeline, the bounded-backoff retry policy its consumers use to
//! recover, and the [`durable`] records their recovery reads back.
//!
//! A [`FaultPlan`] arms named fault sites (see [`sites`]) with faults
//! ([`Fault::Io`], [`Fault::Panic`], [`Fault::Stall`]) on occurrence
//! triggers ([`Trigger`]). Arming yields a cheap, cloneable [`Chaos`]
//! handle; hardened code calls [`Chaos::gate`] (or [`Chaos::check`]) at
//! each guarded operation and acts out whatever fault comes back.
//! Decisions are a pure function of `(seed, site, occurrence)` through a
//! hand-rolled ChaCha8 block, so a plan's fault schedule replays bitwise
//! across runs, platforms and thread counts. With no plan armed a check
//! is a single branch; under the `chaos-off` feature it compiles to a
//! constant `None` and the injection branches vanish entirely.
//!
//! [`durable`] owns everything the pipeline persists with: FNV-1a 64,
//! the checksummed `magic | body | checksum` record and its
//! bounds-checked reader, the read-back that quarantines a corrupt file,
//! the temp-then-rename write and the sweep of the temps a kill leaves
//! behind. The Gram checkpoint, the SMO snapshot and every
//! observability export write through it.
//!
//! The crate is deliberately zero-dependency so the handle and the
//! records can live in checkpoint and serving hot paths without
//! dragging anything along.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
pub mod durable;
mod plan;
mod retry;

pub use plan::{Chaos, Fault, FaultPlan, Trigger};
pub use retry::{Retried, RetryPolicy};

/// The catalog of named fault sites the pipeline guards. Site names are
/// free-form strings — these constants just keep plan specs and check
/// calls in sync.
pub mod sites {
    /// `CheckpointStore::store` of a finished gram tile.
    pub const GRAM_CKPT_STORE: &str = "gram.ckpt.store";
    /// `CheckpointStore::load_classified` during gram restore scans.
    pub const GRAM_CKPT_LOAD: &str = "gram.ckpt.load";
    /// A gram worker mid-tile (fires as a worker-thread panic).
    pub const GRAM_TILE: &str = "gram.worker.tile";
    /// A serve worker at the top of a batch (fires as a panic).
    pub const SERVE_BATCH: &str = "serve.worker.batch";
    /// The serve queue between dequeue and batching (fires as a stall).
    pub const SERVE_QUEUE: &str = "serve.queue.stall";
    /// The SVM trainer persisting a solver-state snapshot.
    pub const SVM_CKPT_STORE: &str = "svm.ckpt.store";
    /// The SVM trainer reading a solver-state snapshot on warm start.
    pub const SVM_CKPT_LOAD: &str = "svm.ckpt.load";
    /// A kernel-row load into the trainer's row cache.
    pub const SVM_ROW_LOAD: &str = "svm.row.load";
}
