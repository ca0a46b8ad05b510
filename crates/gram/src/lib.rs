//! # qk-gram
//!
//! An out-of-core, tiled, checkpoint/resume Gram-matrix engine.
//!
//! The paper's headline run (N = 64,000 training points) needs
//! `N(N-1)/2` ≈ 2 × 10⁹ MPS inner products and a ~32 GiB dense kernel —
//! a multi-day computation that a single-pass, all-in-RAM loop cannot
//! carry through a preemption or an OOM. This crate makes blocking,
//! spilling and resumability first-class:
//!
//! * [`tiles`] — the matrix is decomposed into fixed-edge tiles (or,
//!   for the Fig. 4 strategies, balanced bands); a symmetric job
//!   enumerates only the upper block triangle, dealt to ranks by one
//!   round-robin owner rule.
//! * [`runner`] — the one tile path. A [`TileRunner`] restores a tile
//!   from a checkpoint store (retried, chaos-gated, quarantining what
//!   keeps failing) or contracts it and persists it; [`write_tile`]
//!   places it. The engine's pool, the [`rank`] drill and
//!   `qk_core::distributed`'s Fig. 4 strategies all run every tile
//!   through it; every entry keeps the exact operand order of the
//!   single-pass path.
//! * [`engine`] — a work-stealing worker pool runs the runner over the
//!   pending tiles and streams them to an assembler; a worker with no
//!   tile left to claim helps on a tile in flight, row by row. Output is
//!   bitwise identical for any tile size, worker count, spill mode or
//!   resume history.
//! * [`checkpoint`] — each completed tile appends a checksummed record
//!   to one log behind a manifest bound to the job fingerprint (encoding hash,
//!   truncation, shape, tile size). A killed job resumes from the last
//!   completed tile; a foreign or corrupt checkpoint is rejected or
//!   recomputed, never silently loaded.
//! * [`spill`] — encoded MPS states optionally spill to disk per row
//!   band under a memory budget, bounding peak memory below the
//!   all-states-resident requirement.
//! * [`view`] — the assembled [`TiledKernel`] implements
//!   `qk_svm::KernelSource`, so SVM training consumes it without a
//!   dense copy.
//! * [`metrics`] — progress, throughput and ETA counters in the same
//!   style as `qk-serve`'s metrics surface.
//! * [`rank`] — a rank-distributed drill over `qk-mpi` that survives
//!   worker-rank death: heartbeat detection at the coordinator, orphaned
//!   tiles adopted by survivors through the dead rank's checkpoint
//!   directory.
//!
//! ## Quickstart
//!
//! ```
//! use qk_gram::{GramConfig, GramEngine};
//! use qk_mps::Mps;
//! use qk_tensor::backend::CpuBackend;
//!
//! let states: Vec<Mps> = (0..6).map(|i| Mps::basis_state(&[(i % 2) as u8, 0, 1])).collect();
//! let backend = CpuBackend::new();
//! let engine = GramEngine::new(GramConfig::in_memory(4));
//! let out = engine.compute_gram(&states, &backend).unwrap();
//! assert_eq!(out.kernel.len(), 6);
//! assert_eq!(out.report.inner_products, 15);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod fingerprint;
pub mod metrics;
pub mod rank;
pub mod recompute;
pub mod runner;
pub mod spill;
pub mod tiles;
pub mod view;

pub use checkpoint::{CheckpointError, CheckpointStore, TileLoad};
pub use config::GramConfig;
pub use engine::{BlockOutcome, GramEngine, GramError, GramOutcome, GramReport};
pub use fingerprint::{encoding_fingerprint, JobKind, JobSpec};
pub use metrics::{GramMetrics, GramProgress};
pub use qk_chaos::durable::fnv1a64;
pub use rank::{rank_distributed_gram, RankConfig, RankOutcome, RankReport, RankSummary};
pub use recompute::RecomputingRows;
pub use runner::{write_tile, TileRunner};
pub use spill::{SpillError, SpillStore};
pub use tiles::{Tile, TilePlan};
pub use view::TiledKernel;
