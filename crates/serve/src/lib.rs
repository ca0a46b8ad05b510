//! # qk-serve
//!
//! A concurrent batched-inference serving layer over
//! [`qk_core::QuantumKernelModel`] — the deployment half of the paper's
//! Section III-A story, built for the ROADMAP's "heavy traffic" target.
//!
//! Classifying a fresh point costs one circuit simulation (~2 s at the
//! paper's 165 qubits) plus a cheap kernel row against the retained
//! training states. This crate turns that single-caller workflow into a
//! long-running service:
//!
//! * [`server`] — a bounded submission queue with backpressure, a
//!   work-conserving micro-batching worker pool (a worker that pops a
//!   request drains, without ever blocking, its fair share of what is
//!   already queued — up to `max_batch` — so no request waits while a
//!   worker is idle and batches form only behind busy workers), and a
//!   graceful-shutdown protocol that answers every accepted request.
//! * [`cache`] — an LRU *encoding cache* keyed by quantized feature
//!   vectors: repeated and near-duplicate points skip the dominant
//!   simulation cost entirely and pay only the inner-product phase.
//! * [`registry`] — versioned models with atomic hot-swap; in-flight
//!   batches drain on the old version while new batches serve the new
//!   one, and cached encodings survive any deploy that keeps the
//!   encoding parameters.
//! * [`metrics`] — throughput, p50/p95/p99 latency, cache hit rate,
//!   queue depth, idle workers and worker busy share, and batching
//!   telemetry as one [`MetricsSnapshot`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use qk_serve::{KernelServer, ServeConfig};
//! # fn model() -> qk_core::QuantumKernelModel { unimplemented!() }
//!
//! let server = KernelServer::start(model(), &ServeConfig::default());
//! let handle = server.handle();
//! let pending = handle.submit(vec![0.3; 10]).unwrap();
//! let served = pending.wait().unwrap();
//! println!("label {} (cache hit: {})", served.prediction.label, served.cache_hit);
//! println!("{}", server.shutdown());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod metrics;
pub mod registry;
pub mod server;

pub use cache::{CacheKey, CacheStats, EncodingCache, Quantizer};
pub use config::ServeConfig;
pub use metrics::{LatencySnapshot, MetricsSnapshot};
pub use registry::{DeploySummary, ModelRegistry, ModelVersion};
pub use server::{KernelServer, PendingPrediction, ServeError, ServeHandle, ServedPrediction};
