//! The serving loop: bounded submission queue, work-conserving
//! micro-batching workers.
//!
//! ## Architecture
//!
//! ```text
//! ServeHandle::submit ──► bounded channel (backpressure) ──► worker pool
//!                                                             │  drain ≤ fair share
//!                                                             │  (try_recv only)
//!                                                             ▼
//!                        reply channel ◄── predict_from_states_with(unique states)
//!                                              ▲
//!                 encoding cache (hit: skip simulation entirely)
//! ```
//!
//! Each worker blocks on the shared MPMC queue only while it has
//! nothing to do. The batch is deduplicated by quantized cache key,
//! missing encodings are simulated once, and the whole batch is
//! answered from one kernel block — so `k` duplicates of a point cost
//! one simulation and one kernel row, not `k` of each.
//!
//! ## Batch formation: no request waits while a worker is idle
//!
//! A worker that pops a request never blocks again before serving it.
//! It drains, with `try_recv` only, up to
//!
//! ```text
//! share = min(max_batch, ceil((1 + queued) / (1 + idle_others)))
//! ```
//!
//! requests ([`batch_share`]): `queued` is the channel length at drain
//! time, `idle_others` the `serve.idle_workers` gauge — workers inside
//! the blocking `recv` (incremented before it, decremented after). With
//! every other worker busy the share is the whole queue up to
//! `max_batch`, so batches — one model snapshot, one cache-lock pair,
//! in-batch dedup — still form for free behind busy workers; with idle
//! workers the queue is split between them and this one, so they are
//! left something to do.
//!
//! There is no wait knob because waiting can only lose. A worker used
//! to hold a partial batch open for a timed window (2 ms by default);
//! with two requests in flight on two workers that made every batch
//! wait out the window, take both requests, and leave the other worker
//! idle — the lanes alternated and never overlapped:
//!
//! ```text
//! before  lane 0: [coalesce 2.1 ms][kernel ×2 2.4 ms]
//!         lane 1:                                    [coalesce 2.1 ms][kernel ×2 2.4 ms]
//! after   lane 0: [kernel ×1 1.3 ms][kernel ×1 1.3 ms][kernel ×1 ...
//!         lane 1: [kernel ×1 1.3 ms][kernel ×1 1.3 ms][kernel ×1 ...
//! ```
//!
//! Under a work-conserving rule the only worker that could wait is
//! itself idle, so the knob has no meaning. Dropping the wait alone is
//! not enough: a woken worker needs tens of µs to run, finds both
//! requests queued and takes both — hence the fair share.
//!
//! The idle count is a heuristic that correctness never depends on: a
//! stale read only changes how requests are grouped (a worker that has
//! popped but not yet decremented still counts as idle, so a batch may
//! come out a request or two larger or smaller than ideal).
//!
//! **Liveness.** A request a fair-share drain leaves behind cannot be
//! stranded: a worker blocks in `recv` only after finding the queue
//! empty under the channel lock, and every `send` notifies one blocked
//! worker — so the request is taken by a notified idle worker or by
//! the next worker to finish its batch, whichever reaches the channel
//! lock first.
//!
//! ## Shutdown protocol
//!
//! `shutdown` must answer every accepted request while racing against
//! concurrent submitters. The ordering argument: submitters increment
//! `submitting` *before* checking the stop flag, and `shutdown` sets the
//! flag *before* waiting for `submitting` to reach zero — so every
//! successful enqueue strictly precedes the `Shutdown` tokens in the
//! FIFO queue. A worker that pops a token therefore knows every accepted
//! request has already been popped (by some worker), and can exit
//! immediately without draining. A token met inside a drain ends the
//! worker after its batch.

use crate::cache::{CacheKey, EncodingCache, Quantizer};
use crate::config::ServeConfig;
use crate::metrics::{Metrics, MetricsSnapshot, Stage};
use crate::registry::{DeploySummary, ModelRegistry, ModelVersion};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use qk_chaos::{sites, Fault};
use qk_core::{ModelDecodeError, Prediction, QuantumKernelModel};
use qk_mps::{Mps, ZipperWorkspace};
use qk_obs::{Journal, Obs, TraceLane, TracePhase};
use qk_tensor::backend::CpuBackend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The server has shut down (or did so before answering).
    Closed,
    /// The submission queue is full (`try_submit` only).
    QueueFull,
    /// The request's feature count does not match the serving model.
    FeatureCount {
        /// Features the serving model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// A feature is NaN, infinite, or too large for the cache-key
    /// quantization grid. Such coordinates would collapse onto
    /// legitimate grid points (NaN casts to 0; infinities and huge
    /// values saturate at the i64 grid edge) and poison the encoding
    /// cache — or, with the cache off, the in-batch deduplication.
    InvalidFeature {
        /// Index of the offending coordinate.
        index: usize,
    },
    /// The request sat in the queue past the configured
    /// [`crate::ServeConfig::deadline`] and was shed unprocessed.
    DeadlineExceeded,
    /// Admission control refused the request: the queue already held
    /// [`crate::ServeConfig::shed_queue_depth`] requests.
    Shed,
    /// The worker processing this request's batch panicked; the batch
    /// was error-replied and the worker restarted. Retrying is safe —
    /// the request was never partially served.
    WorkerPanicked,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::QueueFull => write!(f, "submission queue is full"),
            ServeError::FeatureCount { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            ServeError::InvalidFeature { index } => {
                write!(
                    f,
                    "feature {index} is not representable (NaN, infinite, or huge)"
                )
            }
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::Shed => write!(f, "request shed by admission control"),
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked while processing this request's batch")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A served classification with its provenance.
#[derive(Debug, Clone, Copy)]
pub struct ServedPrediction {
    /// The underlying prediction. `timing.simulation` is the circuit
    /// simulation this request's batch actually paid for its point
    /// (zero on a cache hit); `timing.inner_products` is the request's
    /// share of its batch's kernel-block time.
    pub prediction: Prediction,
    /// Model version that served this request.
    pub model_version: u64,
    /// `true` when the encoding came from the cache.
    pub cache_hit: bool,
    /// Size of the coalesced batch this request rode in.
    pub batch_size: usize,
    /// Enqueue-to-reply latency.
    pub latency: Duration,
}

/// A ticket for an accepted request; redeem with
/// [`PendingPrediction::wait`].
pub struct PendingPrediction {
    rx: Receiver<Result<ServedPrediction, ServeError>>,
}

impl PendingPrediction {
    /// Blocks until the request is answered.
    pub fn wait(self) -> Result<ServedPrediction, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }
}

struct Job {
    features: Vec<f64>,
    reply: Sender<Result<ServedPrediction, ServeError>>,
    enqueued: Instant,
}

enum Msg {
    Request(Job),
    Shutdown,
}

struct ServerCore {
    registry: ModelRegistry,
    cache: Mutex<EncodingCache>,
    quantizer: Quantizer,
    metrics: Metrics,
    obs: Obs,
    journal: Option<Journal>,
    stop: AtomicBool,
    submitting: AtomicUsize,
    config: ServeConfig,
}

impl ServerCore {
    fn snapshot(&self) -> MetricsSnapshot {
        let current = self.registry.current();
        self.metrics.snapshot(
            self.cache.lock().stats(),
            current.version,
            current.encoding_epoch,
        )
    }
}

/// A clonable client endpoint for submitting requests and reading
/// metrics. Handles stay valid across hot-swaps; after shutdown every
/// submission returns [`ServeError::Closed`].
pub struct ServeHandle {
    core: Arc<ServerCore>,
    tx: Sender<Msg>,
}

impl Clone for ServeHandle {
    fn clone(&self) -> Self {
        ServeHandle {
            core: Arc::clone(&self.core),
            tx: self.tx.clone(),
        }
    }
}

impl ServeHandle {
    fn make_job(&self, features: Vec<f64>) -> Result<(Msg, PendingPrediction), ServeError> {
        let expected = self.core.registry.current().model.num_features();
        if features.len() != expected {
            self.core.metrics.rejected.inc();
            return Err(ServeError::FeatureCount {
                expected,
                got: features.len(),
            });
        }
        // The quantization grid covers |x * scale| < 2^63; anything
        // outside (or NaN) would saturate onto a shared key.
        let scale = self.core.config.quantization_scale;
        if let Some(index) = features
            .iter()
            .position(|x| !x.is_finite() || (x * scale).abs() >= 9.0e18)
        {
            self.core.metrics.rejected.inc();
            return Err(ServeError::InvalidFeature { index });
        }
        let (reply, rx) = channel::bounded(1);
        Ok((
            Msg::Request(Job {
                features,
                reply,
                enqueued: Instant::now(),
            }),
            PendingPrediction { rx },
        ))
    }

    fn accepted(&self) -> PendingAccounting<'_> {
        // Increment-before-flag-check: see the shutdown protocol note in
        // the module docs.
        self.core.submitting.fetch_add(1, Ordering::SeqCst);
        PendingAccounting { core: &self.core }
    }

    /// Admission control: `true` when the queue is already at the
    /// configured shed depth and this submission must be refused with an
    /// explicit [`ServeError::Shed`] rather than queued (or blocked on).
    fn shed_now(&self) -> bool {
        self.core
            .config
            .shed_queue_depth
            .is_some_and(|limit| self.core.metrics.queue_depth.get() >= limit as i64)
    }

    /// Submits a request, blocking while the queue is full
    /// (backpressure).
    pub fn submit(&self, features: Vec<f64>) -> Result<PendingPrediction, ServeError> {
        let (msg, pending) = self.make_job(features)?;
        let guard = self.accepted();
        if self.core.stop.load(Ordering::SeqCst) {
            drop(guard);
            self.core.metrics.rejected.inc();
            return Err(ServeError::Closed);
        }
        if self.shed_now() {
            drop(guard);
            self.core.metrics.rejected.inc();
            self.core.metrics.requests_shed.inc();
            return Err(ServeError::Shed);
        }
        self.core.metrics.queue_depth.inc();
        let sent = self.tx.send(msg);
        drop(guard);
        match sent {
            Ok(()) => {
                self.core.metrics.submitted.inc();
                Ok(pending)
            }
            Err(_) => {
                self.core.metrics.queue_depth.dec();
                self.core.metrics.rejected.inc();
                Err(ServeError::Closed)
            }
        }
    }

    /// Non-blocking submit: fails fast with [`ServeError::QueueFull`]
    /// instead of exerting backpressure.
    pub fn try_submit(&self, features: Vec<f64>) -> Result<PendingPrediction, ServeError> {
        let (msg, pending) = self.make_job(features)?;
        let guard = self.accepted();
        if self.core.stop.load(Ordering::SeqCst) {
            drop(guard);
            self.core.metrics.rejected.inc();
            return Err(ServeError::Closed);
        }
        if self.shed_now() {
            drop(guard);
            self.core.metrics.rejected.inc();
            self.core.metrics.requests_shed.inc();
            return Err(ServeError::Shed);
        }
        self.core.metrics.queue_depth.inc();
        let sent = self.tx.try_send(msg);
        drop(guard);
        match sent {
            Ok(()) => {
                self.core.metrics.submitted.inc();
                Ok(pending)
            }
            Err(e) => {
                self.core.metrics.queue_depth.dec();
                self.core.metrics.rejected.inc();
                Err(match e {
                    TrySendError::Full(_) => ServeError::QueueFull,
                    TrySendError::Disconnected(_) => ServeError::Closed,
                })
            }
        }
    }

    /// Current metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot()
    }
}

/// RAII decrement of the `submitting` gate.
struct PendingAccounting<'a> {
    core: &'a ServerCore,
}

impl Drop for PendingAccounting<'_> {
    fn drop(&mut self) {
        self.core.submitting.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running inference service over a [`QuantumKernelModel`].
pub struct KernelServer {
    core: Arc<ServerCore>,
    tx: Sender<Msg>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl KernelServer {
    /// Starts the worker pool serving `model` as version 1, with its
    /// own fresh observability context.
    ///
    /// Panics if a worker thread cannot be spawned; use
    /// [`KernelServer::try_start`] to handle that without leaking
    /// threads.
    pub fn start(model: QuantumKernelModel, config: &ServeConfig) -> Self {
        Self::try_start(model, config).expect("spawn worker")
    }

    /// Starts the worker pool, registering all `serve.*` instruments
    /// and spans into a caller-provided [`Obs`] (so a pipeline can
    /// combine gram, SVM and serving telemetry in one report).
    ///
    /// Panics if a worker thread cannot be spawned; use
    /// [`KernelServer::try_start_with_obs`] to handle that without
    /// leaking threads.
    pub fn start_with_obs(model: QuantumKernelModel, config: &ServeConfig, obs: Obs) -> Self {
        Self::try_start_with_obs(model, config, obs).expect("spawn worker")
    }

    /// Fallible [`KernelServer::start`]: a worker-spawn failure tears
    /// down any already-started workers and returns the OS error
    /// instead of panicking with threads leaked.
    pub fn try_start(model: QuantumKernelModel, config: &ServeConfig) -> std::io::Result<Self> {
        Self::try_start_with_obs(model, config, Obs::new())
    }

    /// Fallible [`KernelServer::start_with_obs`]: see
    /// [`KernelServer::try_start`].
    pub fn try_start_with_obs(
        model: QuantumKernelModel,
        config: &ServeConfig,
        obs: Obs,
    ) -> std::io::Result<Self> {
        let config = config.normalized();
        let worker_count = config.workers;
        // Journal export is best-effort: an unwritable obs dir must not
        // take the server down.
        let journal = config.obs_dir.as_ref().and_then(|dir| {
            match Journal::open(&dir.join("serve_journal.jsonl")) {
                Ok(j) => Some(j),
                Err(e) => {
                    eprintln!("qk-serve: cannot open event journal: {e}");
                    None
                }
            }
        });
        if let Some(j) = &journal {
            j.event("server_start")
                .field_u64("workers", worker_count as u64)
                .field_u64("max_batch", config.max_batch as u64)
                .field_u64("queue_capacity", config.queue_capacity as u64)
                .field_u64("cache_capacity", config.cache_capacity as u64)
                .log();
        }
        let (tx, rx) = channel::bounded::<Msg>(config.queue_capacity);
        let core = Arc::new(ServerCore {
            registry: ModelRegistry::new(model),
            cache: Mutex::new(EncodingCache::new(
                config.cache_capacity,
                config.cache_max_bytes,
            )),
            quantizer: Quantizer::new(config.quantization_scale),
            metrics: Metrics::new(&obs, worker_count),
            obs,
            journal,
            stop: AtomicBool::new(false),
            submitting: AtomicUsize::new(0),
            config,
        });
        let mut workers = Vec::with_capacity(worker_count);
        for w in 0..worker_count {
            let worker_core = Arc::clone(&core);
            let worker_rx = rx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("qk-serve-{w}"))
                .spawn(move || worker_loop(&worker_core, &worker_rx, w as u32));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Tear down the workers that did start so a partial
                    // pool never outlives the constructor.
                    let mut partial = KernelServer { core, tx, workers };
                    partial.shutdown_inner();
                    return Err(e);
                }
            }
        }
        Ok(KernelServer { core, tx, workers })
    }

    /// A new client endpoint.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            core: Arc::clone(&self.core),
            tx: self.tx.clone(),
        }
    }

    /// Hot-swaps the serving model: new batches pick up the new version
    /// immediately, in-flight batches drain on the old one. When the
    /// deploy changes the encoding parameters the cache is flushed
    /// (stale epochs could never be served, but their memory is freed
    /// eagerly).
    pub fn deploy(&self, model: QuantumKernelModel) -> DeploySummary {
        // The cache lock is held *across* the registry swap: no worker
        // can insert between the swap and the epoch retirement, so the
        // flush never discards valid new-epoch entries (a worker that
        // snapshots the new version inserts only after this lock is
        // released), and stragglers on the old version are rejected by
        // the retired-epoch floor. Workers never hold the cache lock
        // while taking a registry lock, so the ordering cannot deadlock.
        // Journal events are logged after the cache lock is released —
        // the journal's own locks never nest under it.
        let summary = {
            let mut cache = self.core.cache.lock();
            let summary = self.core.registry.deploy(model);
            if summary.encoding_changed {
                cache.retire_epochs_below(summary.encoding_epoch);
            }
            summary
        };
        if let Some(j) = &self.core.journal {
            j.event("deploy")
                .field_u64("version", summary.version)
                .field_bool("encoding_changed", summary.encoding_changed)
                .log();
            if summary.encoding_changed {
                j.event("epoch_flush")
                    .field_u64("epoch", summary.encoding_epoch)
                    .log();
            }
        }
        summary
    }

    /// Deploys a serialized model artifact, rejecting corrupt input
    /// without disturbing the serving version.
    pub fn deploy_bytes(&self, bytes: &[u8]) -> Result<DeploySummary, ModelDecodeError> {
        Ok(self.deploy(QuantumKernelModel::try_from_bytes(bytes)?))
    }

    /// Current metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot()
    }

    /// The server's observability context: every `serve.*` instrument
    /// and worker span reports into it.
    pub fn obs(&self) -> Obs {
        self.core.obs.clone()
    }

    /// Graceful shutdown: every request accepted before (or racing with)
    /// the call is answered, then workers exit. Returns the final
    /// metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.core.snapshot()
    }

    fn shutdown_inner(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.core.stop.store(true, Ordering::SeqCst);
        // Wait out submitters that passed the flag check: once
        // `submitting` reads zero, every accepted request is in the
        // queue ahead of the tokens below.
        while self.core.submitting.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        for _ in 0..self.workers.len() {
            // Err means every worker already exited; nothing to wake.
            let _ = self.tx.send(Msg::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(j) = &self.core.journal {
            j.event("server_shutdown")
                .field_u64("completed", self.core.metrics.completed.get())
                .field_u64("rejected", self.core.metrics.rejected.get())
                .log();
            let _ = j.flush();
        }
        if let Some(dir) = &self.core.config.obs_dir {
            let report = self.core.obs.report("qk-serve");
            if let Err(e) = report.write_json(&dir.join("obs_serve.json")) {
                eprintln!("qk-serve: cannot write obs report: {e}");
            }
        }
    }
}

impl Drop for KernelServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(core: &ServerCore, rx: &Receiver<Msg>, wid: u32) {
    let mut backend = CpuBackend::new();
    // Serving traces always use rank 0: the server is one process, and
    // the lane id is the worker index.
    let lane = core.config.trace.as_ref().map(|t| t.lane(0, wid));
    // One zipper workspace per worker for the server's lifetime: every
    // kernel row this worker serves reuses the same buffers, so the
    // steady-state inner-product path performs zero heap allocation.
    // (Both are rebuilt after a supervised batch panic — their internal
    // state is unreliable once an unwind tore through them.)
    let mut ws = ZipperWorkspace::new();
    let _worker_span = core.obs.span("serve_worker");
    loop {
        core.metrics.idle_workers.inc();
        let popped = rx.recv();
        core.metrics.idle_workers.dec();
        let first = match popped {
            Ok(Msg::Request(job)) => job,
            // Shutdown token or disconnect: the FIFO argument in the
            // module docs guarantees no accepted request remains.
            Ok(Msg::Shutdown) | Err(_) => return,
        };
        let busy_start = Instant::now();
        core.metrics.queue_depth.dec();
        // The queue-stall site models a slow consumer; it only honors
        // delays. A panic here would escape supervision and an I/O
        // error has no meaning between queue and batch, so both are
        // ignored rather than letting a plan typo kill the worker.
        if let Some(Fault::Stall(delay)) = core.config.chaos.check(sites::SERVE_QUEUE) {
            core.metrics.faults_injected.inc();
            std::thread::sleep(delay);
        }
        // Queue stage: how long the request that woke this worker sat
        // in the submission queue. (The trace event is back-dated by
        // the same measured wait so the timeline shows the queueing,
        // not the instant of the wake.)
        let queue_wait = first.enqueued.elapsed();
        core.metrics.record_stage(Stage::Queue, queue_wait);
        if let Some(l) = &lane {
            let now = l.stamp();
            let wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
            l.record_since(now.saturating_sub(wait_us), TracePhase::Queue, 1, 0);
        }
        let coalesce_t0 = lane.as_ref().map(|l| l.stamp());
        let coalesce_start = Instant::now();
        // Fair-share drain (module docs): never blocks. The share is
        // computed here, after the stall above, so requests that
        // arrived during it count.
        let idle_others = usize::try_from(core.metrics.idle_workers.get()).unwrap_or(0);
        let share = batch_share(rx.len(), idle_others, core.config.max_batch);
        let mut batch = vec![first];
        let mut shutting_down = false;
        while batch.len() < share {
            match rx.try_recv() {
                Ok(Msg::Request(job)) => {
                    core.metrics.queue_depth.dec();
                    batch.push(job);
                }
                Ok(Msg::Shutdown) => {
                    shutting_down = true;
                    break;
                }
                Err(_) => break,
            }
        }
        core.metrics
            .record_stage(Stage::Coalesce, coalesce_start.elapsed());
        if let (Some(l), Some(t0)) = (&lane, coalesce_t0) {
            l.record_since(t0, TracePhase::Coalesce, batch.len() as i64, 0);
        }
        // Supervised batch execution: a panic anywhere in the batch
        // (model bug, poisoned state, injected fault) error-replies
        // every request still awaiting an answer — never hangs a
        // client — and restarts this worker in place with fresh
        // backend/workspace state.
        let supervised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_batch(core, &backend, &mut ws, &mut batch, lane.as_ref());
        }));
        if supervised.is_err() {
            for job in batch.drain(..) {
                core.metrics.rejected.inc();
                let _ = job.reply.send(Err(ServeError::WorkerPanicked));
            }
            backend = CpuBackend::new();
            ws = ZipperWorkspace::new();
            core.metrics.workers_restarted.inc();
            if let Some(j) = &core.journal {
                j.event("worker_restarted").log();
            }
        }
        core.metrics.record_busy(busy_start.elapsed());
        if shutting_down {
            return;
        }
    }
}

/// How many requests (its own included) a worker that just popped one
/// drains into its batch: its fair share of the `1 + queued` requests
/// in hand among itself and the `idle_others` workers with nothing to
/// do, capped at `max_batch`. Never 0.
fn batch_share(queued: usize, idle_others: usize, max_batch: usize) -> usize {
    (1 + queued).div_ceil(1 + idle_others).min(max_batch)
}

/// One encoding shared by every job in the batch that quantizes to it.
struct UniquePoint {
    key: CacheKey,
    /// Index into the batch of the first job with this key (its exact
    /// features are the ones simulated on a miss).
    exemplar: usize,
    state: Option<Arc<Mps>>,
    cache_hit: bool,
    simulation: Duration,
}

fn process_batch(
    core: &ServerCore,
    backend: &CpuBackend,
    ws: &mut ZipperWorkspace,
    batch: &mut Vec<Job>,
    lane: Option<&TraceLane>,
) {
    let _batch_span = core.obs.span("batch");
    core.metrics.record_batch(batch.len());
    // Chaos: a batch-site panic unwinds into the worker supervisor
    // (every job left in `batch` gets an explicit error reply); a stall
    // models a slow simulation. I/O faults have no meaning here.
    match core.config.chaos.check(sites::SERVE_BATCH) {
        Some(Fault::Panic) => {
            core.metrics.faults_injected.inc();
            panic!("chaos: injected batch panic at {}", sites::SERVE_BATCH);
        }
        Some(Fault::Stall(delay)) => {
            core.metrics.faults_injected.inc();
            std::thread::sleep(delay);
        }
        Some(Fault::Io) | None => {}
    }
    // One model snapshot per batch: a concurrent deploy affects later
    // batches, never a partially processed one.
    let current: Arc<ModelVersion> = core.registry.current();
    let model = &current.model;
    let expected = model.num_features();

    // Answer (rare) stale-shape jobs that validated against a different
    // version than the one now serving, and shed jobs that already sat
    // in the queue past their deadline — a late answer is worth less
    // than an explicit, immediate error.
    batch.retain(|job| {
        if job.features.len() != expected {
            core.metrics.rejected.inc();
            let _ = job.reply.send(Err(ServeError::FeatureCount {
                expected,
                got: job.features.len(),
            }));
            return false;
        }
        if core
            .config
            .deadline
            .is_some_and(|limit| job.enqueued.elapsed() > limit)
        {
            core.metrics.rejected.inc();
            core.metrics.requests_shed.inc();
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            return false;
        }
        true
    });
    let jobs: &[Job] = batch;
    if jobs.is_empty() {
        return;
    }

    // Coalesce duplicates: one UniquePoint per distinct quantized key.
    let cache_enabled = core.config.cache_capacity > 0;
    let mut unique: Vec<UniquePoint> = Vec::with_capacity(jobs.len());
    let mut slot_of_key: HashMap<CacheKey, usize> = HashMap::with_capacity(jobs.len());
    let mut job_slots = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let key = core.quantizer.key(current.encoding_epoch, &job.features);
        let slot = *slot_of_key.entry(key.clone()).or_insert_with(|| {
            unique.push(UniquePoint {
                key,
                exemplar: j,
                state: None,
                cache_hit: false,
                simulation: Duration::ZERO,
            });
            unique.len() - 1
        });
        job_slots.push(slot);
    }

    // Cache lookups under one short lock.
    if cache_enabled {
        let mut cache = core.cache.lock();
        for point in unique.iter_mut() {
            if let Some(state) = cache.get(&point.key) {
                point.state = Some(state);
                point.cache_hit = true;
            }
        }
    }

    // Simulate the misses (the expensive phase) without holding any
    // lock, then publish them.
    {
        let _simulate_span = core.obs.span("simulate");
        let misses = unique.iter().filter(|p| p.state.is_none()).count();
        let _encode_trace =
            lane.map(|l| l.span_args(TracePhase::Encode, misses as i64, unique.len() as i64));
        let encode_start = Instant::now();
        for point in unique.iter_mut().filter(|p| p.state.is_none()) {
            let t0 = Instant::now();
            let state = Arc::new(model.encode(&jobs[point.exemplar].features, backend));
            point.simulation = t0.elapsed();
            core.metrics.simulations.inc();
            point.state = Some(state);
        }
        core.metrics
            .record_stage(Stage::Encode, encode_start.elapsed());
    }
    if cache_enabled {
        let evicted = {
            let mut cache = core.cache.lock();
            let evictions_before = cache.stats().evictions;
            for point in unique.iter().filter(|p| !p.cache_hit) {
                cache.insert(
                    point.key.clone(),
                    Arc::clone(point.state.as_ref().expect("simulated above")),
                );
            }
            cache.stats().evictions - evictions_before
        };
        // Logged outside the cache lock: journal locks never nest
        // under it.
        if evicted > 0 {
            if let Some(j) = &core.journal {
                j.event("cache_evict").field_u64("evicted", evicted).log();
            }
        }
    } else {
        // Keep miss accounting meaningful with the cache disabled.
        let mut cache = core.cache.lock();
        for point in &unique {
            cache.get(&point.key);
        }
    }

    // One kernel block answers the whole batch.
    let states: Vec<&Mps> = unique
        .iter()
        .map(|p| p.state.as_deref().expect("simulated above"))
        .collect();
    let predictions = {
        let _kernel_span = core.obs.span("kernel_block");
        let _kernel_trace =
            lane.map(|l| l.span_args(TracePhase::Kernel, states.len() as i64, batch.len() as i64));
        let kernel_start = Instant::now();
        let predictions = model.predict_from_states_with(ws, &states, backend);
        core.metrics
            .record_stage(Stage::Kernel, kernel_start.elapsed());
        predictions
    };

    let _reply_span = core.obs.span("reply");
    let _reply_trace = lane.map(|l| l.span_args(TracePhase::Reply, batch.len() as i64, 0));
    let reply_start = Instant::now();
    let batch_size = batch.len();
    // Reply by popping from the back: a job leaves `batch` in the same
    // step it is answered, so if anything panics mid-loop the worker
    // supervisor error-replies exactly the still-unanswered jobs —
    // never a double reply into a ticket's one-slot channel.
    while let Some(job) = batch.pop() {
        let slot = job_slots[batch.len()];
        let point = &unique[slot];
        let mut prediction = predictions[slot];
        prediction.timing.simulation = point.simulation;
        let latency = job.enqueued.elapsed();
        core.metrics.record_latency(latency);
        core.metrics.completed.inc();
        // A client that dropped its ticket is not an error.
        let _ = job.reply.send(Ok(ServedPrediction {
            prediction,
            model_version: current.version,
            cache_hit: point.cache_hit,
            batch_size,
            latency,
        }));
    }
    core.metrics
        .record_stage(Stage::Reply, reply_start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::batch_share;

    #[test]
    fn batch_share_splits_the_queue_among_idle_workers() {
        // (queued behind the popped request, idle other workers, max_batch)
        for ((queued, idle_others, max_batch), want) in [
            ((1, 1, 8), 1),
            ((3, 1, 8), 2),
            ((0, 3, 8), 1),
            ((20, 0, 8), 8),
            ((5, 0, 8), 6),
        ] {
            assert_eq!(
                batch_share(queued, idle_others, max_batch),
                want,
                "({queued}, {idle_others}, {max_batch})"
            );
        }
        for queued in 0..40 {
            for idle_others in 0..6 {
                for max_batch in 1..10 {
                    let share = batch_share(queued, idle_others, max_batch);
                    assert!((1..=max_batch).contains(&share));
                }
            }
        }
    }
}
