//! Serving telemetry: counters, a latency histogram, and snapshots.
//!
//! Instruments live in the server's shared [`qk_obs`] registry (names
//! under `serve.*`), so the same counters that feed
//! [`MetricsSnapshot`] also appear in the unified `ObsReport` written
//! at shutdown. Latencies land in `qk-obs`'s logarithmic
//! (power-of-two microsecond) buckets: recording is lock-brief and
//! constant-size while still resolving the tail percentiles the
//! serving story cares about; quantiles report a bucket's upper edge
//! (clamped to the true maximum), i.e. p99 is never under-reported.
//! Follows the `core::timing` convention of measuring durations with
//! monotonic instants and reporting `Duration`s.

use crate::cache::CacheStats;
use qk_obs::{Counter, Gauge, Histogram, Obs};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Latency percentiles for one snapshot, plus the full bucket array so
/// downstream tooling can recompute any quantile offline.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySnapshot {
    /// Median request latency (enqueue to reply).
    pub p50: Duration,
    /// 95th percentile latency.
    pub p95: Duration,
    /// 99th percentile latency.
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
    /// Mean latency.
    pub mean: Duration,
    /// Number of recorded request latencies.
    pub count: u64,
    /// Power-of-two microsecond buckets: `buckets[i]` counts latencies
    /// in `[2^i, 2^(i+1))` µs ([`qk_obs::BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

/// Latency summary for one pipeline stage (`serve.stage.*` histogram).
#[derive(Debug, Clone, Serialize)]
pub struct StageLatency {
    /// Stage name: `queue`, `coalesce`, `encode`, `kernel` or `reply`.
    pub stage: String,
    /// Median stage latency.
    pub p50: Duration,
    /// 99th percentile stage latency.
    pub p99: Duration,
    /// Worst observed stage latency.
    pub max: Duration,
    /// Mean stage latency.
    pub mean: Duration,
    /// Number of recorded observations.
    pub count: u64,
}

/// Point-in-time view of the server's health and throughput.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Time since the server started.
    pub uptime: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused: failed validation at submit (closed, wrong
    /// feature count, unrepresentable feature), `try_submit`
    /// backpressure, or — rarely — answered with an error because a
    /// hot-swap changed the feature count while they were queued (those
    /// also appear in `submitted`).
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Completed requests per wall-clock second since start.
    pub throughput_rps: f64,
    /// Requests currently waiting in the submission queue.
    pub queue_depth: usize,
    /// Worker wakes that processed at least one request.
    pub batches: u64,
    /// Mean coalesced batch size.
    pub mean_batch_size: f64,
    /// Largest coalesced batch.
    pub max_batch_size: u64,
    /// Workers parked in the queue's blocking `recv` right now (the
    /// `serve.idle_workers` gauge the batch-formation rule reads).
    pub idle_workers: usize,
    /// Fraction of worker time spent on batches since start:
    /// Σ batch processing time / (uptime × workers). Well under 1 with
    /// requests waiting means a worker sat idle while they did.
    pub worker_busy_share: f64,
    /// Circuit simulations performed (= encoding-cache misses that were
    /// actually simulated).
    pub simulations: u64,
    /// Requests shed by admission control or a missed deadline (each
    /// received an explicit `Shed` / `DeadlineExceeded` error reply).
    pub requests_shed: u64,
    /// Worker restarts after a caught batch panic (the in-flight batch
    /// was error-replied, never dropped).
    pub workers_restarted: u64,
    /// Faults the armed chaos plan injected into this server.
    pub faults_injected: u64,
    /// Encoding-cache counters.
    pub cache: CacheStats,
    /// Fraction of lookups served from the encoding cache.
    pub cache_hit_rate: f64,
    /// Request latency percentiles.
    pub latency: LatencySnapshot,
    /// Per-stage latency breakdown, in pipeline order: `queue` (first
    /// request of a batch, enqueue to batch start), `coalesce` (queue
    /// drain: non-blocking `try_recv`s, ~µs), `encode` (cache-miss
    /// simulations per batch), `kernel` (one kernel block per batch),
    /// `reply` (answer fan-out per batch).
    pub stages: Vec<StageLatency>,
    /// Model version serving new batches.
    pub model_version: u64,
    /// Encoding epoch (bumps when a deploy changes ansatz/truncation).
    pub encoding_epoch: u64,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "uptime {:.2?}  model v{} (epoch {})",
            self.uptime, self.model_version, self.encoding_epoch
        )?;
        writeln!(
            f,
            "requests: {} completed / {} submitted ({} rejected), {:.1} req/s, queue depth {}",
            self.completed, self.submitted, self.rejected, self.throughput_rps, self.queue_depth
        )?;
        writeln!(
            f,
            "batching: {} batches, mean size {:.2}, max size {}; workers: {} idle, busy share {:.2}",
            self.batches,
            self.mean_batch_size,
            self.max_batch_size,
            self.idle_workers,
            self.worker_busy_share
        )?;
        writeln!(
            f,
            "robustness: {} shed, {} worker restarts, {} injected faults",
            self.requests_shed, self.workers_restarted, self.faults_injected
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit rate ({} hits / {} misses), {} entries, {:.1} KiB, {} evictions; {} simulations",
            100.0 * self.cache_hit_rate,
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.bytes as f64 / 1024.0,
            self.cache.evictions,
            self.simulations
        )?;
        writeln!(
            f,
            "latency: p50 {:.2?}, p95 {:.2?}, p99 {:.2?}, max {:.2?}, mean {:.2?}",
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max,
            self.latency.mean
        )?;
        write!(f, "stages (p50/p99):")?;
        for s in &self.stages {
            write!(f, " {} {:.2?}/{:.2?}", s.stage, s.p50, s.p99)?;
        }
        Ok(())
    }
}

/// Pipeline stages with a dedicated latency histogram; the discriminant
/// indexes `Metrics::stages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// First request of a batch: enqueue to batch start.
    Queue = 0,
    /// Queue drain in the worker loop (non-blocking `try_recv`s).
    Coalesce = 1,
    /// Cache-miss simulations for one batch.
    Encode = 2,
    /// The batch's single kernel block.
    Kernel = 3,
    /// Answer fan-out for one batch.
    Reply = 4,
}

/// Shared mutable telemetry, updated by submitters and workers. All
/// instruments are registered in the server's [`Obs`] under `serve.*`.
pub(crate) struct Metrics {
    started: Instant,
    workers: usize,
    pub(crate) submitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) completed: Counter,
    pub(crate) batches: Counter,
    pub(crate) batched_jobs: Counter,
    pub(crate) max_batch_size: Counter,
    pub(crate) simulations: Counter,
    pub(crate) requests_shed: Counter,
    pub(crate) workers_restarted: Counter,
    pub(crate) faults_injected: Counter,
    pub(crate) queue_depth: Gauge,
    /// Workers blocked in the queue's `recv`; read by the fair-share
    /// drain, so it lives in the registry rather than a private atomic.
    pub(crate) idle_workers: Gauge,
    /// Σ time workers spent between popping a request and finishing
    /// its batch, µs.
    worker_busy_us: Counter,
    latency: Histogram,
    /// Pipeline-stage histograms, in pipeline order with their wire
    /// names — the request-granularity breakdown behind the serving
    /// latency story.
    stages: [(&'static str, Histogram); 5],
}

impl Metrics {
    pub(crate) fn new(obs: &Obs, workers: usize) -> Self {
        Metrics {
            started: Instant::now(),
            workers,
            submitted: obs.counter("serve.submitted"),
            rejected: obs.counter("serve.rejected"),
            completed: obs.counter("serve.completed"),
            batches: obs.counter("serve.batches"),
            batched_jobs: obs.counter("serve.batched_jobs"),
            max_batch_size: obs.counter("serve.max_batch_size"),
            simulations: obs.counter("serve.simulations"),
            requests_shed: obs.counter("serve.requests_shed"),
            workers_restarted: obs.counter("serve.workers_restarted"),
            faults_injected: obs.counter("serve.faults_injected"),
            queue_depth: obs.gauge("serve.queue_depth"),
            idle_workers: obs.gauge("serve.idle_workers"),
            worker_busy_us: obs.counter("serve.worker_busy_us"),
            latency: obs.histogram("serve.latency_us"),
            stages: [
                ("queue", obs.histogram("serve.stage.queue_us")),
                ("coalesce", obs.histogram("serve.stage.coalesce_us")),
                ("encode", obs.histogram("serve.stage.encode_us")),
                ("kernel", obs.histogram("serve.stage.kernel_us")),
                ("reply", obs.histogram("serve.stage.reply_us")),
            ],
        }
    }

    /// Records one observation into a pipeline-stage histogram.
    pub(crate) fn record_stage(&self, stage: Stage, took: Duration) {
        self.stages[stage as usize]
            .1
            .record(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
    }

    /// Adds one pop-to-batch-end interval to the workers' busy time.
    pub(crate) fn record_busy(&self, took: Duration) {
        self.worker_busy_us
            .add(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.inc();
        self.batched_jobs.add(size as u64);
        self.max_batch_size.record_max(size as u64);
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency
            .record(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    pub(crate) fn snapshot(
        &self,
        cache: CacheStats,
        model_version: u64,
        encoding_epoch: u64,
    ) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let completed = self.completed.get();
        let batches = self.batches.get();
        let batched_jobs = self.batched_jobs.get();
        let hist = self.latency.snapshot();
        MetricsSnapshot {
            uptime,
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed,
            throughput_rps: completed as f64 / uptime.as_secs_f64().max(1e-9),
            queue_depth: usize::try_from(self.queue_depth.get().max(0)).unwrap_or(0),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_jobs as f64 / batches as f64
            },
            max_batch_size: self.max_batch_size.get(),
            idle_workers: usize::try_from(self.idle_workers.get().max(0)).unwrap_or(0),
            worker_busy_share: self.worker_busy_us.get() as f64
                / (uptime.as_secs_f64() * 1e6 * self.workers as f64).max(1e-9),
            simulations: self.simulations.get(),
            requests_shed: self.requests_shed.get(),
            workers_restarted: self.workers_restarted.get(),
            faults_injected: self.faults_injected.get(),
            cache,
            cache_hit_rate: cache.hit_rate(),
            latency: LatencySnapshot {
                p50: Duration::from_micros(hist.quantile(0.50)),
                p95: Duration::from_micros(hist.quantile(0.95)),
                p99: Duration::from_micros(hist.quantile(0.99)),
                max: Duration::from_micros(hist.max),
                mean: Duration::from_secs_f64(hist.mean / 1e6),
                count: hist.count,
                buckets: hist.buckets,
            },
            stages: self
                .stages
                .iter()
                .map(|(name, h)| {
                    let s = h.snapshot();
                    StageLatency {
                        stage: (*name).to_string(),
                        p50: Duration::from_micros(s.quantile(0.50)),
                        p99: Duration::from_micros(s.quantile(0.99)),
                        max: Duration::from_micros(s.max),
                        mean: Duration::from_secs_f64(s.mean / 1e6),
                        count: s.count,
                    }
                })
                .collect(),
            model_version,
            encoding_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        Metrics::new(&Obs::new(), 2)
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let m = metrics();
        for us in [50u64, 80, 120, 400, 900, 1500, 3000, 9000, 20_000, 70_000] {
            m.record_latency(Duration::from_micros(us));
        }
        let s = m.snapshot(CacheStats::default(), 1, 0).latency;
        assert!(s.p50 > Duration::ZERO);
        assert!(
            s.p50 <= s.p95 && s.p95 <= s.p99,
            "{:?} {:?} {:?}",
            s.p50,
            s.p95,
            s.p99
        );
        assert!(s.p99 <= s.max);
        assert_eq!(s.max, Duration::from_micros(70_000));
        assert!(s.mean > Duration::ZERO);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = metrics().snapshot(CacheStats::default(), 1, 0).latency;
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.mean, Duration::ZERO);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn single_observation_hits_every_quantile() {
        let m = metrics();
        m.record_latency(Duration::from_micros(333));
        let s = m.snapshot(CacheStats::default(), 1, 0).latency;
        for q in [s.p50, s.p95, s.p99] {
            assert_eq!(q, Duration::from_micros(333));
        }
    }

    #[test]
    fn extreme_latencies_clamp_to_edge_buckets() {
        let m = metrics();
        m.record_latency(Duration::ZERO);
        m.record_latency(Duration::from_secs(100_000));
        let s = m.snapshot(CacheStats::default(), 1, 0).latency;
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.first().copied(), Some(1));
        assert_eq!(s.p99, s.max);
    }

    #[test]
    fn snapshot_exposes_full_bucket_array() {
        let m = metrics();
        m.record_latency(Duration::from_micros(3)); // bucket 1: [2, 4)
        m.record_latency(Duration::from_micros(3));
        m.record_latency(Duration::from_micros(100)); // bucket 6: [64, 128)
        let s = m.snapshot(CacheStats::default(), 1, 0).latency;
        assert_eq!(s.buckets.len(), qk_obs::BUCKETS);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[6], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn stage_histograms_resolve_in_pipeline_order() {
        let m = metrics();
        m.record_stage(Stage::Queue, Duration::from_micros(10));
        m.record_stage(Stage::Kernel, Duration::from_micros(700));
        m.record_stage(Stage::Kernel, Duration::from_micros(900));
        let s = m.snapshot(CacheStats::default(), 1, 0);
        let names: Vec<&str> = s.stages.iter().map(|x| x.stage.as_str()).collect();
        assert_eq!(names, ["queue", "coalesce", "encode", "kernel", "reply"]);
        assert_eq!(s.stages[0].count, 1);
        assert_eq!(s.stages[1].count, 0);
        assert_eq!(s.stages[3].count, 2);
        assert_eq!(s.stages[3].max, Duration::from_micros(900));
        assert!(s.stages[3].p50 <= s.stages[3].p99);
        assert!(format!("{s}").contains("stages (p50/p99)"));
    }

    #[test]
    fn snapshot_math() {
        let m = metrics();
        m.submitted.add(10);
        m.completed.add(8);
        m.record_batch(3);
        m.record_batch(5);
        m.record_latency(Duration::from_millis(2));
        m.idle_workers.inc();
        m.record_busy(Duration::from_micros(1));
        let s = m.snapshot(CacheStats::default(), 2, 1);
        assert_eq!(s.idle_workers, 1);
        assert!(s.worker_busy_share > 0.0);
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 8);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_size - 4.0).abs() < 1e-12);
        assert_eq!(s.max_batch_size, 5);
        assert_eq!(s.model_version, 2);
        assert!(s.throughput_rps > 0.0);
        assert!(!format!("{s}").is_empty());
    }
}
