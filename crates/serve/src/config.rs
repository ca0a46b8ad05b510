//! Serving configuration.

use qk_chaos::Chaos;
use qk_obs::Tracer;
use std::path::PathBuf;
use std::time::Duration;

/// Tuning knobs for a [`crate::KernelServer`].
///
/// The defaults target the paper's inference profile (Sec. III-A: one
/// simulation plus one inner product per retained state). At the
/// paper's 165 qubits the simulation dominates (~2 s against ~0.02 s
/// per inner product); at the repo benchmark's shape (m = 32, d = 1,
/// 256 model states) it is the other way round — a simulation measures
/// 0.34 ms and a kernel row 1.3 ms — so a hot request is nearly all
/// kernel row and what matters is that no worker idles while a request
/// waits. There is accordingly no wait knob: batches form only from
/// what is already queued (see [`crate::server`]). The queue holds a
/// few batches per worker, and the cache is large enough for tens of
/// thousands of d = 1 states (the paper stores 64,000 training states
/// in under 1 GiB; query states are the same size).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads sharing the submission queue (min 1).
    pub workers: usize,
    /// Most requests one worker drains into a batch (min 1). A worker
    /// takes fewer when other workers are idle: its fair share of the
    /// queue, never waiting for more to arrive.
    pub max_batch: usize,
    /// Bound on queued requests; submitters block (backpressure) or get
    /// [`crate::ServeError::QueueFull`] from `try_submit` beyond it.
    pub queue_capacity: usize,
    /// Encoding-cache entry budget; 0 disables the cache entirely.
    pub cache_capacity: usize,
    /// Optional encoding-cache byte budget (entry sizes come from
    /// [`qk_mps::Mps::memory_bytes`]); `None` = entries-only bound.
    pub cache_max_bytes: Option<usize>,
    /// Feature quantization scale for cache keys: coordinates are mapped
    /// to `round(x * scale)`, so points within `0.5 / scale` per
    /// coordinate share one cached encoding. Larger = stricter matching
    /// (fewer false shares), smaller = more aggressive deduplication.
    pub quantization_scale: f64,
    /// Observability export directory: when set, the server appends
    /// lifecycle events to `serve_journal.jsonl` and writes the unified
    /// `obs_serve.json` report there on shutdown. `None` = no export
    /// (in-memory metrics still work).
    pub obs_dir: Option<PathBuf>,
    /// Per-request deadline: a request still unprocessed this long after
    /// it was enqueued is shed with
    /// [`crate::ServeError::DeadlineExceeded`] instead of riding its
    /// batch — bounded staleness beats a late answer. `None` = no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Admission control: submissions are shed with
    /// [`crate::ServeError::Shed`] while the queue already holds this
    /// many requests. Unlike `queue_capacity` (which blocks `submit`
    /// and fails `try_submit` with `QueueFull` at the channel bound),
    /// this sheds *explicitly and early* on both paths, so an overload
    /// never turns into unbounded latency. `None` = no shedding.
    pub shed_queue_depth: Option<usize>,
    /// Armed fault plan the worker loop consults (batch panics, queue
    /// stalls). The default disarmed handle injects nothing. See
    /// `qk_chaos`.
    pub chaos: Chaos,
    /// Trace collector for batch-granular timeline events (queue,
    /// coalesce, encode, kernel, reply). Worker `w` records onto lane
    /// `(0, w)`; the driver that owns the tracer writes the shards
    /// after shutdown. `None` = no tracing. Per-request stage latency
    /// histograms (`serve.stage.*`) are recorded regardless.
    pub trace: Option<Tracer>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Scale with the host: each worker evaluates its batch's
            // kernel rows serially on its own zipper workspace, so the
            // worker count *is* the inference parallelism.
            workers: std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(4)
                .clamp(2, 16),
            max_batch: 8,
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_max_bytes: None,
            quantization_scale: 1e6,
            obs_dir: None,
            deadline: None,
            shed_queue_depth: None,
            chaos: Chaos::disarmed(),
            trace: None,
        }
    }
}

impl ServeConfig {
    /// Defaults with the given worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers,
            ..Self::default()
        }
    }

    /// Returns a copy with the structurally-zero fields clamped to their
    /// minimum legal values (`cache_capacity` 0 stays 0: cache off).
    pub(crate) fn normalized(&self) -> Self {
        ServeConfig {
            workers: self.workers.max(1),
            max_batch: self.max_batch.max(1),
            queue_capacity: self.queue_capacity.max(1),
            quantization_scale: if self.quantization_scale > 0.0 {
                self.quantization_scale
            } else {
                1e6
            },
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_zeros() {
        let cfg = ServeConfig {
            workers: 0,
            max_batch: 0,
            queue_capacity: 0,
            cache_capacity: 0,
            quantization_scale: -1.0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.cache_capacity, 0, "cache off must stay off");
        assert!(cfg.quantization_scale > 0.0);
    }
}
