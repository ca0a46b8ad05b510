//! Engine configuration: tile geometry, worker count, checkpointing,
//! memory budget and test/drill hooks.

use qk_chaos::{Chaos, RetryPolicy};
use qk_obs::{Obs, Tracer};
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of a [`crate::GramEngine`].
#[derive(Debug, Clone)]
pub struct GramConfig {
    /// Tile edge length. Peak per-worker tile memory is
    /// `tile^2 * 8` bytes; smaller tiles checkpoint at a finer grain,
    /// larger tiles amortize scheduling and I/O.
    pub tile: usize,
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Encoding digest folded into the job fingerprint
    /// ([`crate::encoding_fingerprint`] for the standard pipeline).
    pub encoding: u64,
    /// Checkpoint directory. `None` disables persistence (pure in-memory
    /// run); `Some(dir)` persists every completed tile and resumes any
    /// valid tiles already present.
    pub checkpoint: Option<PathBuf>,
    /// Byte budget for resident MPS states on the owned-state entry
    /// points. When the encoded states exceed it, they are spilled to
    /// disk per row band and reloaded at most two bands per worker.
    /// `None` keeps everything resident.
    pub memory_budget: Option<usize>,
    /// Stop after computing this many *new* tiles, leaving the
    /// checkpoint partial — deterministic stand-in for a preemption in
    /// interrupt/resume tests. `None` runs to completion.
    pub max_tiles: Option<usize>,
    /// Per-tile pacing delay. Widens the preemption window in
    /// kill-and-resume drills (CI SIGKILLs a throttled run mid-flight);
    /// `None` in production.
    pub throttle: Option<Duration>,
    /// Observability context the engine registers its `gram.*` counters
    /// and spans into. `None` gives the engine a private context (its
    /// report still works, it just is not shared with other
    /// components). Instrumentation never participates in the bitwise
    /// determinism contract.
    pub obs: Option<Obs>,
    /// Observability export directory: when set, the engine appends
    /// lifecycle events to `gram_journal.jsonl` and writes the unified
    /// `obs_gram.json` report there when a job finishes (including
    /// interrupted runs). `None` = no export.
    pub obs_dir: Option<PathBuf>,
    /// Armed fault plan the engine's guarded operations consult
    /// (checkpoint store/load, tile compute). The default disarmed
    /// handle injects nothing; fault schedules replay bitwise per
    /// `(seed, site, occurrence)`. See `qk_chaos`.
    pub chaos: Chaos,
    /// Backoff policy for checkpoint store/load operations. Transient
    /// I/O failures are retried this many times before the engine falls
    /// back to quarantine-and-recompute (loads) or degraded in-memory
    /// assembly (stores).
    pub retry: RetryPolicy,
    /// Trace collector for tile-granular timeline events (queue-wait,
    /// steal, band-load, compute, checkpoint-write). Workers record
    /// onto lanes `(trace_rank, worker_id)`. `None` = no tracing; like
    /// the rest of the instrumentation, tracing never participates in
    /// the bitwise determinism contract.
    pub trace: Option<Tracer>,
    /// Rank id the engine's trace lanes are tagged with (the rank
    /// driver sets this; single-process runs keep 0).
    pub trace_rank: u32,
}

impl Default for GramConfig {
    fn default() -> Self {
        GramConfig {
            tile: 128,
            workers: 0,
            encoding: 0,
            checkpoint: None,
            memory_budget: None,
            max_tiles: None,
            throttle: None,
            obs: None,
            obs_dir: None,
            chaos: Chaos::disarmed(),
            retry: RetryPolicy::default(),
            trace: None,
            trace_rank: 0,
        }
    }
}

impl GramConfig {
    /// Pure in-memory configuration (no checkpoint, no spill) at the
    /// given tile edge — what `core::gram` runs at every problem size.
    pub fn in_memory(tile: usize) -> Self {
        GramConfig {
            tile,
            ..Self::default()
        }
    }

    /// Checkpointing configuration bound to an encoding digest.
    pub fn checkpointed(dir: impl Into<PathBuf>, tile: usize, encoding: u64) -> Self {
        GramConfig {
            tile,
            encoding,
            checkpoint: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Resolved worker count.
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let m = GramConfig::in_memory(64);
        assert_eq!(m.tile, 64);
        assert!(m.checkpoint.is_none());
        let c = GramConfig::checkpointed("/tmp/x", 32, 7);
        assert_eq!(
            c.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(c.encoding, 7);
        assert!(GramConfig::default().effective_workers() >= 1);
        assert_eq!(
            GramConfig {
                workers: 3,
                ..GramConfig::default()
            }
            .effective_workers(),
            3
        );
    }
}
