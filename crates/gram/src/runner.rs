//! The one tile path: restore, contract, persist and place.
//!
//! The engine's worker pool, the [`crate::rank`] drill's ranks and
//! `qk_core::distributed`'s Fig. 4 ranks all run their tiles through a
//! [`TileRunner`]. Each call takes the tile, the caller's trace lane and
//! zipper workspace, and a closure handing over the tile's bands; the
//! callers differ only in how their runner was built (checkpoint store,
//! fault plan, journal). [`write_tile`] places a finished payload.

use crate::checkpoint::{CheckpointError, CheckpointStore, TileLoad};
use crate::engine::GramError;
use crate::fingerprint::JobKind;
use crate::metrics::GramMetrics;
use crate::tiles::Tile;
use qk_chaos::{sites, Chaos, RetryPolicy};
use qk_mps::{Mps, ZipperWorkspace};
use qk_obs::{Journal, Obs, TraceLane, TracePhase};
use qk_tensor::backend::ExecutionBackend;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Contracts one tile. `row_states` / `col_states` are the tile's bands;
/// indices inside are local. Every contracted pair keeps global `i < j`
/// operand order and runs the same zipper kernel as `Mps::inner_with`,
/// which is what pins tiled output bitwise to the single-pass path. The
/// worker's zipper workspace is reused across the whole tile, so the
/// kernel's environment buffers are paid for once per band, not once per
/// pair. The caller owns the payload buffer (`rows * cols`, row-major):
/// the per-tile allocation lives in [`TileRunner::run`], keeping this
/// function on the analyzer's no-alloc list alongside the zipper kernel
/// it drives.
pub(crate) fn compute_tile(
    tile: &Tile,
    kind: JobKind,
    row_states: &[Mps],
    col_states: &[Mps],
    backend: &dyn ExecutionBackend,
    ws: &mut ZipperWorkspace,
    payload: &mut [f64],
) {
    debug_assert_eq!(row_states.len(), tile.rows);
    debug_assert_eq!(col_states.len(), tile.cols);
    debug_assert_eq!(payload.len(), tile.rows * tile.cols);
    let diagonal = kind == JobKind::Train && tile.bi == tile.bj;
    for r in 0..tile.rows {
        for c in 0..tile.cols {
            let v = if diagonal {
                let (i, j) = (tile.row0 + r, tile.col0 + c);
                if i == j {
                    1.0
                } else if i < j {
                    row_states[r]
                        .inner_into(ws, backend, &col_states[c])
                        .norm_sqr()
                } else {
                    // Mirror of the (c, r) entry computed earlier in
                    // this same payload (c < r here).
                    payload[c * tile.cols + r]
                }
            } else {
                row_states[r]
                    .inner_into(ws, backend, &col_states[c])
                    .norm_sqr()
            };
            payload[r * tile.cols + c] = v;
        }
    }
}

/// Writes a completed tile payload into the dense row-major output,
/// mirroring off-diagonal train tiles across the main diagonal.
pub fn write_tile(
    data: &mut [f64],
    total_cols: usize,
    kind: JobKind,
    tile: &Tile,
    payload: &[f64],
) {
    for r in 0..tile.rows {
        let row = (tile.row0 + r) * total_cols + tile.col0;
        data[row..row + tile.cols].copy_from_slice(&payload[r * tile.cols..(r + 1) * tile.cols]);
    }
    if kind == JobKind::Train && tile.bi != tile.bj {
        for r in 0..tile.rows {
            for c in 0..tile.cols {
                data[(tile.col0 + c) * total_cols + (tile.row0 + r)] = payload[r * tile.cols + c];
            }
        }
    }
}

/// Restores and computes the tiles of one job. Shared by reference
/// across the threads that run the job's tiles; each thread brings its
/// own [`ZipperWorkspace`] and trace lane.
pub struct TileRunner<'a> {
    pub(crate) kind: JobKind,
    backend: &'a dyn ExecutionBackend,
    store: Option<&'a CheckpointStore>,
    chaos: Chaos,
    retry: RetryPolicy,
    throttle: Option<Duration>,
    obs: Obs,
    metrics: Arc<GramMetrics>,
    pub(crate) journal: Option<&'a Journal>,
    // Flips once the store persistently fails a write: remaining tiles
    // skip persistence and the job finishes in memory.
    degraded: AtomicBool,
}

impl<'a> TileRunner<'a> {
    /// A runner that persists nothing, injects nothing and reports into
    /// a private observability context.
    pub fn new(kind: JobKind, backend: &'a dyn ExecutionBackend) -> Self {
        let obs = Obs::new();
        let metrics = Arc::new(GramMetrics::with_obs(&obs));
        Self::reporting(kind, backend, &obs, &metrics, None)
    }

    /// A runner that persists nothing and injects nothing, and reports
    /// spans into `obs`, counts into `metrics` and lifecycle events into
    /// `journal`.
    pub fn reporting(
        kind: JobKind,
        backend: &'a dyn ExecutionBackend,
        obs: &Obs,
        metrics: &Arc<GramMetrics>,
        journal: Option<&'a Journal>,
    ) -> Self {
        TileRunner {
            kind,
            backend,
            store: None,
            chaos: Chaos::disarmed(),
            retry: RetryPolicy::default(),
            throttle: None,
            obs: obs.clone(),
            metrics: Arc::clone(metrics),
            journal,
            degraded: AtomicBool::new(false),
        }
    }

    /// Persists every computed tile into `store` (`None` keeps tiles in
    /// memory only), gates tile compute and checkpoint I/O on `chaos`,
    /// retries checkpoint I/O under `retry`, and sleeps `throttle` after
    /// each contraction (the kill drills' preemption window).
    pub fn persisting(
        self,
        store: Option<&'a CheckpointStore>,
        chaos: &Chaos,
        retry: &RetryPolicy,
        throttle: Option<Duration>,
    ) -> Self {
        TileRunner {
            store,
            chaos: chaos.clone(),
            retry: retry.clone(),
            throttle,
            ..self
        }
    }

    /// Reads `tile` back from `store`: `Some` only for a file that
    /// passes checksum, fingerprint and geometry checks. A file that
    /// fails them is deleted by the load; one whose reads keep erroring
    /// after backoff is quarantined. Either way the tile recomputes, and
    /// tiles are deterministic, so the replacement is bitwise identical
    /// to what the file held.
    pub fn restore(&self, store: &CheckpointStore, tile: &Tile) -> Option<Vec<f64>> {
        let retried = self.retry.run(|| {
            self.chaos.gate(sites::GRAM_CKPT_LOAD, || {
                self.metrics.record_fault_injected()
            })?;
            store.load_classified(tile)
        });
        self.metrics.record_retries(retried.retries);
        let event = match retried.result {
            Ok(TileLoad::Loaded(payload)) => {
                self.metrics.record_restored(tile.inner_products(self.kind));
                self.log_tile("tile_restored", tile);
                return Some(payload);
            }
            Ok(TileLoad::Missing) => return None,
            Ok(TileLoad::Corrupt) => "tile_corrupt_recomputed",
            Err(_persistent) => {
                let _ = store.quarantine(tile);
                self.metrics.record_quarantined();
                "tile_quarantined"
            }
        };
        self.log_tile(event, tile);
        None
    }

    /// Contracts `tile` over the bands `bands` returns and persists the
    /// payload into the runner's store. Fails only when the chaos gate
    /// injects an I/O fault or `bands` fails; an injected panic unwinds
    /// to the caller.
    pub fn run<'s>(
        &self,
        tile: &Tile,
        lane: Option<&TraceLane>,
        ws: &mut ZipperWorkspace,
        bands: impl FnOnce() -> Result<(&'s [Mps], &'s [Mps]), GramError>,
    ) -> Result<Vec<f64>, GramError> {
        let args = (tile.bi as i64, tile.bj as i64);
        self.chaos
            .gate(sites::GRAM_TILE, || self.metrics.record_fault_injected())
            .map_err(CheckpointError::Io)?;
        // The payload is the one per-tile allocation; the compute path
        // below it is allocation-free.
        let mut payload = vec![0.0f64; tile.len()];
        let (rows, cols) = {
            let _span = self.obs.span("band_load");
            let _trace = lane.map(|l| l.span_args(TracePhase::BandLoad, args.0, args.1));
            bands()?
        };
        {
            let _span = self.obs.span("tile_compute");
            let _trace = lane.map(|l| l.span_args(TracePhase::Compute, args.0, args.1));
            compute_tile(tile, self.kind, rows, cols, self.backend, ws, &mut payload);
        }
        if let Some(t) = self.throttle {
            std::thread::sleep(t);
        }
        if let Some(store) = self
            .store
            .filter(|_| !self.degraded.load(Ordering::Relaxed))
        {
            let _span = self.obs.span("checkpoint_write");
            let _trace = lane.map(|l| l.span_args(TracePhase::CheckpointWrite, args.0, args.1));
            let retried = self.retry.run(|| {
                self.chaos.gate(sites::GRAM_CKPT_STORE, || {
                    self.metrics.record_fault_injected()
                })?;
                store.store(tile, &payload)
            });
            self.metrics.record_retries(retried.retries);
            match retried.result {
                Ok(()) => self.log_tile("checkpoint_write", tile),
                // Persistent write failure: give up on the store (once)
                // and finish in memory rather than failing the job.
                Err(e) => {
                    if !self.degraded.swap(true, Ordering::Relaxed) {
                        eprintln!(
                            "qk-gram: checkpoint store failed, degrading to \
                             in-memory assembly: {e}"
                        );
                        if let Some(journal) = self.journal {
                            journal
                                .event("checkpoint_degraded")
                                .field_str("stage", "store")
                                .field_u64("bi", tile.bi as u64)
                                .field_u64("bj", tile.bj as u64)
                                .log();
                        }
                    }
                }
            }
        }
        let products = tile.inner_products(self.kind);
        self.metrics.record_computed(products);
        if let Some(journal) = self.journal {
            journal
                .event("tile_computed")
                .field_u64("bi", tile.bi as u64)
                .field_u64("bj", tile.bj as u64)
                .field_u64("products", products as u64)
                .log();
        }
        Ok(payload)
    }

    fn log_tile(&self, event: &str, tile: &Tile) {
        if let Some(journal) = self.journal {
            journal
                .event(event)
                .field_u64("bi", tile.bi as u64)
                .field_u64("bj", tile.bj as u64)
                .log();
        }
    }
}
