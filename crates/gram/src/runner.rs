//! The one tile path: restore, contract, persist and place.
//!
//! The engine's worker pool, the [`crate::rank`] drill's ranks and
//! `qk_core::distributed`'s Fig. 4 ranks all run their tiles through a
//! [`TileRunner`]. Each call takes the tile, the caller's trace lane and
//! zipper workspace, and a closure handing over the tile's bands; the
//! callers differ only in how their runner was built (checkpoint store,
//! fault plan, journal). [`write_tile`] places a finished payload.
//!
//! A tile in flight is a [`SharedTile`]: its bands plus a row cursor.
//! [`compute_tile`] claims rows from that cursor until none are left,
//! so any number of threads can work one tile. The thread that runs the
//! tile (its owner) always takes part; the engine's pool publishes the
//! tile so that a worker with nothing else to do can join it through
//! [`TileRunner::help`]. The drill's and the Fig. 4 ranks publish
//! nothing, and their owner claims every row, in order. Whoever computes
//! an entry, it is one `inner_into` call with global `i < j` operands,
//! so sharing cannot move a bit. The owner alone gates, mirrors,
//! persists, reports and returns the payload; helpers only add rows.

use crate::checkpoint::{CheckpointError, CheckpointStore, TileLoad};
use crate::engine::{Board, GramError};
use crate::fingerprint::JobKind;
use crate::metrics::GramMetrics;
use crate::tiles::Tile;
use qk_chaos::{sites, Chaos, RetryPolicy};
use qk_mps::{Mps, ZipperWorkspace};
use qk_obs::{Journal, Obs, TraceLane, TracePhase};
use qk_tensor::backend::ExecutionBackend;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The states along one edge of a tile: borrowed from resident states,
/// or a spilled band its owner loaded, which helpers read through the
/// shared handle instead of loading it again.
#[derive(Clone)]
pub(crate) enum Band<'s> {
    Borrowed(&'s [Mps]),
    Loaded(Arc<Vec<Mps>>),
}

impl Deref for Band<'_> {
    type Target = [Mps];

    fn deref(&self) -> &[Mps] {
        match self {
            Band::Borrowed(states) => states,
            Band::Loaded(states) => states,
        }
    }
}

/// One tile in flight: its bands, a cursor its participants claim rows
/// from, and one cell per entry. A claimed row is written by its
/// claimant alone and then counted in `rows_in`, which is how the owner
/// learns the payload is whole.
pub(crate) struct SharedTile<'s> {
    tile: Tile,
    diagonal: bool,
    row_states: Band<'s>,
    col_states: Band<'s>,
    next_row: AtomicUsize,
    cells: Vec<AtomicU64>,
    rows_in: Mutex<RowsIn>,
    all_in: Condvar,
}

/// Rows finished so far, and whether a helper died holding one.
struct RowsIn {
    done: usize,
    helper_died: bool,
}

impl<'s> SharedTile<'s> {
    pub(crate) fn new(
        tile: Tile,
        kind: JobKind,
        row_states: Band<'s>,
        col_states: Band<'s>,
    ) -> Self {
        debug_assert_eq!(row_states.len(), tile.rows);
        debug_assert_eq!(col_states.len(), tile.cols);
        SharedTile {
            tile,
            diagonal: kind == JobKind::Train && tile.bi == tile.bj,
            row_states,
            col_states,
            next_row: AtomicUsize::new(0),
            cells: (0..tile.len()).map(|_| AtomicU64::new(0)).collect(),
            rows_in: Mutex::new(RowsIn {
                done: 0,
                helper_died: false,
            }),
            all_in: Condvar::new(),
        }
    }

    /// Rows nobody has claimed yet.
    pub(crate) fn rows_left(&self) -> usize {
        self.tile
            .rows
            .saturating_sub(self.next_row.load(Ordering::Relaxed))
    }

    pub(crate) fn claim_row(&self) -> Option<usize> {
        let r = self.next_row.fetch_add(1, Ordering::Relaxed);
        (r < self.tile.rows).then_some(r)
    }

    /// Hands out no further rows: the owner gave the tile up.
    pub(crate) fn close(&self) {
        self.next_row.fetch_max(self.tile.rows, Ordering::Relaxed);
    }

    pub(crate) fn row_in(&self) {
        let mut rows_in = self.rows_in.lock().expect("row count poisoned");
        rows_in.done += 1;
        if rows_in.done == self.tile.rows {
            self.all_in.notify_all();
        }
    }

    fn helper_died(&self) {
        self.rows_in.lock().expect("row count poisoned").helper_died = true;
        self.all_in.notify_all();
    }

    /// Waits until every row is in, then returns the payload with a
    /// diagonal tile's in-block mirror written. Panics, so that the
    /// owner's supervision requeues the tile, if a helper died holding
    /// a row: that row will never come in.
    pub(crate) fn payload(&self) -> Vec<f64> {
        let complete = {
            let mut rows_in = self.rows_in.lock().expect("row count poisoned");
            while rows_in.done < self.tile.rows && !rows_in.helper_died {
                rows_in = self.all_in.wait(rows_in).expect("row count poisoned");
            }
            rows_in.done == self.tile.rows
        };
        assert!(
            complete,
            "a helper died inside tile ({}, {})",
            self.tile.bi, self.tile.bj
        );
        let mut payload: Vec<f64> = self
            .cells
            .iter()
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
            .collect();
        if self.diagonal {
            let cols = self.tile.cols;
            for r in 0..self.tile.rows {
                for c in 0..r {
                    payload[r * cols + c] = payload[c * cols + r];
                }
            }
        }
        payload
    }
}

/// Marks the tile when a helper unwinds out of it, so the owner stops
/// waiting for the row that helper held.
pub(crate) struct HelperWatch<'t, 's>(pub(crate) &'t SharedTile<'s>);

impl Drop for HelperWatch<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.helper_died();
        }
    }
}

/// Contracts the rows of `shared` that this thread claims, until the
/// cursor has none left. The caller's zipper workspace is reused across
/// the rows, so the kernel's environment buffers are paid for once per
/// band, not once per pair. The cells were allocated with the tile,
/// keeping this function on the analyzer's no-alloc list alongside the
/// zipper kernel it drives.
pub(crate) fn compute_tile(
    shared: &SharedTile<'_>,
    backend: &dyn ExecutionBackend,
    ws: &mut ZipperWorkspace,
) {
    while let Some(r) = shared.claim_row() {
        contract_row(shared, r, backend, ws);
        shared.row_in();
    }
}

/// Contracts row `r` of `shared` into its cells. Every contracted pair
/// keeps global `i < j` operand order and runs the same zipper kernel
/// as `Mps::inner_with`, which is what pins tiled output bitwise to the
/// single-pass path, no matter which thread takes the row. A diagonal
/// tile contracts only its `i < j` entries; the owner mirrors the rest
/// once every row is in.
pub(crate) fn contract_row(
    shared: &SharedTile<'_>,
    r: usize,
    backend: &dyn ExecutionBackend,
    ws: &mut ZipperWorkspace,
) {
    let tile = &shared.tile;
    let i = tile.row0 + r;
    let row = &shared.row_states[r];
    let cells = &shared.cells[r * tile.cols..(r + 1) * tile.cols];
    for (c, cell) in cells.iter().enumerate() {
        let j = tile.col0 + c;
        let v = if !shared.diagonal || i < j {
            row.inner_into(ws, backend, &shared.col_states[c])
                .norm_sqr()
        } else if i == j {
            1.0
        } else {
            continue;
        };
        cell.store(v.to_bits(), Ordering::Relaxed);
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
        self.run_on(tile, lane, ws, None, || {
            bands().map(|(rows, cols)| (Band::Borrowed(rows), Band::Borrowed(cols)))
        })
    }

    /// [`TileRunner::run`] as the pool's workers call it: once the gate
    /// passes and the bands are in, the tile goes up on `board`, where
    /// idle workers join it, until its owner has claimed every row.
    pub(crate) fn run_on<'s>(
        &self,
        tile: &Tile,
        lane: Option<&TraceLane>,
        ws: &mut ZipperWorkspace,
        board: Option<&Board<'s>>,
        bands: impl FnOnce() -> Result<(Band<'s>, Band<'s>), GramError>,
    ) -> Result<Vec<f64>, GramError> {
        let args = (tile.bi as i64, tile.bj as i64);
        self.chaos
            .gate(sites::GRAM_TILE, || self.metrics.record_fault_injected())
            .map_err(CheckpointError::Io)?;
        let (rows, cols) = {
            let _span = self.obs.span("band_load");
            let _trace = lane.map(|l| l.span_args(TracePhase::BandLoad, args.0, args.1));
            bands()?
        };
        // The shared tile and the payload are the per-tile allocations;
        // the compute path between them is allocation-free.
        let shared = Arc::new(SharedTile::new(*tile, self.kind, rows, cols));
        let payload = {
            let _span = self.obs.span("tile_compute");
            {
                let _posted = board.map(|b| b.post(&shared));
                let _trace = lane.map(|l| l.span_args(TracePhase::Compute, args.0, args.1));
                compute_tile(&shared, self.backend, ws);
            }
            shared.payload()
        };
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

    /// Joins `shared` as a helper: claims and contracts its rows until
    /// none are left, under one `Compute` span on `lane`. A helper
    /// passes no gate, loads no band, persists nothing and logs no
    /// event; its owner does all of that. A helper that panics marks the
    /// tile on the way out, so the owner requeues it instead of waiting.
    pub(crate) fn help(
        &self,
        shared: &SharedTile<'_>,
        lane: Option<&TraceLane>,
        ws: &mut ZipperWorkspace,
    ) {
        let _trace = lane.map(|l| {
            l.span_args(
                TracePhase::Compute,
                shared.tile.bi as i64,
                shared.tile.bj as i64,
            )
        });
        let _watch = HelperWatch(shared);
        compute_tile(shared, self.backend, ws);
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
