//! The tiled Gram engine: plans tiles, restores any valid checkpointed
//! ones, and schedules the rest across a work-stealing worker pool. Both
//! steps go through the crate's one [`TileRunner`].
//!
//! Scheduling: the pending tiles (band-major order) are split into one
//! contiguous run per worker, each guarded by its own deque. A worker
//! pops from the *front* of its own deque — preserving band order, so
//! its row-band cache stays hot — and when empty steals from the *back*
//! of the most loaded victim, where the bands it would have to load
//! anyway are coldest for the owner. A worker that finds every deque
//! empty does not exit while tiles are in flight: it waits on the
//! pool's board, where each owner posts its tile once the tile's
//! gate has passed and its bands are in, and joins the posted tile with
//! the most unclaimed rows, claiming rows from the tile's shared cursor
//! (`TileRunner::help`). So a job with fewer tiles than workers, and
//! the tail of every job, still runs on every worker; the pool starts
//! all `workers` threads whatever the tile count. Completed tiles
//! stream over a channel to the assembler thread, which writes them
//! into the dense output (and the checkpoint store persists them before
//! they are reported), so a kill at any instant loses at most the tiles
//! in flight.
//!
//! Determinism: every kernel entry is produced by the single shared
//! zipper kernel (`Mps::inner_into`, the same kernel behind
//! `Mps::inner_with`) with `i < j` operand order, regardless of tile
//! size, worker count, spill mode or resume history — so any two runs of
//! the same job are bitwise identical, and also bitwise identical to a
//! single-pass per-pair loop over `Mps::inner_with`.

use crate::checkpoint::{CheckpointError, CheckpointStore};
use crate::config::GramConfig;
use crate::fingerprint::{JobKind, JobSpec};
use crate::metrics::GramMetrics;
use crate::runner::{write_tile, Band, SharedTile, TileRunner};
use crate::spill::{SpillError, SpillStore};
use crate::tiles::{Tile, TilePlan};
use crate::view::TiledKernel;
use qk_mps::{Mps, ZipperWorkspace};
use qk_obs::{Counter, Journal, Obs, TracePhase};
use qk_svm::KernelBlock;
use qk_tensor::backend::ExecutionBackend;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A checkpoint log as [`CheckpointStore::open`] left it.
type Opened = Result<CheckpointStore, CheckpointError>;

/// How many times one tile may panic a worker before the job gives up
/// on it ([`GramError::WorkerPanic`]). Tiles are deterministic, so a
/// genuine kernel bug panics every retry; the budget exists to absorb
/// injected or environmental panics without looping forever.
const TILE_PANIC_BUDGET: u32 = 3;

/// Why a Gram job did not produce a complete matrix.
#[derive(Debug)]
pub enum GramError {
    /// The checkpoint directory was unusable (I/O failure, corrupt
    /// manifest, or a fingerprint belonging to a different job).
    Checkpoint(CheckpointError),
    /// Spilling or reloading states failed.
    Spill(SpillError),
    /// The run stopped at the configured `max_tiles` budget with tiles
    /// still outstanding. Completed tiles are checkpointed; rerunning
    /// the same job resumes from them.
    Interrupted {
        /// Tiles finished (restored + computed) before stopping.
        done: usize,
        /// Tiles in the whole job.
        total: usize,
    },
    /// One tile panicked its worker more than `TILE_PANIC_BUDGET`
    /// times. Workers are supervised — a caught panic requeues the tile
    /// and restarts the worker's state — so this surfaces only a
    /// persistently reproducing panic.
    WorkerPanic {
        /// Row-block index of the poisoned tile.
        bi: usize,
        /// Column-block index of the poisoned tile.
        bj: usize,
    },
}

impl std::fmt::Display for GramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramError::Checkpoint(e) => write!(f, "{e}"),
            GramError::Spill(e) => write!(f, "{e}"),
            GramError::Interrupted { done, total } => {
                write!(
                    f,
                    "interrupted at tile budget: {done}/{total} tiles complete"
                )
            }
            GramError::WorkerPanic { bi, bj } => {
                write!(
                    f,
                    "tile ({bi}, {bj}) panicked its worker more than \
                     {TILE_PANIC_BUDGET} times"
                )
            }
        }
    }
}

impl std::error::Error for GramError {}

impl From<CheckpointError> for GramError {
    fn from(e: CheckpointError) -> Self {
        GramError::Checkpoint(e)
    }
}

impl From<SpillError> for GramError {
    fn from(e: SpillError) -> Self {
        GramError::Spill(e)
    }
}

/// Accounting for one completed job (the manifest-derived counts and
/// wall time that `core::gram` surfaces instead of recomputing).
#[derive(Debug, Clone, Copy)]
pub struct GramReport {
    /// Tiles in the job.
    pub tiles_total: usize,
    /// Tiles computed fresh this run.
    pub tiles_computed: usize,
    /// Tiles restored from the checkpoint.
    pub tiles_restored: usize,
    /// Inner products the full job represents (`n(n-1)/2` for train
    /// jobs, `rows * cols` for blocks), from the tile plan.
    pub inner_products: usize,
    /// Wall-clock time of this run.
    pub wall_time: Duration,
    /// Whether states were spilled to disk for this run.
    pub spilled: bool,
    /// Tiles a worker claimed from another worker's queue.
    pub tiles_stolen: u64,
    /// Row bands serialized to the spill store this run.
    pub bands_spilled: u64,
    /// Band loads workers paid against the spill store.
    pub bands_reloaded: u64,
    /// Checkpoint store/load attempts retried under the backoff policy.
    pub retries: u64,
    /// Tiles quarantined (record dropped from the log's index after
    /// persistent load failure) and recomputed this run.
    pub tiles_quarantined: u64,
    /// Worker restarts after caught mid-tile panics this run.
    pub workers_restarted: u64,
    /// Faults the armed chaos plan injected into this run.
    pub faults_injected: u64,
}

/// A completed symmetric train job.
#[derive(Debug)]
pub struct GramOutcome {
    /// The assembled kernel view.
    pub kernel: TiledKernel,
    /// Run accounting.
    pub report: GramReport,
}

/// A completed rectangular block job.
#[derive(Debug)]
pub struct BlockOutcome {
    /// The assembled test-against-train block.
    pub block: KernelBlock,
    /// Run accounting.
    pub report: GramReport,
}

/// Where a job's states live.
enum StateSet<'a> {
    Resident(&'a [Mps]),
    Spilled(&'a SpillStore),
}

impl StateSet<'_> {
    fn len(&self) -> usize {
        match self {
            StateSet::Resident(s) => s.len(),
            StateSet::Spilled(s) => s.len(),
        }
    }
}

/// Per-worker cache of the most recently used band of one state set.
/// Resident sets borrow bands for free; spilled sets hold one loaded
/// band at a time, shared with any worker helping on its tile.
struct BandCache<'a, 'b> {
    src: &'b StateSet<'a>,
    tile: usize,
    loaded: Option<(usize, Arc<Vec<Mps>>)>,
    reloads: Counter,
}

impl<'a, 'b> BandCache<'a, 'b> {
    fn new(src: &'b StateSet<'a>, tile: usize, reloads: Counter) -> Self {
        BandCache {
            src,
            tile,
            loaded: None,
            reloads,
        }
    }

    fn band(&mut self, b: usize) -> Result<Band<'a>, GramError> {
        match self.src {
            StateSet::Resident(states) => {
                let lo = b * self.tile;
                let hi = (lo + self.tile).min(states.len());
                Ok(Band::Borrowed(&states[lo..hi]))
            }
            StateSet::Spilled(store) => match &self.loaded {
                Some((idx, band)) if *idx == b => Ok(Band::Loaded(Arc::clone(band))),
                _ => {
                    let band = Arc::new(store.load_band(b)?);
                    self.reloads.inc();
                    self.loaded = Some((b, Arc::clone(&band)));
                    Ok(Band::Loaded(band))
                }
            },
        }
    }
}

/// Where a pool's idle workers find work once every deque is empty: the
/// tiles in flight whose owners have published them, and enough state to
/// know when waiting is pointless. `epoch` moves on every change an idle
/// worker could act on (a post, a requeue, a finished tile, a stop), so
/// a worker that saw empty deques at one epoch rechecks them rather than
/// sleeping through a requeue.
pub(crate) struct Board<'s> {
    board: Mutex<Notices<'s>>,
    changed: Condvar,
    stopped: AtomicBool,
}

struct Notices<'s> {
    posted: Vec<Arc<SharedTile<'s>>>,
    unfinished: usize,
    epoch: u64,
}

/// What an idle worker does next.
enum Idle<'s> {
    /// Help on this tile.
    Join(Arc<SharedTile<'s>>),
    /// Something changed since the worker last looked: claim again.
    Recheck,
    /// The job is done or stopped.
    Leave,
}

impl<'s> Board<'s> {
    fn new(unfinished: usize) -> Self {
        Board {
            board: Mutex::new(Notices {
                posted: Vec::new(),
                unfinished,
                epoch: 0,
            }),
            changed: Condvar::new(),
            stopped: AtomicBool::new(false),
        }
    }

    fn bump(&self, change: impl FnOnce(&mut Notices<'s>)) {
        let mut notices = self.board.lock().expect("board poisoned");
        change(&mut notices);
        notices.epoch += 1;
        self.changed.notify_all();
    }

    /// Publishes `shared` until the returned guard drops; the drop also
    /// closes its cursor, so a tile whose owner unwinds hands out no
    /// further rows.
    pub(crate) fn post<'b>(&'b self, shared: &Arc<SharedTile<'s>>) -> Posted<'b, 's> {
        self.bump(|n| n.posted.push(Arc::clone(shared)));
        Posted {
            board: self,
            shared: Arc::clone(shared),
        }
    }

    fn epoch(&self) -> u64 {
        self.board.lock().expect("board poisoned").epoch
    }

    fn finished(&self) {
        self.bump(|n| n.unfinished -= 1);
    }

    fn requeued(&self) {
        self.bump(|_| ());
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Relaxed);
        self.bump(|_| ());
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Blocks an idle worker that found every deque empty at `seen`
    /// until there is a posted tile with rows left to join, something
    /// to recheck, or nothing left to wait for.
    fn idle(&self, seen: u64) -> Idle<'s> {
        let mut notices = self.board.lock().expect("board poisoned");
        loop {
            if self.stopped() || notices.unfinished == 0 {
                return Idle::Leave;
            }
            let open = notices
                .posted
                .iter()
                .filter(|t| t.rows_left() > 0)
                .max_by_key(|t| t.rows_left());
            if let Some(tile) = open {
                return Idle::Join(Arc::clone(tile));
            }
            if notices.epoch != seen {
                return Idle::Recheck;
            }
            notices = self.changed.wait(notices).expect("board poisoned");
        }
    }
}

/// A posted tile; dropping it takes the tile down.
pub(crate) struct Posted<'b, 's> {
    board: &'b Board<'s>,
    shared: Arc<SharedTile<'s>>,
}

impl Drop for Posted<'_, '_> {
    fn drop(&mut self) {
        self.shared.close();
        let mut notices = self.board.board.lock().expect("board poisoned");
        notices.posted.retain(|t| !Arc::ptr_eq(t, &self.shared));
    }
}

/// Stops the pool if a worker thread unwinds outside its supervision,
/// so idle workers do not wait on it forever.
struct StopOnUnwind<'b, 's>(&'b Board<'s>);

impl Drop for StopOnUnwind<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

/// The tiled Gram computation engine.
pub struct GramEngine {
    cfg: GramConfig,
    obs: Obs,
    metrics: Arc<GramMetrics>,
    spill_seq: AtomicUsize,
}

impl GramEngine {
    /// Builds an engine from a configuration.
    pub fn new(cfg: GramConfig) -> Self {
        assert!(cfg.tile >= 1, "tile edge must be at least 1");
        let obs = cfg.obs.clone().unwrap_or_default();
        let metrics = Arc::new(GramMetrics::with_obs(&obs));
        GramEngine {
            cfg,
            obs,
            metrics,
            spill_seq: AtomicUsize::new(0),
        }
    }

    /// The engine's live progress counters; poll from any thread while a
    /// job runs.
    pub fn metrics(&self) -> Arc<GramMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Computes the symmetric training kernel over resident states.
    pub fn compute_gram(
        &self,
        states: &[Mps],
        backend: &dyn ExecutionBackend,
    ) -> Result<GramOutcome, GramError> {
        let n = states.len();
        let set = StateSet::Resident(states);
        let store = self.open_store(JobKind::Train, n, n);
        let (data, report) = self.run(JobKind::Train, &set, &set, backend, false, store)?;
        Ok(GramOutcome {
            kernel: TiledKernel::from_parts(n, data),
            report,
        })
    }

    /// Computes the symmetric training kernel, taking ownership of the
    /// states so they can be spilled to disk per row band when they
    /// exceed the configured memory budget. Under the budget (or with no
    /// budget) this is exactly [`GramEngine::compute_gram`].
    pub fn compute_gram_owned(
        &self,
        states: Vec<Mps>,
        backend: &dyn ExecutionBackend,
    ) -> Result<GramOutcome, GramError> {
        let n = states.len();
        let store = self.open_store(JobKind::Train, n, n);
        // Warm resume: when the log holds every planned tile, run() will
        // restore them without ever touching a band — skip serializing
        // the whole state set to disk for nothing. (An invalid record
        // just recomputes from the resident states.)
        let plan = TilePlan::symmetric(n, self.cfg.tile);
        let warm = matches!(&store, Some(Ok(log)) if plan.tiles.iter().all(|t| log.contains(t)));
        let resident_bytes: usize = states.iter().map(Mps::memory_bytes).sum();
        let over_budget = (self.cfg.memory_budget).is_some_and(|budget| resident_bytes > budget);
        let (data, report) = if over_budget && !warm {
            let spill_dir = self.spill_dir();
            // A SIGKILLed spilled run can leave a stale band directory (the
            // store's cleaning Drop never ran); clear it before rewriting,
            // or stale bands from a different job shape would linger.
            let _ = std::fs::remove_dir_all(&spill_dir);
            let spilled = SpillStore::spill(states, &spill_dir, self.cfg.tile)?;
            let set = StateSet::Spilled(&spilled);
            self.run(JobKind::Train, &set, &set, backend, true, store)?
        } else {
            let set = StateSet::Resident(&states);
            self.run(JobKind::Train, &set, &set, backend, false, store)?
        };
        Ok(GramOutcome {
            kernel: TiledKernel::from_parts(n, data),
            report,
        })
    }

    /// Computes the rectangular test-against-train block.
    pub fn compute_block(
        &self,
        test_states: &[Mps],
        train_states: &[Mps],
        backend: &dyn ExecutionBackend,
    ) -> Result<BlockOutcome, GramError> {
        let rows = StateSet::Resident(test_states);
        let cols = StateSet::Resident(train_states);
        let store = self.open_store(JobKind::Block, rows.len(), cols.len());
        let (data, report) = self.run(JobKind::Block, &rows, &cols, backend, false, store)?;
        Ok(BlockOutcome {
            block: KernelBlock::from_dense(test_states.len(), train_states.len(), data),
            report,
        })
    }

    fn spill_dir(&self) -> std::path::PathBuf {
        // Temp-dir names are unique per process, not per engine: two
        // engines spilling at once must not clear each other's bands.
        static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);
        match &self.cfg.checkpoint {
            Some(dir) => dir.join(format!(
                "spill_{}",
                self.spill_seq.fetch_add(1, Ordering::Relaxed)
            )),
            None => std::env::temp_dir().join(format!(
                "qk-gram-spill-{}-{}",
                std::process::id(),
                TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        }
    }

    /// Opens (or resumes) the job's checkpoint log; `None` without a
    /// checkpoint directory.
    fn open_store(&self, kind: JobKind, rows: usize, cols: usize) -> Option<Opened> {
        let spec = JobSpec {
            encoding: self.cfg.encoding,
            kind,
            rows,
            cols,
            tile: self.cfg.tile,
        };
        Some(CheckpointStore::open(self.cfg.checkpoint.as_ref()?, &spec))
    }

    /// Opens the lifecycle journal under `obs_dir`. Export is
    /// best-effort: an unwritable directory degrades to an un-journaled
    /// run instead of failing the computation.
    fn open_journal(&self) -> Option<Journal> {
        let dir = self.cfg.obs_dir.as_ref()?;
        match Journal::open(&dir.join("gram_journal.jsonl")) {
            Ok(journal) => Some(journal),
            Err(e) => {
                eprintln!("qk-gram: journal disabled ({}): {e}", dir.display());
                None
            }
        }
    }

    fn run(
        &self,
        kind: JobKind,
        rows_src: &StateSet<'_>,
        cols_src: &StateSet<'_>,
        backend: &dyn ExecutionBackend,
        spilled: bool,
        store: Option<Opened>,
    ) -> Result<(Vec<f64>, GramReport), GramError> {
        let start = Instant::now();
        let journal = self.open_journal();
        let result = self.run_inner(
            kind,
            rows_src,
            cols_src,
            backend,
            spilled,
            store,
            start,
            journal.as_ref(),
        );
        let status = match &result {
            Ok(_) => "complete",
            Err(GramError::Interrupted { .. }) => "interrupted",
            Err(_) => "failed",
        };
        if let Some(journal) = &journal {
            let snap = self.metrics.snapshot();
            journal
                .event("job_end")
                .field_str("status", status)
                .field_u64("computed", snap.tiles_computed)
                .field_u64("restored", snap.tiles_restored)
                .log();
            if let Err(e) = journal.flush() {
                eprintln!("qk-gram: journal flush failed: {e}");
            }
        }
        // Export the unified report for finished *and* interrupted runs:
        // a preempted job's partial profile is exactly what a resume
        // investigation wants to see.
        if let Some(dir) = &self.cfg.obs_dir {
            if matches!(&result, Ok(_) | Err(GramError::Interrupted { .. })) {
                let path = dir.join("obs_gram.json");
                if let Err(e) = self.obs.report("gram").write_json(&path) {
                    eprintln!(
                        "qk-gram: obs report export failed ({}): {e}",
                        path.display()
                    );
                }
            }
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &self,
        kind: JobKind,
        rows_src: &StateSet<'_>,
        cols_src: &StateSet<'_>,
        backend: &dyn ExecutionBackend,
        spilled: bool,
        store: Option<Opened>,
        start: Instant,
        journal: Option<&Journal>,
    ) -> Result<(Vec<f64>, GramReport), GramError> {
        let _job_span = self.obs.span("gram_job");
        let (rows, cols) = (rows_src.len(), cols_src.len());
        let plan = match kind {
            JobKind::Train => TilePlan::symmetric(rows, self.cfg.tile),
            JobKind::Block => TilePlan::rectangular(rows, cols, self.cfg.tile),
        };
        let inner_products = plan.inner_products();
        self.metrics.start_job(plan.tiles.len(), inner_products);
        if spilled {
            self.metrics.record_spilled(rows.div_ceil(self.cfg.tile));
        }
        if let Some(journal) = journal {
            journal
                .event("job_start")
                .field_str("kind", kind.name())
                .field_u64("rows", rows as u64)
                .field_u64("cols", cols as u64)
                .field_u64("tile", self.cfg.tile as u64)
                .field_bool("spilled", spilled)
                .log();
        }
        let mut data = vec![0.0f64; rows * cols];

        // Restore valid tiles from the opened checkpoint. An I/O failure
        // opening the store (unwritable or uncreatable directory)
        // degrades the run to in-memory assembly — the job still
        // completes, it just loses persistence. A mismatched or corrupt
        // manifest stays a hard error: that directory belongs to some
        // other computation and silently ignoring it would be worse
        // than failing.
        let store = match store {
            Some(Ok(store)) => Some(store),
            Some(Err(CheckpointError::Io(e))) => {
                let dir = self.cfg.checkpoint.clone().unwrap_or_default();
                eprintln!(
                    "qk-gram: checkpoint disabled, assembling in memory ({}): {e}",
                    dir.display()
                );
                if let Some(journal) = journal {
                    journal
                        .event("checkpoint_degraded")
                        .field_str("stage", "open")
                        .log();
                }
                None
            }
            Some(Err(e)) => return Err(e.into()),
            None => None,
        };
        let runner = TileRunner::reporting(kind, backend, &self.obs, &self.metrics, journal)
            .persisting(
                store.as_ref(),
                &self.cfg.chaos,
                &self.cfg.retry,
                self.cfg.throttle,
            );
        let mut pending: Vec<Tile> = Vec::with_capacity(plan.tiles.len());
        let mut restored = 0usize;
        {
            let _scan_span = self.obs.span("restore_scan");
            for tile in &plan.tiles {
                match store.as_ref().and_then(|s| runner.restore(s, tile)) {
                    Some(payload) => {
                        write_tile(&mut data, cols, kind, tile, &payload);
                        restored += 1;
                    }
                    None => pending.push(*tile),
                }
            }
        }
        if restored > 0 {
            if let Some(journal) = journal {
                journal
                    .event("job_resume")
                    .field_u64("restored", restored as u64)
                    .log();
            }
        }

        let to_compute = pending.len();
        let computed = if to_compute > 0 {
            self.run_pool(&runner, rows_src, cols_src, pending, &mut data)?
        } else {
            0
        };

        if computed < to_compute {
            return Err(GramError::Interrupted {
                done: restored + computed,
                total: plan.tiles.len(),
            });
        }
        let snap = self.metrics.snapshot();
        Ok((
            data,
            GramReport {
                tiles_total: plan.tiles.len(),
                tiles_computed: computed,
                tiles_restored: restored,
                inner_products,
                wall_time: start.elapsed(),
                spilled,
                tiles_stolen: snap.tiles_stolen,
                bands_spilled: snap.bands_spilled,
                bands_reloaded: snap.bands_reloaded,
                retries: snap.retries,
                tiles_quarantined: snap.tiles_quarantined,
                workers_restarted: snap.workers_restarted,
                faults_injected: snap.faults_injected,
            },
        ))
    }

    /// Fans the pending tiles out over the worker pool; returns how many
    /// were computed (less than `pending.len()` only under a `max_tiles`
    /// budget).
    fn run_pool(
        &self,
        runner: &TileRunner<'_>,
        rows_src: &StateSet<'_>,
        cols_src: &StateSet<'_>,
        pending: Vec<Tile>,
        data: &mut [f64],
    ) -> Result<usize, GramError> {
        let (kind, journal) = (runner.kind, runner.journal);
        let total_cols = cols_src.len();
        let workers = self.cfg.effective_workers();
        // One contiguous band-major run per worker: own work is popped
        // from the front (band locality), steals come off the back. With
        // fewer tiles than workers some deques start empty, and their
        // workers help on the tiles in flight.
        let chunk = pending.len().div_ceil(workers);
        let mut queues: Vec<Mutex<VecDeque<Tile>>> = pending
            .chunks(chunk)
            .map(|c| Mutex::new(c.iter().copied().collect()))
            .collect();
        queues.resize_with(workers, Mutex::default);
        let budget = AtomicIsize::new(
            self.cfg
                .max_tiles
                .map(|m| m.min(isize::MAX as usize) as isize)
                .unwrap_or(isize::MAX),
        );
        let board = Board::new(pending.len());
        let (tx, rx) = mpsc::channel::<Result<(Tile, Vec<f64>), GramError>>();
        let mut first_error: Option<GramError> = None;
        let mut computed = 0usize;

        std::thread::scope(|scope| {
            for wid in 0..queues.len() {
                let tx = tx.clone();
                let queues = &queues;
                let budget = &budget;
                let board = &board;
                let metrics = &self.metrics;
                let cfg = &self.cfg;
                let obs = &self.obs;
                scope.spawn(move || {
                    let _worker_span = obs.span("gram_worker");
                    let _unwind = StopOnUnwind(board);
                    // Tile-granular timeline lane for this worker.
                    let lane = cfg.trace.as_ref().map(|t| t.lane(0, wid as u32));
                    // Band caches plus one zipper workspace per worker
                    // for this job's lifetime: tile evaluation never
                    // allocates inside the inner-product kernel.
                    let fresh = || {
                        let reloads = metrics.bands_reloaded_handle();
                        (
                            BandCache::new(rows_src, cfg.tile, reloads.clone()),
                            BandCache::new(cols_src, cfg.tile, reloads),
                            ZipperWorkspace::new(),
                        )
                    };
                    let (mut row_cache, mut col_cache, mut ws) = fresh();
                    // Per-tile panic tally for the supervision loop.
                    // (BTreeMap: deterministic iteration, and this file
                    // is on the analyzer's determinism-pinned list.)
                    let mut panics: BTreeMap<(usize, usize), u32> = BTreeMap::new();
                    loop {
                        if board.stopped() {
                            break;
                        }
                        let seen = board.epoch();
                        let claim_start = lane.as_ref().map(|l| l.stamp());
                        let (tile, stolen) = match claim(queues, wid) {
                            Some(t) => t,
                            None => match board.idle(seen) {
                                Idle::Join(shared) => {
                                    // A helper's panic costs the owner a
                                    // requeue (it sees the dead row) and
                                    // this worker its workspace.
                                    let helped =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                            || runner.help(&shared, lane.as_ref(), &mut ws),
                                        ));
                                    if helped.is_err() {
                                        ws = ZipperWorkspace::new();
                                        metrics.record_worker_restarted();
                                    }
                                    continue;
                                }
                                Idle::Recheck => continue,
                                Idle::Leave => break,
                            },
                        };
                        if budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                            // Budget exhausted: leave the rest uncomputed
                            // (the checkpoint already holds what finished).
                            board.stop();
                            break;
                        }
                        // Queue-wait vs. steal is only known after the
                        // claim resolves, hence the split-phase record.
                        if let (Some(l), Some(t0)) = (&lane, claim_start) {
                            let phase = if stolen {
                                TracePhase::Steal
                            } else {
                                TracePhase::QueueWait
                            };
                            l.record_since(t0, phase, tile.bi as i64, tile.bj as i64);
                        }
                        if stolen {
                            metrics.record_stolen();
                            if let Some(journal) = journal {
                                journal
                                    .event("worker_steal")
                                    .field_u64("worker", wid as u64)
                                    .field_u64("bi", tile.bi as u64)
                                    .field_u64("bj", tile.bj as u64)
                                    .log();
                            }
                        }
                        // The tile body runs under catch_unwind: a panic
                        // (injected or genuine) is caught below, the tile
                        // requeued, and the worker's state rebuilt — so
                        // one crash costs one tile recompute, not the job.
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                runner
                                    .run_on(&tile, lane.as_ref(), &mut ws, Some(board), || {
                                        let rows = row_cache.band(tile.bi)?;
                                        let cols = if kind == JobKind::Train && tile.bi == tile.bj {
                                            rows.clone()
                                        } else {
                                            col_cache.band(tile.bj)?
                                        };
                                        Ok((rows, cols))
                                    })
                                    .map(|payload| (tile, payload))
                            }));
                        match attempt {
                            Ok(result) => {
                                let failed = result.is_err();
                                let _ = tx.send(result);
                                if failed {
                                    board.stop();
                                    break;
                                }
                                board.finished();
                            }
                            Err(_panic) => {
                                // Supervision: rebuild the worker's state
                                // (caches and workspace may be mid-update)
                                // and requeue the in-flight tile at the
                                // front of our own deque. Recomputing it
                                // is bitwise identical — tiles are pure.
                                (row_cache, col_cache, ws) = fresh();
                                metrics.record_worker_restarted();
                                if let Some(journal) = journal {
                                    journal
                                        .event("worker_restarted")
                                        .field_u64("worker", wid as u64)
                                        .field_u64("bi", tile.bi as u64)
                                        .field_u64("bj", tile.bj as u64)
                                        .log();
                                }
                                let count = panics.entry((tile.bi, tile.bj)).or_insert(0);
                                *count += 1;
                                if *count >= TILE_PANIC_BUDGET {
                                    let _ = tx.send(Err(GramError::WorkerPanic {
                                        bi: tile.bi,
                                        bj: tile.bj,
                                    }));
                                    board.stop();
                                    break;
                                }
                                // The budget charge for the crashed attempt
                                // is refunded; the requeued tile pays again.
                                budget.fetch_add(1, Ordering::Relaxed);
                                queues[wid].lock().expect("queue poisoned").push_front(tile);
                                board.requeued();
                            }
                        }
                    }
                });
            }
            drop(tx);
            // Assembler: stream completed tiles into the dense output.
            let _assemble_span = self.obs.span("assemble");
            for msg in rx {
                match msg {
                    Ok((tile, payload)) => {
                        write_tile(data, total_cols, kind, &tile, &payload);
                        computed += 1;
                    }
                    Err(e) => {
                        board.stop();
                        if first_error.is_none() {
                            first_error = Some(e);
                        }
                    }
                }
            }
        });

        match first_error {
            Some(e) => Err(e),
            None => Ok(computed),
        }
    }
}

/// Claims the next tile for worker `wid`: front of its own deque, else a
/// steal from the back of the most loaded victim (the returned flag is
/// `true` for a steal). Returns `None` only after a full scan finds
/// every queue empty.
fn claim(queues: &[Mutex<VecDeque<Tile>>], wid: usize) -> Option<(Tile, bool)> {
    if let Some(t) = queues[wid].lock().expect("queue poisoned").pop_front() {
        return Some((t, false));
    }
    loop {
        // Pick the non-empty victim with the most remaining work.
        let mut best: Option<(usize, usize)> = None; // (len, index)
        for (idx, q) in queues.iter().enumerate() {
            if idx == wid {
                continue;
            }
            let len = q.lock().expect("queue poisoned").len();
            if len > 0 && best.is_none_or(|(l, _)| len > l) {
                best = Some((len, idx));
            }
        }
        let (_, idx) = best?;
        if let Some(t) = queues[idx].lock().expect("queue poisoned").pop_back() {
            return Some((t, true));
        }
        // Lost the race for the victim's last tile; rescan.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{compute_tile, contract_row, HelperWatch};
    use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
    use qk_mps::{MpsSimulator, TruncationConfig};
    use qk_tensor::backend::CpuBackend;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "qk-gram-engine-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn states(n: usize, features: usize) -> Vec<Mps> {
        let be = CpuBackend::new();
        let ansatz = AnsatzConfig::new(2, 1, 0.7);
        let trunc = TruncationConfig::default();
        (0..n)
            .map(|i| {
                let row: Vec<f64> = (0..features)
                    .map(|j| ((i * features + j) % 9) as f64 * 0.22)
                    .collect();
                MpsSimulator::new(&be)
                    .with_truncation(trunc)
                    .simulate(&feature_map_circuit(&row, &ansatz))
                    .0
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Reference single-pass upper-triangle kernel.
    fn reference_gram(st: &[Mps], be: &dyn ExecutionBackend) -> Vec<f64> {
        let n = st.len();
        let mut data = vec![0.0f64; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
            for j in (i + 1)..n {
                let v = st[i].inner_with(be, &st[j]).norm_sqr();
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        data
    }

    #[test]
    fn tiled_gram_is_bitwise_identical_to_reference() {
        let st = states(13, 4);
        let be = CpuBackend::new();
        let reference = reference_gram(&st, &be);
        for tile in [1usize, 3, 4, 13, 64] {
            for workers in [1usize, 2, 5] {
                let engine = GramEngine::new(GramConfig {
                    tile,
                    workers,
                    ..GramConfig::default()
                });
                let out = engine.compute_gram(&st, &be).unwrap();
                assert_eq!(
                    out.kernel.data(),
                    reference.as_slice(),
                    "tile={tile} workers={workers}"
                );
                assert_eq!(out.report.inner_products, 13 * 12 / 2);
                assert_eq!(out.report.tiles_restored, 0);
                assert_eq!(out.report.tiles_computed, out.report.tiles_total);
            }
        }
    }

    #[test]
    fn tile_on_a_shared_backend_is_bitwise_identical_across_threads() {
        // The shape the pool runs: one `&CpuBackend`, one workspace and
        // tile per thread. The barrier puts both threads inside the
        // tile together, so anything the backend shared between calls
        // would be contended for here.
        let st = states(8, 4);
        let be = CpuBackend::new();
        let tile = TilePlan::symmetric(st.len(), st.len()).tiles[0];
        let run = |gate: &std::sync::Barrier| {
            let shared = SharedTile::new(
                tile,
                JobKind::Train,
                Band::Borrowed(&st),
                Band::Borrowed(&st),
            );
            gate.wait();
            let mut ws = ZipperWorkspace::new();
            compute_tile(&shared, &be, &mut ws);
            bits(&shared.payload())
        };
        let alone = run(&std::sync::Barrier::new(1));
        assert_eq!(alone, bits(&reference_gram(&st, &be)));
        let gate = std::sync::Barrier::new(2);
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(|| run(&gate));
            let second = s.spawn(|| run(&gate));
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(first, alone);
        assert_eq!(second, alone);
    }

    #[test]
    fn diagonal_tile_shared_by_two_threads_mirrors_exactly() {
        // A helper claims row 0, the heaviest row of a diagonal tile,
        // and holds it while the owner contracts rows 1.. and waits.
        // Only then does the helper contract its row. The owner's mirror
        // copies row 0 into column 0, so the payload is exact only if
        // the owner waited for the helper's row.
        let st = states(9, 4);
        let be = CpuBackend::new();
        let tile = TilePlan::symmetric(st.len(), st.len()).tiles[0];
        let shared = SharedTile::new(
            tile,
            JobKind::Train,
            Band::Borrowed(&st),
            Band::Borrowed(&st),
        );
        let held = shared.claim_row();
        assert_eq!(held, Some(0));
        let payload = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let mut ws = ZipperWorkspace::new();
                compute_tile(&shared, &be, &mut ws);
                shared.payload()
            });
            // The owner has claimed every other row once the cursor
            // runs dry; it is then waiting on row 0 (or about to).
            while shared.rows_left() > 0 {
                std::thread::yield_now();
            }
            let mut ws = ZipperWorkspace::new();
            contract_row(&shared, 0, &be, &mut ws);
            shared.row_in();
            owner.join().unwrap()
        });
        assert_eq!(bits(&payload), bits(&reference_gram(&st, &be)));
    }

    #[test]
    fn owner_does_not_wait_on_a_dead_helper() {
        let st = states(6, 4);
        let be = CpuBackend::new();
        let tile = TilePlan::rectangular(st.len(), st.len(), st.len()).tiles[0];
        let shared = SharedTile::new(
            tile,
            JobKind::Block,
            Band::Borrowed(&st),
            Band::Borrowed(&st),
        );
        // A helper takes row 0 and dies with it.
        let runner = TileRunner::new(JobKind::Block, &be);
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let _row = shared.claim_row();
                let _watch = HelperWatch(&shared);
                panic!("helper dies holding a row");
            });
            assert!(helper.join().is_err());
        });
        let mut ws = ZipperWorkspace::new();
        runner.help(&shared, None, &mut ws);
        let owner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shared.payload()));
        assert!(owner.is_err(), "the owner must give the tile up");
    }

    /// Runs `job` on its own thread and fails the test if it has not
    /// finished within a minute, so a pool that waits forever fails
    /// instead of hanging the suite.
    fn within_a_minute<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(job());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("job did not finish within a minute")
    }

    #[test]
    fn one_tile_jobs_are_shared_and_bitwise_exact() {
        let train = states(11, 4);
        let test = states(7, 4);
        let be = CpuBackend::new();
        let reference = bits(&reference_gram(&train, &be));
        let direct: Vec<u64> = test
            .iter()
            .flat_map(|t| {
                train
                    .iter()
                    .map(|s| t.inner_with(&be, s).norm_sqr().to_bits())
            })
            .collect();
        for workers in [2usize, 3, 5] {
            let cfg = GramConfig {
                workers,
                ..GramConfig::in_memory(32)
            };
            let gram = GramEngine::new(cfg.clone())
                .compute_gram(&train, &be)
                .unwrap();
            assert_eq!(gram.report.tiles_total, 1);
            assert_eq!(
                bits(gram.kernel.data()),
                reference,
                "gram, workers={workers}"
            );
            let block = GramEngine::new(cfg.clone())
                .compute_block(&test, &train, &be)
                .unwrap();
            assert_eq!(block.report.tiles_total, 1);
            let block_bits: Vec<u64> = (0..test.len())
                .flat_map(|t| bits(block.block.row(t)))
                .collect();
            assert_eq!(block_bits, direct, "block, workers={workers}");
            // Under a budget below the states the one band is spilled;
            // helpers read the owner's loaded band, never reloading it.
            let spilled = GramEngine::new(GramConfig {
                memory_budget: Some(1),
                ..cfg
            })
            .compute_gram_owned(train.clone(), &be)
            .unwrap();
            assert!(spilled.report.spilled);
            assert_eq!(spilled.report.bands_reloaded, 1, "workers={workers}");
            assert_eq!(
                bits(spilled.kernel.data()),
                reference,
                "spilled, workers={workers}"
            );
        }
    }

    #[test]
    fn panic_in_a_shared_one_tile_job_recovers_bitwise() {
        let train = states(11, 4);
        let be = CpuBackend::new();
        let reference = bits(&reference_gram(&train, &be));
        // Occurrences count from 0: the only tile's first gate panics,
        // its requeued retry passes.
        let chaos = qk_chaos::FaultPlan::parse(7, "gram.worker.tile=panic@at:0")
            .unwrap()
            .arm();
        let out = within_a_minute(move || {
            GramEngine::new(GramConfig {
                workers: 2,
                chaos,
                ..GramConfig::in_memory(32)
            })
            .compute_gram(&train, &CpuBackend::new())
            .unwrap()
        });
        assert_eq!(out.report.tiles_total, 1);
        assert_eq!(out.report.faults_injected, 1);
        assert_eq!(out.report.workers_restarted, 1);
        assert_eq!(bits(out.kernel.data()), reference);
    }

    #[test]
    fn tiled_block_matches_direct() {
        let train = states(7, 3);
        let test = states(4, 3);
        let be = CpuBackend::new();
        let engine = GramEngine::new(GramConfig {
            tile: 3,
            workers: 2,
            ..GramConfig::default()
        });
        let out = engine.compute_block(&test, &train, &be).unwrap();
        assert_eq!(out.block.rows(), 4);
        assert_eq!(out.block.cols(), 7);
        assert_eq!(out.report.inner_products, 28);
        for (t, ts) in test.iter().enumerate() {
            for (s, ss) in train.iter().enumerate() {
                let direct = ts.inner_with(&be, ss).norm_sqr();
                assert_eq!(out.block.row(t)[s].to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn empty_and_single_state_jobs() {
        let be = CpuBackend::new();
        let engine = GramEngine::new(GramConfig::in_memory(8));
        let empty = engine.compute_gram(&[], &be).unwrap();
        assert_eq!(empty.kernel.len(), 0);
        assert_eq!(empty.report.inner_products, 0);
        let one = engine.compute_gram(&states(1, 3), &be).unwrap();
        assert_eq!(one.kernel.len(), 1);
        assert_eq!(one.kernel.get(0, 0), 1.0);
        assert_eq!(one.report.inner_products, 0);
        let block = engine.compute_block(&[], &states(3, 3), &be).unwrap();
        assert_eq!(block.block.rows(), 0);
    }

    #[test]
    fn interrupt_and_resume_is_bitwise_identical() {
        let st = states(11, 4);
        let be = CpuBackend::new();
        let clean = {
            let engine = GramEngine::new(GramConfig::in_memory(3));
            engine.compute_gram(&st, &be).unwrap().kernel
        };
        let dir = scratch("resume");
        // First life: budget of 4 tiles, then "preemption".
        let interrupted = GramEngine::new(GramConfig {
            max_tiles: Some(4),
            ..GramConfig::checkpointed(&dir, 3, 0xE0)
        });
        match interrupted.compute_gram(&st, &be) {
            Err(GramError::Interrupted { done, total }) => {
                assert_eq!(done, 4);
                assert_eq!(total, 10);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
        // Second life: resume and finish.
        let resumed = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xE0));
        let out = resumed.compute_gram(&st, &be).unwrap();
        assert_eq!(out.report.tiles_restored, 4);
        assert_eq!(out.report.tiles_computed, 6);
        assert_eq!(out.kernel.data(), clean.data());
        // Third life: everything restores, nothing recomputes.
        let warm = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xE0));
        let again = warm.compute_gram(&st, &be).unwrap();
        assert_eq!(again.report.tiles_restored, 10);
        assert_eq!(again.report.tiles_computed, 0);
        assert_eq!(again.kernel.data(), clean.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_job_rejects_checkpoint_dir() {
        let st = states(6, 3);
        let be = CpuBackend::new();
        let dir = scratch("reject");
        let a = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xAA));
        a.compute_gram(&st, &be).unwrap();
        // Different encoding fingerprint: refuse to touch the directory.
        let b = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xBB));
        assert!(matches!(
            b.compute_gram(&st, &be),
            Err(GramError::Checkpoint(CheckpointError::Mismatch { .. }))
        ));
        // Different tile size: also a different job.
        let c = GramEngine::new(GramConfig::checkpointed(&dir, 2, 0xAA));
        assert!(matches!(
            c.compute_gram(&st, &be),
            Err(GramError::Checkpoint(CheckpointError::Mismatch { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tile_is_recomputed_on_resume() {
        let st = states(9, 3);
        let be = CpuBackend::new();
        let dir = scratch("recompute");
        let first = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xCC));
        let clean = first.compute_gram(&st, &be).unwrap();
        // Corrupt the first tile record's payload and truncate the last.
        let log = dir.join("gram.qkg");
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[49 + 48] ^= 0xFF;
        std::fs::write(&log, &bytes[..bytes.len() - 5]).unwrap();
        // Resume: the two damaged tiles recompute, output identical.
        let second = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xCC));
        let out = second.compute_gram(&st, &be).unwrap();
        assert_eq!(out.report.tiles_computed, 2);
        assert_eq!(out.report.tiles_restored, out.report.tiles_total - 2);
        assert_eq!(out.kernel.data(), clean.kernel.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_run_is_bitwise_identical_and_bounded() {
        let st = states(10, 4);
        let be = CpuBackend::new();
        let resident = GramEngine::new(GramConfig::in_memory(4))
            .compute_gram(&st, &be)
            .unwrap();
        assert!(!resident.report.spilled);
        // A 1-byte budget forces the spill path.
        let engine = GramEngine::new(GramConfig {
            memory_budget: Some(1),
            workers: 3,
            ..GramConfig::in_memory(4)
        });
        let spilled = engine.compute_gram_owned(st.clone(), &be).unwrap();
        assert!(spilled.report.spilled);
        assert_eq!(spilled.kernel.data(), resident.kernel.data());
        // A generous budget keeps the resident path.
        let engine = GramEngine::new(GramConfig {
            memory_budget: Some(usize::MAX),
            ..GramConfig::in_memory(4)
        });
        let kept = engine.compute_gram_owned(st, &be).unwrap();
        assert!(!kept.report.spilled);
        assert_eq!(kept.kernel.data(), resident.kernel.data());
    }

    #[test]
    fn warm_resume_skips_the_spill() {
        let st = states(10, 3);
        let be = CpuBackend::new();
        let dir = scratch("warmspill");
        let cfg = GramConfig {
            memory_budget: Some(1),
            ..GramConfig::checkpointed(&dir, 4, 0xF0)
        };
        // Cold run: over budget, spills, checkpoints everything.
        let cold = GramEngine::new(cfg.clone())
            .compute_gram_owned(st.clone(), &be)
            .unwrap();
        assert!(cold.report.spilled);
        assert_eq!(cold.report.tiles_computed, cold.report.tiles_total);
        // Warm run: every tile restores, so the states are never
        // serialized again even though the budget is still exceeded.
        let warm = GramEngine::new(cfg).compute_gram_owned(st, &be).unwrap();
        assert!(!warm.report.spilled);
        assert_eq!(warm.report.tiles_restored, warm.report.tiles_total);
        assert_eq!(warm.kernel.data(), cold.kernel.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_track_progress() {
        let st = states(8, 3);
        let be = CpuBackend::new();
        let engine = GramEngine::new(GramConfig::in_memory(3));
        let metrics = engine.metrics();
        engine.compute_gram(&st, &be).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.tiles_total, 6);
        assert_eq!(snap.tiles_computed, 6);
        assert_eq!(snap.inner_products_done, 28);
        assert_eq!(snap.inner_products_total, 28);
        assert_eq!(snap.fraction_done(), 1.0);
        assert!(snap.throughput_ips > 0.0);
    }

    #[test]
    fn trains_svm_from_tiled_view_without_dense_copy() {
        // Two tight clusters: the engine's view trains exactly like the
        // dense matrix.
        use qk_svm::{train_svc, KernelMatrix, SmoParams};
        let st = states(8, 4);
        let be = CpuBackend::new();
        let out = GramEngine::new(GramConfig::in_memory(3))
            .compute_gram(&st, &be)
            .unwrap();
        let labels: Vec<f64> = (0..8)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let from_view = train_svc(&out.kernel, &labels, &SmoParams::with_c(1.0));
        let dense = KernelMatrix::from_dense(8, out.kernel.data().to_vec());
        let from_dense = train_svc(&dense, &labels, &SmoParams::with_c(1.0));
        assert_eq!(from_view.alphas, from_dense.alphas);
        assert_eq!(from_view.bias, from_dense.bias);
        assert_eq!(from_view.passes, from_dense.passes);
    }
}
