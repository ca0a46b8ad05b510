//! Crash-safe SMO training: checkpointed warm-start, in-place reads of
//! resident kernel rows, a budgeted row cache with graceful degradation
//! for sources that must load rows, and chaos-drilled recovery paths.
//!
//! At the paper's N=64,000 regime SVM training is a multi-hour job
//! sitting on top of the tiled Gram engine; this module gives it the
//! same recovery story the engine itself has. `Trainer::run` holds the
//! crate's only SMO pass loop: [`crate::train_svc`] is a default
//! `Trainer`, and the knobs of [`TrainerConfig`] add recovery around the
//! same floats and working sets:
//!
//! * every `ckpt_every` passes the full solver state — alphas, bias,
//!   error cache, pass count — is persisted to `<dir>/trainer.qks`
//!   as a [`qk_chaos::durable`] record bound to a job fingerprint.
//!   Working-set selection and each pass's active set (see
//!   [`crate::smo`]) are pure functions of that state, and every error
//!   in it is current at a pass boundary, so a SIGKILL at any instant
//!   loses at most the passes since the last snapshot and a resumed run
//!   converges to a model **bitwise identical** to an uninterrupted one;
//! * a source whose rows are resident in memory (every
//!   [`KernelSource`]: the dense matrix, `qk-gram`'s assembled view)
//!   hands them out in place through [`RowSource::resident_row`] — no
//!   copy, no cache, no failure path. Other sources (`qk-gram`'s
//!   `RecomputingRows`) are served through a byte-budgeted LRU
//!   [`RowCache`], so the solver stops re-reading the backing store on
//!   every row access, with hit/miss/eviction counters;
//! * every I/O edge (`svm.ckpt.store`, `svm.ckpt.load`, and
//!   `svm.row.load` on cached sources) is chaos-gated and retried under
//!   the configured [`RetryPolicy`]; persistent row-load failures degrade to
//!   recomputation through [`RowSource::recompute_row`], persistent
//!   checkpoint-store failures degrade to un-checkpointed (but still
//!   correct) training, and a corrupt / truncated / foreign snapshot is
//!   quarantined and replaced by a cold start — training aborts only
//!   when even the degraded path cannot make progress.
//!
//! ```text
//! <dir>/trainer.qks   # QKSVMC1\0 | fingerprint | n | total_passes
//!                     #   | bias | n alphas | n errors | checksum
//! ```
//!
//! All integers and floats are little-endian; the checksum is FNV-1a 64
//! over every preceding byte. The file is written to a temporary name
//! and renamed into place once the old snapshot is removed (see
//! [`qk_chaos::durable`] for what a kill between the steps leaves), and
//! read back through the record's
//! bounds-checked reader, so truncated or mangled snapshots are
//! rejected by construction rather than panicking in a slice
//! conversion.

use crate::kernel::KernelSource;
use crate::smo::{
    pass_over, publish_model, validate_inputs, ActiveBlock, SmoParams, SmoState, TrainedSvm,
};
use qk_chaos::durable::{self, Load};
use qk_chaos::{sites, Chaos, RetryPolicy};
use qk_obs::{Journal, Obs};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const CKPT_MAGIC: &[u8; 8] = b"QKSVMC1\0";
const CKPT_NAME: &str = "trainer.qks";
/// Snapshot body bytes before the two `n`-vectors: fingerprint, `n`,
/// pass count and bias.
const SNAPSHOT_HEADER_BYTES: usize = 32;
/// Snapshot format version, folded into the job fingerprint so old
/// layouts can never be misread as new ones. Also bumped when the solver
/// trajectory changes under an unchanged layout (3: shrinking), so a
/// snapshot taken mid-run by an older solver cold-starts instead of
/// resuming into a trajectory it was not part of.
const CKPT_VERSION: u64 = 3;

/// Fingerprint of one training job: the kernel's identity plus
/// everything that steers the solver. A checkpoint is only ever resumed
/// into the exact job that wrote it — different labels, a different
/// `C`, even a different tolerance or pass cap all produce a different
/// fingerprint and force a cold start.
pub fn job_fingerprint(kernel_fingerprint: u64, labels: &[f64], params: &SmoParams) -> u64 {
    let mut buf = Vec::with_capacity(8 * (6 + labels.len()));
    for v in [CKPT_VERSION, kernel_fingerprint, labels.len() as u64] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for y in labels {
        buf.extend_from_slice(&y.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&params.c.to_bits().to_le_bytes());
    buf.extend_from_slice(&params.tol.to_bits().to_le_bytes());
    buf.extend_from_slice(&(params.max_total_passes as u64).to_le_bytes());
    durable::fnv1a64(&buf)
}

/// The checkpoint file a trainer configured with `ckpt_dir = dir`
/// reads and writes. Exposed so drills and tests can mangle or compare
/// the snapshot without hard-coding the layout.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CKPT_NAME)
}

// ---------------------------------------------------------------------
// Row access.

/// Fallible kernel-row access for the trainer: the degradable analogue
/// of [`KernelSource`].
///
/// `load_row` is the fast path (read a precomputed row) and is allowed
/// to fail transiently — the trainer retries it and, when it keeps
/// failing, falls back to `recompute_row`, which derives the row from
/// first principles (e.g. re-contracting MPS inner products through the
/// gram engine's kernel). Both must fill `out` with bitwise-identical
/// values; the fallback is a slower route to the same bits, never a
/// different answer.
pub trait RowSource {
    /// Matrix order `n`.
    fn order(&self) -> usize;
    /// Reads row `i` into `out` (length `n`).
    fn load_row(&self, i: usize, out: &mut [f64]) -> io::Result<()>;
    /// Recomputes row `i` into `out` without touching the fast path.
    fn recompute_row(&self, i: usize, out: &mut [f64]) -> io::Result<()>;
    /// The diagonal `K_tt`, read once per training run (length `n`).
    fn diagonal(&self) -> Vec<f64>;
    /// Row `i` in place, when it is resident in memory. The trainer
    /// reads a resident row directly — no cache, no copy, no load gate —
    /// and falls back to `load_row` through its row cache otherwise.
    fn resident_row(&self, _i: usize) -> Option<&[f64]> {
        None
    }
}

/// Every in-memory [`KernelSource`] is trivially a [`RowSource`]: the
/// row is already resident, so the trainer reads it in place, and
/// loading and "recomputing" are the same infallible copy.
impl<K: KernelSource + ?Sized> RowSource for K {
    fn order(&self) -> usize {
        KernelSource::order(self)
    }

    fn resident_row(&self, i: usize) -> Option<&[f64]> {
        Some(self.row(i))
    }

    fn load_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
        out.copy_from_slice(self.row(i));
        Ok(())
    }

    fn recompute_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
        out.copy_from_slice(self.row(i));
        Ok(())
    }

    fn diagonal(&self) -> Vec<f64> {
        (0..KernelSource::order(self))
            .map(|t| self.entry(t, t))
            .collect()
    }
}

/// A kernel row handed to the pass loop: borrowed from a resident
/// source, or shared with the cache (holding the `Arc` keeps the row
/// alive even if the cache evicts it mid-step).
enum RowRef<'a> {
    Resident(&'a [f64]),
    Cached(Arc<Vec<f64>>),
}

impl std::ops::Deref for RowRef<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            RowRef::Resident(row) => row,
            RowRef::Cached(row) => row.as_slice(),
        }
    }
}

/// Byte-budgeted LRU cache between the SMO pass loop and a
/// non-resident [`RowSource`]; resident rows bypass it (and count as
/// hits).
///
/// Rows are `n * 8` bytes each; the budget is rounded down to whole
/// rows with a floor of two (an update touches exactly two rows).
/// Eviction scans for the least-recently-used entry in a `BTreeMap`, so
/// the eviction order — like everything else in the trainer — is
/// deterministic.
struct RowCache {
    rows: BTreeMap<usize, (Arc<Vec<f64>>, u64)>,
    tick: u64,
    capacity: Option<usize>,
    n: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    retries: u64,
    recomputed: u64,
    faults: u64,
}

impl RowCache {
    fn new(n: usize, budget_bytes: Option<usize>) -> RowCache {
        let capacity = budget_bytes.map(|b| (b / (n.max(1) * 8)).max(2));
        RowCache {
            rows: BTreeMap::new(),
            tick: 0,
            capacity,
            n,
            hits: 0,
            misses: 0,
            evictions: 0,
            retries: 0,
            recomputed: 0,
            faults: 0,
        }
    }

    fn get<'s, S: RowSource + ?Sized>(
        &mut self,
        source: &'s S,
        i: usize,
        chaos: &Chaos,
        retry: &RetryPolicy,
        journal: Option<&Journal>,
    ) -> io::Result<RowRef<'s>> {
        if let Some(row) = source.resident_row(i) {
            self.hits += 1;
            return Ok(RowRef::Resident(row));
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((row, last_used)) = self.rows.get_mut(&i) {
            *last_used = tick;
            self.hits += 1;
            return Ok(RowRef::Cached(Arc::clone(row)));
        }
        self.misses += 1;

        let mut buf = vec![0.0f64; self.n];
        let retried = retry.run(|| {
            chaos.gate(sites::SVM_ROW_LOAD, || self.faults += 1)?;
            source.load_row(i, &mut buf)
        });
        self.retries += retried.retries as u64;
        if let Err(e) = retried.result {
            // Graceful degradation: a row that persistently refuses to
            // load is recomputed from first principles. Only a failure
            // of the recompute path itself aborts training.
            source.recompute_row(i, &mut buf)?;
            self.recomputed += 1;
            if let Some(journal) = journal {
                journal
                    .event("row_recomputed")
                    .field_u64("row", i as u64)
                    .field_str("load_error", &e.to_string())
                    .log();
            }
        }

        if let Some(cap) = self.capacity {
            while self.rows.len() >= cap {
                let lru = self
                    .rows
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| *k)
                    .expect("non-empty cache at capacity");
                self.rows.remove(&lru);
                self.evictions += 1;
            }
        }
        let row = Arc::new(buf);
        self.rows.insert(i, (Arc::clone(&row), tick));
        Ok(RowRef::Cached(row))
    }
}

// ---------------------------------------------------------------------
// Checkpoint codec.

/// The on-disk side of the trainer: one snapshot file per checkpoint
/// directory, bound to one job fingerprint.
struct TrainerCkpt {
    path: PathBuf,
    fingerprint: u64,
    n: usize,
}

impl TrainerCkpt {
    /// Opens (or initializes) `dir`, settling the temp files a SIGKILL
    /// mid-store left behind: a complete snapshot whose old file was
    /// already removed is adopted, anything else is removed.
    fn open(dir: &Path, fingerprint: u64, n: usize) -> io::Result<TrainerCkpt> {
        fs::create_dir_all(dir)?;
        durable::sweep_temps(dir);
        Ok(TrainerCkpt {
            path: checkpoint_path(dir),
            fingerprint,
            n,
        })
    }

    fn encode(&self, st: &SmoState) -> Vec<u8> {
        let mut body = Vec::with_capacity(SNAPSHOT_HEADER_BYTES + self.n * 16);
        for v in [self.fingerprint, self.n as u64, st.total_passes as u64] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        body.extend_from_slice(&st.bias.to_bits().to_le_bytes());
        for v in st.alphas.iter().chain(st.errors.iter()) {
            body.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        durable::seal(CKPT_MAGIC, &body)
    }

    /// Persists the solver state through [`durable::write_atomic`], so
    /// the final name is atomic under SIGKILL.
    fn store(&self, st: &SmoState) -> io::Result<()> {
        durable::write_atomic(&self.path, &self.encode(st))
    }

    /// Attempts to load and validate the snapshot. Anything that is not
    /// a pristine snapshot of *this* job classifies as `Corrupt` and is
    /// quarantined by deletion — the trainer cold-starts rather than
    /// resuming foreign or damaged state.
    fn load_classified(&self) -> io::Result<Load<SmoState>> {
        durable::load(&self.path, |bytes| {
            Self::decode_checked(bytes, self.fingerprint, self.n)
        })
    }

    /// The decoder: a record that fails its length, magic or checksum,
    /// or belongs to another job, falls out as `None`.
    fn decode_checked(bytes: &[u8], fingerprint: u64, n: usize) -> Option<SmoState> {
        let body_len = n.checked_mul(16)?.checked_add(SNAPSHOT_HEADER_BYTES)?;
        let mut r = durable::unseal(bytes, CKPT_MAGIC, body_len).ok()?;
        if r.u64()? != fingerprint {
            return None;
        }
        if r.u64()? as usize != n {
            return None;
        }
        let total_passes = r.u64()? as usize;
        let bias = r.f64()?;
        let mut alphas = Vec::with_capacity(n);
        for _ in 0..n {
            alphas.push(r.f64()?);
        }
        let mut errors = Vec::with_capacity(n);
        for _ in 0..n {
            errors.push(r.f64()?);
        }
        Some(SmoState {
            alphas,
            bias,
            errors,
            total_passes,
        })
    }
}

// ---------------------------------------------------------------------
// The trainer.

/// Why a crash-safe training run stopped short of a model.
#[derive(Debug)]
pub enum TrainError {
    /// An unrecoverable I/O failure: even the degraded paths (row
    /// recomputation, un-checkpointed training) could not proceed.
    Io(io::Error),
    /// The run consumed its `pass_budget` and parked its state in the
    /// checkpoint directory; resume by training again with the same
    /// configuration.
    Interrupted {
        /// Total passes completed (across all lives of this job).
        passes: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Io(e) => write!(f, "training I/O error: {e}"),
            TrainError::Interrupted { passes } => {
                write!(
                    f,
                    "training interrupted after {passes} passes (checkpointed)"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Io(e)
    }
}

/// Everything a crash-safe training run is wired with. All knobs
/// default to off: a default-configured [`Trainer`] is what
/// [`crate::train_svc`] runs, and over a non-resident source it adds a
/// row cache of unbounded size.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Checkpoint directory; `None` disables persistence entirely.
    pub ckpt_dir: Option<PathBuf>,
    /// Passes between snapshots (floored at 1). The final state is
    /// always snapshotted on convergence, so a completed job's
    /// directory resumes straight to the finished model.
    pub ckpt_every: usize,
    /// Row-cache budget in bytes; `None` caches every row it touches.
    /// Resident sources never fill the cache.
    pub cache_budget: Option<usize>,
    /// Fingerprint of the kernel being trained on (e.g. the gram
    /// engine's job fingerprint); folded with labels and hyperparams
    /// into the snapshot-binding job fingerprint.
    pub kernel_fingerprint: u64,
    /// Armed fault plan for the `svm.*` sites.
    pub chaos: Chaos,
    /// Retry policy for checkpoint stores/loads and row loads.
    pub retry: RetryPolicy,
    /// Metrics registry to record into; `None` uses a private one.
    pub obs: Option<Obs>,
    /// Export directory: `svm_journal.jsonl` during the run and an
    /// `obs_svm.json` report when it ends (finished *or* interrupted).
    pub obs_dir: Option<PathBuf>,
    /// Artificial per-pass delay, for kill-window drills.
    pub throttle: Option<Duration>,
    /// Stop (checkpointed, with [`TrainError::Interrupted`]) after this
    /// many passes *in this run* — a deterministic stand-in for
    /// preemption in tests and drills.
    pub pass_budget: Option<usize>,
}

impl Default for TrainerConfig {
    fn default() -> TrainerConfig {
        TrainerConfig {
            ckpt_dir: None,
            ckpt_every: 1,
            cache_budget: None,
            kernel_fingerprint: 0,
            chaos: Chaos::disarmed(),
            retry: RetryPolicy::default(),
            obs: None,
            obs_dir: None,
            throttle: None,
            pass_budget: None,
        }
    }
}

/// Operational counters for one training run (this life only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainerStats {
    /// Row reads served without a load: resident rows read in place,
    /// plus row-cache hits.
    pub cache_hits: u64,
    /// Row-cache misses (each one a `RowSource` load).
    pub cache_misses: u64,
    /// Rows evicted to stay under the byte budget.
    pub cache_evictions: u64,
    /// Rows recomputed after their loads persistently failed.
    pub rows_recomputed: u64,
    /// Row-load retry attempts beyond the first.
    pub row_retries: u64,
    /// Checkpoint store/load retry attempts beyond the first.
    pub ckpt_retries: u64,
    /// Snapshots successfully persisted.
    pub ckpt_stores: u64,
    /// Faults the chaos plan injected at `svm.*` sites.
    pub faults_injected: u64,
    /// Whether checkpointing degraded to off after persistent store
    /// failures (training still completed).
    pub degraded: bool,
}

/// A finished crash-safe training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained model — bitwise identical to what an uninterrupted
    /// [`crate::train_svc`] run over the same kernel produces.
    pub model: TrainedSvm,
    /// `Some(pass)` when the run warm-started from a snapshot taken at
    /// that pass count; `None` for a cold start.
    pub resumed_from_pass: Option<usize>,
    /// Operational counters for this life of the job.
    pub stats: TrainerStats,
}

/// Recovery bookkeeping outside the row cache.
#[derive(Default)]
struct Recovery {
    faults: u64,
    ckpt_retries: u64,
    ckpt_stores: u64,
    resumes: u64,
    degraded: bool,
}

/// The crash-safe SMO training engine. See the module docs for the
/// recovery model; see [`TrainerConfig`] for the knobs.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// Builds a trainer from its configuration.
    pub fn new(cfg: TrainerConfig) -> Trainer {
        Trainer { cfg }
    }

    /// Opens the lifecycle journal under `obs_dir` (created if missing).
    /// Export is best-effort: an unwritable directory degrades to an
    /// un-journaled run rather than failing training.
    fn open_journal(&self) -> Option<Journal> {
        let dir = self.cfg.obs_dir.as_ref()?;
        match Journal::open(&dir.join("svm_journal.jsonl")) {
            Ok(journal) => Some(journal),
            Err(e) => {
                eprintln!("qk-svm: journal disabled ({}): {e}", dir.display());
                None
            }
        }
    }

    /// Trains a C-SVC over `source`, checkpointing and recovering as
    /// configured.
    ///
    /// # Panics
    /// Panics on the same degenerate inputs as [`crate::train_svc`],
    /// and propagates chaos-injected panics.
    pub fn train<S: RowSource + ?Sized>(
        &self,
        source: &S,
        labels: &[f64],
        params: &SmoParams,
    ) -> Result<TrainOutcome, TrainError> {
        let n = source.order();
        validate_inputs(n, labels, params);
        let fingerprint = job_fingerprint(self.cfg.kernel_fingerprint, labels, params);

        let obs = match &self.cfg.obs {
            Some(obs) => obs.clone(),
            None => Obs::new(),
        };
        let journal = self.open_journal();
        let train_span = obs.span("smo_train");
        if let Some(journal) = &journal {
            journal
                .event("trainer_start")
                .field_u64("n", n as u64)
                .field_u64("fingerprint", fingerprint)
                .log();
        }

        let mut rec = Recovery::default();
        let mut cache = RowCache::new(n, self.cfg.cache_budget);

        let result = self.run(
            source,
            labels,
            params,
            fingerprint,
            &obs,
            journal.as_ref(),
            &mut rec,
            &mut cache,
        );

        // Mirror the run's recovery and cache activity into the shared
        // registry and export — for finished *and* failed runs, so a
        // drill that interrupts training still sees its counters.
        let stats = TrainerStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            rows_recomputed: cache.recomputed,
            row_retries: cache.retries,
            ckpt_retries: rec.ckpt_retries,
            ckpt_stores: rec.ckpt_stores,
            faults_injected: rec.faults + cache.faults,
            degraded: rec.degraded,
        };
        obs.counter("svm.faults_injected")
            .add(stats.faults_injected);
        obs.counter("svm.ckpt.retries").add(stats.ckpt_retries);
        obs.counter("svm.row.retries").add(stats.row_retries);
        obs.counter("svm.rows_recomputed")
            .add(stats.rows_recomputed);
        obs.counter("svm.resumes").add(rec.resumes);
        obs.counter("svm.cache.hits").add(stats.cache_hits);
        obs.counter("svm.cache.misses").add(stats.cache_misses);
        obs.counter("svm.cache.evictions")
            .add(stats.cache_evictions);
        if let Some(journal) = &journal {
            if let Err(e) = journal.flush() {
                eprintln!("qk-svm: journal flush failed: {e}");
            }
        }
        drop(train_span);
        if let Some(dir) = &self.cfg.obs_dir {
            if let Err(e) = obs.report("svm").write_json(&dir.join("obs_svm.json")) {
                eprintln!("qk-svm: obs report export failed ({}): {e}", dir.display());
            }
        }

        result.map(|outcome| TrainOutcome { stats, ..outcome })
    }

    /// The resumable training loop proper; `train` wraps it so counters
    /// are mirrored and reports exported on every exit path.
    #[allow(clippy::too_many_arguments)]
    fn run<S: RowSource + ?Sized>(
        &self,
        source: &S,
        labels: &[f64],
        params: &SmoParams,
        fingerprint: u64,
        obs: &Obs,
        journal: Option<&Journal>,
        rec: &mut Recovery,
        cache: &mut RowCache,
    ) -> Result<TrainOutcome, TrainError> {
        let n = labels.len();
        let ckpt = match &self.cfg.ckpt_dir {
            Some(dir) => Some(TrainerCkpt::open(dir, fingerprint, n)?),
            None => None,
        };

        let mut resumed_from = None;
        let mut st = match ckpt
            .as_ref()
            .and_then(|ckpt| self.load_snapshot(ckpt, rec, journal))
        {
            Some(snap) => {
                let pass = snap.total_passes;
                rec.resumes += 1;
                resumed_from = Some(pass);
                if let Some(journal) = journal {
                    journal
                        .event("trainer_resumed")
                        .field_u64("pass", pass as u64)
                        .log();
                }
                snap
            }
            None => SmoState::fresh(labels),
        };
        let diag = source.diagonal();

        let pass_counter = obs.counter("svm.smo_passes");
        let update_counter = obs.counter("svm.smo_updates");
        let shrunk_counter = obs.counter("svm.shrunk_passes");
        let ckpt_every = self.cfg.ckpt_every.max(1);
        let mut passes_this_run = 0usize;
        let mut block = ActiveBlock::default();
        let mut active_min = n;

        while st.should_continue(labels, params) {
            if let Some(budget) = self.cfg.pass_budget {
                if passes_this_run >= budget {
                    if let Some(ckpt) = &ckpt {
                        self.store_snapshot(ckpt, &st, obs, rec, journal);
                    }
                    if let Some(journal) = journal {
                        journal
                            .event("trainer_interrupted")
                            .field_u64("pass", st.total_passes as u64)
                            .log();
                    }
                    return Err(TrainError::Interrupted {
                        passes: st.total_passes,
                    });
                }
            }
            if let Some(d) = self.cfg.throttle {
                std::thread::sleep(d);
            }
            let _pass_span = obs.span("pass");
            let pass = pass_over(labels, &diag, params, &mut st, &mut block, |i| {
                cache.get(source, i, &self.cfg.chaos, &self.cfg.retry, journal)
            })?;
            active_min = active_min.min(pass.active);
            if pass.updates == 0 {
                // A stall: the pass left the state as it was and is not
                // counted, so a resumed run re-derives the same stop.
                break;
            }
            passes_this_run += 1;
            pass_counter.inc();
            update_counter.add(pass.updates as u64);
            shrunk_counter.add(u64::from(pass.compacted));
            if let Some(journal) = journal {
                journal
                    .event("smo_pass")
                    .field_u64("pass", st.total_passes as u64)
                    .field_u64("changed", pass.updates as u64)
                    .field_u64("active", pass.active as u64)
                    .log();
            }
            if let Some(ckpt) = &ckpt {
                if st.total_passes % ckpt_every == 0 {
                    self.store_snapshot(ckpt, &st, obs, rec, journal);
                }
            }
        }

        // Final snapshot: a kill *after* convergence resumes straight
        // to the finished model instead of retraining.
        if let Some(ckpt) = &ckpt {
            self.store_snapshot(ckpt, &st, obs, rec, journal);
        }

        let model = st.into_model(labels, params.c);
        publish_model(obs, &model, params.c, active_min);
        if let Some(journal) = journal {
            journal
                .event("trainer_done")
                .field_u64("passes", model.passes as u64)
                .field_u64("support_vectors", model.support_indices().len() as u64)
                .log();
        }
        Ok(TrainOutcome {
            model,
            resumed_from_pass: resumed_from,
            stats: TrainerStats::default(),
        })
    }

    /// Retried, chaos-gated snapshot load; any persistent failure falls
    /// back to a cold start.
    fn load_snapshot(
        &self,
        ckpt: &TrainerCkpt,
        rec: &mut Recovery,
        journal: Option<&Journal>,
    ) -> Option<SmoState> {
        let retried = self.cfg.retry.run(|| {
            self.cfg
                .chaos
                .gate(sites::SVM_CKPT_LOAD, || rec.faults += 1)?;
            ckpt.load_classified()
        });
        rec.ckpt_retries += retried.retries as u64;
        match retried.result {
            Ok(Load::Loaded(snap)) => Some(snap),
            Ok(Load::Missing) => None,
            Ok(Load::Corrupt) => {
                if let Some(journal) = journal {
                    journal.event("ckpt_rejected").log();
                }
                None
            }
            Err(e) => {
                eprintln!("qk-svm: checkpoint load failed, cold-starting: {e}");
                if let Some(journal) = journal {
                    journal
                        .event("ckpt_load_failed")
                        .field_str("error", &e.to_string())
                        .log();
                }
                None
            }
        }
    }

    /// Retried, chaos-gated snapshot store; persistent failure degrades
    /// checkpointing to off for the rest of the run (training proceeds,
    /// crash-safety is lost until the next life). Each write attempt's
    /// duration lands in the `svm.ckpt.store_us` histogram.
    fn store_snapshot(
        &self,
        ckpt: &TrainerCkpt,
        st: &SmoState,
        obs: &Obs,
        rec: &mut Recovery,
        journal: Option<&Journal>,
    ) {
        if rec.degraded {
            return;
        }
        let retried = self.cfg.retry.run(|| {
            self.cfg
                .chaos
                .gate(sites::SVM_CKPT_STORE, || rec.faults += 1)?;
            let _store = obs.timed_span("ckpt_store", "svm.ckpt.store_us");
            ckpt.store(st)
        });
        rec.ckpt_retries += retried.retries as u64;
        match retried.result {
            Ok(()) => {
                rec.ckpt_stores += 1;
                if let Some(journal) = journal {
                    journal
                        .event("ckpt_stored")
                        .field_u64("pass", st.total_passes as u64)
                        .log();
                }
            }
            Err(e) => {
                rec.degraded = true;
                eprintln!("qk-svm: checkpointing degraded to off: {e}");
                if let Some(journal) = journal {
                    journal
                        .event("ckpt_degraded")
                        .field_str("error", &e.to_string())
                        .log();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelMatrix;
    use crate::smo::train_svc;
    use qk_chaos::FaultPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qk-svm-trainer-{}-{tag}-{id}", std::process::id()))
    }

    /// FNV-1a 64 reference vectors — the checkpoint fingerprint hash
    /// must match the published constants.
    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(durable::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(durable::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(durable::fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// A mildly noisy problem that takes a handful of passes, so
    /// interrupt/resume has room to land mid-run.
    fn problem(n: usize) -> (KernelMatrix, Vec<f64>) {
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    ((i * 37) % 13) as f64 / 6.0 - 1.0,
                    ((i * 11) % 7) as f64 / 3.5,
                ]
            })
            .collect();
        let labels: Vec<f64> = (0..n)
            .map(|i| if (i * 17) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = KernelMatrix::from_fn(n, |i, j| {
            let d2: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (-0.7 * d2).exp()
        });
        (k, labels)
    }

    /// A non-resident view of a dense matrix: every row is a load, so
    /// training over it goes through the row cache, its budget, its
    /// `svm.row.load` gate and the recompute fallback.
    struct Loaded<'a>(&'a KernelMatrix);

    impl RowSource for Loaded<'_> {
        fn order(&self) -> usize {
            self.0.len()
        }

        fn load_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
            out.copy_from_slice(self.0.row(i));
            Ok(())
        }

        fn recompute_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
            out.copy_from_slice(self.0.row(i));
            Ok(())
        }

        fn diagonal(&self) -> Vec<f64> {
            (0..self.0.len()).map(|t| self.0.get(t, t)).collect()
        }
    }

    /// A problem on which shrinking engages: at `C = 256` most passes
    /// run compacted.
    fn shrunk_problem() -> (KernelMatrix, Vec<f64>, SmoParams) {
        let (k, y) = crate::smo::tests::rbf_problem(200, 1);
        (k, y, SmoParams::with_c(256.0))
    }

    fn assert_models_bitwise_equal(a: &TrainedSvm, b: &TrainedSvm) {
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.bias.to_bits(), b.bias.to_bits());
        assert_eq!(a.alphas.len(), b.alphas.len());
        for (x, y) in a.alphas.iter().zip(&b.alphas) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A tight cache budget forces evictions without changing a bit of
    /// the model.
    #[test]
    fn budgeted_cache_degrades_gracefully_not_numerically() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        let trainer = Trainer::new(TrainerConfig {
            // Room for 3 rows of 24 f64s.
            cache_budget: Some(3 * 24 * 8),
            ..TrainerConfig::default()
        });
        let outcome = trainer.train(&Loaded(&k), &y, &params).unwrap();
        assert_models_bitwise_equal(&outcome.model, &reference);
        assert!(outcome.stats.cache_evictions > 0, "budget must bind");
    }

    /// Interrupt at every possible pass boundary; each resume must
    /// reconverge to the uninterrupted model, bit for bit.
    #[test]
    fn interrupt_and_resume_is_bitwise_identical() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        assert!(reference.passes >= 3, "fixture must take several passes");
        for budget in 0..reference.passes {
            let dir = scratch(&format!("resume{budget}"));
            let interrupted = Trainer::new(TrainerConfig {
                ckpt_dir: Some(dir.clone()),
                pass_budget: Some(budget),
                ..TrainerConfig::default()
            })
            .train(&k, &y, &params);
            match interrupted {
                Err(TrainError::Interrupted { passes }) => assert_eq!(passes, budget),
                other => panic!("expected interruption, got {other:?}"),
            }
            let resumed = Trainer::new(TrainerConfig {
                ckpt_dir: Some(dir.clone()),
                ..TrainerConfig::default()
            })
            .train(&k, &y, &params)
            .unwrap();
            assert_models_bitwise_equal(&resumed.model, &reference);
            if budget > 0 {
                assert_eq!(resumed.resumed_from_pass, Some(budget));
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Resuming a *finished* job loads the final snapshot and returns
    /// the model without retraining.
    #[test]
    fn resume_of_finished_job_is_instant_and_identical() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let dir = scratch("finished");
        let cfg = TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            ..TrainerConfig::default()
        };
        let first = Trainer::new(cfg.clone()).train(&k, &y, &params).unwrap();
        let second = Trainer::new(cfg).train(&k, &y, &params).unwrap();
        assert_models_bitwise_equal(&second.model, &first.model);
        assert_eq!(second.resumed_from_pass, Some(first.model.passes));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot written by a different job (same shape, different C)
    /// must be rejected and cold-started, not resumed.
    #[test]
    fn foreign_snapshot_forces_cold_start() {
        let (k, y) = problem(24);
        let dir = scratch("foreign");
        let cfg = TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            ..TrainerConfig::default()
        };
        Trainer::new(cfg.clone())
            .train(&k, &y, &SmoParams::with_c(0.7))
            .unwrap();
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        let outcome = Trainer::new(cfg).train(&k, &y, &params).unwrap();
        assert_eq!(outcome.resumed_from_pass, None, "foreign snapshot resumed");
        assert_models_bitwise_equal(&outcome.model, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Chaos drill: transient store faults, a persistent load fault and
    /// a burst of row-load faults are all recovered, counted, and leave
    /// the model untouched.
    #[test]
    fn chaos_faults_are_recovered_with_identical_model() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        let dir = scratch("chaos");
        // Seed a snapshot so the load site has something to chew on.
        Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            pass_budget: Some(2),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params)
        .ok();
        // The first row load sees 5 consecutive faults — more than the
        // 4 attempts the default retry policy makes — so it must fall
        // back to recomputation; the next load's single leftover fault
        // is absorbed by a retry.
        let plan = FaultPlan::parse(
            7,
            "svm.ckpt.store=io@first:2,svm.ckpt.load=io@from:0,svm.row.load=io@first:5",
        )
        .unwrap();
        let outcome = Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            chaos: plan.arm(),
            ..TrainerConfig::default()
        })
        .train(&Loaded(&k), &y, &params)
        .unwrap();
        // The persistent load fault forced a cold start...
        assert_eq!(outcome.resumed_from_pass, None);
        // ...yet every recovery path fired and the model is pristine.
        assert!(outcome.stats.faults_injected > 0);
        assert!(outcome.stats.ckpt_retries > 0);
        assert!(outcome.stats.rows_recomputed > 0);
        assert_models_bitwise_equal(&outcome.model, &reference);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Persistent store faults degrade checkpointing to off; training
    /// still completes with the right model.
    #[test]
    fn persistent_store_faults_degrade_not_abort() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        let dir = scratch("degraded");
        let plan = FaultPlan::parse(3, "svm.ckpt.store=io@from:0").unwrap();
        let outcome = Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            chaos: plan.arm(),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params)
        .unwrap();
        assert!(outcome.stats.degraded);
        assert_eq!(outcome.stats.ckpt_stores, 0);
        assert_models_bitwise_equal(&outcome.model, &reference);
        assert!(
            !checkpoint_path(&dir).exists(),
            "no snapshot can land when every store faults"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The recovery counters land in the shared registry under the
    /// names the obs schema gate requires, and are pre-registered (zero
    /// on clean runs); the pass count and the exit certificate land
    /// beside them.
    #[test]
    fn recovery_counters_are_registered() {
        let (k, y) = problem(12);
        let obs = Obs::new();
        let model = Trainer::new(TrainerConfig {
            obs: Some(obs.clone()),
            ..TrainerConfig::default()
        })
        .train(&Loaded(&k), &y, &SmoParams::with_c(1.0))
        .unwrap()
        .model;
        let snap = obs.registry_snapshot();
        assert_eq!(snap.counters["svm.smo_passes"], model.passes as u64);
        assert!(snap.counters.contains_key("svm.smo_updates"));
        for name in [
            "svm.faults_injected",
            "svm.ckpt.retries",
            "svm.row.retries",
            "svm.rows_recomputed",
            "svm.resumes",
        ] {
            assert_eq!(snap.counters.get(name), Some(&0), "{name}");
        }
        assert!(snap.counters["svm.cache.misses"] > 0);
        assert!(snap.counters.contains_key("svm.shrunk_passes"));
        // The exit certificate is published in units of 1e-9, rounded up.
        let kkt = snap.gauges["svm.kkt_violation"];
        assert_eq!(kkt, (model.kkt_violation * 1e9).ceil() as i64);
        assert!(kkt <= 1_000_000);
        assert!(snap.gauges["svm.duality_gap"] >= 0);
        for name in [
            "svm.duality_gap",
            "svm.support_vectors",
            "svm.at_bound",
            "svm.active_min",
        ] {
            assert!(snap.gauges.contains_key(name), "{name}");
        }
    }

    /// A resident source is read in place: every row read is a hit and
    /// nothing is loaded, yet the model is bit for bit the one a
    /// non-resident view of the same matrix trains through the cache —
    /// on compacted passes too.
    #[test]
    fn resident_and_loaded_sources_train_identically() {
        let (k, y, params) = shrunk_problem();
        let obs = Obs::new();
        let resident = Trainer::new(TrainerConfig {
            obs: Some(obs.clone()),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params)
        .unwrap();
        assert!(obs.registry_snapshot().counters["svm.shrunk_passes"] >= 1);
        assert_eq!(resident.stats.cache_misses, 0);
        assert!(resident.stats.cache_hits > 0);
        let loaded = Trainer::default().train(&Loaded(&k), &y, &params).unwrap();
        assert!(loaded.stats.cache_misses > 0);
        assert_models_bitwise_equal(&resident.model, &loaded.model);
        assert_models_bitwise_equal(&resident.model, &train_svc(&k, &y, &params));
        assert!(resident.model.kkt_violation <= params.tol);
    }

    /// Kill at every pass boundary of a run whose passes compact: the
    /// active set is re-derived from the snapshot, so every resume
    /// reconverges to the uninterrupted model, bit for bit.
    #[test]
    fn interrupt_and_resume_on_shrunk_path_is_bitwise_identical() {
        let (k, y, params) = shrunk_problem();
        let reference = train_svc(&k, &y, &params);
        assert!(reference.passes >= 3, "fixture must take several passes");
        for budget in 0..reference.passes {
            let dir = scratch(&format!("shrunk{budget}"));
            let cfg = TrainerConfig {
                ckpt_dir: Some(dir.clone()),
                ..TrainerConfig::default()
            };
            let interrupted = Trainer::new(TrainerConfig {
                pass_budget: Some(budget),
                ..cfg.clone()
            })
            .train(&k, &y, &params);
            match interrupted {
                Err(TrainError::Interrupted { passes }) => assert_eq!(passes, budget),
                other => panic!("expected interruption, got {other:?}"),
            }
            let resumed = Trainer::new(cfg).train(&k, &y, &params).unwrap();
            assert_models_bitwise_equal(&resumed.model, &reference);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// Torn temp files from a previous life are swept on open.
    #[test]
    fn torn_temps_are_swept() {
        let (k, y) = problem(12);
        let params = SmoParams::with_c(1.0);
        let dir = scratch("sweep");
        fs::create_dir_all(&dir).unwrap();
        let torn = dir.join(".trainer.qks.12345.tmp");
        fs::write(&torn, b"half-written").unwrap();
        Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params)
        .unwrap();
        assert!(!torn.exists(), "torn temp must be swept");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A kill between `write_atomic`'s remove and rename leaves the new
    /// snapshot only as the dead life's temp. The next life adopts it
    /// and resumes from it to the uninterrupted model, bit for bit, and
    /// every store it makes is timed into `svm.ckpt.store_us`.
    #[test]
    fn snapshot_adopted_after_a_window_kill_resumes_bitwise() {
        let (k, y) = problem(24);
        let params = SmoParams::with_c(1.5);
        let reference = train_svc(&k, &y, &params);
        let dir = scratch("window");
        let interrupted = Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            pass_budget: Some(2),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params);
        assert!(matches!(
            interrupted,
            Err(TrainError::Interrupted { passes: 2 })
        ));
        // The disk as that kill leaves it: the snapshot only in the temp.
        let orphan = dir.join(".trainer.qks.4000000.tmp");
        fs::write(&orphan, fs::read(checkpoint_path(&dir)).unwrap()).unwrap();
        fs::remove_file(checkpoint_path(&dir)).unwrap();

        let obs = Obs::new();
        let resumed = Trainer::new(TrainerConfig {
            ckpt_dir: Some(dir.clone()),
            obs: Some(obs.clone()),
            ..TrainerConfig::default()
        })
        .train(&k, &y, &params)
        .unwrap();
        assert_eq!(resumed.resumed_from_pass, Some(2), "the orphan was adopted");
        assert_models_bitwise_equal(&resumed.model, &reference);
        assert!(!orphan.exists());
        let stores = &obs.registry_snapshot().histograms["svm.ckpt.store_us"];
        assert_eq!(stores.count, resumed.stats.ckpt_stores);
        assert!(stores.count > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The snapshot format is pinned: a fixed solver state stored through
    /// the checkpoint hashes to the digest recorded when the format last
    /// changed.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let dir = scratch("pinned");
        let ckpt = TrainerCkpt::open(&dir, 0x0123_4567_89ab_cdef, 3).unwrap();
        ckpt.store(&SmoState {
            alphas: vec![0.0, 1.5, 0.25],
            bias: -0.125,
            errors: vec![-1.0, 0.5, 1e-300],
            total_passes: 7,
        })
        .unwrap();
        let bytes = fs::read(checkpoint_path(&dir)).unwrap();
        assert_eq!(bytes.len(), 48 + 3 * 16);
        assert_eq!(durable::fnv1a64(&bytes), 0xafda_4ced_a21b_d6bc);
        let _ = fs::remove_dir_all(&dir);
    }
}
