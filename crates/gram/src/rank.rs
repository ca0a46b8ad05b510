//! Rank-distributed Gram computation that survives rank death.
//!
//! ROADMAP item: the kill-and-resume drill, distributed. Tiles are
//! round-robin assigned to simulated MPI ranks; every rank persists its
//! finished tiles into its own checkpoint directory and heartbeats the
//! coordinator (rank 0) after each one. When a rank goes silent past
//! the heartbeat timeout without announcing completion, the coordinator
//! declares it dead ([`qk_mpi::HeartbeatMonitor`]) and partitions the
//! dead rank's tiles over the survivors, who *adopt* them — each
//! orphan is recovered from the dead rank's checkpoint log (read front
//! to back when the adopter opens it) when a verified record exists
//! there, and recomputed (then persisted by its adopter) otherwise.
//! Assembly at rank 0 reads every tile back from whichever directory
//! holds it, falling back to a local recompute, so the job completes —
//! bitwise identical to a single-process run — as long as rank 0
//! survives.
//!
//! Every rank restores, computes and persists its tiles through one
//! [`TileRunner`] persisting into its own directory, the same runner
//! the engine's pool uses; read-backs from other ranks' directories go
//! through the same runner's [`TileRunner::restore`]. The ranks' runners
//! are built without the fault plan: rank death is the drill's only
//! fault. (A rank does not supervise its tiles the way the pool does, so
//! an injected tile panic would leave the coordinator waiting for a
//! `FINACK` that never comes.)
//!
//! ## Protocol
//!
//! ```text
//! worker r:  [tile, store, HB]*  DONE  ·  recv ASSIGN  adopt*  ADONE  ·  recv FIN  FINACK
//! dead r:    [tile, store, HB]*  (death)  drain until FIN  FINACK
//! rank 0:    own tiles  ·  poll HB/DONE + sweep  ·  ASSIGN→all  adopt own share
//!            recv ADONE (live)  ·  assemble  ·  FIN→all  drain until k-1 FINACKs
//! ```
//!
//! Liveness of the exit: every rank's `FINACK` is the last message it
//! deposits, and rank 0 drains its mailbox in FIFO order until it has
//! counted one per peer — so a clean mailbox at exit is guaranteed even
//! when a slow-but-alive rank was conservatively declared dead (it
//! still receives an empty `ASSIGN` and `FIN`, and its stray messages
//! are drained with everything else).
//!
//! Rank 0 is the coordinator and must not be killed;
//! [`qk_chaos::FaultPlan::kill_rank`] refuses rank 0 for exactly this
//! reason. Real deployments would re-elect a coordinator; the drill
//! pins the recovery mechanics, not leader election.

use crate::checkpoint::CheckpointStore;
use crate::fingerprint::{JobKind, JobSpec};
use crate::runner::{write_tile, TileRunner};
use crate::tiles::{Tile, TilePlan};
use crate::view::TiledKernel;
use qk_chaos::{Chaos, RetryPolicy};
use qk_mpi::{run_world, HeartbeatMonitor, Process, Source, ANY_TAG};
use qk_mps::{Mps, ZipperWorkspace};
use qk_obs::{Journal, TraceLane, TracePhase, Tracer};
use qk_tensor::backend::ExecutionBackend;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const TAG_HB: u32 = 101;
const TAG_DONE: u32 = 102;
const TAG_ASSIGN: u32 = 103;
const TAG_ADONE: u32 = 104;
const TAG_FIN: u32 = 105;
const TAG_FINACK: u32 = 106;

/// Configuration for a rank-distributed, death-tolerant Gram job.
#[derive(Debug, Clone)]
pub struct RankConfig {
    /// Simulated MPI ranks (threads), min 1. Rank 0 coordinates.
    pub ranks: usize,
    /// Tile edge length, as in [`crate::GramConfig`].
    pub tile: usize,
    /// Encoding fingerprint pinning checkpoint compatibility.
    pub encoding: u64,
    /// Root directory; rank `r` checkpoints under `<root>/rank_<r>`.
    pub checkpoint_root: PathBuf,
    /// Armed fault plan; its `rank_death` entries kill workers at tile
    /// boundaries, and nothing else in it is consulted. Disarmed by
    /// default.
    pub chaos: Chaos,
    /// Backoff for checkpoint loads and stores (a load that keeps
    /// failing recomputes the tile; a store that keeps failing stops
    /// the rank persisting).
    pub retry: RetryPolicy,
    /// Silence budget before the coordinator declares a rank dead.
    /// Must comfortably exceed the cost of one tile.
    pub hb_timeout: Duration,
    /// When set, rank 0 appends `rank_dead` / `rank_job_done` events to
    /// `rank_journal.jsonl` in this directory.
    pub obs_dir: Option<PathBuf>,
    /// Shared trace collector: each rank records onto lane `(rank, 0)`
    /// (compute, checkpoint-write, rebalance/adoption, the
    /// coordinator's liveness wait and assembly). Ranks are threads
    /// here, so one tracer epoch yields comparable cross-rank stamps;
    /// the driver writes one shard per rank at job end. `None` = no
    /// tracing.
    pub trace: Option<Tracer>,
}

impl RankConfig {
    /// A default-tolerance configuration over the given checkpoint root.
    pub fn new(ranks: usize, tile: usize, checkpoint_root: impl Into<PathBuf>) -> Self {
        RankConfig {
            ranks: ranks.max(1),
            tile: tile.max(1),
            encoding: 0,
            checkpoint_root: checkpoint_root.into(),
            chaos: Chaos::disarmed(),
            retry: RetryPolicy::default(),
            hb_timeout: Duration::from_millis(500),
            obs_dir: None,
            trace: None,
        }
    }
}

/// What one rank did before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankSummary {
    /// Owned tiles this rank completed (and attempted to persist).
    pub tiles_completed: u64,
    /// Orphaned tiles recovered from a dead rank's checkpoint.
    pub tiles_adopted: u64,
    /// Orphaned tiles recomputed (dead rank left no usable record).
    pub tiles_recomputed: u64,
    /// Whether this rank died mid-job (injected death).
    pub died: bool,
}

/// Accounting for a completed rank-distributed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankReport {
    /// Ranks the coordinator declared dead, ascending.
    pub dead_ranks: Vec<usize>,
    /// Orphans recovered from dead ranks' checkpoints, all ranks.
    pub tiles_adopted: u64,
    /// Orphans recomputed by their adopters, all ranks.
    pub tiles_recomputed: u64,
    /// Per-rank outcomes, indexed by rank.
    pub per_rank: Vec<RankSummary>,
}

/// A completed rank-distributed Gram job.
#[derive(Debug)]
pub struct RankOutcome {
    /// The assembled kernel, bitwise identical to a single-process run.
    pub kernel: TiledKernel,
    /// Recovery accounting.
    pub report: RankReport,
}

/// One rank's thread-body result, merged by the driver.
enum RankRun {
    Coordinator {
        kernel: TiledKernel,
        dead: Vec<usize>,
        summary: RankSummary,
    },
    Worker(RankSummary),
}

/// Computes the symmetric Gram matrix of `states` over simulated MPI
/// ranks, tolerating (injected) worker-rank deaths via heartbeat
/// detection and checkpoint adoption.
///
/// # Panics
/// Panics if `states` is empty or rank 0's checkpoint root is entirely
/// unusable *and* a protocol message is lost — in the spirit of
/// [`qk_mpi::run_world`], unrecoverable protocol errors abort the job.
pub fn rank_distributed_gram(
    states: &[Mps],
    backend: &dyn ExecutionBackend,
    cfg: &RankConfig,
) -> RankOutcome {
    assert!(!states.is_empty(), "need at least one state");
    let n = states.len();
    let spec = JobSpec {
        encoding: cfg.encoding,
        kind: JobKind::Train,
        rows: n,
        cols: n,
        tile: cfg.tile,
    };

    let job = Job {
        states,
        backend,
        cfg,
        plan: TilePlan::symmetric(n, cfg.tile),
        spec,
    };
    let runs: Vec<RankRun> = run_world(cfg.ranks, |p| {
        if p.rank() == 0 {
            coordinator(p, &job)
        } else {
            worker(p, &job)
        }
    });

    let mut per_rank = Vec::with_capacity(cfg.ranks);
    let mut kernel = None;
    let mut dead_ranks = Vec::new();
    for run in runs {
        match run {
            RankRun::Coordinator {
                kernel: k,
                dead,
                summary,
            } => {
                kernel = Some(k);
                dead_ranks = dead;
                per_rank.push(summary);
            }
            RankRun::Worker(summary) => per_rank.push(summary),
        }
    }
    let tiles_adopted = per_rank.iter().map(|s| s.tiles_adopted).sum();
    let tiles_recomputed = per_rank.iter().map(|s| s.tiles_recomputed).sum();
    RankOutcome {
        kernel: kernel.expect("rank 0 assembled the kernel"),
        report: RankReport {
            dead_ranks,
            tiles_adopted,
            tiles_recomputed,
            per_rank,
        },
    }
}

/// The inputs every rank reads.
struct Job<'a> {
    states: &'a [Mps],
    backend: &'a dyn ExecutionBackend,
    cfg: &'a RankConfig,
    plan: TilePlan,
    spec: JobSpec,
}

impl Job<'_> {
    /// Rank `rank`'s checkpoint store under `<root>/rank_<r>`; `None`
    /// when the directory is unusable.
    fn store(&self, rank: usize) -> Option<CheckpointStore> {
        let dir = self.cfg.checkpoint_root.join(format!("rank_{rank}"));
        CheckpointStore::open(&dir, &self.spec).ok()
    }
}

/// One rank's share of the job: its tile runner, which persists into
/// the rank's own directory, its zipper workspace and its trace lane.
struct RankTiles<'a> {
    job: &'a Job<'a>,
    store: Option<&'a CheckpointStore>,
    runner: TileRunner<'a>,
    ws: ZipperWorkspace,
    lane: Option<TraceLane>,
}

impl<'a> RankTiles<'a> {
    fn new(job: &'a Job<'a>, rank: usize, store: Option<&'a CheckpointStore>) -> Self {
        let cfg = job.cfg;
        RankTiles {
            job,
            store,
            runner: TileRunner::new(JobKind::Train, job.backend).persisting(
                store,
                &Chaos::disarmed(),
                &cfg.retry,
                None,
            ),
            ws: ZipperWorkspace::new(),
            lane: cfg.trace.as_ref().map(|t| t.lane(rank as u32, 0)),
        }
    }

    /// Computes `tile` from the resident states and persists it into
    /// this rank's directory.
    fn compute(&mut self, tile: &Tile) -> Vec<f64> {
        let states = self.job.states;
        self.runner
            .run(tile, self.lane.as_ref(), &mut self.ws, || {
                Ok((
                    &states[tile.row0..tile.row0 + tile.rows],
                    &states[tile.col0..tile.col0 + tile.cols],
                ))
            })
            .unwrap_or_else(|e| panic!("rank tile ({}, {}) failed: {e}", tile.bi, tile.bj))
    }

    /// Restores an owned tile from this rank's directory, else computes
    /// and persists it.
    fn complete(&mut self, tile: &Tile) {
        if self
            .store
            .and_then(|s| self.runner.restore(s, tile))
            .is_none()
        {
            self.compute(tile);
        }
    }

    /// Adopts the orphaned tiles `orphans` (plan indices): each is
    /// recovered from its dead owner's checkpoint, else recomputed into
    /// this rank's own directory. Returns `(recovered, recomputed)`.
    fn adopt(&mut self, orphans: &[u64]) -> (u64, u64) {
        // Each dead owner's log is opened, so read through, once.
        let mut dead_logs = BTreeMap::new();
        let mut recovered = 0;
        for &idx in orphans {
            let tile = &self.job.plan.tiles[idx as usize];
            let restored = {
                let _t = self
                    .lane
                    .as_ref()
                    .map(|l| l.span_args(TracePhase::Rebalance, tile.bi as i64, tile.bj as i64));
                let dead = TilePlan::owner(idx as usize, self.job.cfg.ranks);
                let log = dead_logs
                    .entry(dead)
                    .or_insert_with(|| self.job.store(dead));
                log.as_ref().and_then(|s| self.runner.restore(s, tile))
            };
            if restored.is_some() {
                recovered += 1;
            } else {
                self.compute(tile);
            }
        }
        (recovered, orphans.len() as u64 - recovered)
    }
}

fn encode_indices(indices: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(indices.len() * 8);
    for idx in indices {
        out.extend_from_slice(&idx.to_le_bytes());
    }
    out
}

fn decode_indices(bytes: &[u8]) -> Vec<u64> {
    assert!(bytes.len().is_multiple_of(8), "corrupt assignment payload");
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// The worker-rank body (`rank > 0`). See the module docs for the
/// message sequence; death is simulated by abandoning the compute loop
/// and draining messages until `FIN` (a dead process answers nothing,
/// but the drill must leave the simulated mailboxes clean).
fn worker(p: &mut Process, job: &Job) -> RankRun {
    let (cfg, plan) = (job.cfg, &job.plan);
    let rank = p.rank();
    let store = job.store(rank);
    let mut own = RankTiles::new(job, rank, store.as_ref());
    let death_at = cfg.chaos.rank_death(rank);
    let mut completed = 0u64;

    for tile in plan.owned_by(rank, cfg.ranks) {
        if death_at == Some(completed) {
            return limbo(p, completed);
        }
        own.complete(tile);
        completed += 1;
        p.send(0, TAG_HB, &completed.to_le_bytes());
    }
    if death_at == Some(completed) {
        return limbo(p, completed);
    }
    p.send(0, TAG_DONE, &[]);

    // Waiting for the coordinator's (re)assignment is this rank's
    // queue-wait: it ends the moment orphan rebalancing is decided.
    let wait_start = own.lane.as_ref().map(|l| l.stamp());
    let assigned = decode_indices(&p.recv(Source::Rank(0), TAG_ASSIGN).payload);
    if let (Some(l), Some(t0)) = (&own.lane, wait_start) {
        l.record_since(t0, TracePhase::QueueWait, assigned.len() as i64, -1);
    }
    let (adopted, recomputed) = own.adopt(&assigned);
    p.send(0, TAG_ADONE, &encode_indices(&[adopted, recomputed]));

    let fin = p.recv(Source::Rank(0), TAG_FIN);
    debug_assert_eq!(fin.tag, TAG_FIN);
    p.send(0, TAG_FINACK, &[]);
    RankRun::Worker(RankSummary {
        tiles_completed: completed,
        tiles_adopted: adopted,
        tiles_recomputed: recomputed,
        died: false,
    })
}

/// A dead rank's afterlife: consume every coordinator message so the
/// world exits with clean mailboxes, acknowledging only the final FIN.
fn limbo(p: &mut Process, completed: u64) -> RankRun {
    loop {
        let m = p.recv(Source::Rank(0), ANY_TAG);
        if m.tag == TAG_FIN {
            p.send(0, TAG_FINACK, &[]);
            return RankRun::Worker(RankSummary {
                tiles_completed: completed,
                tiles_adopted: 0,
                tiles_recomputed: 0,
                died: true,
            });
        }
    }
}

/// The coordinator body (rank 0): own share, liveness poll, orphan
/// re-planning, adoption share, assembly, and the FIN/FINACK epilogue.
fn coordinator(p: &mut Process, job: &Job) -> RankRun {
    let (cfg, plan) = (job.cfg, &job.plan);
    let n = job.states.len();
    let journal = cfg.obs_dir.as_ref().and_then(|dir| {
        std::fs::create_dir_all(dir).ok()?;
        Journal::open(&dir.join("rank_journal.jsonl")).ok()
    });
    let store = job.store(0);
    let mut own = RankTiles::new(job, 0, store.as_ref());
    let mut completed = 0u64;
    for tile in plan.owned_by(0, cfg.ranks) {
        own.complete(tile);
        completed += 1;
    }

    // Liveness poll: beats and completions arrive while we sweep for
    // overdue ranks. Only HB/DONE can be in flight toward rank 0 here —
    // nobody sends ADONE or FINACK before receiving ASSIGN / FIN.
    // The whole poll is the coordinator's queue-wait: it ends when
    // every rank has settled (done or declared dead).
    let poll_start = own.lane.as_ref().map(|l| l.stamp());
    let mut monitor = HeartbeatMonitor::new(cfg.ranks, cfg.hb_timeout);
    monitor.mark_done(0);
    while !monitor.all_settled() {
        while let Some(m) = p.try_recv(Source::Any, ANY_TAG) {
            match m.tag {
                TAG_HB => monitor.beat(m.src),
                TAG_DONE => monitor.mark_done(m.src),
                other => unreachable!("unexpected tag {other} during liveness poll"),
            }
        }
        for rank in monitor.sweep() {
            eprintln!("qk-gram: rank {rank} declared dead (heartbeat timeout)");
            if let Some(j) = &journal {
                j.event("rank_dead").field_u64("rank", rank as u64).log();
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let dead = monitor.dead();
    let live = monitor.live();
    if let (Some(l), Some(t0)) = (&own.lane, poll_start) {
        l.record_since(t0, TracePhase::QueueWait, dead.len() as i64, -1);
    }

    // Re-plan: orphaned tiles round-robin over the survivors (rank 0
    // included). Every non-zero rank gets an ASSIGN — believed-dead
    // ranks drain theirs in limbo, and a slow-but-alive rank that was
    // conservatively swept still gets an (empty) assignment so it can
    // run its epilogue instead of blocking forever.
    let orphans: Vec<u64> = (0..plan.tiles.len())
        .filter(|&i| dead.contains(&TilePlan::owner(i, cfg.ranks)))
        .map(|i| i as u64)
        .collect();
    let mut share: Vec<Vec<u64>> = vec![Vec::new(); cfg.ranks];
    for (k, &idx) in orphans.iter().enumerate() {
        share[live[k % live.len()]].push(idx);
    }
    for (rank, assigned) in share.iter().enumerate().skip(1) {
        p.send(rank, TAG_ASSIGN, &encode_indices(assigned));
    }
    let (adopted, recomputed) = own.adopt(&share[0]);
    // Workers' ADONE counts gate assembly (their adopted tiles are on
    // disk once acknowledged); the totals are re-derived from the
    // per-rank summaries by the driver, so only rank 0's own share
    // lands in its summary.
    let mut peer_adoptions = 0u64;
    for &rank in live.iter().filter(|&&r| r != 0) {
        let counts = decode_indices(&p.recv(Source::Rank(rank), TAG_ADONE).payload);
        peer_adoptions += counts[0] + counts[1];
    }
    debug_assert_eq!(
        adopted + recomputed + peer_adoptions,
        orphans.len() as u64,
        "every orphan is accounted for"
    );

    // Assembly: read every tile back from whichever rank directory
    // holds a verified copy (owner first — adopters recompute into
    // their own directories), recomputing locally as the last resort so
    // the job always completes.
    let mut data = vec![0.0; n * n];
    let stores: Vec<Option<CheckpointStore>> = (0..cfg.ranks).map(|r| job.store(r)).collect();
    for (idx, tile) in plan.tiles.iter().enumerate() {
        let restored = {
            let _t = own
                .lane
                .as_ref()
                .map(|l| l.span_args(TracePhase::Assemble, tile.bi as i64, tile.bj as i64));
            let first = TilePlan::owner(idx, cfg.ranks);
            (0..cfg.ranks)
                .map(|k| (first + k) % cfg.ranks)
                .find_map(|r| stores[r].as_ref().and_then(|s| own.runner.restore(s, tile)))
        };
        let payload = restored.unwrap_or_else(|| own.compute(tile));
        write_tile(&mut data, n, JobKind::Train, tile, &payload);
    }

    // Epilogue: FIN everyone, then drain until every peer's FINACK has
    // arrived. FINACK is the last message any rank sends, so counting
    // k-1 of them proves the mailbox holds nothing else.
    for rank in 1..cfg.ranks {
        p.send(rank, TAG_FIN, &[]);
    }
    let mut acks = 0usize;
    while acks < cfg.ranks - 1 {
        if p.recv(Source::Any, ANY_TAG).tag == TAG_FINACK {
            acks += 1;
        }
    }
    if let Some(j) = &journal {
        // The coordinator's comm profile (bytes moved, time blocked in
        // recv) rides along so a trace investigation can tell a
        // communication-bound run from a compute-bound one.
        let comm = p.stats();
        j.event("rank_job_done")
            .field_u64("dead_ranks", dead.len() as u64)
            .field_u64("tiles_orphaned", orphans.len() as u64)
            .field_u64("comm_bytes", comm.bytes_total() as u64)
            .field_u64("comm_messages", comm.messages_total() as u64)
            .field_u64("comm_blocked_us", comm.blocked_us())
            .log();
        let _ = j.flush();
    }

    RankRun::Coordinator {
        kernel: TiledKernel::from_parts(n, data),
        dead,
        summary: RankSummary {
            tiles_completed: completed,
            tiles_adopted: adopted,
            tiles_recomputed: recomputed,
            died: false,
        },
    }
}
