//! Globally-mergeable distributed trace timelines.
//!
//! Every traced component records [`TraceEvent`]s onto a *lane* — one
//! logical execution stream identified by `(rank, lane)` — through a
//! shared [`Tracer`]. Events carry a per-lane **logical sequence
//! number** assigned at record time, so shards written by different
//! ranks merge into one canonical timeline no matter the order the
//! shards arrive in: the merged order is `(rank, lane, seq)`, which is
//! a total order independent of wall clocks. Wall stamps (`t_us`,
//! `dur_us`) are measured against the tracer's single shared epoch and
//! are *presentation data only* — they never order the merge. Under
//! the threads-as-ranks substitution (DESIGN.md) all ranks share one
//! process, so one epoch yields directly comparable cross-rank stamps;
//! a real multi-process MPI deployment would add per-rank clock-offset
//! correction before merging.
//!
//! The only ambient clock reads live in [`Tracer::new`] and
//! [`Tracer::now_us`] (shards name their temp files through
//! `qk_chaos::durable::write_atomic`), keeping the determinism audit
//! surface to the same allowlisted-function discipline as the span
//! recorder and journal. With the `obs-off` feature, recording compiles
//! to no-ops; the offline merge/analyze/export functions stay available
//! because they are pure functions over already-written shards.
//!
//! Artifacts:
//! * per-rank shards `trace_rank_<r>.jsonl` (one event per line),
//! * a merged Chrome trace-event file (`trace_gram.json`) loadable in
//!   `chrome://tracing` / Perfetto ([`write_chrome_trace`]),
//! * a deterministic [`TraceAnalysis`] with utilization, steal/stall
//!   time, the critical path through the tile DAG, and scaling
//!   efficiency ([`analyze`]).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::json::{self, Json};
use crate::report::write_export;

#[cfg(not(feature = "obs-off"))]
use std::sync::{Arc, Mutex};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// What a trace event measures. Gram phases are tile-granular, serve
/// phases are request/batch-granular; both families share one enum so
/// a merged timeline renders with one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TracePhase {
    /// Worker waited for claimable work (own queue and steal targets empty).
    QueueWait,
    /// Worker acquired a tile from another worker's queue.
    Steal,
    /// Row/column band fetched (possibly reloaded from the spill store).
    BandLoad,
    /// Tile (or batch) kernel computation.
    Compute,
    /// Tile serialized and renamed into the checkpoint store.
    CheckpointWrite,
    /// Work reassignment after a rank death (orphan adoption).
    Rebalance,
    /// Coordinator folding finished tiles into the full Gram matrix.
    Assemble,
    /// Request sat in the submission queue before a worker dequeued it.
    Queue,
    /// Worker drained already-queued requests into its batch: non-blocking
    /// `try_recv`s, microseconds (arg0 = the batch size it formed).
    Coalesce,
    /// Feature rows encoded into MPS states (cache-miss simulation).
    Encode,
    /// Kernel block evaluated against the support set.
    Kernel,
    /// Results sent back to the submitters.
    Reply,
}

impl TracePhase {
    /// Every phase, in canonical order.
    pub const ALL: [TracePhase; 12] = [
        TracePhase::QueueWait,
        TracePhase::Steal,
        TracePhase::BandLoad,
        TracePhase::Compute,
        TracePhase::CheckpointWrite,
        TracePhase::Rebalance,
        TracePhase::Assemble,
        TracePhase::Queue,
        TracePhase::Coalesce,
        TracePhase::Encode,
        TracePhase::Kernel,
        TracePhase::Reply,
    ];

    /// Stable wire name (snake_case), used in shards and Chrome export.
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::QueueWait => "queue_wait",
            TracePhase::Steal => "steal",
            TracePhase::BandLoad => "band_load",
            TracePhase::Compute => "compute",
            TracePhase::CheckpointWrite => "checkpoint_write",
            TracePhase::Rebalance => "rebalance",
            TracePhase::Assemble => "assemble",
            TracePhase::Queue => "queue",
            TracePhase::Coalesce => "coalesce",
            TracePhase::Encode => "encode",
            TracePhase::Kernel => "kernel",
            TracePhase::Reply => "reply",
        }
    }

    /// Inverse of [`TracePhase::name`].
    pub fn parse(name: &str) -> Option<TracePhase> {
        TracePhase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Chrome trace category: which pipeline family the phase belongs to.
    pub fn category(self) -> &'static str {
        match self {
            TracePhase::Queue
            | TracePhase::Coalesce
            | TracePhase::Encode
            | TracePhase::Kernel
            | TracePhase::Reply => "serve",
            _ => "gram",
        }
    }

    /// Phases that represent waiting rather than useful work.
    pub fn is_stall(self) -> bool {
        matches!(
            self,
            TracePhase::QueueWait | TracePhase::Queue | TracePhase::Coalesce
        )
    }

    /// Phases that account steal latency (work acquired from a peer).
    pub fn is_steal(self) -> bool {
        matches!(self, TracePhase::Steal)
    }
}

/// One completed interval on a lane. `Ord` is `(rank, lane, seq, ...)`,
/// the canonical merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Rank (process-equivalent) that recorded the event.
    pub rank: u32,
    /// Lane within the rank (worker index, assembler, ...).
    pub lane: u32,
    /// Logical sequence number, unique and dense per `(rank, lane)`.
    pub seq: u64,
    /// What the interval measured.
    pub phase: TracePhase,
    /// Interval start, microseconds since the tracer epoch.
    pub t_us: u64,
    /// Interval duration in microseconds.
    pub dur_us: u64,
    /// First phase argument (tile block row, batch size, ...); -1 = absent.
    pub arg0: i64,
    /// Second phase argument (tile block column, ...); -1 = absent.
    pub arg1: i64,
}

impl TraceEvent {
    /// Interval end, microseconds since the tracer epoch.
    pub fn end_us(&self) -> u64 {
        self.t_us.saturating_add(self.dur_us)
    }

    /// The event's shard-file representation: one JSON object on one
    /// line, exactly what [`Tracer::write_shards`] emits and
    /// [`read_shard`] parses (negative args are omitted).
    pub fn to_jsonl(self) -> String {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"rank\":{},\"lane\":{},\"seq\":{},\"phase\":\"{}\",\"t_us\":{},\"dur_us\":{}",
            self.rank,
            self.lane,
            self.seq,
            self.phase.name(),
            self.t_us,
            self.dur_us
        );
        if self.arg0 >= 0 {
            let _ = write!(line, ",\"a0\":{}", self.arg0);
        }
        if self.arg1 >= 0 {
            let _ = write!(line, ",\"a1\":{}", self.arg1);
        }
        line.push('}');
        line
    }

    fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let field_u64 = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace event: `{name}` must be a non-negative integer"))
        };
        let phase_name = v
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("trace event: `phase` must be a string")?;
        let phase = TracePhase::parse(phase_name)
            .ok_or_else(|| format!("trace event: unknown phase `{phase_name}`"))?;
        Ok(TraceEvent {
            rank: u32::try_from(field_u64("rank")?)
                .map_err(|_| "trace event: `rank` out of range".to_string())?,
            lane: u32::try_from(field_u64("lane")?)
                .map_err(|_| "trace event: `lane` out of range".to_string())?,
            seq: field_u64("seq")?,
            phase,
            t_us: field_u64("t_us")?,
            dur_us: field_u64("dur_us")?,
            arg0: v.get("a0").and_then(Json::as_i64).unwrap_or(-1),
            arg1: v.get("a1").and_then(Json::as_i64).unwrap_or(-1),
        })
    }
}

#[cfg(not(feature = "obs-off"))]
#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    // Next logical sequence number per (rank, lane). Lock order: this
    // is a leaf lock — nothing else is acquired while it is held.
    seqs: BTreeMap<(u32, u32), u64>,
}

#[cfg(not(feature = "obs-off"))]
#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    state: Mutex<TraceState>,
}

/// Shared trace collector: one epoch, one event buffer, per-lane
/// logical sequence numbers. Cheap to clone; all clones record into
/// the same timeline. With `obs-off` this is a fieldless no-op.
#[derive(Debug, Clone)]
pub struct Tracer {
    #[cfg(not(feature = "obs-off"))]
    inner: Arc<TracerInner>,
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        #[cfg(not(feature = "obs-off"))]
        {
            Arc::ptr_eq(&self.inner, &other.inner)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = other;
            true
        }
    }
}

impl Tracer {
    /// A fresh tracer whose epoch is the moment of construction.
    /// Allowlisted clock read: the epoch instant anchors every
    /// `t_us` stamp and never feeds a computed kernel value.
    pub fn new() -> Tracer {
        Tracer {
            #[cfg(not(feature = "obs-off"))]
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                state: Mutex::new(TraceState::default()),
            }),
        }
    }

    /// Microseconds since the tracer epoch. The single allowlisted
    /// clock read on the trace recording path; every span start/end
    /// stamp flows through here.
    pub fn now_us(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            u64::try_from(self.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        }
        #[cfg(feature = "obs-off")]
        {
            0
        }
    }

    /// A recording handle for one `(rank, lane)` execution stream.
    pub fn lane(&self, rank: u32, lane: u32) -> TraceLane {
        TraceLane {
            tracer: self.clone(),
            rank,
            lane,
        }
    }

    #[cfg(not(feature = "obs-off"))]
    fn record(
        &self,
        rank: u32,
        lane: u32,
        phase: TracePhase,
        t_us: u64,
        dur_us: u64,
        args: [i64; 2],
    ) {
        let mut state = self.inner.state.lock().expect("trace state lock poisoned");
        let seq = state.seqs.entry((rank, lane)).or_insert(0);
        let event = TraceEvent {
            rank,
            lane,
            seq: *seq,
            phase,
            t_us,
            dur_us,
            arg0: args[0],
            arg1: args[1],
        };
        *seq += 1;
        state.events.push(event);
    }

    /// Every event recorded so far, in canonical `(rank, lane, seq)`
    /// order.
    pub fn events(&self) -> Vec<TraceEvent> {
        #[cfg(not(feature = "obs-off"))]
        {
            let state = self.inner.state.lock().expect("trace state lock poisoned");
            let mut events = state.events.clone();
            drop(state);
            events.sort_unstable();
            events
        }
        #[cfg(feature = "obs-off")]
        {
            Vec::new()
        }
    }

    /// Write one `trace_rank_<r>.jsonl` shard per rank that recorded
    /// events, each through [`qk_chaos::durable::write_atomic`].
    /// Returns the shard paths.
    pub fn write_shards(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        #[cfg(not(feature = "obs-off"))]
        {
            let events = self.events();
            let mut by_rank: BTreeMap<u32, String> = BTreeMap::new();
            for e in &events {
                let buf = by_rank.entry(e.rank).or_default();
                buf.push_str(&e.to_jsonl());
                buf.push('\n');
            }
            fs::create_dir_all(dir)?;
            let mut paths = Vec::with_capacity(by_rank.len());
            for (rank, body) in by_rank {
                let path = dir.join(format!("trace_rank_{rank}.jsonl"));
                qk_chaos::durable::write_atomic(&path, body.as_bytes())?;
                paths.push(path);
            }
            Ok(paths)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = dir;
            Ok(Vec::new())
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Recording handle for one `(rank, lane)` stream. Cheap to clone.
#[derive(Debug, Clone)]
pub struct TraceLane {
    tracer: Tracer,
    rank: u32,
    lane: u32,
}

impl TraceLane {
    /// The rank this lane records under.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The lane index within the rank.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Current stamp for split-phase timing (pair with
    /// [`TraceLane::record_since`] when the phase is only known after
    /// the interval ends, e.g. queue-wait vs. steal).
    pub fn stamp(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Record an interval that started at `start_us` (from
    /// [`TraceLane::stamp`]) and ends now.
    pub fn record_since(&self, start_us: u64, phase: TracePhase, arg0: i64, arg1: i64) {
        #[cfg(not(feature = "obs-off"))]
        {
            let end = self.tracer.now_us();
            self.tracer.record(
                self.rank,
                self.lane,
                phase,
                start_us,
                end.saturating_sub(start_us),
                [arg0, arg1],
            );
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (start_us, phase, arg0, arg1);
        }
    }

    /// RAII interval: starts now, records on drop.
    #[must_use = "a trace span measures the scope it is bound to; bind it with `let _t = ...`"]
    pub fn span(&self, phase: TracePhase) -> TraceSpan {
        self.span_args(phase, -1, -1)
    }

    /// RAII interval with phase arguments (tile coordinates, batch
    /// size, ...).
    #[must_use = "a trace span measures the scope it is bound to; bind it with `let _t = ...`"]
    pub fn span_args(&self, phase: TracePhase, arg0: i64, arg1: i64) -> TraceSpan {
        TraceSpan {
            #[cfg(not(feature = "obs-off"))]
            lane: self.clone(),
            #[cfg(not(feature = "obs-off"))]
            phase,
            #[cfg(not(feature = "obs-off"))]
            start_us: self.tracer.now_us(),
            #[cfg(not(feature = "obs-off"))]
            args: [arg0, arg1],
            #[cfg(feature = "obs-off")]
            _priv: {
                let _ = (phase, arg0, arg1);
            },
        }
    }
}

/// RAII trace interval; records a [`TraceEvent`] when dropped. With
/// `obs-off` this is a fieldless no-op.
#[derive(Debug)]
pub struct TraceSpan {
    #[cfg(not(feature = "obs-off"))]
    lane: TraceLane,
    #[cfg(not(feature = "obs-off"))]
    phase: TracePhase,
    #[cfg(not(feature = "obs-off"))]
    start_us: u64,
    #[cfg(not(feature = "obs-off"))]
    args: [i64; 2],
    #[cfg(feature = "obs-off")]
    _priv: (),
}

#[cfg(not(feature = "obs-off"))]
impl Drop for TraceSpan {
    fn drop(&mut self) {
        let end = self.lane.tracer.now_us();
        self.lane.tracer.record(
            self.lane.rank,
            self.lane.lane,
            self.phase,
            self.start_us,
            end.saturating_sub(self.start_us),
            self.args,
        );
    }
}

/// Sort events into the canonical merged order `(rank, lane, seq)`.
/// The order is total (sequence numbers are unique per lane), so the
/// result is independent of the order shards were read in.
pub fn merge_events(events: &mut [TraceEvent]) {
    events.sort_unstable();
}

/// Parse one JSONL shard file.
pub fn read_shard(path: &Path) -> io::Result<Vec<TraceEvent>> {
    let text = fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?;
        let event = TraceEvent::from_json(&v).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Read every `trace_rank_*.jsonl` shard in `dir` (any arrival order)
/// and merge into the canonical timeline.
pub fn read_shards(dir: &Path) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("trace_rank_") && name.ends_with(".jsonl") {
            events.extend(read_shard(&entry.path())?);
        }
    }
    merge_events(&mut events);
    Ok(events)
}

/// Render merged events as Chrome trace-event JSON (complete `"X"`
/// events; `pid` = rank, `tid` = lane), loadable in `chrome://tracing`
/// and Perfetto.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"seq\":{}",
            e.phase.name(),
            e.phase.category(),
            e.t_us,
            e.dur_us,
            e.rank,
            e.lane,
            e.seq
        );
        if e.arg0 >= 0 {
            let _ = write!(out, ",\"a0\":{}", e.arg0);
        }
        if e.arg1 >= 0 {
            let _ = write!(out, ",\"a1\":{}", e.arg1);
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Durably write the Chrome trace for `events` to `path` (parent dirs
/// created, then temp + rename).
pub fn write_chrome_trace(path: &Path, events: &[TraceEvent]) -> io::Result<()> {
    write_export(path, &chrome_trace_json(events))
}

/// Structural schema gate for an exported Chrome trace — the plain
/// Rust stand-in for a JSON-schema validator. Checks the trace-event
/// envelope, that every event is a complete (`"X"`) event with a known
/// phase name, and that logical sequence numbers are strictly
/// increasing per `(pid, tid)` lane (the canonical merge order).
pub fn validate_chrome_trace(src: &str) -> Result<(), String> {
    let root = json::parse(src).map_err(|e| e.to_string())?;
    root.as_object().ok_or("trace root must be an object")?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("`traceEvents` must be an array")?;
    let mut last_seq: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: `name` must be a string"))?;
        TracePhase::parse(name).ok_or(format!("event {i}: unknown phase `{name}`"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: `ph` must be a string"))?;
        if ph != "X" {
            return Err(format!("event {i}: `ph` must be \"X\", found `{ph}`"));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            e.get(field).and_then(Json::as_u64).ok_or(format!(
                "event {i}: `{field}` must be a non-negative integer"
            ))?;
        }
        let seq = e
            .get("args")
            .and_then(|a| a.get("seq"))
            .and_then(Json::as_u64)
            .ok_or(format!(
                "event {i}: `args.seq` must be a non-negative integer"
            ))?;
        let pid = e.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
        if let Some(prev) = last_seq.insert((pid, tid), seq) {
            if seq <= prev {
                return Err(format!(
                    "event {i}: lane ({pid},{tid}) sequence not strictly increasing \
                     ({prev} then {seq}) — shards merged out of canonical order"
                ));
            }
        }
    }
    Ok(())
}

/// Aggregated statistics for one phase.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStat {
    /// Phase wire name.
    pub phase: String,
    /// Events of this phase.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Longest single interval, microseconds.
    pub max_us: u64,
}

/// Per-lane utilization breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct LaneStat {
    /// Rank of the lane.
    pub rank: u32,
    /// Lane index within the rank.
    pub lane: u32,
    /// Events recorded on the lane.
    pub events: u64,
    /// Useful-work time (compute, band-load, checkpoint, ...), µs.
    pub busy_us: u64,
    /// Waiting time (queue-wait, coalesce), µs.
    pub stall_us: u64,
    /// Steal-latency time, µs.
    pub steal_us: u64,
    /// First interval start, µs since epoch.
    pub first_us: u64,
    /// Last interval end, µs since epoch.
    pub last_us: u64,
    /// `busy_us / wall_us` of the merged timeline, in `[0, 1]`.
    pub utilization: f64,
}

/// Per-rank rollup of its lanes (feeds scaling-vs-rank-count plots).
#[derive(Debug, Clone, Serialize)]
pub struct RankStat {
    /// Rank id.
    pub rank: u32,
    /// Lanes that recorded events under this rank.
    pub lanes: u64,
    /// Useful-work time summed over the rank's lanes, µs.
    pub busy_us: u64,
    /// `busy_us / (lanes * wall_us)`, in `[0, 1]`.
    pub utilization: f64,
}

/// The critical path through the tile DAG. Under the engine's
/// work-stealing schedule the DAG is: job start → each lane's first
/// event, sequential edges within a lane, and every lane's last event
/// → the assembly barrier at job end. The longest path is therefore
/// carried by the lane whose last interval ends latest; its per-phase
/// breakdown says what to optimize to shorten the run.
#[derive(Debug, Clone, Serialize)]
pub struct CriticalPath {
    /// Rank of the critical lane.
    pub rank: u32,
    /// Critical lane index.
    pub lane: u32,
    /// End-to-end length of the path, µs (job start → lane's last end).
    pub length_us: u64,
    /// Useful-work time on the path, µs.
    pub busy_us: u64,
    /// Stall time on the path, µs.
    pub stall_us: u64,
    /// Steal-latency time on the path, µs.
    pub steal_us: u64,
    /// Untracked gaps between the path's intervals, µs.
    pub idle_us: u64,
    /// Per-phase breakdown of the path, canonical phase order.
    pub phases: Vec<PhaseStat>,
}

/// Deterministic analysis of a merged timeline: where time went,
/// per lane / rank / phase, plus the critical path and the scaling
/// efficiency that feeds `fig8_parallel_scaling.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TraceAnalysis {
    /// Events analyzed.
    pub events: u64,
    /// Distinct ranks in the timeline.
    pub ranks: u64,
    /// Distinct `(rank, lane)` streams in the timeline.
    pub lanes: u64,
    /// Earliest interval start, µs since epoch.
    pub t0_us: u64,
    /// Latest interval end, µs since epoch.
    pub t1_us: u64,
    /// `t1_us - t0_us`.
    pub wall_us: u64,
    /// Useful-work time summed over all lanes, µs.
    pub busy_us: u64,
    /// Stall (queue-wait/coalesce) time summed over all lanes, µs.
    pub stall_us: u64,
    /// Steal-latency time summed over all lanes, µs.
    pub steal_us: u64,
    /// Number of steal events.
    pub steal_events: u64,
    /// `busy_us / (lanes * wall_us)`: achieved fraction of ideal
    /// lane-parallel speedup, in `[0, 1]`.
    pub utilization: f64,
    /// `busy_us / (ranks * wall_us)` normalized per rank — the
    /// scaling-efficiency estimate vs. rank count.
    pub scaling_efficiency: f64,
    /// Per-rank rollups, sorted by rank.
    pub per_rank: Vec<RankStat>,
    /// Per-lane breakdowns, sorted by `(rank, lane)`.
    pub per_lane: Vec<LaneStat>,
    /// Per-phase totals over the whole timeline, canonical order.
    pub per_phase: Vec<PhaseStat>,
    /// The critical path (absent only for an empty timeline).
    pub critical_path: Option<CriticalPath>,
}

impl TraceAnalysis {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("analysis serialization is infallible")
    }

    /// Durably write the analysis (parents created, then temp + rename).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        write_export(path, &text)
    }
}

impl fmt::Display for TraceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace report: {} events, {} ranks, {} lanes, wall {:.3} ms",
            self.events,
            self.ranks,
            self.lanes,
            self.wall_us as f64 / 1e3
        )?;
        writeln!(
            f,
            "  busy {:.3} ms  stall {:.3} ms  steal {:.3} ms ({} steals)",
            self.busy_us as f64 / 1e3,
            self.stall_us as f64 / 1e3,
            self.steal_us as f64 / 1e3,
            self.steal_events
        )?;
        writeln!(
            f,
            "  lane utilization {:.1}%  scaling efficiency {:.1}% over {} rank(s)",
            100.0 * self.utilization,
            100.0 * self.scaling_efficiency,
            self.ranks
        )?;
        for p in &self.per_phase {
            writeln!(
                f,
                "  phase {:<16} n={:<6} total {:>10.3} ms  max {:>8.3} ms",
                p.phase,
                p.count,
                p.total_us as f64 / 1e3,
                p.max_us as f64 / 1e3
            )?;
        }
        if let Some(cp) = &self.critical_path {
            writeln!(
                f,
                "  critical path: rank {} lane {} — {:.3} ms ({:.3} busy, {:.3} stall, {:.3} steal, {:.3} idle)",
                cp.rank,
                cp.lane,
                cp.length_us as f64 / 1e3,
                cp.busy_us as f64 / 1e3,
                cp.stall_us as f64 / 1e3,
                cp.steal_us as f64 / 1e3,
                cp.idle_us as f64 / 1e3
            )?;
        }
        Ok(())
    }
}

fn phase_rollup(events: &[TraceEvent]) -> Vec<PhaseStat> {
    let mut stats: BTreeMap<TracePhase, (u64, u64, u64)> = BTreeMap::new();
    for e in events {
        let s = stats.entry(e.phase).or_insert((0, 0, 0));
        s.0 += 1;
        s.1 += e.dur_us;
        s.2 = s.2.max(e.dur_us);
    }
    stats
        .into_iter()
        .map(|(phase, (count, total_us, max_us))| PhaseStat {
            phase: phase.name().to_string(),
            count,
            total_us,
            max_us,
        })
        .collect()
}

/// Analyze a merged timeline. Pure and deterministic: the same event
/// set yields the same analysis regardless of input order (events are
/// re-sorted into canonical order internally).
pub fn analyze(events: &[TraceEvent]) -> TraceAnalysis {
    let mut events = events.to_vec();
    merge_events(&mut events);
    if events.is_empty() {
        return TraceAnalysis {
            events: 0,
            ranks: 0,
            lanes: 0,
            t0_us: 0,
            t1_us: 0,
            wall_us: 0,
            busy_us: 0,
            stall_us: 0,
            steal_us: 0,
            steal_events: 0,
            utilization: 0.0,
            scaling_efficiency: 0.0,
            per_rank: Vec::new(),
            per_lane: Vec::new(),
            per_phase: Vec::new(),
            critical_path: None,
        };
    }
    let t0 = events.iter().map(|e| e.t_us).min().unwrap_or(0);
    let t1 = events.iter().map(TraceEvent::end_us).max().unwrap_or(0);
    let wall = t1.saturating_sub(t0);

    #[derive(Default)]
    struct LaneAcc {
        events: Vec<TraceEvent>,
        busy: u64,
        stall: u64,
        steal: u64,
        first: u64,
        last: u64,
    }
    let mut lanes: BTreeMap<(u32, u32), LaneAcc> = BTreeMap::new();
    let mut steal_events = 0u64;
    for e in &events {
        let acc = lanes.entry((e.rank, e.lane)).or_default();
        if acc.events.is_empty() {
            acc.first = e.t_us;
            acc.last = e.end_us();
        } else {
            acc.first = acc.first.min(e.t_us);
            acc.last = acc.last.max(e.end_us());
        }
        if e.phase.is_steal() {
            acc.steal += e.dur_us;
            steal_events += 1;
        } else if e.phase.is_stall() {
            acc.stall += e.dur_us;
        } else {
            acc.busy += e.dur_us;
        }
        acc.events.push(*e);
    }

    let wall_f = (wall as f64).max(1.0);
    let per_lane: Vec<LaneStat> = lanes
        .iter()
        .map(|(&(rank, lane), acc)| LaneStat {
            rank,
            lane,
            events: acc.events.len() as u64,
            busy_us: acc.busy,
            stall_us: acc.stall,
            steal_us: acc.steal,
            first_us: acc.first,
            last_us: acc.last,
            utilization: acc.busy as f64 / wall_f,
        })
        .collect();

    let mut per_rank: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for l in &per_lane {
        let r = per_rank.entry(l.rank).or_insert((0, 0));
        r.0 += 1;
        r.1 += l.busy_us;
    }
    let per_rank: Vec<RankStat> = per_rank
        .into_iter()
        .map(|(rank, (lanes, busy_us))| RankStat {
            rank,
            lanes,
            busy_us,
            utilization: busy_us as f64 / (lanes as f64 * wall_f),
        })
        .collect();

    let busy_us: u64 = per_lane.iter().map(|l| l.busy_us).sum();
    let stall_us: u64 = per_lane.iter().map(|l| l.stall_us).sum();
    let steal_us: u64 = per_lane.iter().map(|l| l.steal_us).sum();
    let lane_count = per_lane.len() as u64;
    let rank_count = per_rank.len() as u64;

    // Critical lane: last interval end decides who held the assembly
    // barrier open; ties break toward the lower (rank, lane) so the
    // pick is deterministic.
    let critical_path = lanes
        .iter()
        .max_by(|a, b| a.1.last.cmp(&b.1.last).then(b.0.cmp(a.0)))
        .map(|(&(rank, lane), acc)| {
            let length = acc.last.saturating_sub(t0);
            let covered = acc.busy + acc.stall + acc.steal;
            CriticalPath {
                rank,
                lane,
                length_us: length,
                busy_us: acc.busy,
                stall_us: acc.stall,
                steal_us: acc.steal,
                idle_us: length.saturating_sub(covered),
                phases: phase_rollup(&acc.events),
            }
        });

    TraceAnalysis {
        events: events.len() as u64,
        ranks: rank_count,
        lanes: lane_count,
        t0_us: t0,
        t1_us: t1,
        wall_us: wall,
        busy_us,
        stall_us,
        steal_us,
        steal_events,
        utilization: busy_us as f64 / (lane_count as f64 * wall_f),
        scaling_efficiency: busy_us as f64 / (rank_count as f64 * wall_f).max(1.0),
        per_rank,
        per_lane,
        per_phase: phase_rollup(&events),
        critical_path,
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    fn event(rank: u32, lane: u32, seq: u64, phase: TracePhase, t: u64, d: u64) -> TraceEvent {
        TraceEvent {
            rank,
            lane,
            seq,
            phase,
            t_us: t,
            dur_us: d,
            arg0: -1,
            arg1: -1,
        }
    }

    #[test]
    fn lanes_assign_dense_sequences() {
        let tracer = Tracer::new();
        let a = tracer.lane(0, 0);
        let b = tracer.lane(1, 0);
        {
            let _s = a.span(TracePhase::Compute);
        }
        {
            let _s = b.span(TracePhase::Compute);
        }
        {
            let _s = a.span_args(TracePhase::CheckpointWrite, 2, 3);
        }
        let events = tracer.events();
        assert_eq!(events.len(), 3);
        // Canonical order: rank 0 lane 0 seq 0,1 then rank 1 lane 0 seq 0.
        assert_eq!(
            events
                .iter()
                .map(|e| (e.rank, e.lane, e.seq))
                .collect::<Vec<_>>(),
            vec![(0, 0, 0), (0, 0, 1), (1, 0, 0)]
        );
        assert_eq!(events[1].arg0, 2);
        assert_eq!(events[1].arg1, 3);
    }

    #[test]
    fn split_phase_recording_picks_phase_after_the_fact() {
        let tracer = Tracer::new();
        let lane = tracer.lane(0, 4);
        let t0 = lane.stamp();
        lane.record_since(t0, TracePhase::Steal, 7, -1);
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, TracePhase::Steal);
        assert_eq!(events[0].arg0, 7);
        assert_eq!(events[0].arg1, -1);
    }

    #[test]
    fn shards_roundtrip_through_jsonl() {
        let tracer = Tracer::new();
        for rank in 0..3u32 {
            let lane = tracer.lane(rank, 0);
            let t0 = lane.stamp();
            lane.record_since(t0, TracePhase::Compute, i64::from(rank), 1);
            let t1 = lane.stamp();
            lane.record_since(t1, TracePhase::CheckpointWrite, i64::from(rank), 1);
        }
        let dir = std::env::temp_dir().join(format!("qk_trace_shards_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let paths = tracer.write_shards(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        let merged = read_shards(&dir).unwrap();
        assert_eq!(merged, tracer.events());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let canonical = vec![
            event(0, 0, 0, TracePhase::QueueWait, 0, 5),
            event(0, 0, 1, TracePhase::Compute, 5, 50),
            event(0, 1, 0, TracePhase::Steal, 2, 3),
            event(1, 0, 0, TracePhase::Compute, 1, 40),
        ];
        let mut shuffled = vec![canonical[3], canonical[1], canonical[0], canonical[2]];
        merge_events(&mut shuffled);
        assert_eq!(shuffled, canonical);
    }

    #[test]
    fn chrome_export_passes_the_schema_gate() {
        let events = vec![
            event(0, 0, 0, TracePhase::QueueWait, 0, 5),
            event(0, 0, 1, TracePhase::Compute, 5, 50),
            event(1, 0, 0, TracePhase::Kernel, 1, 40),
        ];
        let json_text = chrome_trace_json(&events);
        validate_chrome_trace(&json_text).unwrap();
        // Out-of-order sequences are rejected.
        let bad = vec![
            event(0, 0, 1, TracePhase::Compute, 5, 50),
            event(0, 0, 0, TracePhase::QueueWait, 0, 5),
        ];
        assert!(validate_chrome_trace(&chrome_trace_json(&bad)).is_err());
        // Unknown phase names are rejected.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"mystery\",\"ph\":\"X\",\"ts\":0,\
             \"dur\":1,\"pid\":0,\"tid\":0,\"args\":{\"seq\":0}}]}"
        )
        .is_err());
    }

    #[test]
    fn analysis_accounts_busy_stall_steal_and_critical_path() {
        let events = vec![
            event(0, 0, 0, TracePhase::QueueWait, 0, 10),
            event(0, 0, 1, TracePhase::Compute, 10, 80),
            event(0, 1, 0, TracePhase::Steal, 0, 4),
            event(0, 1, 1, TracePhase::Compute, 4, 60),
            event(1, 0, 0, TracePhase::Compute, 0, 100),
        ];
        let a = analyze(&events);
        assert_eq!(a.events, 5);
        assert_eq!(a.ranks, 2);
        assert_eq!(a.lanes, 3);
        assert_eq!(a.wall_us, 100);
        assert_eq!(a.busy_us, 240);
        assert_eq!(a.stall_us, 10);
        assert_eq!(a.steal_us, 4);
        assert_eq!(a.steal_events, 1);
        assert!((a.utilization - 240.0 / 300.0).abs() < 1e-12);
        let cp = a.critical_path.as_ref().unwrap();
        assert_eq!((cp.rank, cp.lane), (1, 0));
        assert_eq!(cp.length_us, 100);
        assert_eq!(cp.idle_us, 0);
        // Analysis is input-order independent.
        let mut rev = events.clone();
        rev.reverse();
        assert_eq!(analyze(&rev).to_json(), a.to_json());
    }

    #[test]
    fn analysis_of_empty_timeline_is_zeroed() {
        let a = analyze(&[]);
        assert_eq!(a.events, 0);
        assert!(a.critical_path.is_none());
        assert_eq!(a.utilization, 0.0);
    }

    #[test]
    fn analysis_json_writes_durably() {
        let events = vec![event(0, 0, 0, TracePhase::Compute, 0, 10)];
        let a = analyze(&events);
        let dir = std::env::temp_dir().join(format!("qk_trace_report_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("trace_report.json");
        a.write_json(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed.get("events").and_then(Json::as_u64), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_names_roundtrip() {
        for p in TracePhase::ALL {
            assert_eq!(TracePhase::parse(p.name()), Some(p));
        }
        assert_eq!(TracePhase::parse("nope"), None);
    }
}

#[cfg(all(test, feature = "obs-off"))]
mod off_tests {
    use super::*;

    #[test]
    fn obs_off_records_nothing_and_writes_no_shards() {
        let tracer = Tracer::new();
        let lane = tracer.lane(0, 0);
        {
            let _s = lane.span(TracePhase::Compute);
        }
        lane.record_since(lane.stamp(), TracePhase::Steal, 1, 2);
        assert!(tracer.events().is_empty());
        let dir = std::env::temp_dir().join("qk_trace_off");
        assert!(tracer.write_shards(&dir).unwrap().is_empty());
    }
}
