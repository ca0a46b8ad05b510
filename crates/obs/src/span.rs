//! Scoped profiling spans with per-thread stacks and a deterministic
//! flamegraph-style rollup.
//!
//! A [`SpanGuard`] measures the wall time between construction and drop
//! (monotonic-instant convention: `Instant` only, never `SystemTime`).
//! Each thread keeps its own stack of open spans, so a span opened
//! inside another nests under it: the child's path is
//! `parent_path/child_name`, and the parent's *self* time excludes time
//! spent in children. Aggregation merges identically named paths across
//! threads and sorts by path, so the exported rollup is deterministic
//! even when worker counts vary.
//!
//! With the `obs-off` feature the guard is a fieldless no-op and the
//! rollup is empty — zero hot-path overhead, pinned at compile time.

use std::sync::Mutex;
use std::time::Duration;

use serde::Serialize;

#[cfg(not(feature = "obs-off"))]
use std::cell::RefCell;
#[cfg(not(feature = "obs-off"))]
use std::sync::Arc;
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

use crate::registry::Histogram;

#[derive(Debug, Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total: Duration,
    child: Duration,
}

/// Cross-thread accumulator for closed spans. One per [`crate::Obs`].
#[derive(Debug, Default)]
pub struct SpanRecorder {
    stats: Mutex<std::collections::BTreeMap<String, SpanStat>>,
}

#[cfg(not(feature = "obs-off"))]
struct Frame {
    path: String,
    child: Duration,
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

impl SpanRecorder {
    /// Deterministic rollup of every closed span, sorted by path.
    pub fn rollup(&self) -> Vec<SpanEntry> {
        let stats = self.stats.lock().expect("span stats lock poisoned");
        stats
            .iter()
            .map(|(path, s)| SpanEntry {
                path: path.clone(),
                count: s.count,
                total_us: u64::try_from(s.total.as_micros()).unwrap_or(u64::MAX),
                self_us: u64::try_from(s.total.saturating_sub(s.child).as_micros())
                    .unwrap_or(u64::MAX),
            })
            .collect()
    }

    #[cfg(not(feature = "obs-off"))]
    fn merge(&self, path: String, elapsed: Duration, child: Duration) {
        let mut stats = self.stats.lock().expect("span stats lock poisoned");
        let s = stats.entry(path).or_default();
        s.count += 1;
        s.total += elapsed;
        s.child += child;
    }
}

/// One aggregated row of the span rollup.
#[derive(Debug, Clone, Serialize)]
pub struct SpanEntry {
    /// Slash-joined span path, e.g. `gram_worker/tile_compute`.
    pub path: String,
    /// How many times a span with this path closed.
    pub count: u64,
    /// Total wall time across all instances, microseconds.
    pub total_us: u64,
    /// Wall time excluding child spans, microseconds.
    pub self_us: u64,
}

/// RAII span: measures wall time from construction to drop and feeds
/// the owning recorder. Guards on one thread must drop in LIFO order
/// (the natural order for scoped `let _g = obs.span(..)` bindings).
#[cfg(not(feature = "obs-off"))]
#[must_use = "a span measures the scope it is bound to; bind it with `let _g = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    rec: Arc<SpanRecorder>,
    start: Instant,
    hist: Option<Histogram>,
}

#[cfg(not(feature = "obs-off"))]
impl SpanGuard {
    pub(crate) fn enter(rec: &Arc<SpanRecorder>, name: &str) -> SpanGuard {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{}", parent.path, name),
                None => name.to_string(),
            };
            stack.push(Frame {
                path,
                child: Duration::ZERO,
            });
        });
        SpanGuard {
            rec: Arc::clone(rec),
            start: Instant::now(),
            hist: None,
        }
    }

    /// Also records the span's duration, in microseconds, into `hist`.
    pub(crate) fn recording_into(mut self, hist: Histogram) -> SpanGuard {
        self.hist = Some(hist);
        self
    }
}

#[cfg(not(feature = "obs-off"))]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack
                .pop()
                .expect("span stack underflow: guards dropped out of order");
            if let Some(parent) = stack.last_mut() {
                parent.child += elapsed;
            }
            frame
        });
        if let Some(hist) = &self.hist {
            hist.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        }
        self.rec.merge(frame.path, elapsed, frame.child);
    }
}

/// No-op span guard: the `obs-off` build compiles every `span()` call
/// down to the construction of this empty type.
#[cfg(feature = "obs-off")]
#[must_use = "a span measures the scope it is bound to; bind it with `let _g = ...`"]
#[derive(Debug)]
pub struct SpanGuard {
    _priv: (),
}

#[cfg(feature = "obs-off")]
impl SpanGuard {
    #[inline(always)]
    pub(crate) fn enter(_rec: &std::sync::Arc<SpanRecorder>, _name: &str) -> SpanGuard {
        SpanGuard { _priv: () }
    }

    #[inline(always)]
    pub(crate) fn recording_into(self, _hist: Histogram) -> SpanGuard {
        self
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    fn recorder() -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::default())
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let rec = recorder();
        {
            let _outer = SpanGuard::enter(&rec, "job");
            {
                let _inner = SpanGuard::enter(&rec, "tile");
            }
            {
                let _inner = SpanGuard::enter(&rec, "tile");
            }
        }
        let rollup = rec.rollup();
        let paths: Vec<&str> = rollup.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["job", "job/tile"]);
        assert_eq!(rollup[1].count, 2);
    }

    #[test]
    fn self_time_excludes_children() {
        let rec = recorder();
        {
            let _outer = SpanGuard::enter(&rec, "outer");
            let _inner = SpanGuard::enter(&rec, "inner");
            std::thread::sleep(Duration::from_millis(12));
        }
        let rollup = rec.rollup();
        let outer = rollup.iter().find(|e| e.path == "outer").unwrap();
        let inner = rollup.iter().find(|e| e.path == "outer/inner").unwrap();
        assert!(
            inner.total_us >= 10_000,
            "inner span saw the sleep: {inner:?}"
        );
        assert!(outer.total_us >= inner.total_us);
        // The outer span did nothing but host the inner one.
        assert!(
            outer.self_us <= outer.total_us - inner.total_us + 5_000,
            "outer self time should exclude the child: {outer:?} vs {inner:?}"
        );
    }

    #[test]
    fn a_recording_span_feeds_its_histogram() {
        let rec = recorder();
        let hist = Histogram::default();
        {
            let _s = SpanGuard::enter(&rec, "store").recording_into(hist.clone());
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert!(
            snap.max >= 2_000,
            "the histogram saw the sleep in µs: {snap:?}"
        );
        assert!(snap.max <= rec.rollup()[0].total_us + 1);
    }

    #[test]
    fn threads_keep_independent_stacks() {
        let rec = recorder();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let _w = SpanGuard::enter(&rec, "worker");
                    for _ in 0..5 {
                        let _t = SpanGuard::enter(&rec, "step");
                    }
                });
            }
        });
        let rollup = rec.rollup();
        let worker = rollup.iter().find(|e| e.path == "worker").unwrap();
        let step = rollup.iter().find(|e| e.path == "worker/step").unwrap();
        assert_eq!(worker.count, 3);
        assert_eq!(step.count, 15);
    }

    #[test]
    fn rollup_is_sorted_by_path() {
        let rec = recorder();
        for name in ["zeta", "alpha", "mid"] {
            let _g = SpanGuard::enter(&rec, name);
        }
        let paths: Vec<String> = rec.rollup().into_iter().map(|e| e.path).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }
}
