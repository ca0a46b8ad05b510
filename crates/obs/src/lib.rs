//! # qk-obs
//!
//! Unified observability for the quantum-kernel pipeline: scoped
//! profiling spans, a central metrics registry, a durable JSONL event
//! journal, and one exportable [`ObsReport`]. Built with zero external
//! dependencies so every crate — including the determinism-pinned
//! kernels' callers — can afford to depend on it.
//!
//! * [`span`](mod@span) — RAII spans with per-thread stacks, parent/child
//!   attribution, and a deterministic flamegraph-style rollup.
//! * [`registry`] — named counters/gauges/log-bucket histograms;
//!   `qk-gram`, `qk-serve` and `qk-svm` register into one table.
//! * [`journal`] — bounded JSONL lifecycle-event sink with the
//!   checkpoint store's temp+rename durability and a
//!   timestamp-stripping comparator for determinism tests.
//! * [`report`] — `ObsReport` (`Serialize + Display`) plus the plain
//!   Rust JSON-schema gate used by CI.
//! * [`json`] — a minimal JSON parser (the vendored serde shim only
//!   serializes), used by the schema gate and journal tests.
//! * [`trace`] — globally-mergeable trace timelines: per-lane logical
//!   sequence numbers, per-rank shards, Chrome trace-event export, and
//!   a deterministic utilization / critical-path analyzer.
//!
//! ## Determinism boundary
//!
//! Instrumentation lives *outside* the bitwise determinism contract:
//! all clock reads in the workspace's observability path live in this
//! crate, in a short list of allowlisted functions
//! (`SpanGuard::enter`, `Journal::open`, `Journal::flush`,
//! `ObsReport::write_json`, `Tracer::new`, `Tracer::now_us`,
//! `Tracer::write_shards`) audited to never feed a computed kernel
//! value. The `obs-off` feature compiles spans, the journal and trace
//! recording down to no-ops; counters, gauges and histograms stay
//! live because engine reports are built from them.
//!
//! ## Quickstart
//!
//! ```
//! use qk_obs::Obs;
//!
//! let obs = Obs::new();
//! {
//!     let _job = obs.span("job");
//!     let _tile = obs.span("tile");
//!     obs.counter("demo.tiles").inc();
//! }
//! let report = obs.report("demo");
//! println!("{report}");
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod json;
pub mod registry;
pub mod report;
pub mod span;
pub mod trace;

use std::sync::Arc;

pub use hist::{HistSnapshot, LogHistogram, BUCKETS};
pub use journal::{strip_timestamps, stripped_lines, EventBuilder, Journal};
pub use json::Json;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, RegistrySnapshot};
pub use report::{validate_report_json, ObsReport};
pub use span::{SpanEntry, SpanGuard, SpanRecorder};
pub use trace::{TraceAnalysis, TraceEvent, TraceLane, TracePhase, TraceSpan, Tracer};

#[derive(Debug, Default)]
struct ObsInner {
    registry: MetricsRegistry,
    spans: Arc<SpanRecorder>,
}

/// Shared observability handle: one registry + one span recorder.
/// Cheap to clone; every component holding a clone reports into the
/// same [`ObsReport`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Obs {
    /// A fresh, empty observability context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.registry.histogram(name)
    }

    /// Open a span named `name`, nested under the current thread's
    /// innermost open span. Bind the guard: `let _g = obs.span("x");`.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::enter(&self.inner.spans, name)
    }

    /// Open a span like [`Obs::span`] that also records its duration,
    /// in microseconds, into the histogram named `histogram`.
    pub fn timed_span(&self, name: &str, histogram: &str) -> SpanGuard {
        SpanGuard::enter(&self.inner.spans, name).recording_into(self.histogram(histogram))
    }

    /// Deterministic rollup of every span closed so far.
    pub fn span_rollup(&self) -> Vec<SpanEntry> {
        self.inner.spans.rollup()
    }

    /// Snapshot of every registered instrument.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        self.inner.registry.snapshot()
    }

    /// Build the unified report under a component name. Chaos/recovery
    /// counters are mirrored into the report's `robustness` section so
    /// one artifact covers perf and fault-tolerance together.
    pub fn report(&self, name: &str) -> ObsReport {
        let snap = self.registry_snapshot();
        let robustness = report::extract_robustness(&snap.counters);
        ObsReport {
            name: name.to_string(),
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
            spans: self.span_rollup(),
            robustness,
        }
    }
}

/// Open a scoped span on an [`Obs`] handle: `span!(obs, "tile_compute")`.
/// Expands to `obs.span(name)`; bind the result to keep the span open.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_instruments_and_spans() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.counter("shared.hits").add(3);
        obs.counter("shared.hits").inc();
        assert_eq!(obs.counter("shared.hits").get(), 4);
        {
            let _g = span!(clone, "work");
        }
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(obs.span_rollup().len(), 1);
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_disables_spans_but_keeps_metrics() {
        let obs = Obs::new();
        {
            let _g = obs.span("invisible");
        }
        obs.counter("still.live").inc();
        assert!(obs.span_rollup().is_empty());
        assert_eq!(obs.counter("still.live").get(), 1);
    }

    #[test]
    fn report_combines_registry_and_spans() {
        let obs = Obs::new();
        obs.counter("c.one").inc();
        obs.gauge("g.two").set(2);
        obs.histogram("h.three").record(30);
        {
            let _g = obs.span("root");
        }
        let report = obs.report("unit");
        assert_eq!(report.name, "unit");
        assert_eq!(report.counters["c.one"], 1);
        assert_eq!(report.gauges["g.two"], 2);
        assert_eq!(report.histograms["h.three"].count, 1);
        report::validate_report_json(&report.to_json()).unwrap();
    }
}
