//! `ObsReport`: the one serializable + displayable observability
//! artifact, combining the metrics registry snapshot with the span
//! rollup. Written by the gram engine, serve shutdown, and the bench
//! bins; validated structurally by the schema gate in `tests/`.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use qk_chaos::durable;
use serde::Serialize;

use crate::hist::{HistSnapshot, BUCKETS};
use crate::json::{self, Json};
use crate::span::SpanEntry;

/// Counter-name suffixes that count injected faults and the recovery
/// work they triggered. Counters carrying one of these suffixes are
/// mirrored into [`ObsReport::robustness`].
pub const ROBUSTNESS_SUFFIXES: [&str; 7] = [
    "faults_injected",
    "retries",
    "tiles_quarantined",
    "workers_restarted",
    "requests_shed",
    "rows_recomputed",
    "resumes",
];

/// Mirror of every chaos/recovery counter in `counters`, keyed by the
/// full counter name. See [`ROBUSTNESS_SUFFIXES`].
pub fn extract_robustness(counters: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .iter()
        .filter(|(name, _)| {
            ROBUSTNESS_SUFFIXES
                .iter()
                .any(|suffix| name.ends_with(suffix))
        })
        .map(|(name, v)| (name.clone(), *v))
        .collect()
}

/// Unified observability report: every registered instrument plus the
/// deterministic span rollup, under a component name.
#[derive(Debug, Clone, Serialize)]
pub struct ObsReport {
    /// Component that produced the report (e.g. `qk-gram`).
    pub name: String,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name (full bucket arrays).
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Flamegraph-style span rollup, sorted by path.
    pub spans: Vec<SpanEntry>,
    /// Chaos/recovery counters (faults injected, retries, quarantines,
    /// worker restarts, load shedding, row recomputes, warm resumes),
    /// mirrored from `counters` so one report covers perf and
    /// robustness.
    pub robustness: BTreeMap<String, u64>,
}

impl ObsReport {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Durably write the report: parent dirs created, then
    /// [`qk_chaos::durable::write_atomic`].
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        write_export(path, &text)
    }
}

/// Writes an exported artifact: parent directories created, then
/// [`durable::write_atomic`], so a reader never sees a torn file.
pub(crate) fn write_export(path: &Path, text: &str) -> io::Result<()> {
    // `create_dir_all("")`, the parent of a bare file name, is a no-op.
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    durable::write_atomic(path, text.as_bytes())
}

impl fmt::Display for ObsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "obs report [{}]", self.name)?;
        if !self.counters.is_empty() {
            writeln!(f, "  counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "    {name:<32} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "  gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "    {name:<32} {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "  histograms:")?;
            for (name, h) in &self.histograms {
                writeln!(
                    f,
                    "    {name:<32} n={} mean={:.1} p50={} p99={} max={}",
                    h.count,
                    h.mean,
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max
                )?;
            }
        }
        if !self.spans.is_empty() {
            writeln!(f, "  spans (total_us / self_us / count):")?;
            for s in &self.spans {
                writeln!(
                    f,
                    "    {:<40} {:>12} {:>12} {:>8}",
                    s.path, s.total_us, s.self_us, s.count
                )?;
            }
        }
        if !self.robustness.is_empty() {
            writeln!(f, "  robustness:")?;
            for (name, v) in &self.robustness {
                writeln!(f, "    {name:<32} {v}")?;
            }
        }
        Ok(())
    }
}

/// Structural schema check for a serialized [`ObsReport`] — the plain
/// Rust stand-in for a JSON-schema validator (no new deps). Returns a
/// description of the first violation.
pub fn validate_report_json(src: &str) -> Result<(), String> {
    let root = json::parse(src).map_err(|e| e.to_string())?;
    let obj = root.as_object().ok_or("report root must be an object")?;
    for key in [
        "name",
        "counters",
        "gauges",
        "histograms",
        "spans",
        "robustness",
    ] {
        if !obj.iter().any(|(k, _)| k == key) {
            return Err(format!("missing required field `{key}`"));
        }
    }
    let name = root
        .get("name")
        .and_then(Json::as_str)
        .ok_or("`name` must be a string")?;
    if name.is_empty() {
        return Err("`name` must be non-empty".to_string());
    }
    for (k, v) in root
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("`counters` must be an object")?
    {
        v.as_u64()
            .ok_or(format!("counter `{k}` must be a non-negative integer"))?;
    }
    for (k, v) in root
        .get("gauges")
        .and_then(Json::as_object)
        .ok_or("`gauges` must be an object")?
    {
        v.as_i64()
            .ok_or(format!("gauge `{k}` must be an integer"))?;
    }
    for (k, h) in root
        .get("histograms")
        .and_then(Json::as_object)
        .ok_or("`histograms` must be an object")?
    {
        let count = h.get("count").and_then(Json::as_u64).ok_or(format!(
            "histogram `{k}`: `count` must be a non-negative integer"
        ))?;
        for field in ["sum", "max"] {
            h.get(field).and_then(Json::as_u64).ok_or(format!(
                "histogram `{k}`: `{field}` must be a non-negative integer"
            ))?;
        }
        h.get("mean")
            .and_then(Json::as_f64)
            .ok_or(format!("histogram `{k}`: `mean` must be a number"))?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or(format!("histogram `{k}`: `buckets` must be an array"))?;
        if buckets.len() != BUCKETS {
            return Err(format!(
                "histogram `{k}`: expected {BUCKETS} buckets, found {}",
                buckets.len()
            ));
        }
        let mut total = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            total += b.as_u64().ok_or(format!(
                "histogram `{k}`: bucket {i} must be a non-negative integer"
            ))?;
        }
        if total != count {
            return Err(format!(
                "histogram `{k}`: bucket sum {total} does not match count {count}"
            ));
        }
    }
    let spans = root
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("`spans` must be an array")?;
    for (i, s) in spans.iter().enumerate() {
        let path = s
            .get("path")
            .and_then(Json::as_str)
            .ok_or(format!("span {i}: `path` must be a string"))?;
        if path.is_empty() {
            return Err(format!("span {i}: `path` must be non-empty"));
        }
        let count = s.get("count").and_then(Json::as_u64).ok_or(format!(
            "span `{path}`: `count` must be a non-negative integer"
        ))?;
        if count == 0 {
            return Err(format!("span `{path}`: `count` must be positive"));
        }
        let total = s.get("total_us").and_then(Json::as_u64).ok_or(format!(
            "span `{path}`: `total_us` must be a non-negative integer"
        ))?;
        let self_us = s.get("self_us").and_then(Json::as_u64).ok_or(format!(
            "span `{path}`: `self_us` must be a non-negative integer"
        ))?;
        if self_us > total {
            return Err(format!(
                "span `{path}`: self_us {self_us} exceeds total_us {total}"
            ));
        }
    }
    let counters = root.get("counters").expect("checked above");
    for (k, v) in root
        .get("robustness")
        .and_then(Json::as_object)
        .ok_or("`robustness` must be an object")?
    {
        if !ROBUSTNESS_SUFFIXES.iter().any(|suffix| k.ends_with(suffix)) {
            return Err(format!(
                "robustness entry `{k}` does not carry a known robustness suffix"
            ));
        }
        let val = v
            .as_u64()
            .ok_or(format!("robustness `{k}` must be a non-negative integer"))?;
        match counters.get(k).and_then(Json::as_u64) {
            Some(mirror) if mirror == val => {}
            Some(mirror) => {
                return Err(format!(
                    "robustness `{k}` = {val} disagrees with counter value {mirror}"
                ));
            }
            None => {
                return Err(format!(
                    "robustness `{k}` has no matching counter of the same name"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_report() -> ObsReport {
        let obs = Obs::new();
        obs.counter("demo.tiles").add(21);
        obs.gauge("demo.depth").set(-2);
        obs.histogram("demo.lat_us").record(150);
        obs.histogram("demo.lat_us").record(3000);
        #[cfg(not(feature = "obs-off"))]
        {
            let _outer = obs.span("job");
            let _inner = obs.span("tile");
        }
        obs.report("demo")
    }

    #[test]
    fn report_json_passes_its_own_schema() {
        let report = sample_report();
        validate_report_json(&report.to_json()).unwrap();
    }

    #[test]
    fn display_mentions_every_section() {
        let text = sample_report().to_string();
        assert!(text.contains("obs report [demo]"));
        assert!(text.contains("demo.tiles"));
        assert!(text.contains("demo.depth"));
        assert!(text.contains("demo.lat_us"));
    }

    #[test]
    fn write_json_is_atomic_and_parseable() {
        let dir = std::env::temp_dir().join(format!("qk_obs_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/obs_demo.json");
        sample_report().write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_report_json(&text).unwrap();
        let stray: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(stray.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_rejects_structural_violations() {
        let good = sample_report().to_json();
        validate_report_json(&good).unwrap();
        // Wrong bucket count.
        let bad = good.replace("\"count\": 2", "\"count\": 3");
        assert!(validate_report_json(&bad).is_err());
        // Broken root.
        assert!(validate_report_json("[]").is_err());
        assert!(validate_report_json("{\"name\": \"x\"}").is_err());
        // self_us > total_us.
        let spans_bad = "{\"name\":\"x\",\"counters\":{},\"gauges\":{},\"histograms\":{},\
             \"spans\":[{\"path\":\"a\",\"count\":1,\"total_us\":5,\"self_us\":9}],\
             \"robustness\":{}}";
        assert!(validate_report_json(spans_bad).is_err());
    }

    #[test]
    fn robustness_section_mirrors_chaos_counters() {
        let obs = Obs::new();
        obs.counter("gram.tiles_total").add(21);
        obs.counter("gram.faults_injected").add(3);
        obs.counter("gram.retries").add(2);
        obs.counter("serve.requests_shed").inc();
        obs.counter("svm.rows_recomputed").add(4);
        obs.counter("svm.resumes").inc();
        let report = obs.report("robust");
        assert_eq!(report.robustness.len(), 5);
        assert_eq!(report.robustness["gram.faults_injected"], 3);
        assert_eq!(report.robustness["gram.retries"], 2);
        assert_eq!(report.robustness["serve.requests_shed"], 1);
        assert_eq!(report.robustness["svm.rows_recomputed"], 4);
        assert_eq!(report.robustness["svm.resumes"], 1);
        assert!(!report.robustness.contains_key("gram.tiles_total"));
        validate_report_json(&report.to_json()).unwrap();
        assert!(report.to_string().contains("robustness:"));
    }

    #[test]
    fn schema_rejects_robustness_counter_disagreement() {
        let base = "{\"name\":\"x\",\"counters\":{\"gram.retries\":2},\"gauges\":{},\
             \"histograms\":{},\"spans\":[],\"robustness\":";
        // Mirror disagrees with the counter.
        assert!(validate_report_json(&format!("{base}{{\"gram.retries\":9}}}}")).is_err());
        // Mirror without a matching counter.
        assert!(validate_report_json(&format!("{base}{{\"serve.requests_shed\":1}}}}")).is_err());
        // Non-robustness key in the section.
        assert!(validate_report_json(&format!("{base}{{\"gram.tiles_total\":2}}}}")).is_err());
        // Consistent mirror passes.
        validate_report_json(&format!("{base}{{\"gram.retries\":2}}}}")).unwrap();
    }
}
