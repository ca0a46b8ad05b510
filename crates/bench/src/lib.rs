//! Shared harness infrastructure for the per-figure benchmark binaries.
//!
//! Every binary accepts `--scale ci|default|paper` plus experiment-specific
//! overrides, prints the paper's rows/series to stdout, and writes a JSON
//! record to [`results_dir`] so plots can be regenerated offline. "paper"
//! scale uses the manuscript's exact parameters (slow without cluster
//! hardware); "default" reproduces each figure's *shape* at laptop scale;
//! "ci" is a smoke test.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

pub mod schema;

/// Harness scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-level smoke test.
    Ci,
    /// Laptop-scale shape reproduction (the default).
    Default,
    /// The manuscript's exact parameters (requires serious hardware).
    Paper,
}

impl Scale {
    /// Parses a `--scale` value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Some(Scale::Ci),
            "default" => Some(Scale::Default),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Minimal command-line parser: `--key value` pairs plus bare `--flag`
/// booleans (a `--key` followed by another `--…` token or the end of
/// the line records as the flag value `true`).
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args`, panicking on malformed input.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1).collect())
    }

    fn parse(raw: Vec<String>) -> Args {
        let mut pairs = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, found {key}"))
                .to_string();
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap(),
                _ => "true".to_string(),
            };
            pairs.push((key, value));
        }
        Args { pairs }
    }

    /// `true` when `--key` was passed bare or with a truthy value.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Looks up a raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The scale preset (default: `Scale::Default`).
    pub fn scale(&self) -> Scale {
        self.get("scale")
            .map(|s| Scale::parse(s).unwrap_or_else(|| panic!("unknown scale {s}")))
            .unwrap_or(Scale::Default)
    }

    /// Typed lookup with a fallback.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --{key}: {e:?}")))
            .unwrap_or(default)
    }
}

/// Where harness output goes: `$QK_RESULTS_DIR` if set, else
/// `qk-results` under the system temp directory. Nothing lands in the
/// checkout's `results/`, which holds the committed perf-gate baselines,
/// unless `QK_RESULTS_DIR` names it.
pub fn results_dir() -> PathBuf {
    std::env::var_os("QK_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("qk-results"))
}

/// Writes a serializable record to `<dir>/<name>.json` with `<dir>` the
/// [`results_dir`] (best effort; the harness still succeeds if the
/// directory is unwritable).
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if std::fs::write(&path, json).is_ok() {
                eprintln!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("[failed to serialize results: {e}]"),
    }
}

/// Merges the per-rank trace shards in `dir` (written by
/// [`qk_obs::Tracer::write_shards`]), exports the Chrome trace-event
/// file as `dir/<chrome>` and the analyzer summary as `dir/<report>`,
/// and returns the analysis. The merge is canonical `(rank, lane, seq)`
/// order, so the result is identical however the shards were produced
/// or listed.
pub fn export_trace(
    dir: &std::path::Path,
    chrome: &str,
    report: &str,
) -> std::io::Result<qk_obs::TraceAnalysis> {
    let events = qk_obs::trace::read_shards(dir)?;
    qk_obs::trace::write_chrome_trace(&dir.join(chrome), &events)?;
    let analysis = qk_obs::trace::analyze(&events);
    analysis.write_json(&dir.join(report))?;
    Ok(analysis)
}

/// Deterministic sample rows drawn from the synthetic elliptic-like
/// distribution, preprocessed into the `(0, 2)` feature-map domain.
pub fn sample_rows(count: usize, features: usize, seed: u64) -> Vec<Vec<f64>> {
    use qk_data::{generate, prepare_experiment, SyntheticConfig};
    let n = (count + 8).next_multiple_of(2).max(10);
    let data = generate(&SyntheticConfig {
        num_features: features,
        num_illicit: n,
        num_licit: n,
        latent_dim: 6,
        noise: 2.0,
        seed,
    });
    let split = prepare_experiment(&data, 2 * n, features, seed);
    split.train.features.into_iter().take(count).collect()
}

/// Median of a duration sample (empty-safe).
pub fn median(mut xs: Vec<Duration>) -> Duration {
    if xs.is_empty() {
        return Duration::ZERO;
    }
    xs.sort();
    xs[xs.len() / 2]
}

/// First and third quartiles of a duration sample.
pub fn quartiles(mut xs: Vec<Duration>) -> (Duration, Duration) {
    if xs.is_empty() {
        return (Duration::ZERO, Duration::ZERO);
    }
    xs.sort();
    (xs[xs.len() / 4], xs[(3 * xs.len()) / 4])
}

/// Mean of an f64 sample (empty-safe).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("DEFAULT"), Some(Scale::Default));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn args_parse_pairs_and_flags() {
        let args = Args::parse(
            ["--scale", "ci", "--smoke", "--workers", "4", "--fast"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.scale(), Scale::Ci);
        assert!(args.flag("smoke"));
        assert!(args.flag("fast"));
        assert!(!args.flag("absent"));
        assert_eq!(args.get_or("workers", 0usize), 4);
        // Negative numbers are values, not flags.
        let neg = Args::parse(vec!["--shift".into(), "-3".into()]);
        assert_eq!(neg.get_or("shift", 0i64), -3);
    }

    #[test]
    fn sample_rows_in_domain() {
        let rows = sample_rows(12, 8, 3);
        assert_eq!(rows.len(), 12);
        for row in &rows {
            assert_eq!(row.len(), 8);
            assert!(row.iter().all(|&x| (0.0..=2.0).contains(&x)));
        }
        // Deterministic.
        assert_eq!(rows, sample_rows(12, 8, 3));
    }

    #[test]
    fn median_and_quartiles() {
        let xs: Vec<Duration> = [5, 1, 3, 2, 4]
            .iter()
            .map(|&s| Duration::from_secs(s))
            .collect();
        assert_eq!(median(xs.clone()), Duration::from_secs(3));
        let (q1, q3) = quartiles(xs);
        assert_eq!(q1, Duration::from_secs(2));
        assert_eq!(q3, Duration::from_secs(4));
        assert_eq!(median(vec![]), Duration::ZERO);
    }

    #[test]
    fn mean_empty_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
