//! Multi-run modes: `--all` (every workload, both trace modes) and
//! `--selfcheck` (the acceptance procedure: two sets of runs over many
//! seeds, spreads and median gaps against the bounds in `spec.rs`, which
//! a unit test holds equal to `BENCHMARK.json`'s). Each run is a child
//! process of this executable, so peak memory and allocator state are
//! per run.

use crate::spec::{END_TO_END, SELFCHECK_RUNS, WORKLOADS};
use crate::stats::{median, spread};
use qk_obs::Json;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Short git revision of the current directory, or `unknown` (the
/// driver's checkout is not a repository).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result line of one child run.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and reads its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = qk_obs::json::parse(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e:?}); exit {}",
            output.status
        )
    })?;
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: parsed.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        metrics,
    })
}

/// `--all`: every workload once with tracing off and once traced.
pub fn all(seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            match run_child(w.name, seed, seconds, trace, out_dir) {
                Ok(result) => {
                    println!("{} --seed {seed} --trace {}", w.name, u8::from(trace));
                    for (name, value) in &result.metrics {
                        println!("  {name:<36} {value:>16.6}");
                    }
                    ok &= result.correct;
                }
                Err(e) => {
                    eprintln!("pipeline_bench: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One (metric, workload) row of the self-check.
#[derive(Serialize)]
struct CheckRow {
    workload: String,
    metric: String,
    bound: f64,
    /// Median of each set of runs.
    medians: [f64; 2],
    /// Interquartile range over median of each set.
    spreads: [f64; 2],
    /// How much worse the second median is than the first, as a share
    /// of the first (negative: better).
    worsening: f64,
    within_bound: bool,
}

/// `--selfcheck`: two sets of [`SELFCHECK_RUNS`] runs per workload,
/// seeds `seed..`, tracing off. Fails when a spread (other than
/// `setup_s`'s) exceeds its metric's bound or a second median is worse
/// than the first by more than the bound. Writes `selfcheck.json` under
/// `out_dir`.
pub fn selfcheck(seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let mut rows = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        // values[set][metric] = one value per seed
        let mut values: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for set in &mut values {
            for k in 0..SELFCHECK_RUNS {
                match run_child(w.name, seed + k, seconds, false, out_dir) {
                    Ok(result) => {
                        ok &= result.correct;
                        for (name, value) in result.metrics {
                            set.entry(name).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("pipeline_bench: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for d in &END_TO_END {
            let sets = [&values[0][d.name], &values[1][d.name]];
            let medians = sets.map(|v| median(v));
            let spreads = sets.map(|v| spread(v));
            // Lower is better for every end-to-end metric.
            let worsening = (medians[1] - medians[0]) / medians[0];
            let steady = d.name == "setup_s" || spreads.iter().all(|&s| s <= d.bound);
            let within_bound = steady && worsening <= d.bound;
            ok &= within_bound;
            println!(
                "{:<11} {:<16} median {:>12.5} {:>12.5}  spread {:>6.3} {:>6.3}  worse {:>+7.3}  bound {:.2}  {}",
                w.name,
                d.name,
                medians[0],
                medians[1],
                spreads[0],
                spreads[1],
                worsening,
                d.bound,
                if within_bound { "ok" } else { "OUT OF BOUND" },
            );
            rows.push(CheckRow {
                workload: w.name.to_string(),
                metric: d.name.to_string(),
                bound: d.bound,
                medians,
                spreads,
                worsening,
                within_bound,
            });
        }
    }
    let report = serde_json::to_string_pretty(&rows).expect("rows serialize");
    let path = out_dir.join("selfcheck.json");
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, report)) {
        eprintln!("pipeline_bench: {} not written: {e}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
