//! `pipeline_bench`: the repository's benchmark (see `BENCHMARK.json`
//! at the repository root and `README.md` beside this file).
//!
//! Drives the paper's pipeline — `qk-data` → `qk-circuit` → `qk-mps`
//! (through `qk_core::simulate_states`) → `qk_gram::GramEngine` →
//! `qk_svm::Trainer` → `qk_core::QuantumKernelModel` /
//! `qk_serve::KernelServer` — through public functions only, times each
//! call from outside, checks the outputs, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! pipeline_bench --all             [--seed N] [--seconds S] [--out DIR]
//! pipeline_bench --selfcheck       [--seed N] [--seconds S] [--out DIR]
//! ```

mod batch;
mod common;
mod driver;
mod ledger;
mod probes;
mod serving;
mod spec;
mod stats;

use common::{RunOptions, RunOutput};
use serde::Serialize;
use spec::{Kind, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKERS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Runs one workload in this process.
fn run_workload(w: &Workload, opts: &RunOptions) -> RunOutput {
    std::fs::create_dir_all(&opts.scratch).expect("create scratch directory");
    let mut out = match w.kind {
        Kind::Batch | Kind::Sweep => batch::run(w, opts),
        Kind::Serve { .. } => serving::run(w, opts),
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    if opts.trace {
        // A layer the workload bypasses reads 0.
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    out
}

/// `(name, unit)` of the metrics a run in the given mode prints.
fn metric_units(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

#[derive(Serialize)]
struct MetricLine {
    value: f64,
    unit: String,
}

/// The result line the benchmark contract asks for.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricLine>,
}

fn result_line(out: &RunOutput, trace: bool) -> ResultLine {
    let metrics = metric_units(trace)
        .into_iter()
        .map(|(name, unit)| {
            let value = *out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.to_string(),
                MetricLine {
                    value,
                    unit: unit.to_string(),
                },
            )
        })
        .collect();
    ResultLine {
        correct: out.tally.failed == 0,
        attempted: out.tally.attempted.max(1),
        failed: out.tally.failed,
        metrics,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints what was run, on what, and every metric by name and unit.
fn print_report(w: &Workload, opts: &RunOptions, out: &RunOutput) {
    println!(
        "workload {}: m={} r={} d={} gamma={} n_train={} n_test={} tile={} workers={WORKERS} kind={:?}",
        w.name, w.features, w.layers, w.distance, w.gamma, w.n_train, w.n_test, w.tile, w.kind
    );
    println!("why: {}", w.why);
    println!(
        "run: seed={} seconds={} trace={} nproc={} cpu=\"{}\" rev={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        driver::git_rev(),
    );
    for (name, unit) in metric_units(opts.trace) {
        if let Some(value) = out.metrics.get(name) {
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }
    println!(
        "operations: {} attempted, {} failed",
        out.tally.attempted, out.tally.failed
    );
}

/// Parsed command line.
struct Cli {
    mode: Option<Mode>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

enum Mode {
    Workload(String),
    All,
    Selfcheck,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => cli.mode = Some(Mode::Workload(value()?.to_string())),
            "--all" => cli.mode = Some(Mode::All),
            "--selfcheck" => cli.mode = Some(Mode::Selfcheck),
            "--quick" => cli.quick = true,
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.mode.is_none() {
        return Err("one of --workload NAME, --all or --selfcheck is required".to_string());
    }
    if !(cli.seconds >= 0.0 && cli.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Build outputs and temporary files stay under the target directory,
    // which the driver places inside the checkout.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let out_dir = cli.out.unwrap_or_else(|| target.join("pipeline_bench"));
    match cli.mode.expect("parse_cli requires a mode") {
        Mode::Workload(name) => {
            let Some(mut w) = spec::workload(&name) else {
                eprintln!("pipeline_bench: no workload named {name:?}");
                return ExitCode::from(2);
            };
            if cli.quick {
                w = w.quick();
            }
            let opts = RunOptions {
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                quick: cli.quick,
                scratch: out_dir.join(format!("tmp-{}", std::process::id())),
                out_dir,
            };
            let out = run_workload(&w, &opts);
            print_report(&w, &opts, &out);
            let line = result_line(&out, opts.trace);
            println!(
                "{}",
                serde_json::to_string(&line).expect("result line serializes")
            );
            if line.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::All => driver::all(cli.seed, cli.seconds, &out_dir),
        Mode::Selfcheck => driver::selfcheck(cli.seed, cli.seconds, &out_dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_obs::Json;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        qk_obs::json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    /// The entries under `key`, each reduced to the strings under `fields`.
    fn declared(bench: &Json, key: &str, fields: &[&str]) -> BTreeSet<Vec<String>> {
        bench
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| match entry.get(f) {
                        Some(Json::String(s)) => s.clone(),
                        Some(Json::Number(x)) => x.to_string(),
                        _ => panic!("a {key} entry has no string or number {f}"),
                    })
                    .collect()
            })
            .collect()
    }

    fn strings(row: &[&str]) -> Vec<String> {
        row.iter().map(|s| s.to_string()).collect()
    }

    /// `spec.rs` and `BENCHMARK.json` say the same thing.
    #[test]
    fn spec_matches_benchmark_json() {
        let bench = benchmark_json();
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            declared(&bench, "workloads", &["name", "why"]),
            spec::WORKLOADS
                .iter()
                .map(|w| strings(&[w.name, w.why]))
                .collect()
        );
        assert_eq!(
            declared(&bench, "end_to_end", &["name", "unit", "better", "bound"]),
            END_TO_END
                .iter()
                .map(|m| strings(&[m.name, m.unit, "lower", &m.bound.to_string()]))
                .collect()
        );
        assert_eq!(
            declared(&bench, "per_layer", &["name", "unit"]),
            PER_LAYER.iter().map(|m| strings(&[m.0, m.1])).collect()
        );
    }

    /// Every workload at a sixteenth of its size: one bare and one traced
    /// repetition pass the run's own checks and yield every metric of
    /// both modes.
    #[test]
    fn quick_runs_emit_every_metric() {
        let root = std::env::temp_dir().join(format!("pipeline_bench-test-{}", std::process::id()));
        for w in spec::WORKLOADS {
            let opts = RunOptions {
                seed: 11,
                seconds: 0.0,
                trace: true,
                quick: true,
                scratch: root.join("tmp"),
                out_dir: root.join("out"),
            };
            let out = run_workload(&w.quick(), &opts);
            assert_eq!(out.tally.failed, 0, "{} failed its checks", w.name);
            for trace in [false, true] {
                // Panics on a metric the run did not measure.
                let line = result_line(&out, trace);
                assert!(
                    line.metrics.values().all(|m| m.value.is_finite()),
                    "{} emitted a non-finite value",
                    w.name
                );
                // `peak_rss_mb` reads 0 where there is no `/proc`.
                let never_zero = !trace && std::path::Path::new("/proc/self/status").exists();
                assert!(
                    !never_zero || line.metrics.values().all(|m| m.value > 0.0),
                    "{}: an end-to-end metric is never 0",
                    w.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn cli_reads_the_contract_arguments() {
        let args: Vec<String> = "--workload wide_d1 --seed 3 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).expect("valid arguments");
        assert!(matches!(cli.mode, Some(Mode::Workload(ref n)) if n == "wide_d1"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (3, 2.5, true));
        assert!(parse_cli(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_cli(&["--seed".to_string()]).is_err());
        assert!(parse_cli(&["--bogus".to_string()]).is_err());
        assert!(parse_cli(&[]).is_err());
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| ok(n)));
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(PER_LAYER.len() <= 128);
    }
}
