//! Crash-safe SVM training smoke harness: the CI kill-and-resume and
//! chaos drills for `qk_svm::Trainer` drive this bin.
//!
//! The smoke builds a small quantum-kernel problem end to end — sampled
//! feature rows, MPS simulation, tiled Gram assembly — then trains a
//! C-SVC through the checkpointed trainer over a
//! `qk_gram::RecomputingRows` source, so persistently failing row loads
//! degrade to bitwise-identical recomputation instead of aborting.
//!
//! A fresh run wipes the checkpoint directory first; `--resume` keeps
//! it, so a SIGKILLed run warm-starts from its last stored snapshot. The
//! directory defaults to `svm_train_ckpt` under `qk_bench::results_dir()`
//! (`$QK_RESULTS_DIR`, else the system temp directory).
//! `--out FILE` writes the model bytes (pass count, bias, then every
//! alpha, all little-endian), which CI `cmp`s between a killed+resumed
//! run and a clean run — they must be identical. The report prints the
//! model's exit KKT gap and duality gap next to `tol`.
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin svm_train -- --smoke \
//!     [--n N] [--features M] [--tile T] [--c C] \
//!     [--ckpt-dir DIR] [--ckpt-every K] [--resume] \
//!     [--throttle-ms T] [--cache-budget-kb B] [--pass-budget P] \
//!     [--chaos SPEC] [--chaos-seed S] [--out FILE] [--obs-dir DIR]
//!
//! `--chaos SPEC` arms a seeded fault plan over the trainer's sites
//! (`svm.ckpt.store`, `svm.ckpt.load`, `svm.row.load`) in
//! `qk_chaos::FaultPlan::parse` grammar, e.g.
//! `svm.ckpt.store=io@first:2,svm.row.load=io@first:5`. Exit code 3
//! means the pass budget interrupted training (re-run with `--resume`);
//! the stdout report always ends with the trainer's obs report, whose
//! `robustness:` section carries the recovery counters CI asserts on.

use qk_bench::schema::{BenchMeta, BenchResult, Direction};
use qk_bench::{results_dir, sample_rows, Args};
use qk_chaos::{Chaos, FaultPlan};
use qk_circuit::AnsatzConfig;
use qk_core::simulate_states;
use qk_gram::{encoding_fingerprint, GramConfig, GramEngine, RecomputingRows};
use qk_mps::TruncationConfig;
use qk_obs::Obs;
use qk_svm::{SmoParams, TrainError, Trainer, TrainerConfig};
use qk_tensor::backend::CpuBackend;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args = Args::from_env();
    if !args.flag("smoke") {
        eprintln!("svm_train only has a smoke mode; pass --smoke");
        std::process::exit(2);
    }
    smoke(&args);
}

/// Deterministic noisy labels: a nonlinear rule over the first two
/// features with a seeded flip of roughly one point in seven, so the
/// problem is not cleanly separable. At `--c 32` training takes six
/// passes — enough runway for the CI drill to SIGKILL mid-flight.
fn label_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let rule = if r[0] * r[1] > 0.25 { 1.0 } else { -1.0 };
            if (i * 31 + 7) % 7 == 0 {
                -rule
            } else {
                rule
            }
        })
        .collect()
}

fn smoke(args: &Args) {
    let n = args.get_or("n", 32usize);
    let features = args.get_or("features", 4usize);
    let tile = args.get_or("tile", 8usize);
    let c = args.get_or("c", 2.0f64);
    let dir = args
        .get("ckpt-dir")
        .map_or_else(|| results_dir().join("svm_train_ckpt"), PathBuf::from);
    let resume = args.flag("resume");
    if !resume && dir.exists() {
        std::fs::remove_dir_all(&dir).expect("wiping stale checkpoint dir");
    }

    let chaos = match args.get("chaos") {
        None => Chaos::disarmed(),
        Some(spec) => {
            let seed = args.get_or("chaos-seed", 0u64);
            FaultPlan::parse(seed, spec)
                .unwrap_or_else(|e| panic!("bad --chaos: {e}"))
                .arm()
        }
    };

    // Build the kernel the same way every invocation: the trainer's
    // bitwise-resume contract needs identical inputs across runs.
    let ansatz = AnsatzConfig::qml_default();
    let trunc = TruncationConfig::default();
    let be = CpuBackend::new();
    let rows = sample_rows(n, features, 23);
    let labels = label_rows(&rows);
    let states = simulate_states(&rows, &ansatz, &be, &trunc).states;
    let out = GramEngine::new(GramConfig::in_memory(tile))
        .compute_gram(&states, &be)
        .expect("in-memory gram assembly cannot fail");
    let kernel = out.kernel;
    let source = RecomputingRows::new(&kernel, &states, &be);

    let obs = Obs::new();
    let cfg = TrainerConfig {
        ckpt_dir: Some(dir),
        ckpt_every: args.get_or("ckpt-every", 1usize),
        cache_budget: match args.get_or("cache-budget-kb", 0usize) {
            0 => None,
            kb => Some(kb * 1024),
        },
        kernel_fingerprint: encoding_fingerprint(&ansatz, &trunc),
        chaos,
        obs: Some(obs.clone()),
        obs_dir: args.get("obs-dir").map(PathBuf::from),
        throttle: match args.get_or("throttle-ms", 0u64) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        pass_budget: match args.get_or("pass-budget", 0usize) {
            0 => None,
            p => Some(p),
        },
        ..TrainerConfig::default()
    };
    let params = SmoParams::with_c(c);
    let outcome = match Trainer::new(cfg).train(&source, &labels, &params) {
        Ok(outcome) => outcome,
        Err(TrainError::Interrupted { passes }) => {
            eprintln!("interrupted after {passes} passes; re-run with --resume");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("svm training failed: {e}");
            std::process::exit(1);
        }
    };
    let model = &outcome.model;
    let stats = &outcome.stats;
    println!(
        "svm_train smoke: n={n} features={features} c={c} resume={resume}\n\
         passes={} support_vectors={} degraded={}\n\
         kkt_violation={:e} duality_gap={:e} tol={:e}\n\
         resumed_from_pass={}",
        model.passes,
        model.support_indices().len(),
        stats.degraded,
        model.kkt_violation,
        model.duality_gap,
        params.tol,
        outcome.resumed_from_pass.map_or(-1, |p| p as i64),
    );
    // The robustness section of this report is what the CI chaos drill
    // greps for nonzero recovery counters.
    println!("{}", obs.report("svm"));

    if let Some(path) = args.get("out") {
        let mut bytes = Vec::with_capacity(16 + model.alphas.len() * 8);
        bytes.extend_from_slice(&(model.passes as u64).to_le_bytes());
        bytes.extend_from_slice(&model.bias.to_bits().to_le_bytes());
        for a in &model.alphas {
            bytes.extend_from_slice(&a.to_bits().to_le_bytes());
        }
        let mut f = std::fs::File::create(path).expect("creating --out file");
        f.write_all(&bytes).expect("writing --out file");
        eprintln!("[model bytes written to {path}]");
    }

    let mut meta = BenchMeta::new("svm_train_smoke", "smoke");
    meta.n = n;
    meta.tile = tile;
    let mut result = BenchResult::new(meta);
    // Pass count and support-vector count are covered by the bitwise
    // determinism contract: any clean smoke at fixed inputs must
    // reproduce them exactly, resumed or not.
    result.metric("passes", model.passes as f64, 0.0, Direction::Exact);
    result.metric(
        "support_vectors",
        model.support_indices().len() as f64,
        0.0,
        Direction::Exact,
    );
    // Cache and recovery activity depend on the chaos plan and resume
    // history, so they are informational.
    result.info("cache_hits", stats.cache_hits as f64);
    result.info("cache_misses", stats.cache_misses as f64);
    result.info("cache_evictions", stats.cache_evictions as f64);
    result.info("rows_recomputed", stats.rows_recomputed as f64);
    result.info("ckpt_retries", stats.ckpt_retries as f64);
    result.info("ckpt_stores", stats.ckpt_stores as f64);
    result.info("faults_injected", stats.faults_injected as f64);
    result.info("degraded", u64::from(stats.degraded) as f64);
    result.write();
}
