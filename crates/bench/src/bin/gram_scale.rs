//! Tiled Gram-engine scaling harness: tile size x worker count, plus a
//! checkpointed smoke mode for kill-and-resume drills.
//!
//! Two modes:
//!
//! * **Sweep** (default): runs the in-memory engine over every
//!   (tile, workers) cell, reporting wall time, throughput and the
//!   bitwise check against the single-pass reference.
//! * **Smoke** (`--smoke`): one fixed checkpointed job. A fresh run
//!   wipes the checkpoint directory first; `--resume` keeps it, so a
//!   SIGKILLed run picks up from its last completed tile. `--out FILE`
//!   writes the raw little-endian matrix bytes, which CI diffs between
//!   a killed+resumed run and a clean run (they must be identical).
//!   The checkpoint directory defaults to `gram_scale_ckpt` under
//!   `qk_bench::results_dir()`, as `BENCH_gram_scale_smoke.json` does.
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin gram_scale -- \
//!     [--scale ci|default|paper] [--n N] [--features M] \
//!     [--tiles 8,16,32] [--workers 1,2,4] \
//!     [--smoke] [--resume] [--checkpoint-dir DIR] [--out FILE] \
//!     [--throttle-ms T] [--budget-kb B] [--obs-dir DIR] \
//!     [--trace-dir DIR] \
//!     [--chaos SPEC] [--chaos-seed S] [--ranks K] [--hb-timeout-ms T]
//!
//! `--obs-dir DIR` (smoke mode) exports observability artifacts there:
//! the engine's lifecycle journal (`gram_journal.jsonl`) and the
//! unified `obs_gram.json` report with span rollups.
//!
//! `--trace-dir DIR` (smoke and rank modes) records tile-granular
//! timeline events (queue-wait, steal, band-load, compute,
//! checkpoint-write, rebalance, assemble), writes one
//! `trace_rank_<r>.jsonl` shard per rank plus the merged Chrome
//! trace-event file `trace_gram.json` (loadable in `chrome://tracing`
//! or Perfetto) and the `trace_report.json` utilization/critical-path
//! summary. Tracing never participates in the bitwise determinism
//! contract: `--out` bytes are identical with and without it.
//!
//! `--chaos SPEC` (smoke mode) arms a seeded fault plan in
//! `qk_chaos::FaultPlan::parse` grammar, e.g.
//! `gram.ckpt.store=io@first:2,gram.worker.tile=panic@at:3` or
//! `rank-death:1@1`; `--chaos-seed S` keys the schedule (same
//! seed + spec replays bitwise). `--ranks K` with K > 1 runs the
//! rank-distributed death drill instead of the engine, with per-rank
//! checkpoint dirs under `--checkpoint-dir` and heartbeat timeout
//! `--hb-timeout-ms` — the CI chaos drill drives both paths.

use qk_bench::schema::{BenchMeta, BenchResult, Direction};
use qk_bench::{export_trace, results_dir, sample_rows, Args, Scale};
use qk_chaos::{Chaos, FaultPlan};
use qk_circuit::AnsatzConfig;
use qk_core::simulate_states;
use qk_gram::{
    encoding_fingerprint, rank_distributed_gram, GramConfig, GramEngine, GramError, RankConfig,
};
use qk_mps::TruncationConfig;
use qk_obs::Tracer;
use qk_tensor::backend::CpuBackend;
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Writes the shards of an armed tracer and exports the merged Chrome
/// trace and analyzer summary, printing the summary to stdout.
fn finish_trace(tracer: Option<&Tracer>, dir: Option<&PathBuf>) {
    let (Some(tracer), Some(dir)) = (tracer, dir) else {
        return;
    };
    if let Err(e) = tracer.write_shards(dir) {
        eprintln!("gram_scale: cannot write trace shards: {e}");
        return;
    }
    match export_trace(dir, "trace_gram.json", "trace_report.json") {
        Ok(analysis) => {
            println!("{analysis}");
            eprintln!("[trace written to {}]", dir.display());
        }
        Err(e) => eprintln!("gram_scale: cannot export trace: {e}"),
    }
}

fn parse_list(args: &Args, key: &str, default: &[usize]) -> Vec<usize> {
    match args.get(key) {
        None => default.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("bad --{key}: {e:?}"))
            })
            .collect(),
    }
}

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        smoke(&args);
    } else {
        sweep(&args);
    }
}

/// One fixed checkpointed job; the CI kill-and-resume drill drives this.
fn smoke(args: &Args) {
    let n = args.get_or("n", 48usize);
    let features = args.get_or("features", 6usize);
    let tile = args.get_or("tile", 8usize);
    let workers = args.get_or("workers", 2usize);
    let dir = args
        .get("checkpoint-dir")
        .map_or_else(|| results_dir().join("gram_scale_ckpt"), PathBuf::from);
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

    let ansatz = AnsatzConfig::qml_default();
    let trunc = TruncationConfig::default();
    let be = CpuBackend::new();
    let rows = sample_rows(n, features, 11);
    let states = simulate_states(&rows, &ansatz, &be, &trunc).states;
    let encoding = encoding_fingerprint(&ansatz, &trunc);

    let trace_dir = args.get("trace-dir").map(PathBuf::from);
    if let Some(d) = &trace_dir {
        std::fs::create_dir_all(d).expect("creating --trace-dir");
    }
    let tracer = trace_dir.as_ref().map(|_| Tracer::new());

    if args.get_or("ranks", 1usize) > 1 {
        rank_drill(args, dir, chaos, encoding, &states, &be, tracer, trace_dir);
        return;
    }

    let mut cfg = GramConfig::checkpointed(&dir, tile, encoding);
    cfg.workers = workers;
    cfg.chaos = chaos;
    cfg.trace = tracer.clone();
    cfg.throttle = match args.get_or("throttle-ms", 0u64) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    cfg.memory_budget = match args.get_or("budget-kb", 0usize) {
        0 => None,
        kb => Some(kb * 1024),
    };
    cfg.obs_dir = args.get("obs-dir").map(PathBuf::from);
    let engine = GramEngine::new(cfg);
    let out = match engine.compute_gram_owned(states, &be) {
        Ok(out) => out,
        Err(GramError::Interrupted { done, total }) => {
            eprintln!("interrupted at {done}/{total} tiles; re-run with --resume");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("gram job failed: {e}");
            std::process::exit(1);
        }
    };
    let r = &out.report;
    println!(
        "gram_scale smoke: n={n} tile={tile} workers={workers} resume={resume}\n\
         tiles {}/{} computed, {} restored; {} inner products; wall {:.3?}; spilled {}",
        r.tiles_computed, r.tiles_total, r.tiles_restored, r.inner_products, r.wall_time, r.spilled
    );
    println!("{}", engine.metrics().snapshot());
    finish_trace(tracer.as_ref(), trace_dir.as_ref());

    if let Some(path) = args.get("out") {
        let mut bytes = Vec::with_capacity(out.kernel.data().len() * 8);
        for v in out.kernel.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut f = std::fs::File::create(path).expect("creating --out file");
        f.write_all(&bytes).expect("writing --out file");
        eprintln!("[matrix bytes written to {path}]");
    }
    let mut meta = BenchMeta::new("gram_scale_smoke", "smoke");
    meta.n = n;
    meta.tile = tile;
    meta.workers = workers;
    let mut result = BenchResult::new(meta);
    // Structural counts are covered by the determinism contract: a
    // clean smoke at fixed (n, tile) must reproduce them bit-for-bit.
    result.metric("tiles_total", r.tiles_total as f64, 0.0, Direction::Exact);
    result.metric(
        "inner_products",
        r.inner_products as f64,
        0.0,
        Direction::Exact,
    );
    // Resume- and scheduling-dependent counts, plus absolute wall time,
    // are informational only.
    result.info("tiles_computed", r.tiles_computed as f64);
    result.info("tiles_restored", r.tiles_restored as f64);
    result.info("tiles_stolen", r.tiles_stolen as f64);
    result.info("bands_spilled", r.bands_spilled as f64);
    result.info("bands_reloaded", r.bands_reloaded as f64);
    result.info("wall_us", r.wall_time.as_micros() as f64);
    result.info("spilled", u64::from(r.spilled) as f64);
    result.write();
}

/// Rank-death drill: run the simulated-MPI rank driver instead of the
/// engine, optionally killing ranks via the armed plan, and dump the
/// same `--out` byte format so CI can `cmp` against a clean run.
#[allow(clippy::too_many_arguments)]
fn rank_drill(
    args: &Args,
    dir: PathBuf,
    chaos: Chaos,
    encoding: u64,
    states: &[qk_mps::Mps],
    be: &CpuBackend,
    tracer: Option<Tracer>,
    trace_dir: Option<PathBuf>,
) {
    let n = states.len();
    let tile = args.get_or("tile", 8usize);
    let ranks = args.get_or("ranks", 1usize);
    let mut cfg = RankConfig::new(ranks, tile, &dir);
    cfg.encoding = encoding;
    cfg.chaos = chaos;
    cfg.hb_timeout = Duration::from_millis(args.get_or("hb-timeout-ms", 300u64));
    cfg.obs_dir = args.get("obs-dir").map(PathBuf::from);
    cfg.trace = tracer.clone();
    let out = rank_distributed_gram(states, be, &cfg);
    finish_trace(tracer.as_ref(), trace_dir.as_ref());
    let rep = &out.report;
    println!(
        "gram_scale rank drill: n={n} tile={tile} ranks={ranks}\n\
         dead ranks {:?}; {} tiles adopted from checkpoints, {} recomputed; \
         {} faults injected",
        rep.dead_ranks,
        rep.tiles_adopted,
        rep.tiles_recomputed,
        cfg.chaos.injected(),
    );
    for (r, s) in rep.per_rank.iter().enumerate() {
        println!(
            "  rank {r}: {} tiles completed, {} adopted, {} recomputed{}",
            s.tiles_completed,
            s.tiles_adopted,
            s.tiles_recomputed,
            if s.died { " [died]" } else { "" }
        );
    }
    if let Some(path) = args.get("out") {
        let mut bytes = Vec::with_capacity(out.kernel.data().len() * 8);
        for v in out.kernel.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut f = std::fs::File::create(path).expect("creating --out file");
        f.write_all(&bytes).expect("writing --out file");
        eprintln!("[matrix bytes written to {path}]");
    }
    let mut meta = BenchMeta::new("gram_rank_drill", "smoke");
    meta.n = n;
    meta.tile = tile;
    meta.ranks = ranks;
    let mut result = BenchResult::new(meta);
    // Every drill metric is chaos-plan dependent (CI runs this bin with
    // several different plans), so the record is informational.
    result.info("dead_ranks", rep.dead_ranks.len() as f64);
    result.info("tiles_adopted", rep.tiles_adopted as f64);
    result.info("tiles_recomputed", rep.tiles_recomputed as f64);
    result.info("faults_injected", cfg.chaos.injected() as f64);
    result.write();
}

/// Tile x workers sweep over the in-memory engine.
fn sweep(args: &Args) {
    let scale = args.scale();
    let (n, features, tile_grid, worker_grid): (usize, usize, &[usize], &[usize]) = match scale {
        Scale::Ci => (24, 4, &[4, 8], &[1, 2]),
        Scale::Default => (96, 8, &[8, 16, 32], &[1, 2, 4]),
        Scale::Paper => (512, 16, &[32, 64, 128, 256], &[1, 2, 4, 8, 16]),
    };
    let n = args.get_or("n", n);
    let features = args.get_or("features", features);
    let tiles = parse_list(args, "tiles", tile_grid);
    let workers = parse_list(args, "workers", worker_grid);

    let ansatz = AnsatzConfig::qml_default();
    let trunc = TruncationConfig::default();
    let be = CpuBackend::new();
    let rows = sample_rows(n, features, 11);
    let states = simulate_states(&rows, &ansatz, &be, &trunc).states;

    // Single-pass reference for the bitwise check.
    let mut reference = vec![0.0f64; n * n];
    for i in 0..n {
        reference[i * n + i] = 1.0;
        for j in (i + 1)..n {
            let v = states[i].inner_with(&be, &states[j]).norm_sqr();
            reference[i * n + j] = v;
            reference[j * n + i] = v;
        }
    }

    println!("gram_scale sweep: n={n} features={features}");
    println!(
        "{:>6} {:>8} {:>12} {:>14} {:>8}",
        "tile", "workers", "wall", "ip/s", "bitwise"
    );
    let mut meta = BenchMeta::new(
        "gram_scale",
        match scale {
            Scale::Ci => "ci",
            Scale::Default => "default",
            Scale::Paper => "paper",
        },
    );
    meta.n = n;
    meta.workers = workers.iter().copied().max().unwrap_or(0);
    let mut result = BenchResult::new(meta);
    let mut all_bitwise = true;
    for &tile in &tiles {
        for &w in &workers {
            let mut cfg = GramConfig::in_memory(tile);
            cfg.workers = w;
            let engine = GramEngine::new(cfg);
            let out = engine
                .compute_gram(&states, &be)
                .expect("in-memory sweep cell cannot fail");
            let r = &out.report;
            let ips = r.inner_products as f64 / r.wall_time.as_secs_f64().max(1e-9);
            let ok = out.kernel.data() == reference.as_slice();
            all_bitwise &= ok;
            println!(
                "{:>6} {:>8} {:>12.3?} {:>14.0} {:>8}",
                tile, w, r.wall_time, ips, ok
            );
            result.info(
                &format!("wall_us_t{tile}_w{w}"),
                r.wall_time.as_micros() as f64,
            );
            result.info(&format!("ips_t{tile}_w{w}"), ips);
            result.metric(
                &format!("tiles_total_t{tile}"),
                r.tiles_total as f64,
                0.0,
                Direction::Exact,
            );
        }
    }
    assert!(
        all_bitwise,
        "a sweep cell diverged from the single-pass reference"
    );
    // Every cell matched the single-pass reference bitwise; the gate
    // pins that at 1.
    result.metric("bitwise_ok", 1.0, 0.0, Direction::Exact);
    result.write();
}
