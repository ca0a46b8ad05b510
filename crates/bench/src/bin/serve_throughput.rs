//! Serving-layer throughput sweep: batch size x worker count.
//!
//! Drives a fixed duplicate-heavy request stream through `qk-serve` for
//! every (workers, max_batch) cell, reporting throughput, tail latency,
//! and cache hit rate. The expected shape on multi-core hardware:
//! throughput scales with workers until the core count, micro-batching
//! lifts it further under duplicate-heavy load (one simulation and one
//! kernel row amortize over the whole batch), and the cache turns
//! repeat traffic into pure inner-product work.
//!
//! The grid's cells finish in 50-300 ms and differ 3x run to run on a
//! small box, so its rows are informational. Worker scaling is gated on
//! a dedicated closed-loop pair instead, the same at every scale: a
//! 256-state model at m = 32 (a 1.3 ms kernel row, so that thread
//! wake-ups are a small part of a request), every query pre-touched into
//! the cache, one generator thread keeping as many requests in flight
//! as there are workers, 0.3 s per side. `worker_scaling_closed` is the
//! median over five back-to-back trials of rps(2 workers) /
//! rps(1 worker). On the 2-vCPU reference box it reads 1.7-2.1, and
//! 1.0-1.2 under a drain that lets one woken worker take both requests
//! (no fair share). The timed 2 ms coalesce window this server used to
//! have slowed both sides alike (250 against 550 req/s on one worker),
//! so it shows in `rps_closed_w1`/`_w2` more than in the ratio
//! (1.3-1.9). The ratio needs two cores to mean anything, so
//! `available_parallelism` is recorded beside it.
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin serve_throughput -- \
//!     [--scale ci|default|paper] [--smoke] [--requests N] \
//!     [--features M] [--train N] [--pool P] [--obs-dir DIR] \
//!     [--trace-dir DIR]
//!
//! `--obs-dir DIR` exports observability artifacts there: each cell's
//! server appends lifecycle events to `serve_journal.jsonl` and the
//! final shutdown leaves `obs_serve.json` with span rollups.
//!
//! `--trace-dir DIR` records batch-granular timeline events (queue,
//! coalesce, encode, kernel, reply; lane = worker index) across every
//! cell, then writes the shard plus the merged Chrome trace-event file
//! `trace_serve.json` and the `trace_serve_report.json` summary.

use qk_bench::schema::{BenchMeta, BenchResult, Direction};
use qk_bench::{export_trace, sample_rows, Args, Scale};
use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_obs::Tracer;
use qk_serve::{KernelServer, PendingPrediction, ServeConfig};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Cell {
    workers: usize,
    max_batch: usize,
    throughput_rps: f64,
    p50: Duration,
    p99: Duration,
    mean_batch_size: f64,
    cache_hit_rate: f64,
    simulations: u64,
    completed: u64,
}

/// Trains the serving model and returns its artifact and how many
/// states it retains.
fn fit_artifact(features: usize, train: usize) -> (Vec<u8>, usize) {
    let data = generate(&SyntheticConfig {
        num_features: features + 2,
        num_illicit: train,
        num_licit: train,
        latent_dim: 6,
        noise: 2.0,
        seed: 97,
    });
    let split = prepare_experiment(&data, train + train / 4, features, 97);
    let artifact = QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &AnsatzConfig::new(2, 1, 0.5),
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &CpuBackend::new(),
    )
    .to_bytes();
    (artifact, split.train.features.len())
}

/// Shape of the closed-loop scaling pair (see the header).
const CLOSED_FEATURES: usize = 32;
const CLOSED_TRAIN: usize = 256;
const CLOSED_POOL: usize = 32;
const CLOSED_SIDE: Duration = Duration::from_millis(300);
const CLOSED_TRIALS: usize = 5;

/// Requests per second of one closed-loop generator keeping `workers`
/// requests in flight against `workers` workers, every query a cache
/// hit. The generator refills its window the moment the oldest request
/// is answered, so requests reach the queue back to back: the arrival
/// pattern under which a batching rule can starve a worker.
fn closed_loop_rps(artifact: &[u8], queries: &[Vec<f64>], workers: usize) -> f64 {
    let server = KernelServer::start(
        QuantumKernelModel::from_bytes(artifact),
        &ServeConfig::with_workers(workers),
    );
    let handle = server.handle();
    let submit = |q: usize| {
        handle
            .submit(queries[q % queries.len()].clone())
            .expect("accepted")
    };
    for q in 0..queries.len() {
        submit(q).wait().expect("answered");
    }
    let t0 = Instant::now();
    let mut in_flight: VecDeque<PendingPrediction> = VecDeque::with_capacity(workers);
    let mut sent = 0;
    while t0.elapsed() < CLOSED_SIDE {
        if in_flight.len() == workers {
            let oldest = in_flight.pop_front().expect("window is full");
            oldest.wait().expect("answered");
        }
        in_flight.push_back(submit(sent));
        sent += 1;
    }
    for pending in in_flight {
        pending.wait().expect("answered");
    }
    let rps = sent as f64 / t0.elapsed().as_secs_f64();
    server.shutdown();
    rps
}

fn main() {
    let args = Args::from_env();
    let scale = if args.flag("smoke") {
        Scale::Ci
    } else {
        args.scale()
    };
    let (features, train, requests, pool, worker_grid, batch_grid): (
        usize,
        usize,
        usize,
        usize,
        &[usize],
        &[usize],
    ) = match scale {
        Scale::Ci => (4, 16, 64, 8, &[1, 2], &[1, 4]),
        Scale::Default => (8, 60, 1000, 50, &[1, 2, 4], &[1, 4, 8]),
        Scale::Paper => (16, 240, 5000, 200, &[1, 2, 4, 8], &[1, 4, 8, 16]),
    };
    let features = args.get_or("features", features);
    let train = args.get_or("train", train);
    let requests = args.get_or("requests", requests);
    let pool = args.get_or("pool", pool);
    let obs_dir = args.get("obs-dir").map(PathBuf::from);
    let trace_dir = args.get("trace-dir").map(PathBuf::from);
    if let Some(d) = &trace_dir {
        std::fs::create_dir_all(d).expect("creating --trace-dir");
    }
    let tracer = trace_dir.as_ref().map(|_| Tracer::new());

    // One trained model artifact, redeployed fresh per cell.
    let (artifact, retained) = fit_artifact(features, train);
    let queries = sample_rows(pool, features, 101);

    println!(
        "serve_throughput: {} requests over a {}-point pool, model with {} retained states ({} features)",
        requests,
        pool,
        retained,
        features
    );
    println!(
        "\n{:>7} {:>9} | {:>12} {:>10} {:>10} {:>10} {:>9} {:>6}",
        "workers", "max_batch", "rps", "p50", "p99", "mean_bat", "hit_rate", "sims"
    );

    let mut cells = Vec::new();
    for &workers in worker_grid {
        for &max_batch in batch_grid {
            let server = KernelServer::start(
                QuantumKernelModel::from_bytes(&artifact),
                &ServeConfig {
                    workers,
                    max_batch,
                    queue_capacity: 4 * workers * max_batch.max(8),
                    obs_dir: obs_dir.clone(),
                    trace: tracer.clone(),
                    ..ServeConfig::default()
                },
            );
            let handle = server.handle();
            let t0 = std::time::Instant::now();
            // Pipelined duplicate-heavy stream: step 7 walks the whole
            // pool while revisiting every point `requests / pool` times.
            let pending: Vec<_> = (0..requests)
                .map(|r| {
                    handle
                        .submit(queries[(r * 7) % queries.len()].clone())
                        .expect("accepted")
                })
                .collect();
            for p in pending {
                p.wait().expect("answered");
            }
            let wall = t0.elapsed();
            let snap = server.shutdown();
            let cell = Cell {
                workers,
                max_batch,
                throughput_rps: requests as f64 / wall.as_secs_f64().max(1e-9),
                p50: snap.latency.p50,
                p99: snap.latency.p99,
                mean_batch_size: snap.mean_batch_size,
                cache_hit_rate: snap.cache_hit_rate,
                simulations: snap.simulations,
                completed: snap.completed,
            };
            println!(
                "{:>7} {:>9} | {:>12.1} {:>10.2?} {:>10.2?} {:>10.2} {:>8.1}% {:>6}",
                cell.workers,
                cell.max_batch,
                cell.throughput_rps,
                cell.p50,
                cell.p99,
                cell.mean_batch_size,
                100.0 * cell.cache_hit_rate,
                cell.simulations
            );
            cells.push(cell);
        }
    }

    if let (Some(first), Some(last)) = (cells.first(), cells.last()) {
        println!(
            "\nthroughput corner-to-corner: x{:.2} ({} worker / batch {} -> {} workers / batch {})",
            last.throughput_rps / first.throughput_rps.max(1e-9),
            first.workers,
            first.max_batch,
            last.workers,
            last.max_batch
        );
    }

    // The closed-loop scaling pair. On a shared host the clock steps up
    // and down between runs and only neighbours in time compare, so the
    // scaling is the median of the back-to-back (1 worker, 2 workers)
    // ratios, not a ratio of per-side bests (measured: five-trial medians
    // 1.79-2.08 over six runs where best-per-side read 1.73-2.24 and,
    // with three trials, 1.06-2.24).
    let (closed_artifact, closed_states) = fit_artifact(CLOSED_FEATURES, CLOSED_TRAIN);
    let closed_queries = sample_rows(CLOSED_POOL, CLOSED_FEATURES, 103);
    let mut closed_best = [0.0f64; 2];
    let mut ratios = [0.0f64; CLOSED_TRIALS];
    for ratio in &mut ratios {
        let one = closed_loop_rps(&closed_artifact, &closed_queries, 1);
        let two = closed_loop_rps(&closed_artifact, &closed_queries, 2);
        closed_best = [closed_best[0].max(one), closed_best[1].max(two)];
        *ratio = two / one;
    }
    ratios.sort_by(f64::total_cmp);
    let worker_scaling_closed = ratios[CLOSED_TRIALS / 2];
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "\nclosed loop ({closed_states} states, m = {CLOSED_FEATURES}, hot cache, in-flight = workers): \
         up to {:.1} req/s on 1 worker, {:.1} on 2 (median ratio x{worker_scaling_closed:.2}; \
         available_parallelism {cores})",
        closed_best[0], closed_best[1]
    );

    if let (Some(tracer), Some(dir)) = (&tracer, &trace_dir) {
        if let Err(e) = tracer.write_shards(dir) {
            eprintln!("serve_throughput: cannot write trace shards: {e}");
        } else {
            match export_trace(dir, "trace_serve.json", "trace_serve_report.json") {
                Ok(analysis) => {
                    println!("{analysis}");
                    eprintln!("[trace written to {}]", dir.display());
                }
                Err(e) => eprintln!("serve_throughput: cannot export trace: {e}"),
            }
        }
    }

    let mut meta = BenchMeta::new(
        "serve_throughput",
        match scale {
            Scale::Ci => "ci",
            Scale::Default => "default",
            Scale::Paper => "paper",
        },
    );
    meta.n = requests;
    meta.workers = worker_grid.iter().copied().max().unwrap_or(0);
    let mut result = BenchResult::new(meta);
    // Every cell must answer its whole request stream — a deterministic
    // count the gate pins exactly. Throughput, latency and cache shape
    // depend on host load, so they stay informational.
    let completed_total: u64 = cells.iter().map(|c| c.completed).sum();
    result.metric(
        "completed_total",
        completed_total as f64,
        0.0,
        Direction::Exact,
    );
    for c in &cells {
        let tag = format!("w{}_b{}", c.workers, c.max_batch);
        result.info(&format!("rps_{tag}"), c.throughput_rps);
        result.info(&format!("p50_us_{tag}"), c.p50.as_micros() as f64);
        result.info(&format!("p99_us_{tag}"), c.p99.as_micros() as f64);
        result.info(&format!("mean_batch_{tag}"), c.mean_batch_size);
        result.info(&format!("hit_rate_{tag}"), c.cache_hit_rate);
        result.info(&format!("sims_{tag}"), c.simulations as f64);
    }
    // Two workers against one, two requests in flight against one: near
    // 2 when requests reach both workers, near 1 when a batching rule
    // leaves one of them idle (header). 25 % of slack covers this box's
    // run-to-run spread; a one-core host says nothing.
    result.metric(
        "worker_scaling_closed",
        worker_scaling_closed,
        0.25,
        Direction::Higher,
    );
    result.info("rps_closed_w1", closed_best[0]);
    result.info("rps_closed_w2", closed_best[1]);
    result.info("available_parallelism", cores as f64);
    result.write();
}
