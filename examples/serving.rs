//! Serving demo: a 30-second load run against the batched-inference
//! service, with a mid-run hot-swap and a final metrics snapshot.
//!
//! Train a quantum-kernel SVM, stand up `qk-serve`'s worker pool, and
//! drive a duplicate-heavy request mix (production traffic repeats
//! itself; the encoding cache turns repeats into pure inner-product
//! work). Halfway through, a freshly retrained model is hot-swapped in
//! without dropping a request — the cache survives because the
//! encoding parameters are unchanged. Every 5 seconds, and at the end,
//! the server's metrics snapshot is printed: throughput, p50/p95/p99
//! latency, cache hit rate, queue depth, batch sizes.
//!
//! Run with: `cargo run --release --example serving [-- --seconds 10]`

use qk_bench::Args;
use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_serve::{KernelServer, ServeConfig};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn train(subsample_seed: u64) -> QuantumKernelModel {
    let data = generate(&SyntheticConfig {
        noise: 1.5,
        num_features: 10,
        num_illicit: 100,
        num_licit: 160,
        ..SyntheticConfig::small(41)
    });
    let split = prepare_experiment(&data, 100, 8, subsample_seed);
    QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &AnsatzConfig::new(2, 1, 0.5),
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &CpuBackend::new(),
    )
}

fn main() {
    let args = Args::from_env();
    let seconds: u64 = args.get_or("seconds", 30);
    let clients: usize = args.get_or("clients", 2);

    println!("training v1 (and pre-training v2 for the hot-swap)...");
    let v1 = train(41);
    let v2 = train(42);
    // Query pool: ~70% of traffic repeats one of 32 "hot" points, the
    // rest is fresh — a caricature of production skew.
    let hot = qk_bench::sample_rows(32, v1.num_features(), 7);

    let server = KernelServer::start(
        v1,
        &ServeConfig {
            workers: 4,
            max_batch: 8,
            queue_capacity: 128,
            ..ServeConfig::default()
        },
    );
    println!("serving on 4 workers for {seconds} s, {clients} pipelined clients\n");

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = server.handle();
            let hot = &hot;
            let stop = &stop;
            scope.spawn(move || {
                let features = hot[0].len();
                let mut fresh_counter = c * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    // One pipelined burst: 7 of 10 requests hit the hot
                    // pool, 3 are fresh points never seen before.
                    let burst: Vec<_> = (0..10)
                        .filter_map(|r| {
                            let x = if r < 7 {
                                hot[(fresh_counter + r * 5) % hot.len()].clone()
                            } else {
                                fresh_counter += 1;
                                (0..features)
                                    .map(|j| ((fresh_counter * 13 + j * 29) % 1000) as f64 * 0.002)
                                    .collect()
                            };
                            handle.submit(x).ok()
                        })
                        .collect();
                    for pending in burst {
                        let _ = pending.wait();
                    }
                }
            });
        }

        // Reporter + hot-swap coordinator.
        let mut swapped = false;
        let mut v2 = Some(v2);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            std::thread::sleep(remaining.min(Duration::from_secs(5)));
            if !swapped
                && deadline.saturating_duration_since(Instant::now()).as_secs() <= seconds / 2
            {
                let summary = server.deploy(v2.take().expect("deploy once"));
                swapped = true;
                println!(
                    ">>> hot-swapped to v{} (encoding changed: {}; in-flight requests drain on v1)\n",
                    summary.version, summary.encoding_changed
                );
            }
            if Instant::now() < deadline {
                println!("{}\n", server.snapshot());
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    println!("final snapshot:\n{}", server.shutdown());
}
