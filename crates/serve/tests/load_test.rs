//! Load and lifecycle tests for the serving layer: the ISSUE 2
//! acceptance run (1000+ requests, 4 workers, mixed duplicate/fresh
//! points, hot-swap mid-load) plus shutdown and deploy edge cases.

use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_serve::{KernelServer, ServeConfig, ServeError, ServedPrediction};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const FEATURES: usize = 6;

fn train_model(subsample_seed: u64, gamma: f64) -> QuantumKernelModel {
    let data = generate(&SyntheticConfig {
        noise: 1.5,
        num_features: 8,
        num_illicit: 80,
        num_licit: 120,
        ..SyntheticConfig::small(13)
    });
    let split = prepare_experiment(&data, 75, FEATURES, subsample_seed);
    QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &AnsatzConfig::new(2, 1, gamma),
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &CpuBackend::new(),
    )
}

/// Deterministic query pool in the ansatz's (0, 2) feature domain, with
/// pairwise-distinct quantized keys at the default scale.
fn query_pool(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..FEATURES)
                .map(|j| {
                    if j == 0 {
                        // Unique first coordinate: distinct pool indices
                        // must never share a quantized key.
                        0.05 + i as f64 * 0.045
                    } else {
                        ((i * FEATURES + 3 * j + 1) % 17) as f64 * 0.118
                    }
                })
                .collect()
        })
        .collect()
}

/// The acceptance load test: 1000 requests through 4 workers with heavy
/// duplication, a hot-swap in the middle, and a per-version sequential
/// oracle.
#[test]
fn load_1000_requests_4_workers_with_hot_swap() {
    const CLIENTS: usize = 4;
    const PER_PHASE: usize = 125; // per client, per phase => 1000 total
    const POOL: usize = 40;

    let be = CpuBackend::new();
    let model_v1 = train_model(7, 0.5);
    let model_v2 = train_model(8, 0.5); // same encoding: cache survives
    let pool = query_pool(POOL);

    // Sequential oracle, per version: the serve path must be bitwise
    // identical to predict_one on whichever version answered.
    let oracle_v1: Vec<f64> = pool
        .iter()
        .map(|x| model_v1.predict_one(x, &be).decision_value)
        .collect();
    let oracle_v2: Vec<f64> = pool
        .iter()
        .map(|x| model_v2.predict_one(x, &be).decision_value)
        .collect();

    let server = KernelServer::start(
        model_v1,
        &ServeConfig {
            workers: CLIENTS,
            max_batch: 8,
            queue_capacity: 32, // small: backpressure is exercised
            ..ServeConfig::default()
        },
    );
    // Phase barrier: all clients finish phase 1 -> deploy -> phase 2.
    let swap = Arc::new(Barrier::new(CLIENTS + 1));
    let mut sims_after_phase1 = 0u64;

    let responses: Vec<(usize, u64, ServedPrediction)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = server.handle();
                let pool = &pool;
                let swap = Arc::clone(&swap);
                scope.spawn(move || {
                    let mut got = Vec::with_capacity(2 * PER_PHASE);
                    for phase in 0..2u64 {
                        // Pipelined submissions: many in flight at once,
                        // mixing fresh points with duplicates (the pool
                        // is much smaller than the request count).
                        let indices: Vec<usize> = (0..PER_PHASE)
                            .map(|r| (c * 31 + r * 7 + phase as usize * 3) % POOL)
                            .collect();
                        let pending: Vec<_> = indices
                            .iter()
                            .map(|&i| handle.submit(pool[i].clone()).expect("accepted"))
                            .collect();
                        for (&i, p) in indices.iter().zip(pending) {
                            got.push((i, phase + 1, p.wait().expect("answered")));
                        }
                        if phase == 0 {
                            swap.wait(); // everyone done with phase 1
                            swap.wait(); // deploy finished
                        }
                    }
                    got
                })
            })
            .collect();

        swap.wait(); // all phase-1 responses are in
        let before_swap = server.snapshot();
        assert_eq!(before_swap.completed, (CLIENTS * PER_PHASE) as u64);
        sims_after_phase1 = before_swap.simulations;
        let summary = server.deploy(model_v2);
        assert_eq!(summary.version, 2);
        assert!(!summary.encoding_changed, "same ansatz keeps the epoch");
        swap.wait();

        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });

    // Hot-swap mid-load loses no in-flight request: every submission
    // was answered (wait() above panics otherwise) and accounted.
    assert_eq!(responses.len(), 2 * CLIENTS * PER_PHASE);

    let mut v1_seen = 0u64;
    let mut v2_seen = 0u64;
    let mut hits = 0u64;
    for (i, phase, served) in &responses {
        // Phase 1 completed strictly before the deploy; phase 2 was
        // submitted strictly after it returned.
        let expected_version = *phase;
        assert_eq!(
            served.model_version, expected_version,
            "phase {phase} answered by v{}",
            served.model_version
        );
        let oracle = if served.model_version == 1 {
            oracle_v1[*i]
        } else {
            oracle_v2[*i]
        };
        assert_eq!(
            served.prediction.decision_value, oracle,
            "request for pool[{i}] diverged from the v{} oracle",
            served.model_version
        );
        match served.model_version {
            1 => v1_seen += 1,
            _ => v2_seen += 1,
        }
        hits += u64::from(served.cache_hit);
        assert!(served.batch_size >= 1);
    }
    assert_eq!(v1_seen, (CLIENTS * PER_PHASE) as u64);
    assert_eq!(v2_seen, (CLIENTS * PER_PHASE) as u64);
    assert!(hits > 0, "duplicate-heavy load must hit the cache");

    let last = server.shutdown();
    assert_eq!(last.completed, 2 * (CLIENTS * PER_PHASE) as u64);
    assert_eq!(last.queue_depth, 0);
    // Every pool point was cached during phase 1 (racing workers may
    // have simulated a key redundantly, hence <=), and the same-epoch
    // hot-swap preserved the cache: phase 2 simulated nothing.
    assert!(sims_after_phase1 >= POOL as u64);
    assert!(sims_after_phase1 <= (CLIENTS * POOL) as u64);
    assert_eq!(
        last.simulations, sims_after_phase1,
        "cache must survive a same-encoding hot-swap"
    );
    assert!(last.cache_hit_rate > 0.0);
    // Note: `last.cache.hits` counts unique-key lookups, while `hits`
    // counts per-request flags — in-batch duplicates make the latter
    // larger, so only positivity is comparable.
    assert!(last.cache.hits > 0);
    // The p99 tail is reported and ordered.
    assert!(last.latency.p99 > Duration::ZERO, "p99 must be reported");
    assert!(last.latency.p50 <= last.latency.p95);
    assert!(last.latency.p95 <= last.latency.p99);
    assert!(last.latency.p99 <= last.latency.max);
    assert!(last.throughput_rps > 0.0);
    assert!(last.max_batch_size >= 1);
}

#[test]
fn graceful_shutdown_answers_every_accepted_request() {
    let server = KernelServer::start(
        train_model(7, 0.5),
        &ServeConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let pool = query_pool(10);
    let pending: Vec<_> = (0..50)
        .map(|r| handle.submit(pool[r % 10].clone()).expect("accepted"))
        .collect();
    // Shut down with requests still queued: all must be answered first.
    let snapshot = server.shutdown();
    for p in pending {
        p.wait().expect("accepted request answered across shutdown");
    }
    assert_eq!(snapshot.completed, 50);
    assert_eq!(snapshot.queue_depth, 0);

    // The handle outlives the server and fails cleanly.
    assert_eq!(
        handle.submit(pool[0].clone()).err(),
        Some(ServeError::Closed)
    );
    assert_eq!(
        handle.try_submit(pool[0].clone()).err(),
        Some(ServeError::Closed)
    );
}

#[test]
fn encoding_change_bumps_epoch_and_flushes_cache() {
    let server = KernelServer::start(train_model(7, 0.5), &ServeConfig::with_workers(1));
    let handle = server.handle();
    let x = query_pool(1).remove(0);

    let first = handle.submit(x.clone()).unwrap().wait().unwrap();
    assert!(!first.cache_hit);
    let again = handle.submit(x.clone()).unwrap().wait().unwrap();
    assert!(again.cache_hit, "repeat of the same point must hit");

    // Deploy with a different gamma: encodings are stale.
    let summary = server.deploy(train_model(7, 0.9));
    assert!(summary.encoding_changed);
    assert_eq!(summary.encoding_epoch, 2);

    let after = handle.submit(x.clone()).unwrap().wait().unwrap();
    assert_eq!(after.model_version, 2);
    assert!(!after.cache_hit, "old-epoch encodings must not serve v2");
    let snap = server.shutdown();
    assert_eq!(snap.encoding_epoch, 2);
    assert_eq!(snap.cache.entries, 1, "flushed, then one fresh entry");
}

#[test]
fn corrupt_deploy_is_rejected_without_disturbing_service() {
    let model = train_model(7, 0.5);
    let mut artifact = model.to_bytes();
    let server = KernelServer::start(model, &ServeConfig::with_workers(1));
    artifact.truncate(artifact.len() - 5);
    assert!(server.deploy_bytes(&artifact).is_err());
    // Still serving v1.
    let handle = server.handle();
    let served = handle
        .submit(query_pool(1).remove(0))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served.model_version, 1);
}

#[test]
fn feature_count_mismatch_is_rejected_at_submit() {
    let server = KernelServer::start(train_model(7, 0.5), &ServeConfig::with_workers(1));
    let handle = server.handle();
    assert_eq!(
        handle.submit(vec![0.1, 0.2]).err(),
        Some(ServeError::FeatureCount {
            expected: FEATURES,
            got: 2
        })
    );
    assert_eq!(server.shutdown().rejected, 1);
}

#[test]
fn unrepresentable_features_are_rejected_at_submit() {
    // NaN casts to grid 0; infinities and huge finite values saturate
    // at the i64 grid edge: accepting any of them would collide with
    // legitimate keys and poison the encoding cache.
    let server = KernelServer::start(train_model(7, 0.5), &ServeConfig::with_workers(1));
    let handle = server.handle();
    let cases = [
        (0, f64::NAN),
        (3, f64::INFINITY),
        (5, f64::NEG_INFINITY),
        (2, 1e15), // finite, but saturates at the default 1e6 scale
    ];
    for (index, bad) in cases {
        let mut x = query_pool(1).remove(0);
        x[index] = bad;
        assert_eq!(
            handle.submit(x).err(),
            Some(ServeError::InvalidFeature { index }),
            "{bad} at {index}"
        );
    }
    assert_eq!(server.shutdown().rejected, 4);
}
