//! Structural tests of the work-conserving batch-formation rule: which
//! worker takes which requests, pinned by batch sizes and counters
//! rather than by wall time wherever the interleaving can be forced.

use qk_chaos::{sites, Chaos, Fault, FaultPlan, Trigger};
use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_obs::{TracePhase, Tracer};
use qk_serve::{KernelServer, MetricsSnapshot, ServeConfig};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

const FEATURES: usize = 4;

/// One small trained model, shipped between tests as its byte artifact
/// (training is the slow part; decoding is microseconds).
fn fresh_model() -> QuantumKernelModel {
    static ARTIFACT: OnceLock<Vec<u8>> = OnceLock::new();
    QuantumKernelModel::from_bytes(ARTIFACT.get_or_init(|| {
        let data = generate(&SyntheticConfig::small(23));
        let split = prepare_experiment(&data, 20, FEATURES, 23);
        QuantumKernelModel::fit(
            &split.train.features,
            &split.train.label_signs(),
            &AnsatzConfig::new(2, 1, 0.6),
            &TruncationConfig::default(),
            &SmoParams::with_c(1.0),
            &CpuBackend::new(),
        )
        .to_bytes()
    }))
}

/// Distinct points for distinct `i` (distinct quantized keys).
fn row(i: usize) -> Vec<f64> {
    (0..FEATURES)
        .map(|j| 0.05 + i as f64 * 0.045 + j as f64 * 0.11)
        .collect()
}

/// Stalls the first `batches` batches by `stall` each.
fn stall_batches(stall: Duration, batches: u64) -> Chaos {
    FaultPlan::new(17)
        .inject(
            sites::SERVE_BATCH,
            Fault::Stall(stall),
            Trigger::First(batches),
        )
        .arm()
}

/// Polls the server's snapshot until `ready` holds. The conditions
/// waited on are states the server reaches and then stays in until the
/// test acts, so this forces an interleaving; it does not guess one.
fn wait_until(server: &KernelServer, what: &str, ready: impl Fn(&MetricsSnapshot) -> bool) {
    let t0 = Instant::now();
    while !ready(&server.snapshot()) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting until {what}"
        );
        std::thread::yield_now();
    }
}

/// Two parked workers, two requests back to back: each worker takes
/// one, and the two (stalled) batches overlap in time. The overlap is
/// read off the workers' own trace lanes, so it does not depend on when
/// this thread gets to run.
#[test]
fn two_requests_reach_two_idle_workers() {
    let tracer = Tracer::new();
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            chaos: stall_batches(Duration::from_millis(50), 2),
            trace: Some(tracer.clone()),
            ..ServeConfig::with_workers(2)
        },
    );
    // A worker still starting up is not idle yet and would
    // legitimately leave the first one a batch of 2.
    wait_until(&server, "both workers are parked", |s| s.idle_workers == 2);
    let handle = server.handle();
    let pending = [
        handle.submit(row(0)).unwrap(),
        handle.submit(row(1)).unwrap(),
    ];
    for p in pending {
        let served = p.wait().unwrap();
        assert_eq!(served.batch_size, 1, "an idle worker was left no request");
    }
    let snap = server.shutdown();
    assert_eq!(snap.batches, 2);
    assert_eq!(snap.faults_injected, 2);
    // One batch per lane (= per worker), drain start to reply end with
    // the stall inside.
    let events = tracer.events();
    let batch_on = |lane: u32| {
        let at = |phase: TracePhase| {
            events
                .iter()
                .find(|e| e.lane == lane && e.phase == phase)
                .unwrap_or_else(|| panic!("worker {lane} recorded no {phase:?}"))
        };
        (
            at(TracePhase::Coalesce).t_us,
            at(TracePhase::Reply).end_us(),
        )
    };
    let (a, b) = (batch_on(0), batch_on(1));
    assert!(
        a.0 < b.1 && b.0 < a.1,
        "the two batches ran one after the other: {a:?} µs and {b:?} µs"
    );
}

/// One worker whose first batch (a single head request) is stalled;
/// six requests over three distinct points queue up behind it. Returns
/// the six replies' batch sizes in submission order.
fn batch_sizes_behind_a_busy_worker(max_batch: usize) -> Vec<usize> {
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            max_batch,
            chaos: stall_batches(Duration::from_millis(100), 1),
            ..ServeConfig::with_workers(1)
        },
    );
    wait_until(&server, "the worker is parked", |s| s.idle_workers == 1);
    let handle = server.handle();
    let head = handle.submit(row(9)).unwrap();
    // `batches` ticks when a batch is formed, ahead of the stall: from
    // here the worker is busy and everything submitted queues up.
    wait_until(&server, "the head batch is formed", |s| s.batches == 1);
    let pending: Vec<_> = (0..6).map(|r| handle.submit(row(r % 3)).unwrap()).collect();
    assert_eq!(head.wait().unwrap().batch_size, 1);
    let sizes = pending
        .into_iter()
        .map(|p| p.wait().unwrap().batch_size)
        .collect();
    let snap = server.shutdown();
    // The head's point, then three distinct points however the six
    // requests were split: duplicates share a simulation in a batch
    // and hit the cache across batches.
    assert_eq!(snap.simulations, 1 + 3);
    assert_eq!(snap.completed, 7);
    sizes
}

#[test]
fn batches_still_form_behind_a_busy_worker() {
    assert_eq!(batch_sizes_behind_a_busy_worker(8), [6; 6]);
    assert_eq!(batch_sizes_behind_a_busy_worker(4), [4, 4, 4, 4, 2, 2]);
}

/// Closed-loop clients, one request in flight each, as many as there
/// are workers: the shape in which a drain most often leaves requests
/// for other workers. No assertion on batch sizes — a stale idle count
/// may legitimately form a batch of 2 or 3.
#[test]
fn closed_loop_clients_strand_nothing() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 200;
    let server = KernelServer::start(fresh_model(), &ServeConfig::with_workers(CLIENTS));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let handle = server.handle();
            scope.spawn(move || {
                for r in 0..PER_CLIENT {
                    handle
                        .submit(row((c * 7 + r) % 16))
                        .expect("accepted")
                        .wait()
                        .expect("answered");
                }
            });
        }
    });
    let snap = server.shutdown();
    assert_eq!(snap.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.idle_workers, 0, "every worker has exited");
}

/// Shutdown issued while requests that drains stopped short of are
/// still queued: the tokens land behind them and all are answered.
/// (`max_batch: 2` makes the drains stop short whatever the idle count
/// reads; the stalls keep both workers mid-batch while `shutdown` runs.)
#[test]
fn shutdown_answers_requests_a_drain_left_queued() {
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            max_batch: 2,
            chaos: stall_batches(Duration::from_millis(30), 2),
            ..ServeConfig::with_workers(2)
        },
    );
    wait_until(&server, "both workers are parked", |s| s.idle_workers == 2);
    let handle = server.handle();
    let pending: Vec<_> = (0..9).map(|r| handle.submit(row(r)).unwrap()).collect();
    let snap = server.shutdown();
    for p in pending {
        p.wait().expect("accepted request answered across shutdown");
    }
    assert_eq!(snap.completed, 9);
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.max_batch_size <= 2);
}

/// Without a coalesce window two workers can simulate the same
/// uncached point at the same time. That is allowed, and harmless: the
/// answers are the oracle's and the cache keeps one entry for the key.
#[test]
fn concurrent_cold_duplicates_agree_and_share_one_cache_entry() {
    let be = CpuBackend::new();
    let x = row(5);
    let oracle = fresh_model().predict_one(&x, &be).decision_value;
    let server = KernelServer::start(fresh_model(), &ServeConfig::with_workers(2));
    wait_until(&server, "both workers are parked", |s| s.idle_workers == 2);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (handle, x, start) = (server.handle(), x.clone(), &start);
            scope.spawn(move || {
                start.wait();
                let served = handle.submit(x).unwrap().wait().unwrap();
                assert_eq!(served.prediction.decision_value.to_bits(), oracle.to_bits());
            });
        }
    });
    let snap = server.shutdown();
    assert!(
        (1..=2).contains(&snap.simulations),
        "{} simulations of one point",
        snap.simulations
    );
    assert_eq!(snap.cache.entries, 1);
}
