//! Robustness drills for the serving path: supervised worker panics,
//! deadlines, admission control, and the shutdown contract that every
//! accepted request gets a reply (never a hang, never a drop).

use qk_chaos::{sites, Fault, FaultPlan, Trigger};
use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_serve::{KernelServer, ServeConfig, ServeError};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::sync::OnceLock;
use std::time::Duration;

const FEATURES: usize = 4;

/// One small trained model, shipped between tests as its byte artifact
/// (training is the slow part; decoding is microseconds).
fn model_artifact() -> &'static [u8] {
    static ARTIFACT: OnceLock<Vec<u8>> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
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
    })
}

fn fresh_model() -> QuantumKernelModel {
    QuantumKernelModel::from_bytes(model_artifact())
}

fn row(i: usize) -> Vec<f64> {
    (0..FEATURES)
        .map(|j| ((i * FEATURES + j) % 17) as f64 * 0.11)
        .collect()
}

#[test]
fn worker_panic_error_replies_batch_and_restarts() {
    // First batch panics at the injected site; the request gets an
    // explicit WorkerPanicked reply, the worker restarts in place, and
    // the next request is served normally by the same (sole) worker.
    let chaos = FaultPlan::new(21)
        .inject(sites::SERVE_BATCH, Fault::Panic, Trigger::At(vec![0]))
        .arm();
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            chaos,
            ..ServeConfig::with_workers(1)
        },
    );
    let handle = server.handle();
    let first = handle.submit(row(0)).unwrap().wait();
    assert!(
        matches!(first, Err(ServeError::WorkerPanicked)),
        "{first:?}"
    );
    let second = handle.submit(row(1)).unwrap().wait();
    assert!(second.is_ok(), "restarted worker must serve: {second:?}");
    let snap = server.shutdown();
    assert_eq!(snap.workers_restarted, 1);
    assert_eq!(snap.faults_injected, 1);
    assert_eq!(snap.completed, 1);
}

#[test]
fn expired_deadline_sheds_with_explicit_error() {
    // A zero deadline is unmeetable: every request is shed at batch
    // time with DeadlineExceeded, never silently dropped or served
    // stale.
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            deadline: Some(Duration::ZERO),
            ..ServeConfig::with_workers(1)
        },
    );
    let handle = server.handle();
    let pending: Vec<_> = (0..4).map(|i| handle.submit(row(i)).unwrap()).collect();
    for p in pending {
        assert!(matches!(p.wait(), Err(ServeError::DeadlineExceeded)));
    }
    let snap = server.shutdown();
    assert_eq!(snap.requests_shed, 4);
    assert_eq!(snap.completed, 0);
}

#[test]
fn admission_control_sheds_above_queue_depth() {
    // Stall the only worker so the queue backs up, then submit past the
    // shed depth: overflow is refused immediately with Shed (no hang,
    // no QueueFull-blocking), and every accepted request still gets an
    // answer.
    let chaos = FaultPlan::new(22)
        .inject(
            sites::SERVE_QUEUE,
            Fault::Stall(Duration::from_millis(100)),
            Trigger::First(1),
        )
        .arm();
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            chaos,
            shed_queue_depth: Some(2),
            max_batch: 1,
            ..ServeConfig::with_workers(1)
        },
    );
    let handle = server.handle();
    // One request wakes the worker into its injected stall...
    let head = handle.submit(row(0)).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // ...then flood: the queue absorbs `shed_queue_depth` requests and
    // sheds the rest explicitly.
    let mut accepted = vec![head];
    let mut shed = 0usize;
    for i in 1..12 {
        match handle.submit(row(i)) {
            Ok(p) => accepted.push(p),
            Err(ServeError::Shed) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(shed > 0, "flooding past shed depth must shed");
    for p in accepted {
        assert!(p.wait().is_ok());
    }
    let snap = server.shutdown();
    assert_eq!(snap.requests_shed as usize, shed);
    assert!(snap.faults_injected >= 1);
}

#[test]
fn shutdown_with_full_queue_answers_every_accepted_request() {
    // The shutdown contract under contention: submitters race a
    // shutdown over a tiny queue. Every accepted ticket must resolve —
    // success or an explicit error — and every refused submit must be
    // an explicit error. Nothing may hang or vanish.
    let server = KernelServer::start(
        fresh_model(),
        &ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::with_workers(2)
        },
    );
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let handle = server.handle();
            std::thread::spawn(move || {
                let mut accepted = 0usize;
                let mut refused = 0usize;
                for i in 0..200 {
                    match handle.try_submit(row(t * 200 + i)) {
                        Ok(pending) => {
                            // An accepted ticket must always resolve to
                            // a genuine answer — the FIFO shutdown
                            // protocol forbids dropping it.
                            pending.wait().expect("accepted request must be answered");
                            accepted += 1;
                        }
                        Err(ServeError::QueueFull) | Err(ServeError::Closed) => refused += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                (accepted, refused)
            })
        })
        .collect();
    // Shut down while submitters are mid-flood.
    std::thread::sleep(Duration::from_millis(5));
    let snap = server.shutdown();
    let mut accepted = 0usize;
    let mut refused = 0usize;
    for t in submitters {
        let (a, r) = t.join().unwrap();
        accepted += a;
        refused += r;
    }
    // Every one of the 800 submits resolved explicitly — accepted and
    // answered, or refused with a typed error. Nothing hung or leaked.
    assert_eq!(accepted + refused, 800);
    assert_eq!(accepted as u64, snap.submitted);
    assert_eq!(snap.submitted, snap.completed);
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn try_start_reports_spawn_failure_without_leak() {
    // Spawning zero-normalized workers still works through the
    // fallible path; a healthy host can't force a spawn error, so this
    // pins the Ok plumbing and clean shutdown of the fallible API.
    let server = KernelServer::try_start(fresh_model(), &ServeConfig::with_workers(1)).unwrap();
    let handle = server.handle();
    assert!(handle.submit(row(3)).unwrap().wait().is_ok());
    server.shutdown();
}
