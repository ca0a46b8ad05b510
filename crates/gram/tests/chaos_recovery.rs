//! Chaos drills for the hardened Gram engine: injected checkpoint I/O
//! faults, persistent tile failures and worker panics must all recover
//! to output bitwise identical to a clean run.

use qk_chaos::{sites, Chaos, Fault, FaultPlan, RetryPolicy, Trigger};
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_gram::{GramConfig, GramEngine, GramError};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-chaos-test-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn states(n: usize, features: usize) -> Vec<Mps> {
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::new(2, 1, 0.7);
    let trunc = TruncationConfig::default();
    (0..n)
        .map(|i| {
            let row: Vec<f64> = (0..features)
                .map(|j| ((i * features + j) % 9) as f64 * 0.22)
                .collect();
            MpsSimulator::new(&be)
                .with_truncation(trunc)
                .simulate(&feature_map_circuit(&row, &ansatz))
                .0
        })
        .collect()
}

/// A fast backoff so the drills don't spend wall-clock sleeping.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
        ..RetryPolicy::default()
    }
}

fn clean_kernel(st: &[Mps]) -> Vec<f64> {
    let engine = GramEngine::new(GramConfig::in_memory(3));
    let out = engine.compute_gram(st, &CpuBackend::new()).unwrap();
    out.kernel.data().to_vec()
}

#[test]
fn transient_store_faults_are_retried_through() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("transient-store");
    let chaos = FaultPlan::new(3)
        .inject(sites::GRAM_CKPT_STORE, Fault::Io, Trigger::First(2))
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos: chaos.clone(),
        retry: fast_retry(),
        ..GramConfig::checkpointed(&dir, 3, 0xC0)
    });
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert!(out.report.retries >= 2, "retries = {}", out.report.retries);
    assert_eq!(out.report.faults_injected, 2);
    assert_eq!(out.report.faults_injected, chaos.injected());
    // The transient faults cost retries, not persistence: every tile is
    // on disk, so a fresh run restores all of them.
    let warm = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xC0));
    let again = warm.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(again.report.tiles_restored, again.report.tiles_total);
    assert_eq!(again.kernel.data(), clean.as_slice());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_store_faults_degrade_to_in_memory() {
    let st = states(8, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("degraded-store");
    let chaos = FaultPlan::new(4)
        .inject(sites::GRAM_CKPT_STORE, Fault::Io, Trigger::Always)
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos,
        retry: fast_retry(),
        ..GramConfig::checkpointed(&dir, 3, 0xC1)
    });
    // The job completes (degraded, not failed) and stays bitwise clean.
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.tiles_computed, out.report.tiles_total);
    // Nothing could persist: the log holds its 49-byte manifest only.
    let log = std::fs::metadata(dir.join("gram.qkg")).unwrap().len();
    assert_eq!(log, 49, "degraded run must not have persisted tiles");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_load_faults_quarantine_and_recompute() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("quarantine");
    // Populate the checkpoint with a clean run.
    let first = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xC2));
    first.compute_gram(&st, &CpuBackend::new()).unwrap();
    // Resume with every load erroring: each tile is quarantined and
    // recomputed, and the output still matches.
    let chaos = FaultPlan::new(5)
        .inject(sites::GRAM_CKPT_LOAD, Fault::Io, Trigger::Always)
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos,
        retry: fast_retry(),
        ..GramConfig::checkpointed(&dir, 3, 0xC2)
    });
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.tiles_restored, 0);
    assert_eq!(
        out.report.tiles_quarantined as usize,
        out.report.tiles_total
    );
    assert_eq!(out.report.tiles_computed, out.report.tiles_total);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_load_faults_still_restore() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("transient-load");
    let first = GramEngine::new(GramConfig::checkpointed(&dir, 3, 0xC3));
    first.compute_gram(&st, &CpuBackend::new()).unwrap();
    let chaos = FaultPlan::new(6)
        .inject(sites::GRAM_CKPT_LOAD, Fault::Io, Trigger::First(2))
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos,
        retry: fast_retry(),
        ..GramConfig::checkpointed(&dir, 3, 0xC3)
    });
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.tiles_restored, out.report.tiles_total);
    assert_eq!(out.report.tiles_quarantined, 0);
    assert!(out.report.retries >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_is_supervised_and_bitwise_clean() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let chaos = FaultPlan::new(8)
        .inject(sites::GRAM_TILE, Fault::Panic, Trigger::At(vec![1]))
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos,
        workers: 2,
        ..GramConfig::in_memory(3)
    });
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.workers_restarted, 1);
    assert_eq!(out.report.faults_injected, 1);
    assert_eq!(out.report.tiles_computed, out.report.tiles_total);
}

#[test]
fn unrelenting_tile_panic_fails_after_budget() {
    let st = states(6, 3);
    let chaos = FaultPlan::new(9)
        .inject(sites::GRAM_TILE, Fault::Panic, Trigger::Always)
        .arm();
    let engine = GramEngine::new(GramConfig {
        chaos,
        workers: 1,
        ..GramConfig::in_memory(3)
    });
    match engine.compute_gram(&st, &CpuBackend::new()) {
        Err(GramError::WorkerPanic { .. }) => {}
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(engine.metrics().snapshot().workers_restarted >= 3);
}

#[test]
fn unwritable_checkpoint_dir_degrades_at_open() {
    let st = states(6, 3);
    let clean = clean_kernel(&st);
    // A checkpoint path under a plain file: create_dir_all must fail
    // with an I/O error even for root, and the engine degrades to an
    // un-persisted in-memory run instead of failing the job.
    let blocker = scratch("open-degrade");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let engine = GramEngine::new(GramConfig::checkpointed(blocker.join("ckpt"), 3, 0xC4));
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.kernel.data(), clean.as_slice());
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn fault_schedule_replays_bitwise() {
    // Same plan + seed → identical injection schedule, observable as
    // identical counter outcomes across repeated runs.
    let st = states(8, 3);
    let run = |seed: u64| {
        let dir = scratch("replay");
        let chaos = FaultPlan::new(seed)
            .inject(sites::GRAM_CKPT_STORE, Fault::Io, Trigger::Random(0.5))
            .arm();
        let engine = GramEngine::new(GramConfig {
            chaos: chaos.clone(),
            retry: fast_retry(),
            workers: 1,
            ..GramConfig::checkpointed(&dir, 3, 0xC5)
        });
        let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (
            out.kernel.data().to_vec(),
            chaos.injected(),
            chaos.occurrences_at(sites::GRAM_CKPT_STORE),
        )
    };
    let (k1, injected1, occ1) = run(77);
    let (k2, injected2, occ2) = run(77);
    assert_eq!(k1, k2);
    assert_eq!(injected1, injected2);
    assert_eq!(occ1, occ2);
    assert!(injected1 > 0, "p=0.5 over a full job must inject something");
}

#[test]
fn disarmed_chaos_is_the_default_and_injects_nothing() {
    let cfg = GramConfig::in_memory(4);
    assert_eq!(cfg.chaos, Chaos::disarmed());
    let st = states(6, 3);
    let engine = GramEngine::new(cfg);
    let out = engine.compute_gram(&st, &CpuBackend::new()).unwrap();
    assert_eq!(out.report.faults_injected, 0);
    assert_eq!(out.report.retries, 0);
    assert_eq!(out.report.workers_restarted, 0);
    assert_eq!(out.report.tiles_quarantined, 0);
}
