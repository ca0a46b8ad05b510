//! End-to-end acceptance of the tiled Gram engine: a job interrupted
//! mid-run resumes from its checkpoint directory to a bitwise-identical
//! matrix, `qk-svm` trains from the `TiledKernel` view without a dense
//! copy, and the spill path changes nothing but peak memory.

use qk::circuit::AnsatzConfig;
use qk::core::{gram_matrix, kernel_block, simulate_states};
use qk::gram::{encoding_fingerprint, CheckpointError, GramConfig, GramEngine, GramError};
use qk::mps::{Mps, TruncationConfig};
use qk::svm::{train_svc, KernelMatrix, KernelSource, SmoParams};
use qk::tensor::backend::CpuBackend;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-pair reference Gram: one `inner_with` per upper-triangle pair,
/// mirrored, with a unit diagonal.
fn reference_gram(states: &[Mps], be: &CpuBackend) -> Vec<f64> {
    let n = states.len();
    let mut data = vec![0.0f64; n * n];
    for i in 0..n {
        data[i * n + i] = 1.0;
        for j in (i + 1)..n {
            let v = states[i].inner_with(be, &states[j]).norm_sqr();
            data[i * n + j] = v;
            data[j * n + i] = v;
        }
    }
    data
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-integration-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn pipeline_states(n: usize, features: usize) -> (Vec<Mps>, u64) {
    let ansatz = AnsatzConfig::qml_default();
    let trunc = TruncationConfig::default();
    let be = CpuBackend::new();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..features)
                .map(|j| ((i * features + j) % 11) as f64 * 0.18)
                .collect()
        })
        .collect();
    let states = simulate_states(&rows, &ansatz, &be, &trunc).states;
    (states, encoding_fingerprint(&ansatz, &trunc))
}

/// The acceptance criterion end to end: interrupt a checkpointed job,
/// resume it in a fresh engine, and compare bitwise against both an
/// uninterrupted engine run and a per-pair reference loop.
#[test]
fn interrupted_job_resumes_bitwise_identical() {
    let (states, encoding) = pipeline_states(20, 5);
    let be = CpuBackend::new();
    let dir = scratch("resume");

    let clean = GramEngine::new(GramConfig::in_memory(4))
        .compute_gram(&states, &be)
        .expect("clean run");

    // Interrupt after 7 of the 15 tiles (a deterministic preemption).
    let mut cfg = GramConfig::checkpointed(&dir, 4, encoding);
    cfg.max_tiles = Some(7);
    match GramEngine::new(cfg).compute_gram(&states, &be) {
        Err(GramError::Interrupted { done, total }) => {
            assert_eq!(done, 7);
            assert_eq!(total, 15);
        }
        other => panic!("expected interruption, got {other:?}"),
    }

    // A fresh engine (fresh process, in CI's SIGKILL variant) resumes.
    let resumed = GramEngine::new(GramConfig::checkpointed(&dir, 4, encoding))
        .compute_gram(&states, &be)
        .expect("resumed run");
    assert_eq!(resumed.report.tiles_restored, 7);
    assert_eq!(resumed.report.tiles_computed, 8);
    assert_eq!(resumed.kernel.data(), clean.kernel.data());

    // And both agree bitwise with the per-pair reference, as does the
    // core::gram entry point.
    let reference = bits(&reference_gram(&states, &be));
    assert_eq!(bits(clean.kernel.data()), reference);
    let core_path = gram_matrix(&states, &be);
    assert_eq!(bits(core_path.kernel.data()), reference);
    assert_eq!(core_path.inner_products, clean.report.inner_products);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint directory written under a different encoding is
/// rejected, not silently reused.
#[test]
fn foreign_checkpoint_is_rejected() {
    let (states, encoding) = pipeline_states(8, 4);
    let be = CpuBackend::new();
    let dir = scratch("foreign");
    GramEngine::new(GramConfig::checkpointed(&dir, 4, encoding))
        .compute_gram(&states, &be)
        .expect("first job");
    // A lossier truncation is a different encoding fingerprint.
    let other = encoding_fingerprint(
        &AnsatzConfig::qml_default(),
        &TruncationConfig::with_cutoff(1e-8),
    );
    assert_ne!(other, encoding);
    let err = GramEngine::new(GramConfig::checkpointed(&dir, 4, other))
        .compute_gram(&states, &be)
        .expect_err("foreign checkpoint accepted");
    assert!(matches!(
        err,
        GramError::Checkpoint(CheckpointError::Mismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// SVM training consumes the `TiledKernel` view directly (no dense
/// copy) and produces the same model as a dense matrix built by a
/// per-pair reference loop.
#[test]
fn svm_trains_from_tiled_view() {
    let (states, _) = pipeline_states(12, 4);
    let be = CpuBackend::new();
    let labels: Vec<f64> = (0..12)
        .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
        .collect();

    let tiled = GramEngine::new(GramConfig::in_memory(5))
        .compute_gram(&states, &be)
        .unwrap()
        .kernel;
    let dense = KernelMatrix::from_dense(12, reference_gram(&states, &be));
    assert_eq!(bits(tiled.data()), bits(dense.data()));

    let params = SmoParams::with_c(2.0);
    let from_view = train_svc(&tiled, &labels, &params);
    let from_dense = train_svc(&dense, &labels, &params);
    assert_eq!(from_view.alphas, from_dense.alphas);
    assert_eq!(from_view.bias, from_dense.bias);
    // The view serves rows without copying: decision values match too.
    for i in 0..12 {
        assert_eq!(
            from_view.decision_value(KernelSource::row(&tiled, i)),
            from_dense.decision_value(dense.row(i)),
        );
    }
}

/// Spilling the encoded states to disk changes nothing in the output.
#[test]
fn spilled_job_is_bitwise_identical() {
    let (states, _) = pipeline_states(14, 4);
    let be = CpuBackend::new();
    let resident = GramEngine::new(GramConfig::in_memory(4))
        .compute_gram(&states, &be)
        .unwrap();
    let mut cfg = GramConfig::in_memory(4);
    cfg.memory_budget = Some(1); // force the spill path
    cfg.workers = 2;
    let spilled = GramEngine::new(cfg)
        .compute_gram_owned(states, &be)
        .unwrap();
    assert!(spilled.report.spilled);
    assert_eq!(spilled.kernel.data(), resident.kernel.data());
}

/// The engine's rectangular block path, at a small tile and through
/// `core::kernel_block`, agrees bitwise with a per-pair reference loop
/// for the inference direction.
#[test]
fn block_path_matches_core() {
    let (train, _) = pipeline_states(9, 4);
    let (test, _) = pipeline_states(5, 4);
    let be = CpuBackend::new();
    let engine_block = GramEngine::new(GramConfig::in_memory(3))
        .compute_block(&test, &train, &be)
        .unwrap();
    let core_block = kernel_block(&test, &train, &be);
    assert_eq!(
        engine_block.report.inner_products,
        core_block.inner_products
    );
    for (i, t) in test.iter().enumerate() {
        let reference: Vec<f64> = train
            .iter()
            .map(|s| t.inner_with(&be, s).norm_sqr())
            .collect();
        assert_eq!(bits(engine_block.block.row(i)), bits(&reference));
        assert_eq!(bits(core_block.block.row(i)), bits(&reference));
    }
}
