//! Property tests pinning the batch and serve paths to the sequential
//! oracle: for arbitrary feature vectors, `predict_batch`,
//! `predict_from_states`, and the full queue/batcher/cache pipeline
//! (cache on and off) must produce *bitwise identical* decision values
//! to `predict_one` called point-by-point.

use proptest::prelude::*;
use qk_circuit::AnsatzConfig;
use qk_core::QuantumKernelModel;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::{Mps, TruncationConfig};
use qk_serve::{KernelServer, ServeConfig};
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;
use std::sync::OnceLock;

const FEATURES: usize = 4;

/// One small trained model, shipped between cases as its byte artifact
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

/// Feature rows in the rescaled (0, 2) domain the ansatz expects.
fn rows_strategy(max_rows: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..2.0, FEATURES), 1..=max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `predict_batch` is the sequential path applied per point.
    #[test]
    fn predict_batch_matches_predict_one(rows in rows_strategy(5)) {
        let be = CpuBackend::new();
        let model = fresh_model();
        let batch = model.predict_batch(&rows, &be);
        prop_assert_eq!(batch.len(), rows.len());
        for (x, b) in rows.iter().zip(&batch) {
            let one = model.predict_one(x, &be);
            prop_assert_eq!(one.decision_value, b.decision_value);
            prop_assert_eq!(one.label, b.label);
        }
    }

    /// The block-based batch API over pre-simulated states is bitwise
    /// identical to the fused path, duplicates included.
    #[test]
    fn predict_from_states_matches_predict_one(rows in rows_strategy(4)) {
        let be = CpuBackend::new();
        let model = fresh_model();
        // Duplicate every row so shared states are exercised.
        let mut doubled = rows.clone();
        doubled.extend(rows.iter().cloned());
        let states: Vec<Mps> = doubled.iter().map(|x| model.encode(x, &be)).collect();
        let refs: Vec<&Mps> = states.iter().collect();
        let batch = model.predict_from_states(&refs, &be);
        for (x, b) in doubled.iter().zip(&batch) {
            prop_assert_eq!(model.predict_one(x, &be).decision_value, b.decision_value);
        }
    }

    /// The served pipeline — queue, micro-batching, dedup, cache on or
    /// off — answers with the sequential oracle's exact decision values.
    #[test]
    fn serve_path_matches_predict_one(rows in rows_strategy(4), cache_on in any::<bool>()) {
        let be = CpuBackend::new();
        let model = fresh_model();
        let oracle: Vec<f64> = rows
            .iter()
            .map(|x| model.predict_one(x, &be).decision_value)
            .collect();

        let server = KernelServer::start(model, &ServeConfig {
            workers: 2,
            max_batch: 4,
            cache_capacity: if cache_on { 1024 } else { 0 },
            ..ServeConfig::default()
        });
        let handle = server.handle();
        // Each row three times, interleaved: duplicates coalesce within
        // and across batches.
        let indices: Vec<usize> = (0..3 * rows.len()).map(|r| r % rows.len()).collect();
        let pending: Vec<_> = indices
            .iter()
            .map(|&i| handle.submit(rows[i].clone()).expect("accepted"))
            .collect();
        for (&i, p) in indices.iter().zip(pending) {
            let served = p.wait().expect("answered");
            prop_assert_eq!(
                served.prediction.decision_value,
                oracle[i],
                "row {} diverged (cache_on = {})", i, cache_on
            );
        }
        let snapshot = server.shutdown();
        prop_assert_eq!(snapshot.completed, 3 * rows.len() as u64);
        if !cache_on {
            prop_assert_eq!(snapshot.cache.entries, 0);
            prop_assert_eq!(snapshot.cache.hits, 0);
        }
    }
}
