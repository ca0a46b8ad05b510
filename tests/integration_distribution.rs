//! Cross-crate integration: distributed Gram strategies against the
//! single-process reference, end to end through the SVM.

use qk_circuit::AnsatzConfig;
use qk_core::distributed::{distributed_gram, Strategy};
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_svm::{roc_auc, train_svc, SmoParams};
use qk_tensor::backend::CpuBackend;

fn prepared_rows(n: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let data = generate(&SyntheticConfig::small(seed));
    let split = prepare_experiment(&data, n, k, seed);
    (split.train.features.clone(), split.train.label_signs())
}

#[test]
fn strategies_agree_with_reference_and_each_other() {
    let (rows, _) = prepared_rows(30, 6, 31);
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::qml_default();
    let tc = TruncationConfig::default();

    let reference = gram_matrix(&simulate_states(&rows, &ansatz, &be, &tc).states, &be).kernel;
    for k in [2usize, 3, 5] {
        for strategy in [Strategy::NoMessaging, Strategy::RoundRobin] {
            let result = distributed_gram(&rows, &ansatz, &be, &tc, k, strategy);
            for i in 0..reference.len() {
                for j in 0..reference.len() {
                    assert_eq!(
                        result.kernel.get(i, j).to_bits(),
                        reference.get(i, j).to_bits(),
                        "{strategy:?} k={k} [{i}][{j}]"
                    );
                }
            }
        }
    }
}

#[test]
fn distributed_kernel_trains_identical_svm() {
    let (rows, labels) = prepared_rows(24, 5, 32);
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::qml_default();
    let tc = TruncationConfig::default();

    let reference = gram_matrix(&simulate_states(&rows, &ansatz, &be, &tc).states, &be).kernel;
    let distributed = distributed_gram(&rows, &ansatz, &be, &tc, 4, Strategy::RoundRobin).kernel;

    let params = SmoParams::with_c(1.0);
    let model_a = train_svc(&reference, &labels, &params);
    let model_b = train_svc(&distributed, &labels, &params);
    let scores_a: Vec<f64> = (0..reference.len())
        .map(|i| model_a.decision_value(reference.row(i)))
        .collect();
    let scores_b: Vec<f64> = (0..distributed.len())
        .map(|i| model_b.decision_value(distributed.row(i)))
        .collect();
    let auc_a = roc_auc(&scores_a, &labels);
    let auc_b = roc_auc(&scores_b, &labels);
    assert!(
        (auc_a - auc_b).abs() < 1e-9,
        "training AUC diverged: {auc_a} vs {auc_b}"
    );
}

#[test]
fn round_robin_communicates_less_simulation_than_no_messaging() {
    // The paper's motivation for round-robin: no redundant simulation.
    let (rows, _) = prepared_rows(24, 5, 33);
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::qml_default();
    let tc = TruncationConfig::default();
    let k = 6;
    let rr = distributed_gram(&rows, &ansatz, &be, &tc, k, Strategy::RoundRobin);
    let nm = distributed_gram(&rows, &ansatz, &be, &tc, k, Strategy::NoMessaging);
    assert_eq!(rr.simulations_run, rows.len());
    assert!(nm.simulations_run > rows.len());
    assert!(rr.bytes_communicated > 0);
    assert_eq!(nm.bytes_communicated, 0);
}

#[test]
fn scaling_processes_preserves_results() {
    // The same kernel regardless of the number of simulated processes.
    let (rows, _) = prepared_rows(20, 4, 34);
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::qml_default();
    let tc = TruncationConfig::default();
    let k2 = distributed_gram(&rows, &ansatz, &be, &tc, 2, Strategy::RoundRobin).kernel;
    let k8 = distributed_gram(&rows, &ansatz, &be, &tc, 8, Strategy::RoundRobin).kernel;
    for i in 0..k2.len() {
        for j in 0..k2.len() {
            assert!((k2.get(i, j) - k8.get(i, j)).abs() < 1e-9);
        }
    }
}
