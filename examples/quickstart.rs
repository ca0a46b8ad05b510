//! Quickstart: train a quantum-kernel SVM on a small synthetic fraud
//! dataset and print the regularization sweep.
//!
//! Run with: `cargo run --release --example quickstart`

use qk_core::pipeline::{run_quantum_experiment, ExperimentConfig};
use qk_data::{generate, SyntheticConfig};
use qk_tensor::backend::CpuBackend;

fn main() {
    // 1. Data: an elliptic-like synthetic dataset (200 rows, 20 features).
    let data = generate(&SyntheticConfig::small(42));
    println!(
        "dataset: {} samples, {} features ({} illicit / {} licit)",
        data.len(),
        data.num_features(),
        data.num_illicit(),
        data.num_licit()
    );

    // 2. Experiment: 100 balanced samples, 10 features, the paper's QML
    //    ansatz (r = 2 layers, interaction distance d = 1, gamma = 0.1).
    let config = ExperimentConfig::qml(100, 10, 42);
    println!(
        "ansatz: r = {}, d = {}, gamma = {}",
        config.ansatz.layers, config.ansatz.interaction_distance, config.ansatz.gamma
    );

    // 3. Run on the CPU backend: simulate one MPS per data point, build
    //    the Gram matrix from pairwise overlaps, sweep the SVM over C.
    let backend = CpuBackend::new();
    let result = run_quantum_experiment(&data, &config, &backend);

    println!("\n  C      train AUC   test AUC   accuracy  precision  recall");
    for p in &result.sweep.points {
        println!(
            "  {:<6} {:>9.3} {:>10.3} {:>10.3} {:>10.3} {:>7.3}",
            p.c, p.train.auc, p.test.auc, p.test.accuracy, p.test.precision, p.test.recall
        );
    }
    let best = result.sweep.best_by_test_auc();
    println!(
        "\nbest: C = {} with test AUC {:.3} (mean chi = {:.1}, mean MPS memory = {:.1} KiB)",
        best.c,
        best.test.auc,
        result.mean_max_bond,
        result.mean_memory_bytes / 1024.0
    );
    println!(
        "timings: simulation {:?}, train kernel {:?}, test kernel {:?}",
        result.timings.simulation, result.timings.train_kernel, result.timings.test_kernel
    );
}
