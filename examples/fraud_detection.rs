//! Fraud detection at growing feature counts: the scenario behind the
//! paper's Figs. 9-10, scaled to a laptop.
//!
//! Compares the quantum kernel against the Gaussian baseline while the
//! number of features (= qubits) grows, on the synthetic elliptic-like
//! dataset.
//!
//! Run with: `cargo run --release --example fraud_detection`

use qk_core::pipeline::{run_gaussian_experiment, run_quantum_experiment, ExperimentConfig};
use qk_data::{generate, SyntheticConfig};
use qk_svm::default_c_grid;
use qk_tensor::backend::CpuBackend;

fn main() {
    // A mid-size slice of the elliptic-like distribution.
    let data = generate(&SyntheticConfig {
        num_features: 48,
        num_illicit: 400,
        num_licit: 900,
        ..SyntheticConfig::elliptic_like(7)
    });
    let samples = 240;
    let feature_counts = [6usize, 12, 24, 48];
    let backend = CpuBackend::new();

    println!(
        "fraud detection, {} balanced samples (80/20 split)",
        samples
    );
    println!("\n features   quantum AUC   gaussian AUC   quantum train AUC");
    for &k in &feature_counts {
        let config = ExperimentConfig::qml(samples, k, 7);
        let quantum = run_quantum_experiment(&data, &config, &backend);
        let gaussian = run_gaussian_experiment(&data, samples, k, 7, &default_c_grid(), 1e-3);
        println!(
            " {:>8} {:>13.3} {:>14.3} {:>19.3}",
            k,
            quantum.best_test_auc(),
            gaussian.best_test_auc(),
            quantum.best_train_auc(),
        );
    }
    println!("\nexpected shape (paper Figs. 9-10): test AUC improves as features grow.");
}
