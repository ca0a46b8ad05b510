//! Expressivity vs model quality (the paper's Tables II and III, scaled).
//!
//! Sweeps the feature-map hyperparameters that control expressivity —
//! interaction distance `d`, bandwidth `gamma`, and circuit depth `r` —
//! and reports classification metrics plus the kernel-concentration
//! diagnostic (off-diagonal mean of the Gram matrix).
//!
//! Run with: `cargo run --release --example expressivity_study`

use qk_circuit::AnsatzConfig;
use qk_core::gram::gram_matrix;
use qk_core::pipeline::{run_quantum_on_split, ExperimentConfig};
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_tensor::backend::CpuBackend;

fn main() {
    let data = generate(&SyntheticConfig {
        num_features: 16,
        num_illicit: 300,
        num_licit: 700,
        ..SyntheticConfig::elliptic_like(3)
    });
    let split = prepare_experiment(&data, 160, 12, 3);
    let backend = CpuBackend::new();

    println!("part 1: interaction distance x bandwidth (paper Table II shape)");
    println!("\n  d   gamma   test AUC   recall   precision  accuracy");
    for &gamma in &[0.1, 0.5, 1.0] {
        for &d in &[1usize, 2, 4] {
            let config = ExperimentConfig {
                ansatz: AnsatzConfig::new(2, d, gamma),
                ..ExperimentConfig::qml(160, 12, 3)
            };
            let result = run_quantum_on_split(&split, &config, &backend);
            let best = result.sweep.best_by_test_auc();
            println!(
                " {:>2} {:>7} {:>10.3} {:>8.3} {:>10.3} {:>9.3}",
                d, gamma, best.test.auc, best.test.recall, best.test.precision, best.test.accuracy
            );
        }
    }

    println!("\npart 2: circuit depth and kernel concentration (paper Table III shape)");
    println!("\n  r    test AUC   off-diag kernel mean");
    for &r in &[2usize, 4, 8, 12] {
        let config = ExperimentConfig {
            ansatz: AnsatzConfig::new(r, 1, 1.0),
            ..ExperimentConfig::qml(160, 12, 3)
        };
        let result = run_quantum_on_split(&split, &config, &backend);
        // Concentration diagnostic: off-diagonal mean of the train kernel.
        let batch = simulate_states(
            &split.train.features,
            &config.ansatz,
            &backend,
            &TruncationConfig::default(),
        );
        let kernel = gram_matrix(&batch.states, &backend).kernel;
        println!(
            " {:>2} {:>10.3} {:>18.4}",
            r,
            result.best_test_auc(),
            kernel.off_diagonal_mean()
        );
    }
    println!("\nexpected shape (paper Table III): deeper circuits concentrate the");
    println!("kernel (off-diagonal mean -> 0) and test AUC degrades.");
}
