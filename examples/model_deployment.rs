//! Model deployment walkthrough: train a quantum-kernel SVM once, ship
//! it as a byte artifact, reload it in a "serving" context, classify new
//! transactions one at a time with the paper's inference-cost breakdown,
//! and forecast what the same deployment costs at production scale.
//!
//! This exercises the paper's section III-A story: after the Gram matrix
//! is built, classification of a single unlabeled point = one MPS
//! simulation + one inner product per stored training state + an SVM
//! decision — and those per-primitive costs are all you need to size a
//! cluster for a 64,000-point production training run.
//!
//! Run with: `cargo run --release --example model_deployment`

use qk_circuit::AnsatzConfig;
use qk_core::extrapolate::{forecast_inference, forecast_training, PrimitiveCosts};
use qk_core::inference::QuantumKernelModel;
use qk_core::Strategy;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_svm::SmoParams;
use qk_tensor::backend::CpuBackend;

fn main() {
    let backend = CpuBackend::new();

    // 1. Train: 240 balanced samples, 10 features, the paper's QML
    //    ansatz shape (r = 2, d = 1) at gamma = 0.5.
    let data = generate(&SyntheticConfig {
        noise: 1.0,
        num_features: 16,
        num_illicit: 200,
        num_licit: 400,
        ..SyntheticConfig::small(42)
    });
    let split = prepare_experiment(&data, 240, 10, 42);
    let ansatz = AnsatzConfig::new(2, 1, 0.5);
    let mut model = QuantumKernelModel::fit(
        &split.train.features,
        &split.train.label_signs(),
        &ansatz,
        &TruncationConfig::default(),
        &SmoParams::with_c(1.0),
        &backend,
    );
    println!(
        "trained on {} states ({} features each), retaining {:.1} KiB of MPS",
        model.num_train_states(),
        model.num_features(),
        model.retained_state_bytes() as f64 / 1024.0
    );

    // 2. Calibrate probabilities on the held-out split, then ship the
    //    model as bytes — the artifact a serving fleet would load.
    model.calibrate(&split.test.features, &split.test.label_signs(), &backend);
    let artifact = model.to_bytes();
    println!(
        "serialized model artifact: {:.1} KiB",
        artifact.len() as f64 / 1024.0
    );
    let served = QuantumKernelModel::from_bytes(&artifact);

    // 3. Serve: classify the first few test transactions one at a time,
    //    with the paper's simulation / inner-product cost split.
    println!(
        "\n{:>4} {:>9} {:>12} {:>12} {:>12}",
        "idx", "label", "p(illicit)", "sim", "inner prod"
    );
    let mut correct = 0usize;
    let labels = split.test.label_signs();
    for (i, x) in split.test.features.iter().enumerate() {
        let p = served.predict_one(x, &backend);
        if p.label == labels[i] {
            correct += 1;
        }
        if i < 8 {
            println!(
                "{:>4} {:>9} {:>12.3} {:>12.3?} {:>12.3?}",
                i,
                if p.label > 0.0 { "illicit" } else { "licit" },
                p.probability.unwrap_or(f64::NAN),
                p.timing.simulation,
                p.timing.inner_products
            );
        }
    }
    println!(
        "\nserving accuracy on {} held-out transactions: {:.1}%",
        labels.len(),
        100.0 * correct as f64 / labels.len() as f64
    );

    // 4. Forecast production scale from measured primitive costs. The
    //    paper's arithmetic: at 64,000 training points, inner products
    //    dominate (quadratic), and doubling GPUs halves the wall clock.
    let costs = PrimitiveCosts::measure(
        &split.train.features[..8],
        &ansatz,
        &TruncationConfig::default(),
        &backend,
    );
    println!(
        "\nmeasured primitives: simulation {:?}, inner product {:?}",
        costs.simulation, costs.inner_product
    );
    println!(
        "\n{:>10} {:>7} | {:>12} {:>14} {:>12}",
        "N", "procs", "simulation", "inner products", "total"
    );
    for (n, k) in [(6_400usize, 32usize), (64_000, 320), (64_000, 640)] {
        let f = forecast_training(&costs, n, k, Strategy::RoundRobin);
        println!(
            "{:>10} {:>7} | {:>12.1?} {:>14.1?} {:>12.1?}",
            n,
            k,
            f.simulation,
            f.inner_products,
            f.total()
        );
    }
    let inf = forecast_inference(&costs, 64_000, 320);
    println!(
        "\nsingle-point inference at N = 64,000 on 320 processes: \
         {:.2?} simulation + {:.2?} inner products",
        inf.simulation, inf.inner_products
    );
}
