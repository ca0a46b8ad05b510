//! End-to-end ground truth: the full quantum-kernel pipeline over MPS must
//! reproduce the same Gram matrix as an exact statevector simulation, and
//! the backends must agree with each other.

use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::route_for_mps;
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_statevector::StateVector;
use qk_tensor::backend::{AcceleratorBackend, CpuBackend, DeviceModel};

#[test]
fn pipeline_gram_matches_statevector_gram() {
    let data = generate(&SyntheticConfig::small(41));
    let split = prepare_experiment(&data, 16, 6, 41);
    let rows = &split.train.features;
    let ansatz = AnsatzConfig::new(2, 2, 0.8);
    let be = CpuBackend::new();

    let mps_kernel = gram_matrix(
        &simulate_states(rows, &ansatz, &be, &TruncationConfig::default()).states,
        &be,
    )
    .kernel;

    let sv_states: Vec<StateVector> = rows
        .iter()
        .map(|x| StateVector::simulate(&route_for_mps(&feature_map_circuit(x, &ansatz))))
        .collect();
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let exact = sv_states[i].overlap_sqr(&sv_states[j]);
            assert!(
                (mps_kernel.get(i, j) - exact).abs() < 1e-9,
                "K[{i}][{j}]: mps {} vs exact {exact}",
                mps_kernel.get(i, j)
            );
        }
    }
}

#[test]
fn accelerator_pipeline_matches_cpu_pipeline() {
    let data = generate(&SyntheticConfig::small(42));
    let split = prepare_experiment(&data, 14, 5, 42);
    let rows = &split.train.features;
    let ansatz = AnsatzConfig::new(2, 2, 1.0);
    let tc = TruncationConfig::default();

    let cpu = CpuBackend::new();
    let acc = AcceleratorBackend::new(DeviceModel::ideal());
    let k_cpu = gram_matrix(&simulate_states(rows, &ansatz, &cpu, &tc).states, &cpu).kernel;
    let k_acc = gram_matrix(&simulate_states(rows, &ansatz, &acc, &tc).states, &acc).kernel;
    assert_eq!(bits(k_cpu.data()), bits(k_acc.data()), "backend divergence");
}

fn bits(k: &[f64]) -> Vec<u64> {
    k.iter().map(|x| x.to_bits()).collect()
}

/// `encoding_fingerprint` keys Gram checkpoints on the encoding alone, not
/// on the backend, so a checkpoint written over CPU-simulated states may be
/// resumed over accelerator-simulated ones. That is sound only while the
/// two backends simulate byte-equal states from equal rows, and so
/// compute byte-equal Grams: at every interaction distance, since d = 1
/// compresses its exact RXX splits and d > 1 truncates per routed op.
#[test]
fn backends_simulate_byte_equal_states_and_grams() {
    let data = generate(&SyntheticConfig::small(44));
    let split = prepare_experiment(&data, 10, 8, 44);
    let rows = &split.train.features;
    let tc = TruncationConfig::default();
    let cpu = CpuBackend::new();
    let acc = AcceleratorBackend::new(DeviceModel::ideal());
    for d in 1..=3 {
        let ansatz = AnsatzConfig::new(2, d, 0.8);
        let s_cpu = simulate_states(rows, &ansatz, &cpu, &tc).states;
        let s_acc = simulate_states(rows, &ansatz, &acc, &tc).states;
        for (i, (x, y)) in s_cpu.iter().zip(&s_acc).enumerate() {
            assert_eq!(x.to_bytes(), y.to_bytes(), "d={d}: state {i} differs");
        }
        assert_eq!(
            bits(gram_matrix(&s_cpu, &cpu).kernel.data()),
            bits(gram_matrix(&s_acc, &acc).kernel.data()),
            "d={d}: Gram differs"
        );
    }
}

#[test]
fn gamma_controls_kernel_bandwidth() {
    // Small gamma -> overlaps near 1 (underexpressive); large gamma ->
    // smaller overlaps. This is the bandwidth mechanism behind Table II.
    let data = generate(&SyntheticConfig::small(43));
    let split = prepare_experiment(&data, 12, 6, 43);
    let rows = &split.train.features;
    let be = CpuBackend::new();
    let tc = TruncationConfig::default();

    let k_small = gram_matrix(
        &simulate_states(rows, &AnsatzConfig::new(2, 1, 0.05), &be, &tc).states,
        &be,
    )
    .kernel;
    let k_large = gram_matrix(
        &simulate_states(rows, &AnsatzConfig::new(2, 1, 1.0), &be, &tc).states,
        &be,
    )
    .kernel;
    assert!(
        k_small.off_diagonal_mean() > k_large.off_diagonal_mean(),
        "bandwidth ordering violated: {} vs {}",
        k_small.off_diagonal_mean(),
        k_large.off_diagonal_mean()
    );
    assert!(
        k_small.off_diagonal_mean() > 0.9,
        "gamma=0.05 should be near-flat"
    );
}

#[test]
fn interaction_distance_increases_entanglement() {
    // Larger d -> more generators -> more entanglement (bond dimension),
    // the resource-cost mechanism of Fig. 5 / Table I.
    let data = generate(&SyntheticConfig::small(44));
    let split = prepare_experiment(&data, 10, 8, 44);
    let rows = &split.train.features;
    let be = CpuBackend::new();
    let tc = TruncationConfig::default();
    let chi_d1 = simulate_states(rows, &AnsatzConfig::new(2, 1, 1.0), &be, &tc)
        .states
        .iter()
        .map(|s| s.max_bond())
        .max()
        .unwrap();
    let chi_d4 = simulate_states(rows, &AnsatzConfig::new(2, 4, 1.0), &be, &tc)
        .states
        .iter()
        .map(|s| s.max_bond())
        .max()
        .unwrap();
    assert!(
        chi_d4 > chi_d1,
        "chi at d=4 ({chi_d4}) should exceed chi at d=1 ({chi_d1})"
    );
}
