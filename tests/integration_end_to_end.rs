//! End-to-end ground truth: the full quantum-kernel pipeline over MPS must
//! reproduce the same Gram matrix as an exact statevector simulation.

use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_circuit::route_for_mps;
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_statevector::StateVector;
use qk_tensor::backend::CpuBackend;

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
