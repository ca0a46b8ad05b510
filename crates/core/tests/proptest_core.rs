//! Property-based tests of the quantum-kernel framework: Gram-matrix
//! structure on arbitrary data, distribution-strategy equivalence over
//! arbitrary process counts, and cost-model laws over arbitrary scales.

use proptest::prelude::*;
use qk_circuit::AnsatzConfig;
use qk_core::distributed::{distributed_gram, Strategy as DistStrategy};
use qk_core::extrapolate::{forecast_training, PrimitiveCosts};
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_mps::TruncationConfig;
use qk_tensor::backend::CpuBackend;
use std::time::Duration;

/// Feature rows in the rescaled (0, 2) domain the ansatz expects.
fn rows_strategy(max_rows: usize, features: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..2.0, features), 2..=max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The training Gram matrix is symmetric with unit diagonal and
    /// entries in [0, 1] for any data whatsoever.
    #[test]
    fn gram_entries_are_valid_overlaps(rows in rows_strategy(6, 4), d in 1usize..3) {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &rows,
            &AnsatzConfig::new(2, d, 0.7),
            &be,
            &TruncationConfig::default(),
        );
        let k = gram_matrix(&batch.states, &be).kernel;
        let n = rows.len();
        for i in 0..n {
            prop_assert!((k.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..n {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&k.get(i, j)), "K[{i}][{j}] = {}", k.get(i, j));
                prop_assert_eq!(k.get(i, j), k.get(j, i));
            }
        }
    }

    /// Round-robin and no-messaging produce the same kernel as the
    /// single-process reference for any process count.
    #[test]
    fn distribution_strategies_agree(rows in rows_strategy(8, 3), k in 1usize..5) {
        let be = CpuBackend::new();
        let ansatz = AnsatzConfig::new(2, 1, 0.5);
        let trunc = TruncationConfig::default();
        let reference = {
            let batch = simulate_states(&rows, &ansatz, &be, &trunc);
            gram_matrix(&batch.states, &be).kernel
        };
        for strategy in [DistStrategy::RoundRobin, DistStrategy::NoMessaging] {
            let out = distributed_gram(&rows, &ansatz, &be, &trunc, k, strategy).kernel;
            for i in 0..rows.len() {
                for j in 0..rows.len() {
                    prop_assert_eq!(
                        out.get(i, j).to_bits(),
                        reference.get(i, j).to_bits(),
                        "{strategy:?} k={k} [{i}][{j}]"
                    );
                }
            }
        }
    }

    /// Cost-model laws hold at any scale: the round-robin total is
    /// non-increasing in the process count, and the inner-product phase
    /// scales exactly as 1/k.
    #[test]
    fn forecast_total_nonincreasing_in_processes(
        n in 10usize..5_000,
        k in 1usize..64,
        sim_us in 1u64..100_000,
        ip_us in 1u64..10_000,
    ) {
        let costs = PrimitiveCosts {
            simulation: Duration::from_micros(sim_us),
            inner_product: Duration::from_micros(ip_us),
            communication_per_state: Duration::from_nanos(100),
        };
        let a = forecast_training(&costs, n, k, DistStrategy::RoundRobin);
        let b = forecast_training(&costs, n, k + 1, DistStrategy::RoundRobin);
        // Inner products: exact 1/k scaling.
        let expect_ratio = (k + 1) as f64 / k as f64;
        let actual_ratio =
            a.inner_products.as_secs_f64() / b.inner_products.as_secs_f64().max(1e-300);
        prop_assert!((actual_ratio - expect_ratio).abs() < 1e-6, "{actual_ratio} vs {expect_ratio}");
        // Simulation phase never grows with more processes.
        prop_assert!(b.simulation <= a.simulation);
    }

    /// No-messaging never communicates and always simulates at least as
    /// much as round-robin.
    #[test]
    fn no_messaging_redundancy_dominates(
        n in 10usize..2_000,
        k in 2usize..64,
    ) {
        let costs = PrimitiveCosts::paper_qml_ansatz();
        let nm = forecast_training(&costs, n, k, DistStrategy::NoMessaging);
        let rr = forecast_training(&costs, n, k, DistStrategy::RoundRobin);
        prop_assert_eq!(nm.communication, Duration::ZERO);
        prop_assert!(nm.simulation >= rr.simulation);
        prop_assert_eq!(nm.inner_products, rr.inner_products);
    }
}
