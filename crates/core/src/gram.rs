//! Gram-matrix assembly from simulated states (eq. 1).
//!
//! The symmetric training Gram matrix needs `N(N-1)/2` inner products
//! (diagonal entries are exactly 1 for normalized states); the inference
//! block needs `N_test * N_train`.
//!
//! Both entry points are the in-memory entry into `qk-gram`'s tiled
//! engine, at every problem size: they choose the in-memory tile edge and
//! absorb the engine's "in-memory cannot fail" contract, so callers make
//! neither decision. Engine output is bitwise independent of tile size
//! and worker count.

use qk_gram::{GramConfig, GramEngine};
use qk_mps::Mps;
use qk_svm::{KernelBlock, KernelMatrix};
use qk_tensor::backend::ExecutionBackend;
use std::time::Duration;

/// Tile edge for the in-memory engine run. Tile interiors are serial, so
/// the edge shrinks with the problem until the plan yields several tiles
/// per available worker, and is floored to amortize scheduling and
/// capped to bound per-tile memory.
fn delegated_tile(extent: usize) -> usize {
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    extent.div_ceil(2 * workers).clamp(16, 128)
}

/// A Gram matrix plus the wall time spent computing it.
pub struct TimedKernel {
    /// The kernel matrix.
    pub kernel: KernelMatrix,
    /// Wall-clock time of the engine run.
    pub wall_time: Duration,
    /// Number of inner products evaluated, from the engine's tile plan.
    pub inner_products: usize,
}

/// Computes the symmetric training kernel `K_ij = |<psi_i|psi_j>|^2`.
///
/// Exploits symmetry: only the strict upper triangle is contracted.
pub fn gram_matrix(states: &[Mps], backend: &dyn ExecutionBackend) -> TimedKernel {
    let out = GramEngine::new(GramConfig::in_memory(delegated_tile(states.len())))
        .compute_gram(states, backend)
        .expect("in-memory tiled gram cannot fail: no checkpoint, no spill, no budget");
    TimedKernel {
        kernel: out.kernel.into_kernel_matrix(),
        wall_time: out.report.wall_time,
        inner_products: out.report.inner_products,
    }
}

/// A rectangular kernel block plus timing.
pub struct TimedBlock {
    /// Rows = test states, columns = train states.
    pub block: KernelBlock,
    /// Wall-clock time of the engine run.
    pub wall_time: Duration,
    /// Number of inner products evaluated.
    pub inner_products: usize,
}

/// Computes the inference kernel block `K[t][s] = |<psi_test_t|psi_train_s>|^2`.
pub fn kernel_block(
    test_states: &[Mps],
    train_states: &[Mps],
    backend: &dyn ExecutionBackend,
) -> TimedBlock {
    let tile = delegated_tile(test_states.len().max(train_states.len()));
    let out = GramEngine::new(GramConfig::in_memory(tile))
        .compute_block(test_states, train_states, backend)
        .expect("in-memory tiled block cannot fail: no checkpoint, no spill, no budget");
    TimedBlock {
        block: out.block,
        wall_time: out.report.wall_time,
        inner_products: out.report.inner_products,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::simulate_states;
    use qk_circuit::AnsatzConfig;
    use qk_mps::TruncationConfig;
    use qk_tensor::backend::CpuBackend;

    fn states(n: usize, m: usize) -> Vec<Mps> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..m).map(|j| ((i * m + j) % 9) as f64 * 0.22).collect())
            .collect();
        let be = CpuBackend::new();
        simulate_states(
            &rows,
            &AnsatzConfig::new(2, 1, 0.7),
            &be,
            &TruncationConfig::default(),
        )
        .states
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal() {
        let st = states(5, 4);
        let be = CpuBackend::new();
        let timed = gram_matrix(&st, &be);
        let k = &timed.kernel;
        assert_eq!(k.len(), 5);
        assert_eq!(timed.inner_products, 10);
        for i in 0..5 {
            assert!((k.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..5 {
                assert!((0.0..=1.0 + 1e-9).contains(&k.get(i, j)));
                assert_eq!(k.get(i, j), k.get(j, i));
            }
        }
    }

    #[test]
    fn gram_matches_pairwise_inner() {
        let st = states(4, 3);
        let be = CpuBackend::new();
        let k = gram_matrix(&st, &be).kernel;
        for i in 0..4 {
            for j in 0..4 {
                let direct = st[i].overlap_sqr(&st[j]);
                assert!((k.get(i, j) - direct).abs() < 1e-10, "[{i}][{j}]");
            }
        }
    }

    #[test]
    fn single_state_gram_is_trivial() {
        let st = states(1, 4);
        let be = CpuBackend::new();
        let timed = gram_matrix(&st, &be);
        assert_eq!(timed.kernel.len(), 1);
        assert_eq!(timed.inner_products, 0);
        assert!((timed.kernel.get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_gram_is_empty() {
        let be = CpuBackend::new();
        let timed = gram_matrix(&[], &be);
        assert_eq!(timed.kernel.len(), 0);
        assert_eq!(timed.inner_products, 0);
    }

    #[test]
    fn identical_rows_give_unit_entries() {
        // Two copies of the same data point must overlap to exactly 1.
        let row = vec![0.3, 1.1, 0.6, 1.7];
        let be = CpuBackend::new();
        let batch = simulate_states(
            &[row.clone(), row],
            &AnsatzConfig::new(2, 2, 0.9),
            &be,
            &TruncationConfig::default(),
        );
        let k = gram_matrix(&batch.states, &be).kernel;
        assert!((k.get(0, 1) - 1.0).abs() < 1e-9, "K01 = {}", k.get(0, 1));
    }

    #[test]
    fn delegated_tile_yields_parallel_work() {
        // The engine must never collapse a moderate problem into one
        // serial tile on a multi-core host: with more than one worker
        // available, every size from 64 states up plans several tiles.
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1);
        for n in [64, 100, 240, 1_000, 64_000] {
            let tile = delegated_tile(n);
            assert!((16..=128).contains(&tile), "n={n} tile={tile}");
            let bands = n.div_ceil(tile);
            if workers > 1 {
                assert!(bands >= 2, "n={n} tile={tile} is one serial tile");
            }
        }
    }

    #[test]
    fn delegated_gram_matches_fast_path_bitwise() {
        // The engine's output must be bitwise identical to a single-pass
        // per-pair loop over the same states, on one tile and on many.
        let be = CpuBackend::new();
        for n in [7usize, 64] {
            let st = states(n, 3);
            let timed = gram_matrix(&st, &be);
            assert_eq!(timed.inner_products, n * (n - 1) / 2);
            let mut reference = vec![0.0f64; n * n];
            for i in 0..n {
                reference[i * n + i] = 1.0;
                for j in (i + 1)..n {
                    let v = st[i].inner_with(&be, &st[j]).norm_sqr();
                    reference[i * n + j] = v;
                    reference[j * n + i] = v;
                }
            }
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(timed.kernel.data()), bits(&reference), "n={n}");
        }
    }

    #[test]
    fn empty_test_block_is_empty() {
        let train = states(3, 3);
        let be = CpuBackend::new();
        let timed = kernel_block(&[], &train, &be);
        assert_eq!(timed.block.rows(), 0);
        assert_eq!(timed.inner_products, 0);
    }

    #[test]
    fn block_matches_direct() {
        let train = states(4, 3);
        let test = states(2, 3);
        let be = CpuBackend::new();
        let timed = kernel_block(&test, &train, &be);
        assert_eq!(timed.block.rows(), 2);
        assert_eq!(timed.block.cols(), 4);
        assert_eq!(timed.inner_products, 8);
        for (t, test_state) in test.iter().enumerate() {
            for (s, train_state) in train.iter().enumerate() {
                let direct = test_state.overlap_sqr(train_state);
                assert!((timed.block.row(t)[s] - direct).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn delegated_block_matches_fast_path_bitwise() {
        // Against a per-pair loop, on one tile (5 x 3) and on many
        // (64 x 64).
        let be = CpuBackend::new();
        for (rows, cols) in [(5usize, 3usize), (64, 64)] {
            let train = states(cols, 3);
            let test = states(rows, 3);
            let timed = kernel_block(&test, &train, &be);
            assert_eq!(timed.inner_products, rows * cols);
            for (t, test_state) in test.iter().enumerate() {
                for (s, train_state) in train.iter().enumerate() {
                    let direct = test_state.inner_with(&be, train_state).norm_sqr();
                    assert_eq!(
                        timed.block.row(t)[s].to_bits(),
                        direct.to_bits(),
                        "{rows}x{cols} [{t}][{s}]"
                    );
                }
            }
        }
    }
}
