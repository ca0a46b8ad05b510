//! Row-recompute hook for the crash-safe SVM trainer.
//!
//! [`RecomputingRows`] adapts an assembled [`TiledKernel`] (plus the
//! simulated MPS states it was built from) to `qk_svm`'s `RowSource`:
//! the fast path serves rows straight out of the assembled buffer,
//! while the degraded path re-derives a row entry by entry through the
//! same zipper contraction the engine used to build the kernel in the
//! first place — global `i < j` operand order, unit diagonal — so a
//! recomputed row is bitwise identical to the stored one. This is the
//! trainer-side analogue of the engine's quarantine-and-recompute
//! recovery for corrupt tiles.

use crate::view::TiledKernel;
use qk_mps::Mps;
use qk_svm::RowSource;
use qk_tensor::backend::ExecutionBackend;
use std::io;

/// A [`TiledKernel`] paired with its source states and backend, so
/// kernel rows can be recomputed from first principles when reading the
/// assembled buffer persistently fails.
pub struct RecomputingRows<'a> {
    kernel: &'a TiledKernel,
    states: &'a [Mps],
    backend: &'a dyn ExecutionBackend,
}

impl<'a> RecomputingRows<'a> {
    /// Binds the assembled kernel to the states it was computed from.
    ///
    /// # Panics
    /// Panics if the state count does not match the kernel order.
    pub fn new(
        kernel: &'a TiledKernel,
        states: &'a [Mps],
        backend: &'a dyn ExecutionBackend,
    ) -> RecomputingRows<'a> {
        assert_eq!(
            states.len(),
            kernel.len(),
            "one MPS state per kernel row required"
        );
        RecomputingRows {
            kernel,
            states,
            backend,
        }
    }
}

impl RowSource for RecomputingRows<'_> {
    fn order(&self) -> usize {
        self.kernel.len()
    }

    fn load_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
        let n = self.kernel.len();
        out.copy_from_slice(&self.kernel.data()[i * n..(i + 1) * n]);
        Ok(())
    }

    /// The assembled diagonal, which the engine writes as exactly 1.
    fn diagonal(&self) -> Vec<f64> {
        let n = self.kernel.len();
        (0..n).map(|t| self.kernel.data()[t * n + t]).collect()
    }

    fn recompute_row(&self, i: usize, out: &mut [f64]) -> io::Result<()> {
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = if i == j {
                1.0
            } else {
                // Global `i < j` operand order — the engine's pinned
                // convention — keeps the recomputed entry bitwise equal
                // to the assembled one.
                let (a, b) = if i < j { (i, j) } else { (j, i) };
                self.states[a]
                    .inner_with(self.backend, &self.states[b])
                    .norm_sqr()
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GramConfig;
    use crate::engine::GramEngine;
    use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
    use qk_mps::{MpsSimulator, TruncationConfig};
    use qk_tensor::backend::CpuBackend;

    fn simulated_states(n: usize) -> Vec<Mps> {
        let be = CpuBackend::new();
        let ansatz = AnsatzConfig::new(2, 1, 0.7);
        let trunc = TruncationConfig::default();
        (0..n)
            .map(|i| {
                let row: Vec<f64> = (0..4).map(|j| ((i * 4 + j) % 9) as f64 * 0.22).collect();
                MpsSimulator::new(&be)
                    .with_truncation(trunc)
                    .simulate(&feature_map_circuit(&row, &ansatz))
                    .0
            })
            .collect()
    }

    /// A recomputed row must be bitwise identical to the assembled one,
    /// for every row.
    #[test]
    fn recomputed_rows_match_assembled_rows_bitwise() {
        let states = simulated_states(9);
        let be = CpuBackend::new();
        let outcome = GramEngine::new(GramConfig::default())
            .compute_gram(&states, &be)
            .unwrap();
        let kernel = outcome.kernel;
        let source = RecomputingRows::new(&kernel, &states, &be);
        let n = kernel.len();
        let mut loaded = vec![0.0; n];
        let mut recomputed = vec![0.0; n];
        for i in 0..n {
            source.load_row(i, &mut loaded).unwrap();
            source.recompute_row(i, &mut recomputed).unwrap();
            for j in 0..n {
                assert_eq!(
                    loaded[j].to_bits(),
                    recomputed[j].to_bits(),
                    "entry ({i}, {j}) diverged"
                );
            }
        }
    }
}
