//! Batched quantum-state preparation: one MPS simulation per data point.
//!
//! This is the linear-in-N half of the paper's decomposition (Section I):
//! `N` MPS simulations, embarrassingly parallel, followed by `O(N^2)`
//! cheap inner products. [`simulate_states`] runs the simulations on
//! scoped worker threads, one per available core, with the chosen
//! execution backend; every state depends on its own row only, so the
//! batch is bitwise identical at any thread count.

use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, SimRecord, TruncationConfig};
use qk_tensor::backend::ExecutionBackend;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Output of a batched state-preparation run.
pub struct StateBatch {
    /// One MPS per input row, in input order.
    pub states: Vec<Mps>,
    /// Per-state simulation records.
    pub records: Vec<SimRecord>,
    /// Wall-clock time for the whole batch.
    pub wall_time: Duration,
}

impl StateBatch {
    /// Mean of the largest bond dimension over the batch — Table I's
    /// "average largest chi".
    pub fn mean_max_bond(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.states.iter().map(|s| s.max_bond() as f64).sum::<f64>() / self.states.len() as f64
    }

    /// Mean MPS memory footprint in bytes — Table I's "memory per MPS".
    pub fn mean_memory_bytes(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.states
            .iter()
            .map(|s| s.memory_bytes() as f64)
            .sum::<f64>()
            / self.states.len() as f64
    }

    /// Sum of the per-state simulation walls. States simulated on
    /// different threads overlap in time, so this exceeds `wall_time`
    /// by up to the thread count; their ratio is the fan-out's speed-up.
    pub fn total_simulation_time(&self) -> Duration {
        self.records.iter().map(|r| r.duration).sum()
    }
}

/// Simulates the feature-map circuit for every row on
/// `min(available_parallelism, rows.len())` threads. Output order, every
/// state's bytes and every non-timing record field equal
/// [`simulate_states_serial`]'s.
pub fn simulate_states(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> StateBatch {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    simulate_on(threads, rows, ansatz, backend, truncation)
}

/// Serial variant used inside explicitly-threaded distribution strategies
/// (each simulated "process" is already a thread of its own).
pub fn simulate_states_serial(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> StateBatch {
    simulate_on(1, rows, ansatz, backend, truncation)
}

/// The one body behind both entry points: at most `threads` workers, and
/// inline on the calling thread when one (or an empty batch) is all that
/// is needed.
fn simulate_on(
    threads: usize,
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
) -> StateBatch {
    let start = Instant::now();
    let simulate = |x: &Vec<f64>| {
        let circuit = feature_map_circuit(x, ansatz);
        MpsSimulator::new(backend)
            .with_truncation(*truncation)
            .simulate(&circuit)
    };
    let threads = threads.min(rows.len());
    let (states, records) = if threads <= 1 {
        rows.iter().map(simulate).unzip()
    } else {
        fan_out(threads, rows, &simulate)
    };
    StateBatch {
        states,
        records,
        wall_time: start.elapsed(),
    }
}

/// Runs `simulate` over `rows` on `threads` scoped workers and returns the
/// results in input order.
///
/// Workers claim one row at a time from a shared counter: per-state cost
/// varies a hundredfold with the data, so a static split would strand a
/// core behind the expensive half. Finished states stream to the calling
/// thread, which copies each into the slot of its index and hands the
/// original back to the worker that built it.
///
/// The round trip is about malloc arenas, one per thread (measurements in
/// DESIGN.md, "State fan-out"). The batch outlives the workers, so it
/// must live in the caller's arena: a state left where it was built pins
/// its worker's arena between the freed scratch of its simulation (peak
/// RSS +33 % on the benchmark's `deep_d3` and `wide_d1`). And the worker
/// must be the one to free the original: chunks the caller frees land in
/// the caller's thread cache and come straight back as the next copy's
/// memory, which leaves part of the batch scattered over the workers'
/// arenas after all (+21 % on `serve_cold`, growing with every model fit).
fn fan_out<F>(threads: usize, rows: &[Vec<f64>], simulate: &F) -> (Vec<Mps>, Vec<SimRecord>)
where
    F: Fn(&Vec<f64>) -> (Mps, SimRecord) + Sync,
{
    // Relaxed: the counter only hands out indices; results travel
    // through the channels, which do their own synchronisation.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(Mps, SimRecord)>> = rows.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let (done_tx, done) = mpsc::channel();
        let (workers, copied): (Vec<_>, Vec<_>) = (0..threads)
            .map(|w| {
                let done_tx = done_tx.clone();
                let (copied_tx, copied) = mpsc::channel::<Mps>();
                let next = &next;
                let worker = scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(row) = rows.get(i) else { break };
                        let (state, record) = simulate(row);
                        if done_tx.send((w, i, state, record)).is_err() {
                            break;
                        }
                        copied.try_iter().for_each(drop);
                    }
                    // Hang up before waiting: the caller stops returning
                    // originals only once every worker has.
                    drop(done_tx);
                    copied.iter().for_each(drop);
                });
                (worker, copied_tx)
            })
            .unzip();
        drop(done_tx);
        for (w, i, state, record) in done {
            slots[i] = Some((state.clone(), record));
            // A worker that panicked is no longer listening; its
            // original is dropped here instead.
            let _ = copied[w].send(state);
        }
        drop(copied);
        // A panicking worker hangs up like a finished one, so the loop
        // above still ends; re-raise its panic instead of returning a
        // short batch.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every row is claimed once and no worker panicked"))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_tensor::backend::CpuBackend;

    /// `n` rows of `m` features; row `i` differs from every other.
    fn varied_rows(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| ((i * m + j) % 11) as f64 * 0.17 + i as f64 * 0.003)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_matches_row_count() {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &varied_rows(6, 4),
            &AnsatzConfig::new(2, 1, 0.5),
            &be,
            &TruncationConfig::default(),
        );
        assert_eq!(batch.states.len(), 6);
        assert_eq!(batch.records.len(), 6);
        for s in &batch.states {
            assert_eq!(s.num_qubits(), 4);
            assert!((s.norm() - 1.0).abs() < 1e-9);
        }
    }

    /// Everything but the clock: order, state bytes, record counters.
    fn assert_bitwise_equal(got: &StateBatch, want: &StateBatch, what: &str) {
        assert_eq!(got.states.len(), want.states.len(), "{what}");
        assert_eq!(got.records.len(), want.records.len(), "{what}");
        for (i, (a, b)) in got.states.iter().zip(&want.states).enumerate() {
            assert_eq!(a.to_bytes(), b.to_bytes(), "{what}: state {i}");
        }
        for (i, (a, b)) in got.records.iter().zip(&want.records).enumerate() {
            assert_eq!(a.gates_applied, b.gates_applied, "{what}: record {i}");
            assert_eq!(a.two_qubit_gates, b.two_qubit_gates, "{what}: record {i}");
            assert_eq!(a.peak_bond, b.peak_bond, "{what}: record {i}");
            assert_eq!(a.truncation, b.truncation, "{what}: record {i}");
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let be = CpuBackend::new();
        let tc = TruncationConfig::default();
        for d in [1, 3] {
            let cfg = AnsatzConfig::new(2, d, 0.8);
            // Fewer rows than threads, odd counts, more rows than threads.
            for n in [0, 1, 2, 7, 33] {
                let rows = varied_rows(n, 4);
                let ser = simulate_states_serial(&rows, &cfg, &be, &tc);
                assert_eq!(ser.states.len(), n);
                let par = simulate_states(&rows, &cfg, &be, &tc);
                assert_bitwise_equal(&par, &ser, &format!("d={d} n={n} default threads"));
                for threads in [2, 3, 8] {
                    let par = simulate_on(threads, &rows, &cfg, &be, &tc);
                    assert_bitwise_equal(&par, &ser, &format!("d={d} n={n} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn uneven_rows_keep_input_order() {
        // Wide rows cost far more than narrow ones, so with three workers
        // the narrow rows finish first and arrive out of order; the
        // qubit count tells which row each output slot holds.
        let widths = [10, 2, 2, 9, 2, 2, 2, 8, 2, 10, 2];
        let rows: Vec<Vec<f64>> = widths
            .iter()
            .enumerate()
            .map(|(i, &m)| (0..m).map(|j| ((i + j) % 5) as f64 * 0.3 + 0.1).collect())
            .collect();
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 3, 1.0);
        let tc = TruncationConfig::default();
        let par = simulate_on(3, &rows, &cfg, &be, &tc);
        let got: Vec<usize> = par.states.iter().map(Mps::num_qubits).collect();
        assert_eq!(got, widths);
        let ser = simulate_states_serial(&rows, &cfg, &be, &tc);
        assert_bitwise_equal(&par, &ser, "uneven rows");
    }

    /// Runs `batch` on a helper thread and re-raises its panic here, so a
    /// fan-out that deadlocks fails the test instead of hanging it.
    fn run_bounded(batch: impl FnOnce() + Send + 'static) {
        let (done, wait) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            batch();
            let _ = done.send(());
        });
        if wait.recv_timeout(Duration::from_secs(120)) == Err(mpsc::RecvTimeoutError::Timeout) {
            panic!("state fan-out neither returned nor panicked within 120 s");
        }
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Returning a short batch would leave the test without its panic.
    #[test]
    #[should_panic(expected = "feature vector must be non-empty")]
    fn worker_panic_reaches_the_caller() {
        let mut rows = varied_rows(9, 4);
        rows[4].clear();
        run_bounded(move || {
            simulate_on(
                3,
                &rows,
                &AnsatzConfig::new(2, 1, 0.5),
                &CpuBackend::new(),
                &TruncationConfig::default(),
            );
        });
    }

    #[test]
    fn batch_statistics() {
        let be = CpuBackend::new();
        let batch = simulate_states(
            &varied_rows(6, 4),
            &AnsatzConfig::new(2, 2, 1.0),
            &be,
            &TruncationConfig::default(),
        );
        assert!(batch.mean_max_bond() >= 1.0);
        assert!(batch.mean_memory_bytes() > 0.0);
        assert!(batch.total_simulation_time() > Duration::ZERO);
    }
}
