//! Compute-requirement forecasting (paper, end of section III-A).
//!
//! The paper extrapolates its Fig. 8 measurements to production scale:
//! "training on a data set of 64,000 entries could be achieved in 30
//! hours using 320 GPUs, or in 15 hours using 640 GPUs", and classifying
//! one unlabeled point against a 64,000-state training set on 320 GPUs
//! costs "4 seconds" of inner products plus "an additional 2 seconds" of
//! MPS simulation. Those numbers follow from a three-term linear cost
//! model over the per-primitive times; this module implements that model
//! so users can size a cluster before committing to a run.
//!
//! The model is deliberately simple — the same arithmetic the paper does
//! in prose — and is validated in two ways: the tests reproduce the
//! paper's published forecasts from the paper's own per-primitive costs,
//! and [`PrimitiveCosts::from_distributed`] calibrates the model from a
//! measured [`DistributedResult`] so a forecast can be checked against
//! the run that produced it.

use crate::distributed::{DistributedResult, Strategy};
use crate::states::simulate_states_serial;
use qk_circuit::AnsatzConfig;
use qk_mps::TruncationConfig;
use qk_tensor::backend::ExecutionBackend;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Per-primitive costs the forecast is linear in.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PrimitiveCosts {
    /// Simulating one data point's circuit into an MPS.
    pub simulation: Duration,
    /// Contracting one pairwise inner product.
    pub inner_product: Duration,
    /// Shipping one MPS state to a neighbouring process (round-robin
    /// only; serialize + send + receive, amortized per state).
    pub communication_per_state: Duration,
}

impl PrimitiveCosts {
    /// The paper's published costs for the 165-qubit QML ansatz
    /// (`d = 1`, `r = 2`, `γ = 0.1`): "MPS simulation for the
    /// corresponding new data point using this circuit ansatz requires
    /// an additional 2 seconds" and "each inner product requires
    /// approximately 0.02 seconds". Communication is negligible for the
    /// χ ≈ 2, <15 KiB states of this ansatz.
    pub fn paper_qml_ansatz() -> Self {
        PrimitiveCosts {
            simulation: Duration::from_secs(2),
            inner_product: Duration::from_millis(20),
            communication_per_state: Duration::from_micros(100),
        }
    }

    /// Calibrates the model by timing a small sample: simulates
    /// `sample.len()` circuits serially and contracts all pairwise inner
    /// products among them. Use a sample of at least 4 rows drawn from
    /// the same distribution as the production data set.
    pub fn measure(
        sample: &[Vec<f64>],
        ansatz: &AnsatzConfig,
        truncation: &TruncationConfig,
        backend: &dyn ExecutionBackend,
    ) -> Self {
        assert!(
            sample.len() >= 2,
            "need at least two rows to time inner products"
        );
        let batch = simulate_states_serial(sample, ansatz, backend, truncation);
        let simulation = batch.total_simulation_time().div_f64(sample.len() as f64);

        let t0 = Instant::now();
        let mut pairs = 0u32;
        for i in 0..batch.states.len() {
            for j in (i + 1)..batch.states.len() {
                let _ = batch.states[i].inner_with(backend, &batch.states[j]);
                pairs += 1;
            }
        }
        let inner_product = t0.elapsed() / pairs;

        // Serialization round-trip cost stands in for one state transfer.
        let t0 = Instant::now();
        for s in &batch.states {
            let bytes = s.to_bytes();
            let _ = qk_mps::Mps::from_bytes(&bytes);
        }
        let communication_per_state = t0.elapsed() / batch.states.len() as u32;

        PrimitiveCosts {
            simulation,
            inner_product,
            communication_per_state,
        }
    }

    /// Recovers per-primitive costs from a measured distributed run on
    /// `n` data points: total phase time across processes divided by the
    /// number of primitives that phase executed.
    pub fn from_distributed(result: &DistributedResult, n: usize) -> Self {
        let total = |f: fn(&crate::distributed::ProcessTimes) -> Duration| {
            result.per_process.iter().map(f).sum::<Duration>()
        };
        // The unit diagonal is never contracted.
        let pairs = (n * n.saturating_sub(1) / 2).max(1);
        let sims = result.simulations_run.max(1);
        PrimitiveCosts {
            simulation: total(|p| p.simulation).div_f64(sims as f64),
            inner_product: total(|p| p.inner_products).div_f64(pairs as f64),
            // Bytes shipped don't tell us the state count directly; fold
            // the whole communication bill into a per-state figure using
            // the round-robin schedule's state-transfer count.
            communication_per_state: if result.bytes_communicated == 0 {
                Duration::ZERO
            } else {
                let k = result.per_process.len();
                let transfers = round_robin_transfers(n, k).max(1);
                total(|p| p.communication).div_f64(transfers as f64)
            },
        }
    }
}

/// States shipped in a full round-robin schedule: `k − 1` rounds, each
/// moving half of each process's `n / k` partition.
fn round_robin_transfers(n: usize, k: usize) -> usize {
    if k <= 1 {
        return 0;
    }
    let per_round = (n / k).div_ceil(2) * k;
    per_round * (k - 1)
}

/// Forecast wall-clock phases for a training Gram matrix on `n` points
/// over `k` processes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainingForecast {
    /// Data set size the forecast is for.
    pub data_points: usize,
    /// Parallel processes assumed.
    pub processes: usize,
    /// Critical-path simulation time.
    pub simulation: Duration,
    /// Critical-path inner-product time.
    pub inner_products: Duration,
    /// Critical-path communication time (round-robin only).
    pub communication: Duration,
}

impl TrainingForecast {
    /// End-to-end forecast: phases run one after another on the
    /// critical-path process.
    pub fn total(&self) -> Duration {
        self.simulation + self.inner_products + self.communication
    }
}

/// Forecast for classifying one unlabeled point against a trained model
/// (paper: "classification of a single unlabeled data point").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferenceForecast {
    /// Simulating the new point's circuit; the paper notes this "does
    /// not benefit from parallelization in the current framework".
    pub simulation: Duration,
    /// Inner products against all stored training states, spread across
    /// processes.
    pub inner_products: Duration,
}

impl InferenceForecast {
    /// End-to-end forecast.
    pub fn total(&self) -> Duration {
        self.simulation + self.inner_products
    }
}

/// Forecasts the training Gram-matrix computation.
///
/// Round-robin (Fig. 4b): each process simulates its `n / k` partition
/// once, computes its `n(n−1)/2k` share of inner products, and ships
/// half its partition to a neighbour for `k − 1` rounds. No-messaging
/// (Fig. 4a): processes own √k × √k tiles, so every circuit is simulated
/// redundantly on O(√k) processes and no states move.
pub fn forecast_training(
    costs: &PrimitiveCosts,
    n: usize,
    k: usize,
    strategy: Strategy,
) -> TrainingForecast {
    assert!(n >= 1 && k >= 1, "need at least one point and one process");
    let pairs = (n as f64) * (n as f64 - 1.0) / 2.0;
    let inner_products = costs.inner_product.mul_f64(pairs / k as f64);
    match strategy {
        Strategy::RoundRobin => {
            let per_proc = (n as f64 / k as f64).ceil();
            let shipped = round_robin_transfers(n, k) as f64 / k as f64;
            TrainingForecast {
                data_points: n,
                processes: k,
                simulation: costs.simulation.mul_f64(per_proc),
                inner_products,
                communication: costs.communication_per_state.mul_f64(shipped),
            }
        }
        Strategy::NoMessaging => {
            // Square tiling: g = ⌈√k⌉ tile-grid side; a process owning a
            // tile simulates its row block and its column block.
            let g = (k as f64).sqrt().ceil();
            let per_proc = 2.0 * (n as f64 / g).ceil();
            TrainingForecast {
                data_points: n,
                processes: k,
                simulation: costs.simulation.mul_f64(per_proc),
                inner_products,
                communication: Duration::ZERO,
            }
        }
    }
}

/// Forecasts single-point inference against `n_train` stored states on
/// `k` processes.
pub fn forecast_inference(costs: &PrimitiveCosts, n_train: usize, k: usize) -> InferenceForecast {
    assert!(k >= 1, "need at least one process");
    InferenceForecast {
        simulation: costs.simulation,
        inner_products: costs.inner_product.mul_f64(n_train as f64 / k as f64),
    }
}

/// Smallest process count that brings the forecast training total under
/// `deadline` with the round-robin strategy, or `None` if even one
/// process per data point is not enough (the quadratic inner-product
/// term means deadlines below `n·t_ip / 2` are unreachable).
pub fn processes_for_deadline(
    costs: &PrimitiveCosts,
    n: usize,
    deadline: Duration,
) -> Option<usize> {
    // The total is monotone non-increasing in k (communication grows
    // slower than the n²/k inner-product term shrinks for realistic
    // costs), so binary search over k in [1, n].
    let fits = |k: usize| forecast_training(costs, n, k, Strategy::RoundRobin).total() <= deadline;
    if !fits(n) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::distributed_gram;
    use qk_data::{generate, prepare_experiment, SyntheticConfig};
    use qk_tensor::backend::CpuBackend;

    const HOUR: f64 = 3600.0;

    #[test]
    fn paper_training_forecast_320_gpus() {
        // Paper: 64,000 entries, 320 GPUs -> ~30 hours. With t_ip = 20 ms
        // the exact arithmetic gives 64,000²/2 × 0.02 s / 320 ≈ 35.5 h;
        // the paper rounds down to 30. Accept the 25–40 h band.
        let f = forecast_training(
            &PrimitiveCosts::paper_qml_ansatz(),
            64_000,
            320,
            Strategy::RoundRobin,
        );
        let hours = f.total().as_secs_f64() / HOUR;
        assert!((25.0..=40.0).contains(&hours), "forecast {hours:.1} h");
        // Simulation is a rounding error next to the quadratic term.
        assert!(f.simulation < f.inner_products / 100);
    }

    #[test]
    fn paper_training_forecast_doubling_gpus_halves_time() {
        // Paper: "or in 15 hours using 640 GPUs" — exactly half.
        let c = PrimitiveCosts::paper_qml_ansatz();
        let t320 = forecast_training(&c, 64_000, 320, Strategy::RoundRobin);
        let t640 = forecast_training(&c, 64_000, 640, Strategy::RoundRobin);
        let ratio = t320.inner_products.as_secs_f64() / t640.inner_products.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
        let hours = t640.total().as_secs_f64() / HOUR;
        assert!((12.0..=20.0).contains(&hours), "forecast {hours:.1} h");
    }

    #[test]
    fn paper_inference_forecast() {
        // Paper: 64,000 training size, 320 GPUs -> 4 s of inner products
        // plus 2 s of simulation.
        let f = forecast_inference(&PrimitiveCosts::paper_qml_ansatz(), 64_000, 320);
        assert!((f.inner_products.as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((f.simulation.as_secs_f64() - 2.0).abs() < 1e-9);
        assert!((f.total().as_secs_f64() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn fig8_shape_constant_simulation_doubling_inner_products() {
        // Fig. 8's law: double both N and k and the simulation bar stays
        // flat while the inner-product bar doubles.
        let c = PrimitiveCosts::paper_qml_ansatz();
        let a = forecast_training(&c, 800, 4, Strategy::RoundRobin);
        let b = forecast_training(&c, 1600, 8, Strategy::RoundRobin);
        assert_eq!(a.simulation, b.simulation);
        let ratio = b.inner_products.as_secs_f64() / a.inner_products.as_secs_f64();
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn no_messaging_simulates_redundantly_but_never_communicates() {
        let c = PrimitiveCosts::paper_qml_ansatz();
        let nm = forecast_training(&c, 1000, 16, Strategy::NoMessaging);
        let rr = forecast_training(&c, 1000, 16, Strategy::RoundRobin);
        assert_eq!(nm.communication, Duration::ZERO);
        assert!(rr.communication > Duration::ZERO);
        // 16 processes = 4x4 tiles: each simulates 2·n/4 = n/2 states,
        // versus n/16 for round-robin — an 8x redundancy.
        assert!(
            nm.simulation > rr.simulation.mul_f64(7.0),
            "no-messaging {:?} vs round-robin {:?}",
            nm.simulation,
            rr.simulation
        );
        // Inner-product work is identical under either strategy.
        assert_eq!(nm.inner_products, rr.inner_products);
    }

    #[test]
    fn single_process_round_robin_has_no_communication() {
        let c = PrimitiveCosts::paper_qml_ansatz();
        let f = forecast_training(&c, 100, 1, Strategy::RoundRobin);
        assert_eq!(f.communication, Duration::ZERO);
        assert_eq!(f.simulation, c.simulation.mul_f64(100.0));
    }

    #[test]
    fn deadline_solver_brackets_the_paper_claims() {
        let c = PrimitiveCosts::paper_qml_ansatz();
        // 40 h is feasible at 64k points; the solver's answer must be
        // consistent: k processes meet it, k−1 do not.
        let deadline = Duration::from_secs_f64(40.0 * HOUR);
        let k = processes_for_deadline(&c, 64_000, deadline).expect("feasible");
        assert!(forecast_training(&c, 64_000, k, Strategy::RoundRobin).total() <= deadline);
        assert!(
            forecast_training(&c, 64_000, k - 1, Strategy::RoundRobin).total() > deadline,
            "k = {k} not minimal"
        );
        // ~35.5 h at 320 -> 40 h needs slightly fewer than 320.
        assert!((250..=330).contains(&k), "k = {k}");
    }

    #[test]
    fn deadline_solver_reports_unreachable() {
        let c = PrimitiveCosts::paper_qml_ansatz();
        // One minute for 64k points is beyond any process count.
        assert_eq!(
            processes_for_deadline(&c, 64_000, Duration::from_secs(60)),
            None
        );
    }

    #[test]
    fn measured_costs_forecast_a_real_run_within_tolerance() {
        // Calibrate on a real distributed run, then check the model
        // reconstructs that run's phase totals. This is a self-
        // consistency test of the calibration arithmetic, so the
        // tolerance can be tight for simulation/inner products.
        let data = generate(&SyntheticConfig::small(5));
        let split = prepare_experiment(&data, 64, 8, 5);
        let ansatz = AnsatzConfig::new(2, 1, 0.5);
        let trunc = TruncationConfig::default();
        let be = CpuBackend::new();
        let k = 4;
        let run = distributed_gram(
            &split.train.features,
            &ansatz,
            &be,
            &trunc,
            k,
            Strategy::RoundRobin,
        );
        let n = split.train.features.len();
        let costs = PrimitiveCosts::from_distributed(&run, n);
        let f = forecast_training(&costs, n, k, Strategy::RoundRobin);

        let measured_sim: Duration = run.per_process.iter().map(|p| p.simulation).sum();
        let forecast_sim = f.simulation.mul_f64(k as f64);
        let rel = (forecast_sim.as_secs_f64() - measured_sim.as_secs_f64()).abs()
            / measured_sim.as_secs_f64().max(1e-12);
        assert!(rel < 0.35, "simulation forecast off by {:.0}%", rel * 100.0);

        // Every contracted pair is counted once, so the inner-product
        // bill reconstructs exactly up to `Duration`'s whole nanoseconds:
        // at most 1 ns per pair from the per-pair cost, plus 1 ns per
        // rounding in the forecast and in the product by k.
        let measured_ip: Duration = run.per_process.iter().map(|p| p.inner_products).sum();
        let forecast_ip = f.inner_products.mul_f64(k as f64);
        let err_ns = forecast_ip.abs_diff(measured_ip).as_nanos();
        let bound_ns = (n * (n - 1) / 2 + k + 1) as u128;
        assert!(
            err_ns <= bound_ns,
            "inner-product forecast off by {err_ns} ns of {measured_ip:?} (bound {bound_ns} ns)"
        );
    }

    #[test]
    fn measure_returns_positive_costs() {
        let data = generate(&SyntheticConfig::small(9));
        let split = prepare_experiment(&data, 20, 6, 9);
        let be = CpuBackend::new();
        let costs = PrimitiveCosts::measure(
            &split.train.features[..6],
            &AnsatzConfig::new(2, 1, 0.5),
            &TruncationConfig::default(),
            &be,
        );
        assert!(costs.simulation > Duration::ZERO);
        assert!(costs.inner_product > Duration::ZERO);
        assert!(costs.communication_per_state > Duration::ZERO);
        // A d = 1 circuit simulates in well under a second at 6 qubits.
        assert!(costs.simulation < Duration::from_secs(1));
    }

    #[test]
    fn transfers_schedule_counts() {
        // 64 states over 4 processes: 16 per partition, 8 shipped per
        // process per round, 3 rounds -> 8·4·3 = 96 transfers.
        assert_eq!(round_robin_transfers(64, 4), 96);
        assert_eq!(round_robin_transfers(64, 1), 0);
        // Odd partition sizes round the half-partition up.
        assert_eq!(round_robin_transfers(10, 2), (5usize.div_ceil(2)) * 2);
    }
}
