//! # qk-core
//!
//! The quantum kernel framework of the paper, assembled over the MPS
//! simulator, circuit ansatz, data pipeline and SVM substrates:
//!
//! * [`states`] — one MPS simulation per data point, fanned out in
//!   parallel (the linear-in-N half of the method).
//! * [`gram`] — Gram-matrix assembly from pairwise inner products (the
//!   quadratic-but-cheap half).
//! * [`distributed`] — the paper's two multi-process strategies
//!   (no-messaging and round-robin) as `qk-mpi` ranks contracting
//!   `qk-gram` tiles, with per-phase wall-clock accounting.
//! * [`pipeline`] — end-to-end classification experiments, quantum and
//!   Gaussian-baseline, with the `C in [0.01, 4]` sweep protocol.
//!
//! ## Quickstart
//!
//! ```
//! use qk_core::pipeline::{run_quantum_experiment, ExperimentConfig};
//! use qk_data::{generate, SyntheticConfig};
//! use qk_tensor::backend::CpuBackend;
//!
//! let data = generate(&SyntheticConfig::small(1));
//! let config = ExperimentConfig::qml(40, 5, 1);
//! let backend = CpuBackend::new();
//! let result = run_quantum_experiment(&data, &config, &backend);
//! assert!(result.best_test_auc() <= 1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod extrapolate;
pub mod gram;
pub mod inference;
pub mod pipeline;
pub mod states;
pub mod timing;
pub mod truncation_study;

pub use distributed::{distributed_gram, DistributedResult, ProcessTimes, Strategy};
pub use extrapolate::{
    forecast_inference, forecast_training, processes_for_deadline, InferenceForecast,
    PrimitiveCosts, TrainingForecast,
};
pub use gram::{gram_matrix, kernel_block, TimedBlock, TimedKernel};
pub use inference::{InferenceTiming, ModelDecodeError, Prediction, QuantumKernelModel};
pub use pipeline::{
    run_gaussian_experiment, run_gaussian_on_split, run_quantum_experiment, run_quantum_on_split,
    ExperimentConfig, ExperimentResult, PipelineTimings,
};
pub use states::{simulate_states, simulate_states_serial, StateBatch};
pub use timing::{thread_cpu_time, PhaseClock};
pub use truncation_study::{
    run_truncation_study, TruncationPoint, TruncationStudy, TruncationStudyConfig,
};
