//! # qk-svm
//!
//! The classical-ML substrate of the quantum-kernel pipeline:
//!
//! * [`kernel`] — dense Gram matrices and rectangular test blocks.
//! * [`smo`] — a from-scratch SMO solver for C-SVC on precomputed kernels.
//! * [`gaussian`] — the paper's classical baseline (eq. 9) with
//!   `alpha = 1/(m var(X))`.
//! * [`metrics`] — accuracy / precision / recall / ROC-AUC, plus F1,
//!   balanced accuracy, Matthews correlation and precision-recall curves.
//! * [`model_select`] — the `C in [0.01, 4]` regularization sweep.
//! * [`platt`] — probability calibration of SVM decision values.
//! * [`trainer`] — crash-safe SMO training: checkpointed warm-start,
//!   resident rows read in place, a budgeted row cache for the rest, and
//!   chaos-drilled recovery paths.
//! * [`diagnostics`] — spectral concentration diagnostics (effective
//!   dimension, kernel–target alignment, geometric difference).
//!
//! ## Example: train on a precomputed kernel and score it
//!
//! ```
//! use qk_svm::{train_svc, KernelMatrix, SmoParams};
//!
//! // A 4-point toy problem: two tight clusters.
//! let k = KernelMatrix::from_fn(4, |i, j| if (i < 2) == (j < 2) { 1.0 } else { 0.1 });
//! let labels = [1.0, 1.0, -1.0, -1.0];
//! let model = train_svc(&k, &labels, &SmoParams::with_c(1.0));
//! assert_eq!(model.predict(k.row(0)), 1.0);
//! assert_eq!(model.predict(k.row(3)), -1.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod gaussian;
pub mod kernel;
pub mod metrics;
pub mod model_select;
pub mod platt;
pub mod smo;
pub mod trainer;

pub use diagnostics::{
    concentration_report, effective_dimension, geometric_difference, kernel_target_alignment,
    spectral_entropy, symmetric_eigenvalues, ConcentrationReport,
};
pub use gaussian::{gaussian_block, gaussian_gram, scale_bandwidth};
pub use kernel::{KernelBlock, KernelMatrix, KernelSource};
pub use metrics::{
    average_precision, balanced_accuracy, f1_score, matthews_corrcoef, pr_curve, roc_auc,
    roc_curve, Metrics,
};
pub use model_select::{default_c_grid, sweep_c, SweepPoint, SweepResult};
pub use platt::{fit_platt, PlattCalibration};
pub use smo::{train_svc, SmoParams, TrainedSvm};
pub use trainer::{
    checkpoint_path, job_fingerprint, RowSource, TrainError, TrainOutcome, Trainer, TrainerConfig,
    TrainerStats,
};
