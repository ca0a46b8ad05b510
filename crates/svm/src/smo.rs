//! Sequential Minimal Optimization for C-SVC on precomputed kernels.
//!
//! Solves the SVM dual
//!
//! ```text
//! max_alpha  sum_i alpha_i - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
//! s.t.       0 <= alpha_i <= C,   sum_i alpha_i y_i = 0
//! ```
//!
//! over a maintained error cache `E_t = f(x_t) - y_t`, with the
//! second-order working-set selection of Fan, Chen & Lin (JMLR 6, 2005;
//! the WSS2 rule LIBSVM uses). With
//!
//! ```text
//! I_up  = { t : y_t = +1, alpha_t < C  or  y_t = -1, alpha_t > 0 }
//! I_low = { t : y_t = +1, alpha_t > 0  or  y_t = -1, alpha_t < C }
//! ```
//!
//! each update takes `i = argmin_{I_up} E`, then the `j` in `I_low` with
//! `E_j > E_i` that maximizes `(E_j - E_i)^2 / max(K_ii + K_jj - 2 K_ij, tau)`,
//! and makes the analytic two-variable step clipped to the box. The
//! maximal violation `max_{I_low} E - min_{I_up} E` is the KKT
//! certificate: training stops once it is `<= tol`, after a pass that
//! makes no update (a stall), or at `max_total_passes`.
//!
//! A pass is up to `n` updates. Each update fetches row `i` and row `j`
//! once and runs two O(n) loops: the `j` scan over row `i`, and the
//! error-cache refresh fused with the next update's `argmin_{I_up} E` /
//! `max_{I_low} E`. At the end of a pass the bias is refit from the free
//! points and the cache shifted to match. Selection draws no randomness,
//! so the state at a pass boundary — alphas, errors, bias, pass count —
//! is a pure function of the state at the previous one.
//!
//! # Shrinking
//!
//! Each pass works on an active set fixed at its start (Joachims 1999;
//! the LIBSVM heuristic). With `e_up = min_{I_up} E` and
//! `e_low = max_{I_low} E` over the whole problem, `t` is active when it
//! is in `I_up` with `E_t <= e_low` or in `I_low` with `E_t >= e_up`
//! (every free point is); any other point sits at a bound on the side
//! that cannot violate the certificate and sits the pass out. The
//! comparisons are non-strict, so the pass's first violating pair is
//! always active, and the set is a pure function of (alpha, E, bias):
//! a resumed run re-derives it from a snapshot.
//!
//! When the active set is at most half of `n`, the pass gathers it into
//! one contiguous block — `K_AA` (at most `n^2 / 4` f64, allocated once
//! per training run) plus the active labels, alphas, errors, masks and
//! diagonal — and runs the same `update` body over those arrays;
//! otherwise it runs over the full rows. A compacted pass ends by
//! scattering alphas and errors back and bringing every shrunk error up
//! to date (one row read per active point whose alpha moved), so a pass
//! boundary never holds a stale error and the certificate that stops
//! training is always checked over all `n` points.

use crate::kernel::KernelSource;
use crate::trainer::RowSource;
use qk_obs::{Journal, Obs};
use serde::{Deserialize, Serialize};

/// Curvature floor for the working-set gain and the step (LIBSVM's
/// `TAU`): a non-positive `K_ii + K_jj - 2 K_ij` still yields a finite,
/// box-clipped step, so indefinite kernels cannot stall on it.
const TAU: f64 = 1e-12;

/// Relative distance to `0` or `C` below which a step snaps an alpha
/// onto the bound, so a point that reached its bound leaves the free set
/// exactly instead of lingering a rounding error inside it.
const SNAP: f64 = 1e-12;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SmoParams {
    /// Box constraint (regularization). The paper sweeps `C in [0.01, 4]`.
    pub c: f64,
    /// Certificate tolerance: training stops once the maximal KKT
    /// violation `max_{I_low} E - min_{I_up} E` is at most `tol`. The
    /// paper uses `1e-3`.
    pub tol: f64,
    /// Hard cap on total passes (safety valve for degenerate kernels).
    /// A pass is up to `n` pair updates.
    pub max_total_passes: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams {
            c: 1.0,
            tol: 1e-3,
            max_total_passes: 2_000,
        }
    }
}

impl SmoParams {
    /// Default parameters at a given `C`.
    pub fn with_c(c: f64) -> Self {
        SmoParams {
            c,
            ..Self::default()
        }
    }
}

/// A trained support-vector classifier over a precomputed kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedSvm {
    /// Dual coefficients, one per training point.
    pub alphas: Vec<f64>,
    /// Bias term `b` in `f(x) = sum_i alpha_i y_i k(x_i, x) + b`.
    pub bias: f64,
    /// Training labels (`+1`/`-1`), retained for the decision function.
    pub labels: Vec<f64>,
    /// Number of optimization passes performed.
    pub passes: usize,
    /// KKT certificate at exit: `max_{I_low} E - min_{I_up} E` over the
    /// training errors (`<= 0` at an exact optimum). `NaN` for a model
    /// decoded from bytes, which do not carry it.
    pub kkt_violation: f64,
    /// Primal objective minus dual objective at exit (`>= 0` for a PSD
    /// kernel, `0` at the optimum). `NaN` for a decoded model.
    pub duality_gap: f64,
}

impl TrainedSvm {
    /// Indices with non-zero dual coefficient.
    pub fn support_indices(&self) -> Vec<usize> {
        self.alphas
            .iter()
            .enumerate()
            .filter(|(_, a)| **a > 1e-12)
            .map(|(i, _)| i)
            .collect()
    }

    /// Decision value for a point given its kernel row against the full
    /// training set (`row[j] = k(x, x_j)`).
    pub fn decision_value(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.alphas.len());
        let mut acc = self.bias;
        for ((a, y), k) in self.alphas.iter().zip(&self.labels).zip(row) {
            if *a > 1e-12 {
                acc += a * y * k;
            }
        }
        acc
    }

    /// Decision values for many kernel rows.
    pub fn decision_values<'a>(&self, rows: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
        rows.map(|r| self.decision_value(r)).collect()
    }

    /// Decision values over a precomputed test-against-train block,
    /// borrowing each kernel row in place — the batched-inference path:
    /// the serving layer evaluates a whole micro-batch against one block
    /// without copying rows out.
    pub fn decision_values_block(&self, block: &crate::kernel::KernelBlock) -> Vec<f64> {
        (0..block.rows())
            .map(|i| self.decision_value(block.row(i)))
            .collect()
    }

    /// Class prediction (`+1` / `-1`).
    pub fn predict(&self, row: &[f64]) -> f64 {
        if self.decision_value(row) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Trains a C-SVC on a precomputed kernel.
///
/// Generic over [`KernelSource`], so a dense [`crate::KernelMatrix`] and
/// an externally assembled view (e.g. `qk-gram`'s `TiledKernel`) train
/// identically — no dense copy is made of non-`KernelMatrix` sources.
///
/// # Panics
/// Panics if labels are not `+1`/`-1`, sizes mismatch, both classes are
/// not present, or the hyperparameters are degenerate (`c` not positive
/// and finite, `tol` not finite).
pub fn train_svc<K: KernelSource + ?Sized>(
    kernel: &K,
    labels: &[f64],
    params: &SmoParams,
) -> TrainedSvm {
    train_impl(kernel, labels, params, None)
}

/// [`train_svc`] with observability: SMO registers `svm.*` counters,
/// spans and the exit-certificate gauges in `obs`, and (when a journal is
/// given) records start / pass / done milestones. Instrumentation only
/// observes the solver — the trained model is bit-identical to an
/// unobserved [`train_svc`] run.
pub fn train_svc_observed<K: KernelSource + ?Sized>(
    kernel: &K,
    labels: &[f64],
    params: &SmoParams,
    obs: &Obs,
    journal: Option<&Journal>,
) -> TrainedSvm {
    train_impl(kernel, labels, params, Some((obs, journal)))
}

/// Validates the training problem up front with clear panic messages.
///
/// Shared by [`train_svc`] and the crash-safe `trainer` module so both
/// entry points reject the same degenerate inputs. Non-finite
/// hyperparameters are rejected explicitly: a NaN `tol` makes every
/// certificate comparison false, so the solver would silently spin to
/// `max_total_passes`.
pub(crate) fn validate_inputs(n: usize, labels: &[f64], params: &SmoParams) {
    assert_eq!(labels.len(), n, "label count must match kernel order");
    assert!(n >= 2, "need at least two training points");
    assert!(
        labels.iter().all(|y| *y == 1.0 || *y == -1.0),
        "labels must be +1 or -1"
    );
    assert!(
        labels.iter().any(|y| *y > 0.0) && labels.iter().any(|y| *y < 0.0),
        "both classes must be present"
    );
    assert!(
        params.c > 0.0 && params.c.is_finite(),
        "C must be positive and finite, got {}",
        params.c
    );
    assert!(
        params.tol.is_finite(),
        "tol must be finite, got {} (a NaN tol makes the KKT check vacuously pass)",
        params.tol
    );
}

/// Publishes a finished model's gauges: the exit certificate as
/// `svm.kkt_violation` and `svm.duality_gap`, its `svm.support_vectors`
/// and `svm.at_bound` (alpha at `C`) counts, and `svm.active_min`, the
/// smallest active set any pass of the run started from (`n` when no
/// pass ran). Registry gauges hold integers, so the certificate is
/// stored in units of `1e-9`, rounded up: a gauge at most `tol * 1e9`
/// certifies the gap at most `tol`.
pub(crate) fn publish_model(obs: &Obs, model: &TrainedSvm, c: f64, active_min: usize) {
    let nano = |x: f64| (x * 1e9).ceil() as i64;
    obs.gauge("svm.kkt_violation")
        .set(nano(model.kkt_violation));
    obs.gauge("svm.duality_gap").set(nano(model.duality_gap));
    obs.gauge("svm.support_vectors")
        .set(model.support_indices().len() as i64);
    let at_bound = model.alphas.iter().filter(|&&a| a >= c).count();
    obs.gauge("svm.at_bound").set(at_bound as i64);
    obs.gauge("svm.active_min").set(active_min as i64);
}

/// `t` is in `I_up`: `y_t alpha_t` may grow within its box
/// `[min(0, y_t C), max(0, y_t C)]`.
#[inline]
fn in_up(y: f64, a: f64, c: f64) -> bool {
    y * a < (y * c).max(0.0)
}

/// `t` is in `I_low`: `y_t alpha_t` may shrink.
#[inline]
fn in_low(y: f64, a: f64, c: f64) -> bool {
    y * a > (y * c).min(0.0)
}

/// `I_up` / `I_low` membership as additive masks — `0` for a member,
/// `+inf` / `-inf` otherwise — so the O(n) scans read `E_t + up[t]` and
/// `E_t + low[t]` without branching on labels or alphas. A pure function
/// of the alphas, rebuilt at every pass start and patched at `i` and `j`
/// after each step.
#[derive(Debug, Default)]
struct Sets {
    up: Vec<f64>,
    low: Vec<f64>,
}

impl Sets {
    fn new(labels: &[f64], alphas: &[f64], c: f64) -> Sets {
        let mut sets = Sets {
            up: vec![0.0; labels.len()],
            low: vec![0.0; labels.len()],
        };
        for (t, (&y, &a)) in labels.iter().zip(alphas).enumerate() {
            sets.set(t, y, a, c);
        }
        sets
    }

    fn set(&mut self, t: usize, y: f64, a: f64, c: f64) {
        self.up[t] = if in_up(y, a, c) { 0.0 } else { f64::INFINITY };
        self.low[t] = if in_low(y, a, c) {
            0.0
        } else {
            f64::NEG_INFINITY
        };
    }
}

/// Snaps an alpha within `SNAP * c` of a bound onto it.
#[inline]
fn snap(a: f64, c: f64) -> f64 {
    if a < SNAP * c {
        0.0
    } else if a > c - SNAP * c {
        c
    } else {
        a
    }
}

/// The certificate bounds over the current errors: `min_{I_up} E` (and
/// where it sits) and `max_{I_low} E`.
#[derive(Debug, Clone, Copy)]
struct Extremes {
    i_up: usize,
    e_up: f64,
    e_low: f64,
}

impl Extremes {
    const EMPTY: Extremes = Extremes {
        i_up: usize::MAX,
        e_up: f64::INFINITY,
        e_low: f64::NEG_INFINITY,
    };

    /// One full scan. Ties keep the lowest index, exactly as the fused
    /// scan in [`update`] does, so both always agree.
    fn scan(errors: &[f64], sets: &Sets) -> Extremes {
        let mut x = Extremes::EMPTY;
        for (t, ((&e, &up), &low)) in errors.iter().zip(&sets.up).zip(&sets.low).enumerate() {
            x.observe(t, e, up, low);
        }
        x
    }

    #[inline]
    fn observe(&mut self, t: usize, e: f64, up_mask: f64, low_mask: f64) {
        let up = e + up_mask;
        if up < self.e_up {
            self.e_up = up;
            self.i_up = t;
        }
        let low = e + low_mask;
        if low > self.e_low {
            self.e_low = low;
        }
    }

    /// The maximal KKT violation `max_{I_low} E - min_{I_up} E`.
    fn gap(&self) -> f64 {
        self.e_low - self.e_up
    }
}

/// Resumable SMO solver state: everything the pass loop mutates.
///
/// [`train_svc`] drives one of these from `fresh` to convergence in a
/// single call; the crash-safe `trainer` module persists and restores it
/// across process deaths. Bitwise reproducibility hinges on this being
/// the *complete* loop state — alphas, bias, the error cache and the
/// pass count; selection reads nothing else.
#[derive(Debug, Clone)]
pub(crate) struct SmoState {
    pub alphas: Vec<f64>,
    pub bias: f64,
    /// Error cache: `E_i = f(x_i) - y_i`.
    pub errors: Vec<f64>,
    pub total_passes: usize,
}

impl SmoState {
    /// Cold-start state: all alphas zero, so `f = 0` and `E_i = -y_i`.
    pub(crate) fn fresh(labels: &[f64]) -> SmoState {
        SmoState {
            alphas: vec![0.0f64; labels.len()],
            bias: 0.0,
            errors: labels.iter().map(|y| -y).collect(),
            total_passes: 0,
        }
    }

    /// The KKT certificate `max_{I_low} E - min_{I_up} E`.
    fn kkt_violation(&self, labels: &[f64], c: f64) -> f64 {
        Extremes::scan(&self.errors, &Sets::new(labels, &self.alphas, c)).gap()
    }

    /// Primal minus dual objective, O(n) from the error cache:
    /// `||w||^2 = sum_i alpha_i y_i (E_i + y_i - b)`, the dual is
    /// `sum alpha - ||w||^2 / 2` and the primal `||w||^2 / 2 + C sum_i
    /// max(0, -y_i E_i)`.
    fn duality_gap(&self, labels: &[f64], c: f64) -> f64 {
        let (mut w2, mut sum_a, mut hinge) = (0.0, 0.0, 0.0);
        for ((&a, &y), &e) in self.alphas.iter().zip(labels).zip(&self.errors) {
            w2 += a * y * (e + y - self.bias);
            sum_a += a;
            hinge += (-y * e).max(0.0);
        }
        w2 - sum_a + c * hinge
    }

    /// Whether another pass should run: the certificate does not hold
    /// yet and the pass cap is not reached.
    pub(crate) fn should_continue(&self, labels: &[f64], params: &SmoParams) -> bool {
        self.total_passes < params.max_total_passes
            && self.kkt_violation(labels, params.c) > params.tol
    }

    /// Refits the bias as minus the mean error of the free points (the
    /// midpoint of the certificate bounds when none is free) and shifts
    /// the error cache by the same amount.
    fn refit_bias(&mut self, c: f64, ext: &Extremes) {
        let (mut sum, mut free) = (0.0, 0usize);
        for (&a, &e) in self.alphas.iter().zip(&self.errors) {
            if a > 0.0 && a < c {
                sum += e;
                free += 1;
            }
        }
        let shift = if free > 0 {
            -sum / free as f64
        } else if ext.e_up.is_finite() && ext.e_low.is_finite() {
            -0.5 * (ext.e_up + ext.e_low)
        } else {
            0.0
        };
        self.bias += shift;
        for e in &mut self.errors {
            *e += shift;
        }
    }

    /// Finishes training, consuming the state into a model that carries
    /// its exit certificate.
    pub(crate) fn into_model(self, labels: &[f64], c: f64) -> TrainedSvm {
        let kkt_violation = self.kkt_violation(labels, c);
        let duality_gap = self.duality_gap(labels, c);
        TrainedSvm {
            alphas: self.alphas,
            bias: self.bias,
            labels: labels.to_vec(),
            passes: self.total_passes,
            kkt_violation,
            duality_gap,
        }
    }
}

/// A pass compacts when `COMPACT * |A| <= n`: the active block is then at
/// most half the problem, and `K_AA` at most a quarter of the Gram.
const COMPACT: usize = 2;

/// What one [`pass_over`] call did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pass {
    /// Working-set updates made; `0` leaves the state untouched.
    pub updates: usize,
    /// Size of the active set the pass started from.
    pub active: usize,
    /// Whether the updates ran on the gathered active block.
    pub compacted: bool,
}

/// The arrays a pass's updates read and write, in one index space: the
/// whole problem, or the gathered active block.
struct Arrays<'a> {
    labels: &'a [f64],
    diag: &'a [f64],
    alphas: &'a mut [f64],
    errors: &'a mut [f64],
    sets: &'a mut Sets,
}

/// Scratch for compacted passes: the active block, gathered. One per
/// training run and reused across passes, so `K_AA` (at most `n^2 / 4`
/// f64) is allocated once.
#[derive(Debug, Default)]
pub(crate) struct ActiveBlock {
    /// Problem index of each active point, ascending.
    active: Vec<usize>,
    /// The points that sit the pass out.
    shrunk: Vec<usize>,
    /// `K_AA`, row-major.
    kernel: Vec<f64>,
    labels: Vec<f64>,
    diag: Vec<f64>,
    alphas: Vec<f64>,
    errors: Vec<f64>,
    sets: Sets,
}

impl ActiveBlock {
    /// Splits the problem into active and shrunk points at the pass
    /// start (see the module docs for the rule).
    fn select(&mut self, errors: &[f64], sets: &Sets, ext: &Extremes) {
        self.active.clear();
        self.shrunk.clear();
        for (t, ((&e, &up), &low)) in errors.iter().zip(&sets.up).zip(&sets.low).enumerate() {
            if e + up <= ext.e_low || e + low >= ext.e_up {
                self.active.push(t);
            } else {
                self.shrunk.push(t);
            }
        }
    }

    /// Copies the active block out of the problem, reading each active
    /// row once.
    fn gather<R, E>(
        &mut self,
        labels: &[f64],
        diag: &[f64],
        st: &SmoState,
        sets: &Sets,
        row: &mut impl FnMut(usize) -> Result<R, E>,
    ) -> Result<(), E>
    where
        R: std::ops::Deref<Target = [f64]>,
    {
        let m = self.active.len();
        self.kernel.clear();
        self.kernel.reserve_exact(m * m);
        for &s in &self.active {
            let ks = row(s)?;
            self.kernel.extend(self.active.iter().map(|&t| ks[t]));
        }
        let pick = |out: &mut Vec<f64>, from: &[f64]| {
            out.clear();
            out.extend(self.active.iter().map(|&t| from[t]));
        };
        pick(&mut self.labels, labels);
        pick(&mut self.diag, diag);
        pick(&mut self.alphas, &st.alphas);
        pick(&mut self.errors, &st.errors);
        pick(&mut self.sets.up, &sets.up);
        pick(&mut self.sets.low, &sets.low);
        Ok(())
    }

    /// Writes the block's alphas and errors back into `st`, then brings
    /// every shrunk error up to date: `E_t += y_s (alpha_s' - alpha_s)
    /// K_st` over the active `s` that moved, one row read each.
    fn scatter<R, E>(
        &self,
        labels: &[f64],
        st: &mut SmoState,
        row: &mut impl FnMut(usize) -> Result<R, E>,
    ) -> Result<(), E>
    where
        R: std::ops::Deref<Target = [f64]>,
    {
        for ((&s, &a), &e) in self.active.iter().zip(&self.alphas).zip(&self.errors) {
            let delta = labels[s] * (a - st.alphas[s]);
            st.alphas[s] = a;
            st.errors[s] = e;
            if delta != 0.0 {
                let ks = row(s)?;
                for &t in &self.shrunk {
                    st.errors[t] += delta * ks[t];
                }
            }
        }
        Ok(())
    }
}

/// Runs one SMO pass — up to `n` working-set updates — fetching kernel
/// rows through `row(i)`; `diag[t] = K_tt`.
///
/// This is *the* pass loop — [`train_svc`] closes over direct
/// [`KernelSource::row`] reads (infallible), while the crash-safe
/// trainer closes over resident rows or its budgeted row cache (fallible
/// loads, chaos gates). Both paths execute identical float operations,
/// which is what makes a resumed training run bitwise equal to an
/// uninterrupted one. `block` is the run's compaction scratch.
///
/// The pass ends early once the certificate over its active set holds or
/// an update makes no progress. A pass with at least one update counts
/// toward `total_passes` and ends with every error current and the bias
/// refit; a pass with none leaves the state untouched, so the caller
/// stops on it (converged or stalled) and a resumed run re-derives the
/// same stop. Returns what the pass did, or the first row-fetch error.
pub(crate) fn pass_over<R, E>(
    labels: &[f64],
    diag: &[f64],
    params: &SmoParams,
    st: &mut SmoState,
    block: &mut ActiveBlock,
    row: impl FnMut(usize) -> Result<R, E>,
) -> Result<Pass, E>
where
    R: std::ops::Deref<Target = [f64]>,
{
    pass_with(labels, diag, params, st, block, row, |_, _, _, _| {})
}

/// [`pass_over`], calling `on_step(i, alpha_i, j, alpha_j)` (problem
/// indices, new alphas) after every update.
fn pass_with<R, E>(
    labels: &[f64],
    diag: &[f64],
    params: &SmoParams,
    st: &mut SmoState,
    block: &mut ActiveBlock,
    mut row: impl FnMut(usize) -> Result<R, E>,
    mut on_step: impl FnMut(usize, f64, usize, f64),
) -> Result<Pass, E>
where
    R: std::ops::Deref<Target = [f64]>,
{
    let (n, c) = (labels.len(), params.c);
    let mut sets = Sets::new(labels, &st.alphas, c);
    let mut ext = Extremes::scan(&st.errors, &sets);
    block.select(&st.errors, &sets, &ext);
    let active = block.active.len();
    let compacted = COMPACT * active <= n;
    let updates = if compacted {
        block.gather(labels, diag, st, &sets, &mut row)?;
        let mut block_ext = Extremes::scan(&block.errors, &block.sets);
        let (kernel, idx) = (&block.kernel, &block.active);
        run_updates(
            Arrays {
                labels: &block.labels,
                diag: &block.diag,
                alphas: &mut block.alphas,
                errors: &mut block.errors,
                sets: &mut block.sets,
            },
            params,
            n,
            &mut block_ext,
            &mut |a| Ok::<_, E>(&kernel[a * active..(a + 1) * active]),
            &mut |i, ai, j, aj| on_step(idx[i], ai, idx[j], aj),
        )?
    } else {
        run_updates(
            Arrays {
                labels,
                diag,
                alphas: &mut st.alphas,
                errors: &mut st.errors,
                sets: &mut sets,
            },
            params,
            n,
            &mut ext,
            &mut row,
            &mut on_step,
        )?
    };
    if updates > 0 {
        if compacted {
            block.scatter(labels, st, &mut row)?;
            ext = Extremes::scan(&st.errors, &Sets::new(labels, &st.alphas, c));
        }
        st.total_passes += 1;
        st.refit_bias(c, &ext);
    }
    Ok(Pass {
        updates,
        active,
        compacted,
    })
}

/// Up to `limit` updates over `b` while its certificate exceeds `tol`;
/// returns how many made progress.
fn run_updates<R, E>(
    mut b: Arrays<'_>,
    params: &SmoParams,
    limit: usize,
    ext: &mut Extremes,
    row: &mut impl FnMut(usize) -> Result<R, E>,
    on_step: &mut impl FnMut(usize, f64, usize, f64),
) -> Result<usize, E>
where
    R: std::ops::Deref<Target = [f64]>,
{
    let mut updates = 0usize;
    while updates < limit && ext.gap() > params.tol {
        let Some((i, j)) = update(&mut b, params.c, ext, row)? else {
            break;
        };
        on_step(i, b.alphas[i], j, b.alphas[j]);
        updates += 1;
    }
    Ok(updates)
}

/// One working-set update starting from `i = ext.i_up`. On progress the
/// errors, sets and `ext` are refreshed for the next update and the
/// stepped pair is returned; returns `None` (block untouched) when no
/// admissible `j` exists or the clipped step moves nothing.
fn update<R, E>(
    b: &mut Arrays<'_>,
    c: f64,
    ext: &mut Extremes,
    row: &mut impl FnMut(usize) -> Result<R, E>,
) -> Result<Option<(usize, usize)>, E>
where
    R: std::ops::Deref<Target = [f64]>,
{
    let i = ext.i_up;
    let ki = row(i)?;
    let Some(j) = select_j(i, b.diag, b.errors, &b.sets.low, &ki) else {
        return Ok(None);
    };
    let kj = row(j)?;

    let (yi, yj) = (b.labels[i], b.labels[j]);
    let (ai, aj) = (b.alphas[i], b.alphas[j]);
    // Feasible segment for alpha_j.
    let (lo, hi) = if yi != yj {
        ((aj - ai).max(0.0), (c + aj - ai).min(c))
    } else {
        ((ai + aj - c).max(0.0), (ai + aj).min(c))
    };
    let eta = (b.diag[i] + b.diag[j] - 2.0 * ki[j]).max(TAU);
    let aj_new = snap(
        (aj + yj * (b.errors[i] - b.errors[j]) / eta).clamp(lo, hi),
        c,
    );
    let ai_new = snap((ai + yi * yj * (aj - aj_new)).clamp(0.0, c), c);
    if ai_new == ai && aj_new == aj {
        return Ok(None);
    }
    b.alphas[i] = ai_new;
    b.alphas[j] = aj_new;
    b.sets.set(i, yi, ai_new, c);
    b.sets.set(j, yj, aj_new, c);

    // Error-cache refresh fused with the next update's extremes.
    let di = yi * (ai_new - ai);
    let dj = yj * (aj_new - aj);
    let mut next = Extremes::EMPTY;
    for (t, ((((e, &kit), &kjt), &up), &low)) in b
        .errors
        .iter_mut()
        .zip(ki.iter())
        .zip(kj.iter())
        .zip(&b.sets.up)
        .zip(&b.sets.low)
        .enumerate()
    {
        *e += di * kit + dj * kjt;
        next.observe(t, *e, up, low);
    }
    *ext = next;
    Ok(Some((i, j)))
}

/// The second-order choice of `j` for a fixed `i`: over `t` in `I_low`
/// with `E_t > E_i`, maximize `(E_t - E_i)^2 / max(K_ii + K_tt - 2 K_it,
/// tau)`. Gains are compared by cross-multiplying (both curvatures are
/// positive), so no division runs in the scan; ties keep the lowest
/// index.
fn select_j(i: usize, diag: &[f64], errors: &[f64], low: &[f64], ki: &[f64]) -> Option<usize> {
    let (ei, kii) = (errors[i], diag[i]);
    let mut best = None;
    let (mut best_b2, mut best_a) = (0.0f64, 1.0f64);
    for (t, (((&e, &mask), &ktt), &kit)) in errors.iter().zip(low).zip(diag).zip(ki).enumerate() {
        // Non-candidates get gain 0, which never beats `best`.
        let b = (e + mask - ei).max(0.0);
        let curv = (kii + ktt - 2.0 * kit).max(TAU);
        let b2 = b * b;
        if b2 * best_a > best_b2 * curv {
            best = Some(t);
            best_b2 = b2;
            best_a = curv;
        }
    }
    best
}

fn train_impl<K: KernelSource + ?Sized>(
    kernel: &K,
    labels: &[f64],
    params: &SmoParams,
    hooks: Option<(&Obs, Option<&Journal>)>,
) -> TrainedSvm {
    let n = kernel.order();
    validate_inputs(n, labels, params);

    let _train_span = hooks.map(|(obs, _)| obs.span("smo_train"));
    let counters = hooks.map(|(obs, _)| {
        (
            obs.counter("svm.smo_passes"),
            obs.counter("svm.smo_updates"),
            obs.counter("svm.shrunk_passes"),
        )
    });
    if let Some((_, Some(journal))) = hooks {
        journal.event("smo_start").field_u64("n", n as u64).log();
    }

    let diag = RowSource::diagonal(kernel);
    let mut st = SmoState::fresh(labels);
    let mut block = ActiveBlock::default();
    let mut active_min = n;

    while st.should_continue(labels, params) {
        let _pass_span = hooks.map(|(obs, _)| obs.span("pass"));
        let pass = match pass_over(labels, &diag, params, &mut st, &mut block, |i| {
            Ok::<_, std::convert::Infallible>(kernel.row(i))
        }) {
            Ok(pass) => pass,
            Err(never) => match never {},
        };
        active_min = active_min.min(pass.active);
        if pass.updates == 0 {
            break;
        }
        if let Some((passes, updates, shrunk)) = &counters {
            passes.inc();
            updates.add(pass.updates as u64);
            shrunk.add(u64::from(pass.compacted));
        }
        if let Some((_, Some(journal))) = hooks {
            journal
                .event("smo_pass")
                .field_u64("pass", st.total_passes as u64)
                .field_u64("changed", pass.updates as u64)
                .field_u64("active", pass.active as u64)
                .log();
        }
    }

    let model = st.into_model(labels, params.c);
    if let Some((obs, journal)) = hooks {
        publish_model(obs, &model, params.c, active_min);
        if let Some(journal) = journal {
            journal
                .event("smo_done")
                .field_u64("passes", model.passes as u64)
                .field_u64("support_vectors", model.support_indices().len() as u64)
                .log();
            if let Err(e) = journal.flush() {
                eprintln!("qk-svm: journal flush failed: {e}");
            }
        }
    }
    model
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::KernelMatrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn decision_values_block_matches_per_row() {
        let svm = TrainedSvm {
            alphas: vec![0.5, 0.0, 1.2],
            bias: -0.3,
            labels: vec![1.0, -1.0, -1.0],
            passes: 1,
            kkt_violation: f64::NAN,
            duality_gap: f64::NAN,
        };
        let block = crate::kernel::KernelBlock::from_fn(4, 3, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs())
        });
        let batched = svm.decision_values_block(&block);
        assert_eq!(batched.len(), 4);
        for (i, &d) in batched.iter().enumerate() {
            assert_eq!(d, svm.decision_value(block.row(i)), "row {i}");
        }
    }

    /// Linear kernel on explicit points: k(x, y) = <x, y>.
    fn linear_kernel(points: &[Vec<f64>]) -> KernelMatrix {
        KernelMatrix::from_fn(points.len(), |i, j| {
            points[i].iter().zip(&points[j]).map(|(a, b)| a * b).sum()
        })
    }

    /// A random RBF problem: `n` points in the unit square, labels from
    /// a noisy circle so some points sit on the wrong side.
    pub(crate) fn rbf_problem(n: usize, seed: u64) -> (KernelMatrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pts: Vec<[f64; 2]> = (0..n).map(|_| [rng.gen(), rng.gen()]).collect();
        let mut labels: Vec<f64> = pts
            .iter()
            .map(|p| {
                let r2 = (p[0] - 0.5).powi(2) + (p[1] - 0.5).powi(2);
                let flip = rng.gen::<f64>() < 0.1;
                if (r2 < 0.08) != flip {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        labels[0] = 1.0;
        labels[n - 1] = -1.0;
        let k = KernelMatrix::from_fn(n, |i, j| {
            let d2 = (pts[i][0] - pts[j][0]).powi(2) + (pts[i][1] - pts[j][1]).powi(2);
            (-4.0 * d2).exp()
        });
        (k, labels)
    }

    /// `E_t = f(x_t) - y_t`, recomputed from the alphas in O(n^2).
    fn brute_errors(k: &KernelMatrix, y: &[f64], alphas: &[f64], bias: f64) -> Vec<f64> {
        (0..y.len())
            .map(|t| {
                let f: f64 = (0..y.len()).map(|s| alphas[s] * y[s] * k.get(t, s)).sum();
                f + bias - y[t]
            })
            .collect()
    }

    /// `sum alpha - 1/2 alpha^T Q alpha`, in O(n^2).
    fn brute_dual(k: &KernelMatrix, y: &[f64], alphas: &[f64]) -> f64 {
        let n = y.len();
        let mut w2 = 0.0;
        for i in 0..n {
            for j in 0..n {
                w2 += alphas[i] * alphas[j] * y[i] * y[j] * k.get(i, j);
            }
        }
        alphas.iter().sum::<f64>() - 0.5 * w2
    }

    /// The certificate and the primal–dual gap, recomputed from the
    /// alphas and bias alone.
    fn brute_certificate(k: &KernelMatrix, y: &[f64], m: &TrainedSvm, c: f64) -> (f64, f64) {
        let e = brute_errors(k, y, &m.alphas, m.bias);
        let (mut up, mut low) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in 0..y.len() {
            if in_up(y[t], m.alphas[t], c) {
                up = up.min(e[t]);
            }
            if in_low(y[t], m.alphas[t], c) {
                low = low.max(e[t]);
            }
        }
        let dual = brute_dual(k, y, &m.alphas);
        let w2 = 2.0 * (m.alphas.iter().sum::<f64>() - dual);
        let hinge: f64 = (0..y.len()).map(|t| (-y[t] * e[t]).max(0.0)).sum();
        (low - up, 0.5 * w2 + c * hinge - dual)
    }

    /// Two points on a line, hand-solved: the hard margin between
    /// `x = 1` (+1) and `x = -3` (-1) is `w = 1/2`, `b = 1/2`, so each
    /// alpha is `w / 4 = 1/8`. Every value is a dyadic rational, so the
    /// solver must hit it exactly and certify a zero gap.
    #[test]
    fn two_point_problem_is_solved_exactly() {
        let k = linear_kernel(&[vec![1.0], vec![-3.0]]);
        let model = train_svc(&k, &[1.0, -1.0], &SmoParams::with_c(10.0));
        assert_eq!(model.alphas, vec![0.125, 0.125]);
        assert_eq!(model.bias, 0.5);
        assert_eq!(model.kkt_violation, 0.0);
        assert_eq!(model.duality_gap, 0.0);
        assert_eq!(model.passes, 1);
    }

    /// At every `C` from heavily regularized to nearly hard-margin, the
    /// model exits certified: gap at most `tol`, the reported gap and
    /// duality gap equal to a brute-force recomputation from the alphas,
    /// and a non-negative duality gap.
    #[test]
    fn random_rbf_problems_exit_certified() {
        for seed in 0..4u64 {
            let (k, y) = rbf_problem(60, seed);
            for c in [0.01, 1.0, 256.0] {
                let params = SmoParams::with_c(c);
                let m = train_svc(&k, &y, &params);
                let (kkt, dgap) = brute_certificate(&k, &y, &m, c);
                assert!(m.passes < params.max_total_passes, "seed {seed} C {c}");
                assert!(
                    m.kkt_violation <= params.tol,
                    "seed {seed} C {c}: gap {}",
                    m.kkt_violation
                );
                assert!(
                    (m.kkt_violation - kkt).abs() <= 1e-9,
                    "seed {seed} C {c}: reported {} vs brute force {kkt}",
                    m.kkt_violation
                );
                assert!(
                    (m.duality_gap - dgap).abs() <= 1e-9 * (1.0 + dgap.abs()),
                    "seed {seed} C {c}: reported {} vs brute force {dgap}",
                    m.duality_gap
                );
                assert!(m.duality_gap >= 0.0, "seed {seed} C {c}: {}", m.duality_gap);
                let balance: f64 = m.alphas.iter().zip(&y).map(|(a, yi)| a * yi).sum();
                assert!(balance.abs() < 1e-9 * (1.0 + c), "sum alpha y = {balance}");
            }
        }
    }

    /// Large enough that shrinking engages: at `C >= 16` the solver
    /// needs more than one pass, and after the first at most half the
    /// points stay active. (`C = 1` certifies in one full pass.)
    #[test]
    fn shrunk_runs_exit_certified() {
        let (k, y) = rbf_problem(200, 1);
        for c in [1.0, 16.0, 256.0] {
            let params = SmoParams::with_c(c);
            let obs = Obs::new();
            let m = train_svc_observed(&k, &y, &params, &obs, None);
            let snap = obs.registry_snapshot();
            if c >= 16.0 {
                assert!(
                    snap.counters["svm.shrunk_passes"] >= 1,
                    "C {c}: no pass ran compacted"
                );
                assert!(snap.gauges["svm.active_min"] * 2 <= y.len() as i64);
            }
            let (kkt, dgap) = brute_certificate(&k, &y, &m, c);
            assert!(m.kkt_violation <= params.tol, "C {c}: {}", m.kkt_violation);
            assert!(
                (m.kkt_violation - kkt).abs() <= 1e-9,
                "C {c}: reported {} vs brute force {kkt}",
                m.kkt_violation
            );
            assert!(
                (m.duality_gap - dgap).abs() <= 1e-9 * (1.0 + dgap.abs()),
                "C {c}: reported {} vs brute force {dgap}",
                m.duality_gap
            );
            assert!(m.duality_gap >= 0.0, "C {c}: {}", m.duality_gap);
            assert_eq!(
                snap.gauges["svm.support_vectors"],
                m.support_indices().len() as i64
            );
            let at_c = m.alphas.iter().filter(|&&a| a == c).count();
            assert_eq!(snap.gauges["svm.at_bound"], at_c as i64);
        }
    }

    /// Every single update is an ascent step on the dual objective, at
    /// every `C` (up to the rounding of the O(n^2) evaluation), on full
    /// and compacted passes alike.
    #[test]
    fn dual_objective_never_decreases_across_updates() {
        let (k, y) = rbf_problem(120, 11);
        let diag: Vec<f64> = (0..y.len()).map(|t| k.get(t, t)).collect();
        let mut compacted = 0usize;
        for c in [0.01, 1.0, 256.0] {
            let params = SmoParams::with_c(c);
            let mut st = SmoState::fresh(&y);
            let mut block = ActiveBlock::default();
            let mut alphas = st.alphas.clone();
            let mut dual = brute_dual(&k, &y, &alphas);
            let mut updates = 0usize;
            while st.should_continue(&y, &params) {
                let pass = pass_with(
                    &y,
                    &diag,
                    &params,
                    &mut st,
                    &mut block,
                    |i| Ok::<_, std::convert::Infallible>(k.row(i)),
                    |i, ai, j, aj| {
                        alphas[i] = ai;
                        alphas[j] = aj;
                        let after = brute_dual(&k, &y, &alphas);
                        assert!(
                            after >= dual - 1e-12 * (1.0 + dual.abs()),
                            "C {c} update {updates}: dual {dual} -> {after}"
                        );
                        dual = after;
                        updates += 1;
                    },
                )
                .unwrap();
                if pass.updates == 0 {
                    break;
                }
                compacted += usize::from(pass.compacted);
                // The hook saw every step the pass scattered back.
                assert_eq!(alphas, st.alphas, "C {c}");
            }
            assert!(updates > 0);
            // The hand-driven loop is train_svc's: same model.
            let model = train_svc(&k, &y, &params);
            assert_eq!(st.alphas, model.alphas, "C {c}");
            assert_eq!(st.bias.to_bits(), model.bias.to_bits(), "C {c}");
        }
        assert!(compacted > 0, "no compacted pass was checked");
    }

    /// An indefinite kernel has pairs with `K_ii + K_jj - 2 K_ij <= 0`.
    /// The curvature floor turns those into box-clipped steps, so
    /// training still terminates — certified or stalled — well before
    /// the pass cap, with feasible duals.
    #[test]
    fn indefinite_kernel_terminates() {
        let n = 30;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let vals: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.5..1.5)).collect();
        let k = KernelMatrix::from_fn(n, |i, j| if i == j { 1.0 } else { vals[i * n + j] });
        let eta_nonpositive = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .any(|(i, j)| i != j && k.get(i, i) + k.get(j, j) - 2.0 * k.get(i, j) <= 0.0);
        assert!(
            eta_nonpositive,
            "fixture must hold non-positive curvature pairs"
        );
        let y: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        for c in [0.5, 4.0] {
            let params = SmoParams::with_c(c);
            let m = train_svc(&k, &y, &params);
            assert!(m.passes < params.max_total_passes, "C {c}: hit the cap");
            assert!(m.kkt_violation.is_finite() && m.bias.is_finite());
            assert!(m.alphas.iter().all(|&a| (0.0..=c).contains(&a)));
        }
    }

    #[test]
    fn separates_trivial_1d() {
        let pts: Vec<Vec<f64>> = vec![vec![-2.0], vec![-1.5], vec![1.5], vec![2.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(1.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(k.row(i)), yi, "point {i}");
        }
    }

    #[test]
    fn separates_2d_margin() {
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![2.0, 1.5],
            vec![1.5, 2.0],
            vec![-1.0, -1.0],
            vec![-2.0, -1.5],
            vec![-1.5, -0.5],
        ];
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(10.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(k.row(i)), yi, "point {i}");
        }
        // Support vectors exist and duals respect the box.
        assert!(!model.support_indices().is_empty());
        assert!(model
            .alphas
            .iter()
            .all(|&a| (0.0..=10.0 + 1e-9).contains(&a)));
    }

    #[test]
    fn dual_constraint_holds() {
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i as f64) - 4.5, ((i * 7) % 10) as f64 / 3.0])
            .collect();
        let y: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(2.0));
        let balance: f64 = model.alphas.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(balance.abs() < 1e-8, "sum alpha_i y_i = {balance}");
    }

    #[test]
    fn xor_needs_nonlinear_kernel() {
        // XOR points: linear kernel fails, RBF-style kernel succeeds.
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0],
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let rbf = KernelMatrix::from_fn(4, |i, j| {
            let d2: f64 = pts[i]
                .iter()
                .zip(&pts[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (-0.5 * d2).exp()
        });
        let model = train_svc(&rbf, &y, &SmoParams::with_c(10.0));
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(model.predict(rbf.row(i)), yi, "xor point {i}");
        }
    }

    #[test]
    fn small_c_bounds_alphas() {
        let pts: Vec<Vec<f64>> = vec![vec![-1.0], vec![-0.5], vec![0.5], vec![1.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let k = linear_kernel(&pts);
        let c = 0.01;
        let model = train_svc(&k, &y, &SmoParams::with_c(c));
        assert!(model.alphas.iter().all(|&a| a <= c + 1e-12));
    }

    #[test]
    fn noisy_data_terminates() {
        // Overlapping classes: SMO must stop on the certificate.
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![((i * 37) % 13) as f64 / 6.0 - 1.0])
            .collect();
        let y: Vec<f64> = (0..30)
            .map(|i| if (i * 17) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = linear_kernel(&pts);
        let params = SmoParams::with_c(1.0);
        let model = train_svc(&k, &y, &params);
        assert!(model.passes < params.max_total_passes);
        assert!(model.kkt_violation <= params.tol);
        assert!(model.alphas.iter().all(|a| a.is_finite()));
        assert!(model.bias.is_finite());
    }

    #[test]
    fn decision_values_batch() {
        let pts: Vec<Vec<f64>> = vec![vec![-1.0], vec![1.0]];
        let y = vec![-1.0, 1.0];
        let k = linear_kernel(&pts);
        let model = train_svc(&k, &y, &SmoParams::with_c(5.0));
        let rows: Vec<&[f64]> = (0..2).map(|i| k.row(i)).collect();
        let dv = model.decision_values(rows.into_iter());
        assert!(dv[0] < 0.0 && dv[1] > 0.0);
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let k = KernelMatrix::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        train_svc(&k, &[1.0, 1.0], &SmoParams::default());
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn bad_labels_panic() {
        let k = KernelMatrix::from_fn(2, |i, j| if i == j { 1.0 } else { 0.0 });
        train_svc(&k, &[1.0, 0.0], &SmoParams::default());
    }

    /// A NaN `tol` makes every certificate comparison false, so without
    /// the up-front validation the solver would silently spin to
    /// `max_total_passes`. It must panic instead.
    #[test]
    #[should_panic(expected = "tol must be finite")]
    fn nan_tol_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        let params = SmoParams {
            tol: f64::NAN,
            ..SmoParams::default()
        };
        train_svc(&k, &[-1.0, 1.0], &params);
    }

    #[test]
    #[should_panic(expected = "tol must be finite")]
    fn infinite_tol_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        let params = SmoParams {
            tol: f64::INFINITY,
            ..SmoParams::default()
        };
        train_svc(&k, &[-1.0, 1.0], &params);
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn nan_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn infinite_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "C must be positive and finite")]
    fn nonpositive_c_panics() {
        let k = linear_kernel(&[vec![-1.0], vec![1.0]]);
        train_svc(&k, &[-1.0, 1.0], &SmoParams::with_c(0.0));
    }

    /// Instrumentation must observe the solver, never steer it: the
    /// observed path trains a bit-identical model, and the milestone
    /// counters and certificate gauges land in the shared registry.
    #[test]
    fn observed_training_is_bitwise_identical() {
        let pts: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64) - 5.5, ((i * 3) % 7) as f64 / 2.0])
            .collect();
        let y: Vec<f64> = (0..12)
            .map(|i| if (i * 5) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let k = linear_kernel(&pts);
        let params = SmoParams::with_c(1.5);
        let plain = train_svc(&k, &y, &params);
        let obs = Obs::new();
        let observed = train_svc_observed(&k, &y, &params, &obs, None);
        assert_eq!(plain.alphas, observed.alphas);
        assert_eq!(plain.bias.to_bits(), observed.bias.to_bits());
        assert_eq!(plain.passes, observed.passes);
        let snap = obs.registry_snapshot();
        assert_eq!(snap.counters["svm.smo_passes"], plain.passes as u64);
        assert!(snap.counters.contains_key("svm.smo_updates"));
        let kkt = snap.gauges["svm.kkt_violation"];
        assert_eq!(kkt, (plain.kkt_violation * 1e9).ceil() as i64);
        assert!(kkt <= (params.tol * 1e9) as i64);
        assert!(snap.gauges["svm.duality_gap"] >= 0);
    }
}
