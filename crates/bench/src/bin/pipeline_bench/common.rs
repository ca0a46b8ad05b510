//! Pieces both workload families share: run options, the operation
//! tally, data preparation and the repetition loop.

use crate::spec::{Workload, MIN_REPS};
use crate::stats::median;
use qk_circuit::AnsatzConfig;
use qk_data::{generate, prepare_experiment, SyntheticConfig};
use qk_mps::TruncationConfig;
use qk_obs::{Obs, SpanGuard, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seeds data generation and the query streams.
    pub seed: u64,
    /// Wall-clock budget of the timed region.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from alternating traced and untraced repetitions.
    pub trace: bool,
    /// The unit test's run: one repetition of each kind is enough, and
    /// the probes stay small.
    pub quick: bool,
    /// Directory for checkpoint files; created and removed per run.
    pub scratch: PathBuf,
    /// Where a traced run writes its span rollup and Chrome trace.
    pub out_dir: PathBuf,
}

/// Metric values by name, and the operation tally, of one run.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Operations attempted and failed: pipeline calls, served requests and
/// correctness comparisons all count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is named on stderr. Pass
    /// `format_args!` for a message that is only built on failure.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("pipeline_bench: FAILED: {what}");
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("pipeline_bench: FAILED: {failed} of {attempted} {what}");
        }
    }
}

/// The observability handles a traced repetition installs into the
/// config fields that accept them.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    pub obs: Obs,
    pub tracer: Tracer,
}

/// Opens a benchmark-side layer span on a traced repetition.
pub fn span(ins: Option<&Instruments>, name: &str) -> Option<SpanGuard> {
    ins.map(|i| i.obs.span(name))
}

/// Path of the span that wraps one repetition.
pub const REP_SPAN: &str = "rep";

/// Generated and preprocessed inputs of one workload.
pub struct Prepared {
    pub train_rows: Vec<Vec<f64>>,
    pub train_labels: Vec<f64>,
    pub test_rows: Vec<Vec<f64>>,
    pub test_labels: Vec<f64>,
    pub generate_s: f64,
    pub prepare_s: f64,
}

/// `qk_data::generate` → `prepare_experiment`, the paper's population
/// (4,545 illicit / 42,019 licit) at `m + 2` observed features.
/// `held_out` points come back as the test side of the 80/20 split; the
/// train side (four times as many) is cut to `w.n_train` rows.
pub fn prepare(w: &Workload, seed: u64, held_out: usize) -> Prepared {
    let t = Instant::now();
    let data = generate(&SyntheticConfig {
        num_features: w.features + 2,
        latent_dim: 6,
        noise: 0.5,
        seed,
        ..SyntheticConfig::default()
    });
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let split = prepare_experiment(&data, 5 * held_out, w.features, seed);
    assert!(
        split.train.len() >= w.n_train && split.test.len() == held_out,
        "split {}/{} cannot give {} train and {held_out} held-out rows",
        split.train.len(),
        split.test.len(),
        w.n_train
    );
    let train = split.train.select(&(0..w.n_train).collect::<Vec<_>>());
    let prepare_s = t.elapsed().as_secs_f64();
    Prepared {
        train_labels: train.label_signs(),
        train_rows: train.features,
        test_labels: split.test.label_signs(),
        test_rows: split.test.features,
        generate_s,
        prepare_s,
    }
}

/// Runs `f`, appending its wall seconds to `walls`.
pub fn timed<T>(walls: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    walls.push(t.elapsed().as_secs_f64());
    out
}

/// Repeats `rep(index)` until another repetition would overrun
/// `opts.seconds`, and at least [`MIN_REPS`] times (in a quick run once,
/// or twice when traced, which needs one repetition of each kind). `rep`
/// returns the wall time it used.
pub fn repeat(opts: &RunOptions, mut rep: impl FnMut(usize) -> f64) {
    let min_reps = match (opts.quick, opts.trace) {
        (false, _) => MIN_REPS,
        (true, false) => 1,
        (true, true) => 2,
    };
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(rep(walls.len()));
        let next_ends = start.elapsed().as_secs_f64() + median(&walls);
        if walls.len() >= min_reps && next_ends > opts.seconds {
            break;
        }
    }
}

/// In a traced run odd repetitions carry the instruments and even ones
/// run bare, so both kinds see the same machine state.
pub fn traced_rep(opts: &RunOptions, index: usize) -> bool {
    opts.trace && index % 2 == 1
}

/// The ansatz of a workload.
pub fn ansatz(w: &Workload) -> AnsatzConfig {
    AnsatzConfig::new(w.layers, w.distance, w.gamma)
}

/// The paper's truncation policy, spelled out so that a change to the
/// crate's default cannot loosen what the benchmark runs.
pub fn truncation() -> TruncationConfig {
    TruncationConfig {
        cutoff: 1e-16,
        max_bond: None,
    }
}

/// Deterministic index stream for sampling checks (SplitMix64).
pub struct Sampler(u64);

impl Sampler {
    pub fn new(seed: u64) -> Sampler {
        Sampler(seed)
    }

    /// Next index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
