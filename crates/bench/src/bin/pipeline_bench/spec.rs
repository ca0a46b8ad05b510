//! The benchmark's fixed vocabulary: workloads, shapes and metric names.
//!
//! `BENCHMARK.json` at the repository root lists the same workload and
//! metric names with their bounds; a unit test in `main.rs` keeps the
//! two in step.

/// Gram and serve worker threads. Fixed, not `available_parallelism`,
/// so numbers stay comparable on hosts with more cores than the
/// 2-core box the bounds were measured on.
pub const WORKERS: usize = 2;

/// `run_seconds` of `BENCHMARK.json`: `--seconds` when it is not given.
pub const RUN_SECONDS: f64 = 22.0;

/// Fewest repetitions of the timed region, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Runs per set in `--selfcheck`, as in the acceptance procedure.
pub const SELFCHECK_RUNS: u64 = 10;

/// Pass cap for every SMO fit. Convergence at large `C` takes a number
/// of passes that swings ±30 % with the data seed; capping it makes the
/// largest fits of the sweep do the same work on every seed. Small `C`
/// converges far below the cap.
pub const SMO_PASS_CAP: usize = 800;

/// Passes between trainer snapshots on the checkpointed workload. At one
/// snapshot per pass (the `TrainerConfig` default) the sandbox's file
/// create-and-rename latency was 40 % of SMO time and drifted by half
/// over minutes, so the sweep measured the file system, not the solver.
pub const SMO_CKPT_EVERY: usize = 16;

/// Warm restarts timed on the checkpointed workload.
pub const WARM_RESTARTS: usize = 5;

/// Requests the serve load generator keeps in flight (closed loop).
pub const IN_FLIGHT: usize = 2;

/// What the timed region of a workload does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Features → trained model → held-out decisions, in memory, one
    /// SMO fit at `C = 1`.
    Batch,
    /// As `Batch`, with a checkpointed Gram, a checkpointed `C` sweep
    /// and warm restarts over the finished directories.
    Sweep,
    /// A `KernelServer` replaying a request stream; the model is fit
    /// during set-up.
    Serve {
        /// Distinct query points in the stream.
        distinct: usize,
        /// Timed requests per repetition.
        requests: usize,
        /// `ServeConfig::cache_capacity`.
        cache_capacity: usize,
        /// Whether every distinct query is served once, untimed, first.
        pre_touch: bool,
    },
}

/// One workload: the paper's ansatz shape plus problem size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// Ansatz layers `r`.
    pub layers: usize,
    /// Interaction distance `d`.
    pub distance: usize,
    /// Bandwidth `γ`.
    pub gamma: f64,
    /// Features = qubits `m`.
    pub features: usize,
    pub n_train: usize,
    /// Held-out points (batch kinds); unused by serve kinds.
    pub n_test: usize,
    /// Gram tile edge.
    pub tile: usize,
    pub kind: Kind,
}

impl Workload {
    /// The same shape at a sixteenth of the size, for the unit test: no
    /// fewer than 8 points, so that both classes are present, and an even
    /// number, which the stratified split returns exactly.
    pub fn quick(mut self) -> Workload {
        let cut = |n: usize| (n / 16).max(8).next_multiple_of(2);
        self.n_train = cut(self.n_train);
        self.n_test = cut(self.n_test);
        self.tile = cut(self.tile);
        if let Kind::Serve {
            distinct,
            requests,
            cache_capacity,
            pre_touch,
        } = self.kind
        {
            self.kind = Kind::Serve {
                distinct: cut(distinct),
                requests: cut(requests),
                cache_capacity: (cache_capacity / 16).max(2),
                pre_touch,
            };
        }
        self
    }
}

/// The five workloads. `m`, `r`, `d` and `γ` are the issue's; every `N`
/// is a half to a quarter of the issue's so that one repetition takes
/// 1-5 s and a run of `run_seconds` holds enough repetitions for a
/// median (README.md, "Sizes").
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wide_d1",
        why: "Paper's headline regime (m=64, d=1, chi=4) at N=512: training Gram ~60 % of fit, simulation \
              ~40 %; zipper call overhead, small-shape GEMM and tile scheduling carry it. SMO and checkpoints bypassed.",
        layers: 2,
        distance: 1,
        gamma: 0.5,
        features: 64,
        n_train: 512,
        n_test: 128,
        tile: 128,
        kind: Kind::Batch,
    },
    Workload {
        name: "deep_d3",
        why: "Fig. 5 regime (m=12, d=3, chi~33): simulation (gate apply, truncation, SVD) is ~98 % of fit, \
              Gram ~2 %; small enough for the exact statevector check. Bypasses the zipper.",
        layers: 2,
        distance: 3,
        gamma: 1.0,
        features: 12,
        n_train: 24,
        n_test: 24,
        tile: 32,
        kind: Kind::Batch,
    },
    Workload {
        name: "sweep_n1k",
        why: "Cheap inner products (m=8) at N=1024, 11 C values: SMO passes and row cache ~50 % of fit, \
              checkpointed Gram ~45 %, simulation ~9 %. Checkpoint writes and warm restarts are 1-4 %: per-layer only.",
        layers: 2,
        distance: 1,
        gamma: 0.5,
        features: 8,
        n_train: 1024,
        n_test: 256,
        tile: 128,
        kind: Kind::Sweep,
    },
    Workload {
        name: "serve_hot",
        why: "Cache-hit serving: 128 pre-touched queries replayed, so no request simulates; measures queue, \
              coalescing, kernel row, reply and the shared encoding-cache lock.",
        layers: 2,
        distance: 1,
        gamma: 0.5,
        features: 32,
        n_train: 256,
        n_test: 0,
        tile: 128,
        kind: Kind::Serve {
            distinct: 128,
            requests: 400,
            cache_capacity: 4096,
            pre_touch: true,
        },
    },
    Workload {
        name: "serve_cold",
        why: "Cache-miss serving: every query distinct and the cache smaller than the stream, so each request \
              pays MPS simulation plus insert and evict; bypasses the cache-hit path.",
        layers: 2,
        distance: 1,
        gamma: 0.5,
        features: 32,
        n_train: 256,
        n_test: 0,
        tile: 128,
        kind: Kind::Serve {
            distinct: 240,
            requests: 240,
            cache_capacity: 32,
            pre_touch: false,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An end-to-end metric, printed with `--trace 0`. Lower is better for
/// every one.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which a change may worsen it.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "fit_wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "predict_wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "predict_p95_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A metric
/// that a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("data.generate_s", "s"),
    ("data.prepare_s", "s"),
    ("circuit.build_us_per_state", "us"),
    ("circuit.gates_per_state", "count"),
    ("circuit.two_qubit_gates_per_state", "count"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.gemm_gflops_obs", "GFLOP/s"),
    ("tensor.gemm_ns_per_call_obs", "ns"),
    ("tensor.gemm_flops_per_byte_obs", "flop/B"),
    ("tensor.svd_us_obs", "us"),
    ("tensor.mem_bw_gbs", "GB/s"),
    ("mps.sim_ms_per_state", "ms"),
    ("mps.sim_cpu_s", "s"),
    ("mps.mean_max_bond", "count"),
    ("mps.peak_bond", "count"),
    ("mps.mean_state_bytes", "B"),
    ("mps.truncations_per_state", "count"),
    ("mps.discarded_weight_max", "1"),
    ("mps.svd_share_est", "1"),
    ("mps.zipper_ns_per_ip", "ns"),
    ("mps.zipper_flops_per_ip", "flop"),
    ("mps.zipper_model_ratio", "1"),
    ("core.simulate_wall_s", "s"),
    ("core.sim_states_per_s", "1/s"),
    ("core.simulate_par_eff", "1"),
    ("core.sim_fit_share", "1"),
    ("core.block_wall_s", "s"),
    ("core.decision_s", "s"),
    ("core.model_bytes", "B"),
    ("gram.wall_s", "s"),
    ("gram.ips_per_s", "1/s"),
    ("gram.ns_per_ip_wall", "ns"),
    ("gram.fit_share", "1"),
    ("gram.tile_overhead_share", "1"),
    ("gram.tiles_total", "count"),
    ("gram.tiles_stolen", "count"),
    ("gram.worker_utilization", "1"),
    ("gram.queue_wait_share", "1"),
    ("gram.assemble_share", "1"),
    ("gram.ckpt_write_share", "1"),
    ("gram.ckpt_bytes", "B"),
    ("gram.restore_s", "s"),
    ("svm.sweep_s", "s"),
    ("svm.train_s_cmax", "s"),
    ("svm.passes_total", "count"),
    ("svm.support_vectors", "count"),
    ("svm.cache_hits", "count"),
    ("svm.cache_misses", "count"),
    ("svm.ckpt_stores", "count"),
    ("svm.ns_per_row_touch", "ns"),
    ("svm.resume_s", "s"),
    ("svm.fit_share", "1"),
    ("svm.test_auc", "1"),
    ("ckpt.resume_wall_s", "s"),
    ("serve.rps", "1/s"),
    ("serve.p50_ms", "ms"),
    ("serve.p95_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.latency_samples", "count"),
    ("serve.stage.queue_us_p50", "us"),
    ("serve.stage.coalesce_us_p50", "us"),
    ("serve.stage.encode_us_p50", "us"),
    ("serve.stage.kernel_us_p50", "us"),
    ("serve.stage.reply_us_p50", "us"),
    ("serve.cache_hit_rate", "1"),
    ("serve.simulations", "count"),
    ("serve.evictions", "count"),
    ("serve.mean_batch", "count"),
    ("serve.rps_w1", "1/s"),
    ("serve.worker_scaling", "1"),
    ("obs.trace_overhead_share", "1"),
    ("ledger.unattributed_share", "1"),
    ("ledger.reps", "count"),
    ("ledger.rep_wall_s", "s"),
    ("ledger.fit_wall_s", "s"),
    ("ledger.predict_wall_s", "s"),
];
