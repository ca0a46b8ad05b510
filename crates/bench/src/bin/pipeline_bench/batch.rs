//! The batch workloads: features → trained model → held-out decisions,
//! driven through `simulate_states`, `GramEngine` and `Trainer`, each
//! call timed from outside.

use crate::common::{
    ansatz, peak_rss_mb, prepare, repeat, span, timed, traced_rep, truncation, Instruments,
    Prepared, RunOptions, RunOutput, Sampler, Tally, REP_SPAN,
};
use crate::ledger::{lane_shares, tile_overhead_share, unattributed_share};
use crate::probes;
use crate::spec::{Kind, Workload, SMO_CKPT_EVERY, SMO_PASS_CAP, WARM_RESTARTS, WORKERS};
use crate::stats::median;
use qk_circuit::{feature_map_circuit, AnsatzConfig};
use qk_core::{simulate_states, StateBatch};
use qk_gram::{encoding_fingerprint, GramConfig, GramEngine, GramReport, TiledKernel};
use qk_mps::TruncationConfig;
use qk_statevector::StateVector;
use qk_svm::{
    default_c_grid, roc_auc, KernelBlock, SmoParams, TrainOutcome, TrainedSvm, Trainer,
    TrainerConfig, TrainerStats,
};
use qk_tensor::backend::CpuBackend;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Widest register the dense statevector oracle is run on.
const ORACLE_MAX_QUBITS: usize = 16;
/// How far a Gram entry may sit from the statevector's.
const ORACLE_TOLERANCE: f64 = 1e-8;

/// Everything a repetition needs that set-up produced.
struct Job<'a> {
    w: &'a Workload,
    data: &'a Prepared,
    ansatz: AnsatzConfig,
    truncation: TruncationConfig,
    backend: CpuBackend,
    /// Regularization values trained, ascending.
    c_grid: Vec<f64>,
}

impl Job<'_> {
    fn encoding(&self) -> u64 {
        encoding_fingerprint(&self.ansatz, &self.truncation)
    }

    /// Gram engine: checkpointed under `dir` when given, else in memory.
    fn gram_engine(&self, dir: Option<&Path>, ins: Option<&Instruments>) -> GramEngine {
        let base = match dir {
            Some(dir) => GramConfig::checkpointed(dir.join("gram"), self.w.tile, self.encoding()),
            None => GramConfig::in_memory(self.w.tile),
        };
        GramEngine::new(GramConfig {
            workers: WORKERS,
            obs: ins.map(|i| i.obs.clone()),
            trace: ins.map(|i| i.tracer.clone()),
            ..base
        })
    }

    fn trainer(&self, dir: Option<&Path>, c_index: usize, ins: Option<&Instruments>) -> Trainer {
        Trainer::new(TrainerConfig {
            ckpt_dir: dir.map(|d| d.join(format!("svm_c{c_index}"))),
            ckpt_every: SMO_CKPT_EVERY,
            kernel_fingerprint: self.encoding(),
            obs: ins.map(|i| i.obs.clone()),
            ..TrainerConfig::default()
        })
    }

    fn smo_params(c: f64) -> SmoParams {
        SmoParams {
            max_total_passes: SMO_PASS_CAP,
            ..SmoParams::with_c(c)
        }
    }

    /// One fit per `C` over `kernel`; returns outcomes and seconds each.
    fn train_all(
        &self,
        kernel: &TiledKernel,
        dir: Option<&Path>,
        ins: Option<&Instruments>,
    ) -> (Vec<TrainOutcome>, Vec<f64>) {
        let mut outcomes = Vec::with_capacity(self.c_grid.len());
        let mut seconds = Vec::with_capacity(self.c_grid.len());
        for (k, &c) in self.c_grid.iter().enumerate() {
            let _s = span(ins, "svm.train");
            let t = Instant::now();
            let out = self
                .trainer(dir, k, ins)
                .train(kernel, &self.data.train_labels, &Self::smo_params(c))
                .expect("training without faults or pass budget cannot fail");
            seconds.push(t.elapsed().as_secs_f64());
            outcomes.push(out);
        }
        (outcomes, seconds)
    }
}

/// Outside timings of one repetition.
struct Timing {
    traced: bool,
    wall_s: f64,
    fit_s: f64,
    predict_s: f64,
    sim_train_s: f64,
    sim_test_s: f64,
    gram_s: f64,
    /// `Tracer::now_us` stamps around `compute_gram` (traced reps).
    gram_window_us: (u64, u64),
    /// Seconds per `C`, in grid order.
    smo_s: Vec<f64>,
    block_s: f64,
    decision_s: f64,
}

/// What one repetition computed. Only the newest is kept.
struct Outputs {
    train: StateBatch,
    test: StateBatch,
    gram: TiledKernel,
    gram_report: GramReport,
    block: KernelBlock,
    block_report: GramReport,
    models: Vec<TrainedSvm>,
    trainer_stats: Vec<TrainerStats>,
    /// Held-out decision values, one vector per `C`.
    decisions: Vec<Vec<f64>>,
}

fn one_rep(job: &Job, dir: Option<&Path>, ins: Option<&Instruments>) -> (Timing, Outputs) {
    let (data, be) = (job.data, &job.backend);
    let _rep = span(ins, REP_SPAN);
    let t_rep = Instant::now();

    let train = {
        let _s = span(ins, "core.simulate_states");
        simulate_states(&data.train_rows, &job.ansatz, be, &job.truncation)
    };
    let sim_train_s = t_rep.elapsed().as_secs_f64();

    let t = Instant::now();
    let stamp = |ins: Option<&Instruments>| ins.map_or(0, |i| i.tracer.now_us());
    let g0 = stamp(ins);
    let gram = {
        let _s = span(ins, "gram.compute_gram");
        job.gram_engine(dir, ins)
            .compute_gram(&train.states, be)
            .expect("training Gram")
    };
    let gram_window_us = (g0, stamp(ins));
    let gram_s = t.elapsed().as_secs_f64();

    let (outcomes, smo_s) = job.train_all(&gram.kernel, dir, ins);
    let fit_s = t_rep.elapsed().as_secs_f64();

    let t_predict = Instant::now();
    let test = {
        let _s = span(ins, "core.simulate_states");
        simulate_states(&data.test_rows, &job.ansatz, be, &job.truncation)
    };
    let sim_test_s = t_predict.elapsed().as_secs_f64();
    let t = Instant::now();
    let block = {
        let _s = span(ins, "gram.compute_block");
        job.gram_engine(None, ins)
            .compute_block(&test.states, &train.states, be)
            .expect("held-out block")
    };
    let block_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decisions: Vec<Vec<f64>> = {
        let _s = span(ins, "svm.decision_values_block");
        outcomes
            .iter()
            .map(|o| o.model.decision_values_block(&block.block))
            .collect()
    };
    let decision_s = t.elapsed().as_secs_f64();
    let predict_s = t_predict.elapsed().as_secs_f64();

    let (models, trainer_stats) = outcomes.into_iter().map(|o| (o.model, o.stats)).unzip();
    let timing = Timing {
        traced: ins.is_some(),
        wall_s: t_rep.elapsed().as_secs_f64(),
        fit_s,
        predict_s,
        sim_train_s,
        sim_test_s,
        gram_s,
        gram_window_us,
        smo_s,
        block_s,
        decision_s,
    };
    let outputs = Outputs {
        train,
        test,
        gram: gram.kernel,
        gram_report: gram.report,
        block: block.block,
        block_report: block.report,
        models,
        trainer_stats,
        decisions,
    };
    (timing, outputs)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_model(a: &TrainedSvm, b: &TrainedSvm) -> bool {
    same_bits(&a.alphas, &b.alphas) && a.bias.to_bits() == b.bias.to_bits() && a.passes == b.passes
}

/// Two repetitions of one seed must agree bit for bit.
fn check_repeatable(tally: &mut Tally, prev: &Outputs, cur: &Outputs) {
    tally.check(
        same_bits(prev.gram.data(), cur.gram.data()),
        "training Gram differs between repetitions",
    );
    tally.check(
        prev.decisions.len() == cur.decisions.len()
            && prev
                .decisions
                .iter()
                .zip(&cur.decisions)
                .all(|(a, b)| same_bits(a, b)),
        "decision values differ between repetitions",
    );
}

/// The correctness gate over one repetition's outputs.
fn check_outputs(tally: &mut Tally, job: &Job, rep: &Outputs, seed: u64) {
    let be = &job.backend;
    let n = rep.gram.len();
    let k = rep.gram.data();

    // A fidelity kernel: unit diagonal, symmetric, entries in [0, 1].
    let diagonal = (0..n).all(|i| (k[i * n + i] - 1.0).abs() <= 1e-9);
    tally.check(diagonal, "Gram diagonal is not 1");
    let symmetric =
        (0..n).all(|i| (0..i).all(|j| k[i * n + j].to_bits() == k[j * n + i].to_bits()));
    tally.check(symmetric, "Gram is not symmetric");
    let in_range = |xs: &[f64]| xs.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x));
    tally.check(in_range(k), "Gram entry outside [0, 1]");
    tally.check(
        (0..rep.block.rows()).all(|i| in_range(rep.block.row(i))),
        "block entry outside [0, 1]",
    );

    // Sampled off-diagonal entries against the generic-contraction
    // inner product (the engine writes the diagonal as exactly 1).
    let mut pick = Sampler::new(seed ^ 0xC0FFEE);
    for _ in 0..64 {
        let i = pick.below(n);
        let j = (i + 1 + pick.below(n - 1)) % n;
        let want = rep.train.states[i]
            .inner_via_contract(be, &rep.train.states[j])
            .norm_sqr();
        tally.check(
            (k[i * n + j] - want).abs() <= 1e-12,
            format_args!(
                "Gram[{i}][{j}] = {} but inner_via_contract gives {want}",
                k[i * n + j]
            ),
        );
    }
    for _ in 0..32 {
        let (i, j) = (pick.below(rep.block.rows()), pick.below(n));
        let want = rep.test.states[i]
            .inner_via_contract(be, &rep.train.states[j])
            .norm_sqr();
        tally.check(
            (rep.block.row(i)[j] - want).abs() <= 1e-12,
            format_args!("block[{i}][{j}] disagrees with inner_via_contract"),
        );
    }

    // Exact oracle where the dense simulator fits. The tolerance is a
    // constant, not the discarded weight the simulator reports, so that
    // truncating harder cannot pass. At the pinned 1e-16 cutoff a state
    // may drop a 1e-9 singular value and move an entry by 5e-10.
    if job.w.features <= ORACLE_MAX_QUBITS {
        let exact = |x: &[f64]| StateVector::simulate(&feature_map_circuit(x, &job.ansatz));
        for _ in 0..32 {
            let (i, j) = (pick.below(n), pick.below(n));
            let want = exact(&job.data.train_rows[i]).overlap_sqr(&exact(&job.data.train_rows[j]));
            tally.check(
                (k[i * n + j] - want).abs() <= ORACLE_TOLERANCE,
                format_args!(
                    "Gram[{i}][{j}] = {} but the statevector gives {want}",
                    k[i * n + j]
                ),
            );
        }
    }

    // Decision values against the dual form evaluated here.
    for (model, decisions) in rep.models.iter().zip(&rep.decisions) {
        let ok = decisions.iter().enumerate().all(|(i, &d)| {
            let row = rep.block.row(i);
            let want: f64 = model
                .alphas
                .iter()
                .zip(&model.labels)
                .zip(row)
                .map(|((a, y), kx)| a * y * kx)
                .sum::<f64>()
                + model.bias;
            (d - want).abs() <= 1e-9 * (1.0 + want.abs())
        });
        tally.check(ok, "decision value disagrees with the dual form");
    }
    tally.check(
        rep.decisions.iter().flatten().all(|d| d.is_finite()),
        "non-finite decision value",
    );

    // Engine-side failures: quarantined tiles and retried operations.
    for report in [&rep.gram_report, &rep.block_report] {
        tally.ops(
            report.tiles_total as u64,
            report.tiles_quarantined + report.retries,
            "tiles quarantined or retried",
        );
    }
}

/// Warm restarts over a finished checkpoint directory: the Gram must
/// restore every tile and every trainer resume to its finished model,
/// both bit for bit. Returns `(gram restore seconds, trainer resume
/// seconds)` summed over the restarts.
fn warm_restarts(tally: &mut Tally, job: &Job, rep: &Outputs, dir: &Path) -> (f64, f64) {
    let (mut restore_s, mut resume_s) = (0.0, 0.0);
    for _ in 0..WARM_RESTARTS {
        let t = Instant::now();
        let gram = job
            .gram_engine(Some(dir), None)
            .compute_gram(&rep.train.states, &job.backend)
            .expect("restored Gram");
        restore_s += t.elapsed().as_secs_f64();
        tally.check(
            gram.report.tiles_restored == gram.report.tiles_total
                && gram.report.tiles_computed == 0,
            "warm restart recomputed tiles",
        );
        tally.check(
            same_bits(gram.kernel.data(), rep.gram.data()),
            "restored Gram differs from the first pass",
        );
        let t = Instant::now();
        let (outcomes, _) = job.train_all(&gram.kernel, Some(dir), None);
        resume_s += t.elapsed().as_secs_f64();
        for (out, first) in outcomes.iter().zip(&rep.models) {
            tally.check(
                out.resumed_from_pass.is_some() && same_model(&out.model, first),
                "resumed model differs from the first pass",
            );
        }
    }
    (restore_s, resume_s)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Runs a batch workload and returns its metrics.
pub fn run(w: &Workload, opts: &RunOptions) -> RunOutput {
    let checkpointed = w.kind == Kind::Sweep;
    let mut setup_walls = Vec::new();
    let data = timed(&mut setup_walls, || prepare(w, opts.seed, w.n_test));
    let job = Job {
        w,
        data: &data,
        ansatz: ansatz(w),
        truncation: truncation(),
        backend: CpuBackend::new(),
        c_grid: if checkpointed {
            let mut grid = default_c_grid();
            grid.extend([16.0, 64.0, 256.0]);
            grid
        } else {
            vec![1.0]
        },
    };

    let mut tally = Tally::default();
    let ins = Instruments::default();
    let mut reps: Vec<Timing> = Vec::new();
    let mut newest: Option<Outputs> = None;
    let rep_dir = |index: usize| -> Option<PathBuf> {
        checkpointed.then(|| opts.scratch.join(format!("rep{index}")))
    };
    repeat(opts, |index| {
        let dir = rep_dir(index);
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir).expect("create checkpoint directory");
        }
        let traced = traced_rep(opts, index);
        let (timing, outputs) = one_rep(&job, dir.as_deref(), traced.then_some(&ins));
        let wall_s = timing.wall_s;
        // Only the newest repetition keeps its states, matrices and
        // checkpoint directory; older ones keep their timings.
        if let Some(prev) = &newest {
            check_repeatable(&mut tally, prev, &outputs);
            if let Some(prev_dir) = rep_dir(index - 1) {
                let _ = std::fs::remove_dir_all(prev_dir);
            }
        }
        newest = Some(outputs);
        println!(
            "rep {index}: fit {:.4} s (simulate {:.4}, gram {:.4}, smo {:.4}), predict {:.4} s{}",
            timing.fit_s,
            timing.sim_train_s,
            timing.gram_s,
            timing.smo_s.iter().sum::<f64>(),
            timing.predict_s,
            if timing.traced { ", traced" } else { "" },
        );
        reps.push(timing);
        // One more set-up after every repetition, so that `setup_s`
        // samples the same stretch of time as the other metrics.
        let t = Instant::now();
        timed(&mut setup_walls, || prepare(w, opts.seed, w.n_test));
        wall_s + t.elapsed().as_secs_f64()
    });

    let last = newest.as_ref().expect("at least one repetition");
    check_outputs(&mut tally, &job, last, opts.seed);
    let last_dir = rep_dir(reps.len() - 1);
    let gram_ckpt_bytes = last_dir.as_ref().map_or(0, |d| dir_bytes(&d.join("gram")));
    let (restore_s, resume_s) = match &last_dir {
        Some(dir) => warm_restarts(&mut tally, &job, last, dir),
        None => (0.0, 0.0),
    };
    if let Some(dir) = &last_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    // One pipeline call per layer per repetition.
    let calls = reps.len() as u64 * (4 + 2 * job.c_grid.len() as u64);
    tally.ops(calls, 0, "pipeline calls");

    let mut out = RunOutput {
        tally,
        ..RunOutput::default()
    };
    let m = &mut out.metrics;
    let bare: Vec<&Timing> = reps.iter().filter(|r| !r.traced).collect();
    let med = |f: fn(&Timing) -> f64| median(&bare.iter().map(|r| f(r)).collect::<Vec<_>>());
    let fit_s = med(|r| r.fit_s);
    let predict_s = med(|r| r.predict_s);

    m.insert("setup_s", median(&setup_walls));
    m.insert("fit_wall_s", fit_s);
    m.insert("predict_wall_s", predict_s);
    // Every held-out prediction is delivered when the block is done, so
    // each one, the slowest included, waits the whole predict phase.
    m.insert("predict_p95_ms", predict_s * 1e3);
    m.insert("peak_rss_mb", peak_rss_mb());
    if !opts.trace {
        return out;
    }

    // ---- per-layer ledger ------------------------------------------
    let traced: Vec<&Timing> = reps.iter().filter(|r| r.traced).collect();
    let probes = probes::run(
        &data.train_rows,
        &job.ansatz,
        &last.train.states,
        opts.quick,
    );
    let states = data.train_rows.len() + data.test_rows.len();
    let records = || last.train.records.iter().chain(&last.test.records);
    let per_state =
        |f: fn(&qk_mps::SimRecord) -> f64| records().map(f).sum::<f64>() / states as f64;
    let all_states = || last.train.states.iter().chain(&last.test.states);

    let sim_s = med(|r| r.sim_train_s + r.sim_test_s);
    let sim_cpu_s: f64 = records().map(|r| r.duration.as_secs_f64()).sum();
    let gram_s = med(|r| r.gram_s);
    let ips = last.gram_report.inner_products as u64;
    let smo_total = med(|r| r.smo_s.iter().sum());
    let touches: u64 = last
        .trainer_stats
        .iter()
        .map(|s| s.cache_hits + s.cache_misses)
        .sum();
    let best = (0..job.c_grid.len())
        .map(|k| roc_auc(&last.decisions[k], &data.test_labels))
        .fold(f64::MIN, f64::max);

    m.insert("data.generate_s", data.generate_s);
    m.insert("data.prepare_s", data.prepare_s);
    m.insert(
        "circuit.gates_per_state",
        per_state(|r| r.gates_applied as f64),
    );
    m.insert(
        "circuit.two_qubit_gates_per_state",
        per_state(|r| r.two_qubit_gates as f64),
    );
    m.insert("mps.sim_cpu_s", sim_cpu_s);
    m.insert(
        "mps.mean_max_bond",
        all_states().map(|s| s.max_bond() as f64).sum::<f64>() / states as f64,
    );
    m.insert(
        "mps.peak_bond",
        records().map(|r| r.peak_bond).max().unwrap_or(0) as f64,
    );
    m.insert(
        "mps.mean_state_bytes",
        all_states().map(|s| s.memory_bytes() as f64).sum::<f64>() / states as f64,
    );
    m.insert(
        "mps.truncations_per_state",
        per_state(|r| r.truncation.truncations as f64),
    );
    m.insert(
        "mps.discarded_weight_max",
        records()
            .map(|r| r.truncation.max_discarded_weight)
            .fold(0.0, f64::max),
    );
    m.insert("core.simulate_wall_s", sim_s);
    m.insert("core.sim_states_per_s", states as f64 / sim_s);
    m.insert(
        "core.simulate_par_eff",
        sim_cpu_s / (sim_s * WORKERS as f64),
    );
    m.insert("core.sim_fit_share", med(|r| r.sim_train_s) / fit_s);
    m.insert("core.block_wall_s", med(|r| r.block_s));
    m.insert("core.decision_s", med(|r| r.decision_s));
    m.insert("gram.wall_s", gram_s);
    m.insert("gram.ips_per_s", ips as f64 / gram_s);
    m.insert("gram.ns_per_ip_wall", gram_s * 1e9 / ips as f64);
    m.insert("gram.fit_share", gram_s / fit_s);
    m.insert(
        "gram.tile_overhead_share",
        tile_overhead_share(probes.zipper_ns_per_ip, ips, gram_s, WORKERS),
    );
    m.insert("gram.tiles_total", last.gram_report.tiles_total as f64);
    m.insert("gram.tiles_stolen", last.gram_report.tiles_stolen as f64);
    let events = ins.tracer.events();
    let newest_traced = traced.last().expect("a traced run has a traced repetition");
    let (g0, g1) = newest_traced.gram_window_us;
    let lanes = lane_shares(&events, g0, g1, WORKERS);
    m.insert("gram.worker_utilization", lanes.utilization);
    m.insert("gram.queue_wait_share", lanes.queue_wait);
    m.insert("gram.assemble_share", lanes.assemble);
    m.insert("gram.ckpt_write_share", lanes.ckpt_write);
    m.insert("gram.ckpt_bytes", gram_ckpt_bytes as f64);
    m.insert("gram.restore_s", restore_s);
    m.insert("svm.sweep_s", smo_total);
    m.insert("svm.train_s_cmax", med(|r| *r.smo_s.last().expect("one C")));
    m.insert(
        "svm.passes_total",
        last.models.iter().map(|s| s.passes as f64).sum(),
    );
    m.insert(
        "svm.support_vectors",
        last.models.last().expect("one C").support_indices().len() as f64,
    );
    let stat = |f: fn(&TrainerStats) -> u64| last.trainer_stats.iter().map(f).sum::<u64>() as f64;
    m.insert("svm.cache_hits", stat(|s| s.cache_hits));
    m.insert("svm.cache_misses", stat(|s| s.cache_misses));
    m.insert("svm.ckpt_stores", stat(|s| s.ckpt_stores));
    m.insert(
        "svm.ns_per_row_touch",
        smo_total * 1e9 / touches.max(1) as f64,
    );
    m.insert("svm.resume_s", resume_s);
    m.insert("svm.fit_share", smo_total / fit_s);
    m.insert("svm.test_auc", best);
    m.insert("ckpt.resume_wall_s", restore_s + resume_s);
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let bare_wall = med(|r| r.wall_s);
    m.insert(
        "obs.trace_overhead_share",
        (traced_wall - bare_wall) / bare_wall,
    );
    let spans = ins.obs.span_rollup();
    m.insert(
        "ledger.unattributed_share",
        unattributed_share(&spans, REP_SPAN),
    );
    m.insert("ledger.reps", reps.len() as f64);
    m.insert("ledger.rep_wall_s", bare_wall);
    m.insert("ledger.fit_wall_s", fit_s);
    m.insert("ledger.predict_wall_s", predict_s);
    probes.insert_into(m, per_state(|r| r.two_qubit_gates as f64));
    probes::write_trace(&opts.out_dir, w.name, &ins);
    out
}
