//! The serve workloads: a `KernelServer` over a model fit during
//! set-up, replaying a seeded request stream from one closed-loop
//! generator thread.

use crate::common::{
    ansatz, peak_rss_mb, prepare, repeat, span, timed, traced_rep, truncation, Instruments,
    RunOptions, RunOutput, Tally, REP_SPAN,
};
use crate::ledger::unattributed_share;
use crate::probes;
use crate::spec::{Kind, Workload, IN_FLIGHT, WORKERS};
use crate::stats::{median, percentile};
use qk_core::{simulate_states, QuantumKernelModel};
use qk_serve::{KernelServer, MetricsSnapshot, PendingPrediction, ServeConfig};
use qk_svm::{roc_auc, SmoParams};
use qk_tensor::backend::CpuBackend;
use std::collections::VecDeque;
use std::time::Instant;

/// States simulated for the zipper probe (the model's own are private).
const PROBE_STATES: usize = 24;

/// The fixed inputs of every repetition.
struct Stream<'a> {
    /// Serialized model; each repetition deserializes its own copy.
    model_bytes: &'a [u8],
    /// Distinct query points.
    queries: &'a [Vec<f64>],
    /// `predict_one` decision value per query.
    oracle: &'a [f64],
    /// Query index per timed request.
    order: &'a [usize],
    pre_touch: bool,
}

/// Outside timings and server counters of one repetition.
struct Rep {
    traced: bool,
    /// Whole repetition: deserialize, start, pre-touch, stream, shutdown.
    wall_s: f64,
    /// The timed request stream only.
    stream_s: f64,
    /// Exact `ServedPrediction::latency` per timed request, ms.
    latencies_ms: Vec<f64>,
    /// Counters over the timed stream (snapshot after − before).
    hits: u64,
    misses: u64,
    simulations: u64,
    evictions: u64,
    batches: u64,
    last: MetricsSnapshot,
}

fn one_rep(
    stream: &Stream,
    cfg: &ServeConfig,
    ins: Option<&Instruments>,
    tally: &mut Tally,
) -> Rep {
    let _rep = span(ins, REP_SPAN);
    let t_rep = Instant::now();
    let model = {
        let _s = span(ins, "core.from_bytes");
        QuantumKernelModel::from_bytes(stream.model_bytes)
    };
    let server = {
        let _s = span(ins, "serve.start");
        match ins {
            Some(i) => KernelServer::start_with_obs(model, cfg, i.obs.clone()),
            None => KernelServer::start(model, cfg),
        }
    };
    let handle = server.handle();

    // Every reply is checked against the `predict_one` oracle; a
    // refused or failed request counts as a failed operation.
    let mut settle = |query: usize, pending: Result<PendingPrediction, _>| -> Option<f64> {
        let served = pending.and_then(PendingPrediction::wait);
        let ok = served
            .as_ref()
            .is_ok_and(|s| s.prediction.decision_value.to_bits() == stream.oracle[query].to_bits());
        tally.check(
            ok,
            format_args!("served prediction for query {query}: {served:?}"),
        );
        served.ok().map(|s| s.latency.as_secs_f64() * 1e3)
    };

    if stream.pre_touch {
        let _s = span(ins, "serve.pre_touch");
        for (q, x) in stream.queries.iter().enumerate() {
            settle(q, handle.submit(x.clone()));
        }
    }

    let before = server.snapshot();
    let mut latencies_ms = Vec::with_capacity(stream.order.len());
    let t_stream = Instant::now();
    {
        let _s = span(ins, "serve.stream");
        let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
        for &q in stream.order {
            if in_flight.len() == IN_FLIGHT {
                let (sent, pending) = in_flight.pop_front().expect("window is full");
                latencies_ms.extend(settle(sent, pending));
            }
            in_flight.push_back((q, handle.submit(stream.queries[q].clone())));
        }
        for (sent, pending) in in_flight {
            latencies_ms.extend(settle(sent, pending));
        }
    }
    let stream_s = t_stream.elapsed().as_secs_f64();
    let after = server.snapshot();
    let last = {
        let _s = span(ins, "serve.shutdown");
        server.shutdown()
    };
    tally.ops(
        0,
        last.requests_shed + last.workers_restarted,
        "requests shed or workers restarted",
    );
    Rep {
        traced: ins.is_some(),
        wall_s: t_rep.elapsed().as_secs_f64(),
        stream_s,
        latencies_ms,
        hits: after.cache.hits - before.cache.hits,
        misses: after.cache.misses - before.cache.misses,
        simulations: after.simulations - before.simulations,
        evictions: after.cache.evictions - before.cache.evictions,
        batches: after.batches - before.batches,
        last,
    }
}

/// Runs a serve workload and returns its metrics.
pub fn run(w: &Workload, opts: &RunOptions) -> RunOutput {
    let Kind::Serve {
        distinct,
        requests,
        cache_capacity,
        pre_touch,
    } = w.kind
    else {
        unreachable!("serving::run is only given serve workloads");
    };
    let (ansatz, truncation, backend) = (ansatz(w), truncation(), CpuBackend::new());

    // Set-up: data, model fit, serialization.
    let mut setup_walls = Vec::new();
    let mut fit_walls = Vec::new();
    let mut setup = || {
        let data = prepare(w, opts.seed, distinct);
        let model = timed(&mut fit_walls, || {
            QuantumKernelModel::fit(
                &data.train_rows,
                &data.train_labels,
                &ansatz,
                &truncation,
                &SmoParams::with_c(1.0),
                &backend,
            )
        });
        (data, model.to_bytes())
    };
    let (data, model_bytes) = timed(&mut setup_walls, &mut setup);
    let oracle: Vec<f64> = {
        let model = QuantumKernelModel::from_bytes(&model_bytes);
        data.test_rows
            .iter()
            .map(|x| model.predict_one(x, &backend).decision_value)
            .collect()
    };
    // Stride 7 is coprime to every `distinct` in use, so the walk visits
    // each query before repeating one.
    let order: Vec<usize> = (0..requests).map(|i| (i * 7) % distinct).collect();
    let stream = Stream {
        model_bytes: &model_bytes,
        queries: &data.test_rows,
        oracle: &oracle,
        order: &order,
        pre_touch,
    };
    let config = |workers: usize, ins: Option<&Instruments>| ServeConfig {
        workers,
        cache_capacity,
        trace: ins.map(|i| i.tracer.clone()),
        ..ServeConfig::default()
    };

    let mut tally = Tally::default();
    let ins = Instruments::default();
    let mut reps: Vec<Rep> = Vec::new();
    repeat(opts, |index| {
        let traced = traced_rep(opts, index).then_some(&ins);
        let rep = one_rep(&stream, &config(WORKERS, traced), traced, &mut tally);
        let wall_s = rep.wall_s;
        println!(
            "rep {index}: stream {:.4} s, p50 {:.3} ms, p95 {:.3} ms{}",
            rep.stream_s,
            percentile(&rep.latencies_ms, 50.0),
            percentile(&rep.latencies_ms, 95.0),
            if rep.traced { ", traced" } else { "" },
        );
        reps.push(rep);
        // One more set-up after every repetition, so that `setup_s` and
        // `fit_wall_s` sample the same stretch of time as the stream.
        let t = Instant::now();
        timed(&mut setup_walls, &mut setup);
        wall_s + t.elapsed().as_secs_f64()
    });

    let bare: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let med = |f: fn(&Rep) -> f64| median(&bare.iter().map(|r| f(r)).collect::<Vec<_>>());
    let stream_s = med(|r| r.stream_s);
    let p50 = med(|r| percentile(&r.latencies_ms, 50.0));
    let p95 = med(|r| percentile(&r.latencies_ms, 95.0));

    let mut out = RunOutput::default();
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_walls));
    m.insert("fit_wall_s", median(&fit_walls));
    m.insert("predict_wall_s", stream_s);
    m.insert("predict_p95_ms", p95);
    m.insert("peak_rss_mb", peak_rss_mb());
    if !opts.trace {
        out.tally = tally;
        return out;
    }

    // ---- per-layer ledger ------------------------------------------
    // The same stream on one worker, for the scaling ratio.
    let single = one_rep(&stream, &config(1, None), None, &mut tally);
    let probe_rows = &data.test_rows[..data.test_rows.len().min(PROBE_STATES)];
    let batch = simulate_states(probe_rows, &ansatz, &backend, &truncation);
    let probes = probes::run(probe_rows, &ansatz, &batch.states, opts.quick);
    let per_state = |f: fn(&qk_mps::SimRecord) -> f64| {
        batch.records.iter().map(f).sum::<f64>() / batch.records.len() as f64
    };
    let last = reps
        .iter()
        .rev()
        .find(|r| !r.traced)
        .expect("a bare repetition");
    let rps = requests as f64 / stream_s;
    let rps_w1 = requests as f64 / single.stream_s;

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
    m.insert("mps.mean_max_bond", batch.mean_max_bond());
    m.insert(
        "mps.peak_bond",
        batch.records.iter().map(|r| r.peak_bond).max().unwrap_or(0) as f64,
    );
    m.insert("mps.mean_state_bytes", batch.mean_memory_bytes());
    m.insert(
        "mps.truncations_per_state",
        per_state(|r| r.truncation.truncations as f64),
    );
    m.insert(
        "mps.discarded_weight_max",
        batch
            .records
            .iter()
            .map(|r| r.truncation.max_discarded_weight)
            .fold(0.0, f64::max),
    );
    m.insert("core.model_bytes", model_bytes.len() as f64);
    m.insert("svm.test_auc", roc_auc(&oracle, &data.test_labels));
    m.insert("serve.rps", rps);
    m.insert("serve.p50_ms", p50);
    m.insert("serve.p95_ms", p95);
    m.insert("serve.p99_ms", med(|r| percentile(&r.latencies_ms, 99.0)));
    m.insert(
        "serve.latency_samples",
        bare.iter().map(|r| r.latencies_ms.len()).sum::<usize>() as f64,
    );
    for stage in &last.last.stages {
        let name = match stage.stage.as_str() {
            "queue" => "serve.stage.queue_us_p50",
            "coalesce" => "serve.stage.coalesce_us_p50",
            "encode" => "serve.stage.encode_us_p50",
            "kernel" => "serve.stage.kernel_us_p50",
            "reply" => "serve.stage.reply_us_p50",
            _ => continue,
        };
        m.insert(name, stage.p50.as_secs_f64() * 1e6);
    }
    let lookups = (last.hits + last.misses).max(1);
    m.insert("serve.cache_hit_rate", last.hits as f64 / lookups as f64);
    m.insert("serve.simulations", last.simulations as f64);
    m.insert("serve.evictions", last.evictions as f64);
    m.insert(
        "serve.mean_batch",
        requests as f64 / last.batches.max(1) as f64,
    );
    m.insert("serve.rps_w1", rps_w1);
    m.insert("serve.worker_scaling", rps / rps_w1);
    let traced_wall = median(
        &reps
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.wall_s)
            .collect::<Vec<_>>(),
    );
    let bare_wall = med(|r| r.wall_s);
    m.insert(
        "obs.trace_overhead_share",
        (traced_wall - bare_wall) / bare_wall,
    );
    m.insert(
        "ledger.unattributed_share",
        unattributed_share(&ins.obs.span_rollup(), REP_SPAN),
    );
    m.insert("ledger.reps", reps.len() as f64);
    m.insert("ledger.rep_wall_s", bare_wall);
    m.insert("ledger.fit_wall_s", median(&fit_walls));
    m.insert("ledger.predict_wall_s", stream_s);
    probes.insert_into(m, per_state(|r| r.two_qubit_gates as f64));
    probes::write_trace(&opts.out_dir, w.name, &ins);
    out.tally = tally;
    out
}
