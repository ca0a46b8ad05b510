//! Figure 5 + Table I: CPU/GPU runtime crossover as the qubit interaction
//! distance grows.
//!
//! For each `d`, simulates a batch of circuits and computes all pairwise
//! inner products twice: once on the wall clock (the CPU column) and once
//! priced by the accelerator's device model (the GPU column). Reports
//! median and quartiles of the per-circuit / per-inner-product times, plus
//! Table I (average largest bond dimension per pass and memory per MPS).
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin fig5_crossover -- \
//!     [--scale ci|default|paper] [--qubits M] [--dmax D] [--samples K]

use qk_bench::{median, quartiles, sample_rows, write_results, Args, Scale};
use qk_circuit::ansatz::{feature_map_circuit, swap_overhead, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::{tally, CpuBackend, DeviceModel};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct BackendPoint {
    backend: &'static str,
    interaction_distance: usize,
    /// The paper's SWAP count for this circuit (Sec. II-C: `2(k-1)` per
    /// distance-`k` gate).
    paper_swaps: usize,
    /// Two-qubit ops the simulator actually applied per circuit (RXX,
    /// fused SWAP-RXX and return SWAPs), from `SimRecord`.
    two_qubit_ops_applied: usize,
    sim_median: Duration,
    sim_q1: Duration,
    sim_q3: Duration,
    inner_median: Duration,
    inner_q1: Duration,
    inner_q3: Duration,
    avg_largest_chi: f64,
    avg_memory_mib: f64,
}

/// One column's clock: host wall time for the CPU, and for the
/// accelerator the device model's price of the CPU backend's calls
/// tallied while the closure ran (DESIGN.md substitution 1).
type Clock = fn(&mut dyn FnMut()) -> Duration;

fn wall(f: &mut dyn FnMut()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn priced(f: &mut dyn FnMut()) -> Duration {
    DeviceModel::default().price(&tally(f).1)
}

/// One pass over the circuits at distance `d`, every simulation and
/// pairwise inner product timed on `clock`.
fn run_pass(
    clock: Clock,
    name: &'static str,
    rows: &[Vec<f64>],
    d: usize,
    gamma: f64,
) -> BackendPoint {
    let cfg = AnsatzConfig::new(2, d, gamma);
    let sim = MpsSimulator::new(&CpuBackend).with_truncation(TruncationConfig::default());

    let mut sim_times = Vec::new();
    let mut states: Vec<Mps> = Vec::new();
    // The op count depends on (m, d, r) only, never on the data.
    let mut two_qubit_ops_applied = 0;
    for row in rows {
        let circuit = feature_map_circuit(row, &cfg);
        let mut out = None;
        sim_times.push(clock(&mut || out = Some(sim.simulate(&circuit))));
        let (mps, record) = out.expect("the clock runs its closure");
        two_qubit_ops_applied = record.two_qubit_gates;
        states.push(mps);
    }

    let mut inner_times = Vec::new();
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            inner_times.push(clock(&mut || {
                black_box(states[i].inner_with(&CpuBackend, &states[j]));
            }));
        }
    }

    let avg_chi = states.iter().map(|s| s.max_bond() as f64).sum::<f64>() / states.len() as f64;
    let avg_mem = states.iter().map(|s| s.memory_bytes() as f64).sum::<f64>()
        / states.len() as f64
        / (1024.0 * 1024.0);
    let (sim_q1, sim_q3) = quartiles(sim_times.clone());
    let (inner_q1, inner_q3) = quartiles(inner_times.clone());
    BackendPoint {
        backend: name,
        interaction_distance: d,
        paper_swaps: cfg.layers * swap_overhead(rows[0].len(), d),
        two_qubit_ops_applied,
        sim_median: median(sim_times),
        sim_q1,
        sim_q3,
        inner_median: median(inner_times),
        inner_q1,
        inner_q3,
        avg_largest_chi: avg_chi,
        avg_memory_mib: avg_mem,
    }
}

fn main() {
    let args = Args::from_env();
    // Paper: m = 100, r = 2, gamma = 1.0, d in {2,4,...,12}, 8 circuits.
    let (qubits, dmax, samples) = match args.scale() {
        Scale::Ci => (10, 3, 3),
        Scale::Default => (16, 4, 3),
        Scale::Paper => (100, 12, 8),
    };
    let qubits = args.get_or("qubits", qubits);
    let dmax = args.get_or("dmax", dmax);
    let samples = args.get_or("samples", samples);
    let gamma = args.get_or("gamma", 1.0);

    let rows = sample_rows(samples, qubits, 17);

    println!("Fig. 5 / Table I: CPU-GPU crossover (m = {qubits}, r = 2, gamma = {gamma})");
    println!("paper shape: GPU slower at small d (launch overhead), faster beyond the");
    println!("crossover (paper: d ~ 9, chi ~ 320); the accelerator column prices the");
    println!("CPU's tallied calls on a device model (see DESIGN.md substitution 1)\n");
    println!(
        "{:>3} {:>11} {:>8} {:>12} {:>12} {:>14} {:>14} | {:>9} {:>9} {:>10}",
        "d",
        "paper SWAPs",
        "2q ops",
        "cpu sim",
        "gpu sim",
        "cpu inner",
        "gpu inner",
        "chi(cpu)",
        "chi(gpu)",
        "MiB/MPS"
    );

    let mut points: Vec<BackendPoint> = Vec::new();
    let mut sim_crossover: Option<usize> = None;
    let mut inner_crossover: Option<usize> = None;
    for d in 1..=dmax {
        let p_cpu = run_pass(wall, "cpu", &rows, d, gamma);
        let p_acc = run_pass(priced, "accelerator", &rows, d, gamma);
        println!(
            "{:>3} {:>11} {:>8} {:>12.3?} {:>12.3?} {:>14.3?} {:>14.3?} | {:>9.1} {:>9.1} {:>10.3}",
            d,
            p_cpu.paper_swaps,
            p_cpu.two_qubit_ops_applied,
            p_cpu.sim_median,
            p_acc.sim_median,
            p_cpu.inner_median,
            p_acc.inner_median,
            p_cpu.avg_largest_chi,
            p_acc.avg_largest_chi,
            p_acc.avg_memory_mib
        );
        if sim_crossover.is_none() && p_acc.sim_median < p_cpu.sim_median {
            sim_crossover = Some(d);
        }
        if inner_crossover.is_none() && p_acc.inner_median < p_cpu.inner_median {
            inner_crossover = Some(d);
        }
        points.push(p_cpu);
        points.push(p_acc);
    }

    println!("\nTable I (average largest bond dimension and memory per MPS):");
    println!(
        "{:>12} {:>14} {:>14} {:>16}",
        "distance", "chi (GPU)", "chi (CPU)", "memory (MiB)"
    );
    for pair in points.chunks(2) {
        let (c, a) = (&pair[0], &pair[1]);
        println!(
            "{:>12} {:>14.3} {:>14.3} {:>16.4}",
            c.interaction_distance, a.avg_largest_chi, c.avg_largest_chi, a.avg_memory_mib
        );
    }
    match sim_crossover {
        Some(d) => println!("\nFig. 5a (simulation) crossover: accelerator faster from d = {d}"),
        None => println!("\nFig. 5a: no simulation crossover in range (increase --dmax)"),
    }
    match inner_crossover {
        Some(d) => println!("Fig. 5b (inner products) crossover: accelerator faster from d = {d}"),
        None => println!("Fig. 5b: no inner-product crossover in range (increase --dmax)"),
    }
    write_results("fig5_crossover", &points);
}
