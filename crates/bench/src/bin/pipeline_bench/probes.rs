//! Single-thread microprobes of the kernels under the pipeline, run in
//! the same process as the traced repetitions so that rates and their
//! ceilings come from one machine state.

use crate::common::{truncation, Instruments, Sampler};
use crate::ledger::zipper_flops;
use crate::stats::median;
use qk_circuit::{feature_map_circuit, route_for_mps, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator};
use qk_tensor::backend::CpuBackend;
use qk_tensor::matrix::gemm_serial;
use qk_tensor::{c64, svd, Complex64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// States simulated serially for `mps.sim_ms_per_state`.
const SIM_SAMPLE: usize = 16;
/// State pairs contracted for `mps.zipper_ns_per_ip`.
const ZIPPER_PAIRS: usize = 256;
/// A probe loops until it has run this long.
const PROBE_SECONDS: f64 = 0.02;
/// Last-level cache assumed when sysfs does not tell.
const DEFAULT_LLC_BYTES: usize = 32 << 20;
/// Largest bandwidth array, whatever the cache size.
const MAX_BW_ARRAY_BYTES: usize = 3 << 29;
/// Bandwidth array of a quick run, which only checks that the probe runs.
const QUICK_BW_ARRAY_BYTES: usize = 16 << 20;

/// Probe results; `insert_into` names them.
#[derive(Debug)]
pub struct Probes {
    pub gemm_peak_gflops: f64,
    pub gemm_ns_per_call_obs: f64,
    pub gemm_gflops_obs: f64,
    pub gemm_flops_per_byte_obs: f64,
    pub svd_us_obs: f64,
    pub mem_bw_gbs: f64,
    pub circuit_build_us: f64,
    pub sim_ms_per_state: f64,
    pub zipper_ns_per_ip: f64,
    pub zipper_flops_per_ip: f64,
}

fn random_matrix(len: usize, pick: &mut Sampler) -> Vec<Complex64> {
    let mut unit = || pick.below(1 << 20) as f64 / (1 << 19) as f64 - 1.0;
    (0..len).map(|_| c64(unit(), unit())).collect()
}

/// Seconds per call of `f`, looping until [`PROBE_SECONDS`] have passed.
fn seconds_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= PROBE_SECONDS {
            return elapsed / calls as f64;
        }
        batch *= 2;
    }
}

/// Seconds per `gemm_serial(m, k, n)` call on random operands.
fn gemm_seconds(m: usize, k: usize, n: usize, pick: &mut Sampler) -> f64 {
    let a = random_matrix(m * k, pick);
    let b = random_matrix(k * n, pick);
    let mut c = vec![Complex64::ZERO; m * n];
    seconds_per_call(|| {
        gemm_serial(m, k, n, black_box(&a), black_box(&b), &mut c);
        black_box(&c);
    })
}

fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, unit) = text.split_at(text.len().checked_sub(1)?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                _ => return None,
            };
            digits.parse::<usize>().ok()?.checked_mul(scale)
        })
        .max()
        .unwrap_or(DEFAULT_LLC_BYTES)
}

/// Streaming-read bandwidth over an array four times the last-level
/// cache and at most `max_bytes`: best of two passes. Returns
/// `(GB/s, cache bytes, array bytes)`.
fn memory_bandwidth(max_bytes: usize) -> (f64, usize, usize) {
    let llc = llc_bytes();
    let bytes = llc.saturating_mul(4).min(max_bytes);
    let array = vec![1.0f64; bytes / 8];
    let best = (0..2)
        .map(|_| {
            let t = Instant::now();
            black_box(black_box(&array).iter().sum::<f64>());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min);
    (bytes as f64 / best / 1e9, llc, bytes)
}

/// Runs every probe. `rows` feed the serial simulation sample; `states`
/// (at least two) feed the zipper sample and set the observed bond. A
/// `quick` run keeps the bandwidth array small.
pub fn run(rows: &[Vec<f64>], ansatz: &AnsatzConfig, states: &[Mps], quick: bool) -> Probes {
    let backend = CpuBackend::new();
    let mut pick = Sampler::new(0x5EED);

    // Peak: the blocked kernel on a cache-resident 256^3 product.
    let peak_s = (0..5)
        .map(|_| gemm_seconds(256, 256, 256, &mut pick))
        .fold(f64::MAX, f64::min);
    let gemm_peak_gflops = 8.0 * 256f64.powi(3) / peak_s / 1e9;

    // The zipper's first GEMM per site at the observed bond (the mean
    // largest bond of `states`): E[chi, chi] · B[chi, 2 chi].
    let chi = (states.iter().map(|s| s.max_bond()).sum::<usize>() as f64 / states.len() as f64)
        .round()
        .max(1.0) as usize;
    let gemm_s = gemm_seconds(chi, chi, 2 * chi, &mut pick);
    let gemm_flops = 8.0 * (chi * chi * 2 * chi) as f64;
    let gemm_bytes = 16.0 * (chi * chi + 2 * chi * 2 * chi) as f64;

    // The two-site SVD of gate application at the observed bond.
    let side = 2 * chi;
    let a = random_matrix(side * side, &mut pick);
    let svd_s = seconds_per_call(|| {
        black_box(svd(side, side, black_box(&a)));
    });

    let (mem_bw_gbs, llc, bw_array_bytes) = memory_bandwidth(if quick {
        QUICK_BW_ARRAY_BYTES
    } else {
        MAX_BW_ARRAY_BYTES
    });

    let sample = &rows[..rows.len().min(SIM_SAMPLE)];
    let t = Instant::now();
    for x in sample {
        black_box(route_for_mps(&feature_map_circuit(x, ansatz)));
    }
    let circuit_build_us = t.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    let sim = MpsSimulator::new(&backend).with_truncation(truncation());
    let t = Instant::now();
    for x in sample {
        black_box(sim.simulate(&feature_map_circuit(x, ansatz)));
    }
    let sim_ms_per_state = t.elapsed().as_secs_f64() * 1e3 / sample.len() as f64;

    let pairs: Vec<(usize, usize)> = (0..ZIPPER_PAIRS)
        .map(|_| (pick.below(states.len()), pick.below(states.len())))
        .collect();
    let zipper_pass = || {
        let t = Instant::now();
        for &(i, j) in &pairs {
            black_box(states[i].inner_with(&backend, &states[j]));
        }
        t.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64
    };
    zipper_pass();
    let zipper_ns_per_ip = median(&[zipper_pass(), zipper_pass(), zipper_pass()]);
    let zipper_flops_per_ip = pairs
        .iter()
        .map(|&(i, j)| zipper_flops(&states[i].bond_dims(), &states[j].bond_dims()))
        .sum::<f64>()
        / pairs.len() as f64;

    println!(
        "probes: observed bond {chi}, last-level cache {} MiB, bandwidth array {} MiB, \
         {} states simulated serially, {} zipper pairs",
        llc >> 20,
        bw_array_bytes >> 20,
        sample.len(),
        pairs.len(),
    );
    Probes {
        gemm_peak_gflops,
        gemm_ns_per_call_obs: gemm_s * 1e9,
        gemm_gflops_obs: gemm_flops / gemm_s / 1e9,
        gemm_flops_per_byte_obs: gemm_flops / gemm_bytes,
        svd_us_obs: svd_s * 1e6,
        mem_bw_gbs,
        circuit_build_us,
        sim_ms_per_state,
        zipper_ns_per_ip,
        zipper_flops_per_ip,
    }
}

impl Probes {
    /// Adds the probe metrics, and the ones computed from them, to `m`.
    /// `two_qubit_gates` is the mean per simulated state.
    pub fn insert_into(&self, m: &mut BTreeMap<&'static str, f64>, two_qubit_gates: f64) {
        m.insert("circuit.build_us_per_state", self.circuit_build_us);
        m.insert("tensor.gemm_peak_gflops", self.gemm_peak_gflops);
        m.insert("tensor.gemm_gflops_obs", self.gemm_gflops_obs);
        m.insert("tensor.gemm_ns_per_call_obs", self.gemm_ns_per_call_obs);
        // Computed from the operand shapes, not measured.
        m.insert(
            "tensor.gemm_flops_per_byte_obs",
            self.gemm_flops_per_byte_obs,
        );
        m.insert("tensor.svd_us_obs", self.svd_us_obs);
        m.insert("tensor.mem_bw_gbs", self.mem_bw_gbs);
        m.insert("mps.sim_ms_per_state", self.sim_ms_per_state);
        // Computed: one SVD per two-qubit gate at the observed bond.
        m.insert(
            "mps.svd_share_est",
            two_qubit_gates * self.svd_us_obs / (self.sim_ms_per_state * 1e3),
        );
        m.insert("mps.zipper_ns_per_ip", self.zipper_ns_per_ip);
        m.insert("mps.zipper_flops_per_ip", self.zipper_flops_per_ip);
        m.insert(
            "mps.zipper_model_ratio",
            self.zipper_flops_per_ip / self.zipper_ns_per_ip / self.gemm_peak_gflops,
        );
    }
}

/// Writes the traced repetitions' span rollup and Chrome trace (load in
/// Perfetto or `chrome://tracing`) under `out_dir`. Best effort: the
/// metrics do not depend on the files.
pub fn write_trace(out_dir: &Path, workload: &str, ins: &Instruments) {
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            ins.obs
                .report(workload)
                .write_json(&out_dir.join(format!("spans_{workload}.json")))
        })
        .and_then(|()| {
            qk_obs::trace::write_chrome_trace(
                &out_dir.join(format!("trace_{workload}.json")),
                &ins.tracer.events(),
            )
        });
    if let Err(e) = written {
        eprintln!(
            "pipeline_bench: trace not written under {}: {e}",
            out_dir.display()
        );
    }
}
