//! Inner-product hot-path harness: old (contract-based) vs new
//! (zero-allocation zipper) kernel across a bond-dimension sweep.
//!
//! For each χ it measures:
//!
//! * **single-pair, old path** — `Mps::inner_via_contract` dispatched
//!   through a backend running the pre-PR unblocked GEMM
//!   (`gemm_unblocked_reference`): exactly the code that computed every
//!   Gram entry before the zipper kernel landed;
//! * **single-pair, new path** — `Mps::inner_into` with a reused
//!   [`ZipperWorkspace`] on the CPU backend: the fused small-bond site
//!   kernel at χ ≤ 4, the small and blocked GEMMs above;
//! * **tile-batched, new path** — one workspace carried across a whole
//!   row of inner products, the way `qk-gram` tile workers and `qk-serve`
//!   batch workers run it.
//!
//! One more row puts two threads on one shared `&CpuBackend` at χ = 4
//! over 64 sites (the paper's d = 1 regime, and how `qk-gram` and
//! `qk-serve` workers hold the backend): `shared_backend_scaling_chi4`
//! is 2-thread pairs/s over 1-thread pairs/s. It sits near 2 while the
//! backend is stateless and well under 1.5 when every GEMM call writes a
//! shared cache line; on a one-core host it says nothing, so the run
//! prints `available_parallelism` beside it.
//!
//! The theta rows time the truncation SVD on what the simulator really
//! hands it, the thetas of one feature-map state (captured through a
//! recording backend), because a random dense matrix converges in 6
//! sweeps whatever the Jacobi does on rank-deficient input. Two sets: the
//! 63 thetas of an m = 64, d = 1 state (χ = 4) and the 98 of an m = 12,
//! d = 3 state (χ ~ 32). Each theta runs on the dispatched `svd` (the AVX
//! kernels when the CPU has them) and on `svd_scalar`, which must return
//! the same bits. `svd_theta_speedup_chi{4,32}` is scalar time over
//! dispatched time on the whole set, the median of five rounds that time
//! both paths back to back, so the host's clock steps cancel; the ns rows
//! (`svd_theta_ns_chi4` a per-theta median, `svd_theta_ns_chi32` a mean,
//! since a median there would sit on an 8 x 8 theta and miss the 64 x 64
//! ones that carry the time) are informational. `svd_theta_sweeps_chi4`
//! (median) and `svd_theta_sweeps_chi32` (mean) are exact. No theta may
//! reach the sweep cap.
//!
//! Every cell cross-checks the two paths to 1e-12 (relative); `--smoke`
//! runs a seconds-level sweep whose only job is that assertion (CI runs
//! it on every push). Results land in `BENCH_kernel.json` under
//! `qk_bench::results_dir()`; `results/BENCH_kernel.json` is the
//! committed baseline `bench_compare` gates against.
//!
//! Usage:
//!   cargo run --release -p qk-bench --bin kernel_hotpath -- \
//!     [--chis 2,4,8,16,32,64,128] [--batch 16] [--smoke]

use qk_bench::schema::{BenchMeta, BenchResult, Direction};
use qk_bench::Args;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, TruncationConfig, ZipperWorkspace};
use qk_tensor::backend::{CpuBackend, ExecutionBackend};
use qk_tensor::complex::Complex64;
use qk_tensor::matrix::gemm_unblocked_reference;
use qk_tensor::svd::{svd, svd_scalar, Svd};
use qk_tensor::tensor::Tensor;
use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The pre-PR CPU backend: serial unblocked GEMM with the per-element
/// zero check. `inner_via_contract` through this backend reproduces the
/// old inner-product path operation for operation.
struct PrePrBackend;

impl ExecutionBackend for PrePrBackend {
    fn name(&self) -> &'static str {
        "pre-pr-reference"
    }

    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        gemm_unblocked_reference(m, k, n, a, b, c);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        svd(m, n, a)
    }
}

/// Serial CPU kernels that also keep a copy of every matrix handed to
/// `svd`: how the theta rows get the simulator's real SVD inputs.
#[derive(Default)]
struct ThetaCapture(Mutex<Vec<(usize, usize, Vec<Complex64>)>>);

impl ExecutionBackend for ThetaCapture {
    fn name(&self) -> &'static str {
        "theta-capture"
    }

    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        CpuBackend::new().gemm(m, k, n, a, b, c);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        let mut thetas = self.0.lock().expect("capture lock");
        thetas.push((m, n, a.to_vec()));
        svd(m, n, a)
    }
}

/// Every theta of one two-layer feature-map state on `qubits` qubits at
/// interaction distance `distance`, under the paper's 1e-16 cutoff.
fn feature_map_thetas(
    qubits: usize,
    distance: usize,
    gamma: f64,
) -> Vec<(usize, usize, Vec<Complex64>)> {
    let features: Vec<f64> = (0..qubits)
        .map(|i| 0.1 + 1.8 * (i as f64 * 0.618_033_988_75).fract())
        .collect();
    let circuit = feature_map_circuit(&features, &AnsatzConfig::new(2, distance, gamma));
    let capture = ThetaCapture::default();
    MpsSimulator::new(&capture)
        .with_truncation(TruncationConfig {
            cutoff: 1e-16,
            max_bond: None,
        })
        .simulate(&circuit);
    capture.0.into_inner().expect("capture lock")
}

/// One theta set timed on both SVD paths.
struct ThetaTimes {
    /// Per-theta ns per dispatched `svd` call (AVX kernels when present).
    ns: Vec<f64>,
    /// Per-theta Jacobi sweeps.
    sweeps: Vec<f64>,
    /// Scalar time over dispatched time for the whole set: the median over
    /// `ROUNDS` rounds, each timing every theta on both paths back to back.
    speedup: f64,
}

/// Times every theta on the dispatched `svd` and on `svd_scalar`, `budget`
/// split evenly over the thetas, paths and rounds. Panics if any
/// factorization ends on the sweep cap or the two paths differ in a bit.
fn time_theta_svds(
    thetas: &[(usize, usize, Vec<Complex64>)],
    budget: Duration,
    max_reps: usize,
) -> ThetaTimes {
    const ROUNDS: usize = 5;
    let mut sweeps = Vec::new();
    for (m, n, a) in thetas {
        let f = svd(*m, *n, a);
        assert!(f.converged(), "svd hit the sweep cap on a {m}x{n} theta");
        assert!(
            same_bits(&f, &svd_scalar(*m, *n, a)),
            "svd and svd_scalar differ on a {m}x{n} theta"
        );
        sweeps.push(f.sweeps as f64);
    }
    let slice = budget / (2 * ROUNDS * thetas.len()) as u32;
    let reps = max_reps.div_ceil(ROUNDS);
    let mut ns = vec![Vec::new(); thetas.len()];
    let mut ratios = Vec::new();
    for _ in 0..ROUNDS {
        let (mut fast, mut slow) = (0.0, 0.0);
        for ((m, n, a), ns) in thetas.iter().zip(&mut ns) {
            let t = time_per_call(|| drop(black_box(svd(*m, *n, black_box(a)))), slice, reps);
            let r = time_per_call(
                || drop(black_box(svd_scalar(*m, *n, black_box(a)))),
                slice,
                reps,
            );
            ns.push(t.as_nanos() as f64);
            fast += t.as_secs_f64();
            slow += r.as_secs_f64();
        }
        ratios.push(slow / fast.max(1e-12));
    }
    ThetaTimes {
        ns: ns.into_iter().map(median).collect(),
        sweeps,
        speedup: median(ratios),
    }
}

/// Bitwise equality of two factorizations: `u`, `s`, `vh` and sweeps.
fn same_bits(x: &Svd, y: &Svd) -> bool {
    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    bits(&x.u) == bits(&y.u)
        && bits(&x.vh) == bits(&y.vh)
        && x.s
            .iter()
            .map(|v| v.to_bits())
            .eq(y.s.iter().map(|v| v.to_bits()))
        && x.sweeps == y.sweeps
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Deterministic random MPS with a maximal bond profile capped at `chi`
/// (bonds grow 1, 2, 4, … toward the center), so the center of the chain
/// genuinely runs χ x χ zipper steps.
fn random_state(qubits: usize, chi: usize, seed: u64) -> Mps {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let bond = |q: usize| -> usize {
        let left = 1usize << q.min(60);
        let right = 1usize << (qubits - q).min(60);
        left.min(right).min(chi)
    };
    let sites = (0..qubits)
        .map(|q| {
            let (l, r) = (bond(q), bond(q + 1));
            let data = (0..l * 2 * r)
                .map(|_| Complex64::new(next(), next()))
                .collect();
            Tensor::from_data(&[l, 2, r], data)
        })
        .collect();
    let mut mps = Mps::from_sites(sites);
    mps.normalize();
    mps
}

/// Enough qubits that ~4 interior bonds sit at the full χ.
fn qubits_for(chi: usize) -> usize {
    2 * chi.next_power_of_two().trailing_zeros() as usize + 4
}

/// Median-free adaptive timer: repeats `f` until `min_total` elapses
/// (max `max_reps`), returns time per call.
fn time_per_call<F: FnMut()>(mut f: F, min_total: Duration, max_reps: usize) -> Duration {
    f(); // warm-up (also grows workspaces/pack buffers)
    let t0 = Instant::now();
    let mut reps = 0u32;
    loop {
        f();
        reps += 1;
        if t0.elapsed() >= min_total || reps as usize >= max_reps {
            break;
        }
    }
    t0.elapsed() / reps
}

/// Pairs per second of `threads` workers that share `be`, each carrying
/// its own workspace through `rounds` passes over `others` — the way a
/// Gram pool holds the backend. Workers start together on a barrier; the
/// second value is each worker's checksum (the bits of its running sum
/// of fidelities), equal across workers and thread counts.
fn shared_backend_pairs_per_s(
    threads: usize,
    rounds: usize,
    a: &Mps,
    others: &[Mps],
    be: &CpuBackend,
) -> (f64, Vec<u64>) {
    let gate = Barrier::new(threads + 1);
    let (elapsed, sums) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut ws = ZipperWorkspace::new();
                    black_box(a.inner_into(&mut ws, be, &others[0])); // warm-up
                    gate.wait();
                    let mut sum = 0.0f64;
                    for _ in 0..rounds {
                        for other in others {
                            sum +=
                                black_box(a.inner_into(&mut ws, be, black_box(other))).norm_sqr();
                        }
                    }
                    sum.to_bits()
                })
            })
            .collect();
        gate.wait();
        let t0 = Instant::now();
        let sums: Vec<u64> = workers
            .into_iter()
            .map(|w| w.join().expect("shared-backend worker panicked"))
            .collect();
        (t0.elapsed(), sums)
    });
    let pairs = (threads * rounds * others.len()) as f64;
    (pairs / elapsed.as_secs_f64().max(1e-12), sums)
}

struct Row {
    chi: usize,
    old_single_ns: u64,
    new_single_ns: u64,
    single_speedup: f64,
    new_batched_ns_per_pair: u64,
    batched_speedup: f64,
    max_rel_dev: f64,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let default_chis: &[usize] = if smoke {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let chis: Vec<usize> = match args.get("chis") {
        None => default_chis.to_vec(),
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().parse().expect("bad --chis"))
            .collect(),
    };
    let batch = args.get_or("batch", 16usize);
    let min_total = if smoke {
        Duration::from_millis(30)
    } else {
        Duration::from_millis(400)
    };
    let max_reps = if smoke { 10 } else { 4000 };
    const TOL: f64 = 1e-12;

    let old_be = PrePrBackend;
    let new_be = CpuBackend::new();

    println!("kernel_hotpath: batch={batch} smoke={smoke}");
    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>9} {:>14} {:>9} {:>10}",
        "chi", "qubits", "old/pair", "new/pair", "speedup", "batched/pair", "speedup", "max dev"
    );
    let mut rows = Vec::new();
    for &chi in &chis {
        let qubits = qubits_for(chi);
        let a = random_state(qubits, chi, 0xA5 + chi as u64);
        let b = random_state(qubits, chi, 0xB7 + chi as u64);
        let others: Vec<Mps> = (0..batch)
            .map(|i| random_state(qubits, chi, 0xC1 + (chi * 131 + i) as u64))
            .collect();

        // Correctness first: both paths agree on every pair this cell
        // will time (|z| is O(1) for normalized states, so the relative
        // scale is max(1, |old|)).
        let mut ws = ZipperWorkspace::new();
        let mut max_dev = 0.0f64;
        for other in others.iter().chain([&b]) {
            let old = a.inner_via_contract(&old_be, other);
            let new = a.inner_into(&mut ws, &new_be, other);
            let dev = (old - new).norm() / old.norm().max(1.0);
            max_dev = max_dev.max(dev);
        }
        assert!(
            max_dev <= TOL,
            "chi={chi}: new path deviates from reference by {max_dev:.3e} (tol {TOL:.0e})"
        );

        let old_single = time_per_call(
            || {
                black_box(a.inner_via_contract(&old_be, black_box(&b)));
            },
            min_total,
            max_reps,
        );
        let new_single = time_per_call(
            || {
                black_box(a.inner_into(&mut ws, &new_be, black_box(&b)));
            },
            min_total,
            max_reps,
        );
        let batched = time_per_call(
            || {
                for other in &others {
                    black_box(a.inner_into(&mut ws, &new_be, black_box(other)));
                }
            },
            min_total,
            max_reps,
        ) / batch as u32;

        let single_speedup = old_single.as_secs_f64() / new_single.as_secs_f64().max(1e-12);
        let batched_speedup = old_single.as_secs_f64() / batched.as_secs_f64().max(1e-12);
        println!(
            "{:>6} {:>7} {:>12.3?} {:>12.3?} {:>8.2}x {:>14.3?} {:>8.2}x {:>10.1e}",
            chi, qubits, old_single, new_single, single_speedup, batched, batched_speedup, max_dev
        );
        rows.push(Row {
            chi,
            old_single_ns: old_single.as_nanos() as u64,
            new_single_ns: new_single.as_nanos() as u64,
            single_speedup,
            new_batched_ns_per_pair: batched.as_nanos() as u64,
            batched_speedup,
            max_rel_dev: max_dev,
        });
    }

    // Shared-backend row: χ = 4 over 64 sites. Eight back-to-back
    // (1 thread, 2 threads) runs of about `min_total / 4` each; the
    // scaling is the median of the eight ratios, because on a shared host
    // the clock steps up and down between runs and only neighbours in
    // time compare.
    const SHARED_CHI: usize = 4;
    const SHARED_QUBITS: usize = 64;
    let a = random_state(SHARED_QUBITS, SHARED_CHI, 0xD3);
    let others: Vec<Mps> = (0..batch)
        .map(|i| random_state(SHARED_QUBITS, SHARED_CHI, 0xE5 + i as u64))
        .collect();
    let (probe, _) = shared_backend_pairs_per_s(1, 1, &a, &others, &new_be);
    let rounds = ((probe * min_total.as_secs_f64() / 4.0) as usize / batch).clamp(1, max_reps * 50);
    let mut best = [0.0f64; 2];
    let mut ratios = [0.0f64; 8];
    for ratio in &mut ratios {
        let (one, alone) = shared_backend_pairs_per_s(1, rounds, &a, &others, &new_be);
        let (two, shared) = shared_backend_pairs_per_s(2, rounds, &a, &others, &new_be);
        assert!(
            shared.iter().all(|&sum| sum == alone[0]),
            "two threads on one backend diverge from one: {shared:?} vs {alone:?}"
        );
        best = [best[0].max(one), best[1].max(two)];
        *ratio = two / one.max(1e-12);
    }
    let shared_scaling = median(ratios.to_vec());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "shared backend, chi={SHARED_CHI} x {SHARED_QUBITS} sites: up to {:.0} pairs/s on 1 thread, \
         {:.0} on 2 (median ratio {shared_scaling:.2}x; available_parallelism {cores})",
        best[0], best[1]
    );

    // Theta rows: the truncation SVD on one state's worth of real inputs
    // at the benchmark's two shapes (wide_d1: chi = 4; deep_d3: chi ~ 32).
    let wide = time_theta_svds(&feature_map_thetas(64, 1, 0.5), min_total, max_reps);
    let deep = time_theta_svds(&feature_map_thetas(12, 3, 1.0), min_total, max_reps);
    let theta_ns_chi4 = median(wide.ns.clone());
    let theta_sweeps_chi4 = median(wide.sweeps.clone());
    let theta_ns_chi32 = qk_bench::mean(&deep.ns);
    let theta_sweeps_chi32 = qk_bench::mean(&deep.sweeps);
    let max_sweeps = wide
        .sweeps
        .iter()
        .chain(&deep.sweeps)
        .fold(0.0, |a, &b| f64::max(a, b));
    println!(
        "theta svd: chi=4 median {theta_ns_chi4:.0} ns, {theta_sweeps_chi4} sweeps over {} thetas, \
         {:.2}x over scalar; chi~32 mean {theta_ns_chi32:.0} ns, {theta_sweeps_chi32:.4} sweeps over \
         {} thetas, {:.2}x over scalar; most sweeps on any theta {max_sweeps}",
        wide.ns.len(),
        wide.speedup,
        deep.ns.len(),
        deep.speedup,
    );

    if smoke {
        println!("kernel_hotpath smoke: new path matches the reference path on every cell");
        return;
    }
    let mut meta = BenchMeta::new("kernel", "timed");
    meta.n = batch;
    meta.chi = chis.iter().copied().max().unwrap_or(0);
    let mut result = BenchResult::new(meta);
    for row in &rows {
        let chi = row.chi;
        // The zipper rewrite's headline claim is the single-pair
        // speedup over the pre-PR path (~3x at real χ). χ ≥ 16 cells
        // time long enough to gate; the 45% tolerance rides out CI
        // noise yet trips long before a lost 3x (a regressed ratio sits
        // near 1). χ = 8 is sub-microsecond and stays informational.
        let gate = if chi >= 16 {
            Direction::Higher
        } else {
            Direction::Info
        };
        result.metric(
            &format!("single_speedup_chi{chi}"),
            row.single_speedup,
            0.45,
            gate,
        );
        result.info(&format!("batched_speedup_chi{chi}"), row.batched_speedup);
        result.info(&format!("old_single_ns_chi{chi}"), row.old_single_ns as f64);
        result.info(&format!("new_single_ns_chi{chi}"), row.new_single_ns as f64);
        result.info(
            &format!("new_batched_ns_chi{chi}"),
            row.new_batched_ns_per_pair as f64,
        );
        result.info(&format!("max_rel_dev_chi{chi}"), row.max_rel_dev);
    }
    // Two workers on one backend must scale like two cores: with the
    // shared per-call counter this row read 1.03-1.30 where the stateless
    // backend reads 1.81-1.97 (2 vCPU, five runs each), so 25% of slack
    // trips on the former. Meaningless on a one-core host — see the
    // header.
    result.metric(
        &format!("shared_backend_scaling_chi{SHARED_CHI}"),
        shared_scaling,
        0.25,
        Direction::Higher,
    );
    result.info(&format!("shared_pairs_per_s_t1_chi{SHARED_CHI}"), best[0]);
    result.info(&format!("shared_pairs_per_s_t2_chi{SHARED_CHI}"), best[1]);
    result.info("available_parallelism", cores as f64);
    // The theta rows gate on same-run ratios, scalar kernels over the
    // dispatched ones on the same thetas, so the host's clock steps
    // cancel; the ns rows carry them and are informational. Ten
    // back-to-back runs on a 2-vCPU AVX-512 box read 1.152-1.167 (χ = 4)
    // and 1.898-1.913 (χ ~ 32), and the scalar path alone reads ~1.0, so
    // 10 % and 25 % of slack trip on a lost AVX path and on nothing
    // else. Sweep counts are a property of the algorithm and may only
    // fall.
    result.metric(
        "svd_theta_speedup_chi4",
        wide.speedup,
        0.1,
        Direction::Higher,
    );
    result.metric(
        "svd_theta_speedup_chi32",
        deep.speedup,
        0.25,
        Direction::Higher,
    );
    result.info("svd_theta_ns_chi4", theta_ns_chi4);
    result.info("svd_theta_ns_chi32", theta_ns_chi32);
    result.metric(
        "svd_theta_sweeps_chi4",
        theta_sweeps_chi4,
        0.0,
        Direction::Lower,
    );
    result.metric(
        "svd_theta_sweeps_chi32",
        theta_sweeps_chi32,
        0.0,
        Direction::Lower,
    );
    result.write();
}
