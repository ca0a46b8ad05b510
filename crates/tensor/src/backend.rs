//! The execution backend, and the price of its calls on the paper's
//! accelerator.
//!
//! The paper benchmarks two engines running the *same* MPS algorithm:
//! ITensors on an AMD EPYC CPU and pytket-cutensornet on an NVIDIA A100.
//! We have no GPU, so the accelerator is reproduced as a *device model*
//! (see DESIGN.md, substitution 1) that prices the CPU backend's calls:
//! [`tally`] counts the calls, operand bytes and host kernel time of one
//! closure on the calling thread, and [`DeviceModel::price`] charges each
//! call a fixed launch latency plus a transfer cost proportional to its
//! bytes, and divides the kernel time by a throughput factor. This
//! preserves the mechanism behind the paper's Fig. 5 crossover — overhead
//! dominates at small bond dimension, throughput wins at large.
//!
//! One backend computes every bit, so the two columns of the paper's
//! Table I (CPU and GPU bond dimensions agree) agree by construction.

use crate::complex::Complex64;
use crate::matrix::gemm_serial;
use crate::svd::{svd, Svd};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// A primitive-execution engine for tensor kernels.
///
/// Implementations must be `Send + Sync`: the Gram-matrix distribution
/// layer shares one backend across worker threads.
pub trait ExecutionBackend: Send + Sync {
    /// `c = a * b` with `a: m x k`, `b: k x n`, row-major.
    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    );

    /// `c = a^H * b` with `a: k x m` stored row-major (so `a^H: m x k`),
    /// `b: k x n`: the zipper's fused-conjugate transfer step.
    /// Conjugation happens inside the kernel (in the packing step of the
    /// blocked path), so callers never materialize `conj(a)`.
    ///
    /// The default forwards to the serial kernel.
    fn gemm_conj_a(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        crate::matrix::gemm_conj_a(m, k, n, a, b, c);
    }

    /// One site of the zipper inner product: the transfer
    /// `panel = env · b` (`env: la x lb`, `b: lb x 2·rb`) and then the
    /// absorb `out = a^H · panel` (`a: 2·la x ra`, `panel` read as
    /// `2·la x rb`), overwriting `out` (`ra x rb`).
    ///
    /// The default is exactly those two calls, which the test and bench
    /// reference backends inherit. [`CpuBackend`] overrides it with a
    /// kernel that fuses both steps when every bond is at most 4 and
    /// produces the same bits, and tallies it as the default's two calls.
    #[allow(clippy::too_many_arguments)]
    fn zipper_site(
        &self,
        la: usize,
        lb: usize,
        ra: usize,
        rb: usize,
        env: &[Complex64],
        a: &[Complex64],
        b: &[Complex64],
        panel: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        self.gemm(la, lb, 2 * rb, env, b, panel);
        self.gemm_conj_a(ra, 2 * la, rb, a, panel, out);
    }

    /// Thin SVD of a row-major `m x n` matrix.
    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd;
}

/// The calls [`CpuBackend`] made inside one [`tally`]: how many, the
/// operand bytes they touched, and their host kernel time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Primitive calls: a zipper site counts as its two GEMMs.
    pub calls: u64,
    /// Bytes of the operand slices those calls were handed.
    pub bytes: u64,
    /// Host time spent inside the calls.
    pub kernel: Duration,
}

thread_local! {
    /// The calling thread's open tally; `None` outside [`tally`].
    static OPEN: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Runs `f` and returns what it returned with the tally of the
/// [`CpuBackend`] calls it made on this thread. Calls on other threads
/// are not counted; a nested tally's calls count in the enclosing one
/// too.
pub fn tally<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let outer = OPEN.replace(Some(Tally::default()));
    let out = f();
    let inner = OPEN.get().unwrap_or_default();
    OPEN.set(outer.map(|o| Tally {
        calls: o.calls + inner.calls,
        bytes: o.bytes + inner.bytes,
        kernel: o.kernel + inner.kernel,
    }));
    (out, inner)
}

/// Runs `f`, one backend entry point worth `calls` primitive calls over
/// `elems` operand entries, and adds it to this thread's open [`tally`]
/// if there is one. With none open it costs one thread-local load.
#[inline(always)]
fn counted<T>(calls: u64, elems: usize, f: impl FnOnce() -> T) -> T {
    if OPEN.get().is_none() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let kernel = t0.elapsed();
    OPEN.set(OPEN.get().map(|t| Tally {
        calls: t.calls + calls,
        bytes: t.bytes + (elems * std::mem::size_of::<Complex64>()) as u64,
        kernel: t.kernel + kernel,
    }));
    out
}

/// Serial CPU backend; stands in for the ITensors/EPYC configuration.
///
/// Deliberately stateless: every Gram and serve worker shares one
/// `&CpuBackend` and issues two GEMMs per zipper site, so any shared
/// mutable field here (a per-call counter, say) is a cache line bouncing
/// between cores on the hottest path of the pipeline. The [`tally`] is
/// per thread for the same reason.
#[derive(Debug, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates a CPU backend.
    pub fn new() -> Self {
        CpuBackend
    }
}

impl ExecutionBackend for CpuBackend {
    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        counted(1, a.len() + b.len() + c.len(), || {
            gemm_serial(m, k, n, a, b, c)
        });
    }

    fn gemm_conj_a(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        counted(1, a.len() + b.len() + c.len(), || {
            crate::matrix::gemm_conj_a(m, k, n, a, b, c)
        });
    }

    fn zipper_site(
        &self,
        la: usize,
        lb: usize,
        ra: usize,
        rb: usize,
        env: &[Complex64],
        a: &[Complex64],
        b: &[Complex64],
        panel: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        // The default's two calls: (env, b, panel), then (a, panel, out).
        let elems = env.len() + b.len() + 2 * panel.len() + a.len() + out.len();
        counted(2, elems, || {
            crate::matrix::zipper_site(la, lb, ra, rb, env, a, b, panel, out)
        });
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        counted(1, a.len(), || svd(m, n, a))
    }
}

/// Cost model of the simulated accelerator device: what the CPU
/// backend's tallied calls would cost on it.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Fixed cost charged per primitive call (kernel launch + host-side
    /// dispatch; the paper's GPU backend is dispatched from Python). The
    /// paper attributes the CPU-favoured regime at small `d` to exactly
    /// this kind of overhead.
    pub launch_latency: Duration,
    /// Simulated host<->device bandwidth; each call is charged
    /// `bytes / bandwidth` for the operand bytes it touches. `f64::INFINITY`
    /// disables the charge.
    pub transfer_bytes_per_sec: f64,
    /// Device throughput relative to one host core; divides the measured
    /// kernel time. Must be >= 1.
    pub compute_speedup: f64,
}

impl Default for DeviceModel {
    fn default() -> Self {
        // Calibrated so the crossover sits in the upper half of a d-sweep,
        // as in the paper's Fig. 5: ~400us dispatch per primitive
        // (Python-level launch overhead), 16 GB/s PCIe gen4 transfer, and
        // a 6x device-vs-core throughput advantage.
        DeviceModel {
            launch_latency: Duration::from_micros(400),
            transfer_bytes_per_sec: 16.0e9,
            compute_speedup: 6.0,
        }
    }
}

impl DeviceModel {
    /// The virtual device time of the tallied calls: their kernel time
    /// scaled by the throughput model, plus one launch latency per call
    /// and the transfer of every operand byte.
    pub fn price(&self, t: &Tally) -> Duration {
        let compute = t.kernel.div_f64(self.compute_speedup.max(1.0));
        let launches = self.launch_latency.mul_f64(t.calls as f64);
        let transfer = Duration::from_secs_f64(t.bytes as f64 / self.transfer_bytes_per_sec);
        compute + launches + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Complex64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..rows * cols)
            .map(|_| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                };
                c64(next(), next())
            })
            .collect()
    }

    const BYTES: u64 = std::mem::size_of::<Complex64>() as u64;

    #[test]
    fn tally_counts_each_call_and_its_operand_bytes() {
        let be = CpuBackend::new();
        let (m, k, n) = (3, 5, 2);
        let (a, b) = (test_matrix(m, k, 1), test_matrix(k, n, 2));
        let mut c = vec![Complex64::ZERO; m * n];
        let (_, t) = tally(|| be.gemm(m, k, n, &a, &b, &mut c));
        assert_eq!((t.calls, t.bytes), (1, (15 + 10 + 6) * BYTES));
        let at = test_matrix(k, m, 3); // stored k x m, enters as a^H
        let (_, t) = tally(|| be.gemm_conj_a(m, k, n, &at, &b, &mut c));
        assert_eq!((t.calls, t.bytes), (1, (15 + 10 + 6) * BYTES));
        let (f, t) = tally(|| be.svd(m, k, &a));
        assert_eq!(f.s.len(), m);
        assert_eq!((t.calls, t.bytes), (1, 15 * BYTES));
    }

    #[test]
    fn zipper_site_tallies_as_the_defaults_two_gemms() {
        let be = CpuBackend::new();
        // Fused (every bond <= 4) and general shapes alike.
        for (la, lb, ra, rb) in [(2, 3, 4, 2), (5, 8, 6, 7)] {
            let env = test_matrix(la, lb, 4);
            let a = test_matrix(2 * la, ra, 5);
            let b = test_matrix(lb, 2 * rb, 6);
            let mut panel = vec![Complex64::ZERO; la * 2 * rb];
            let mut out = vec![Complex64::ZERO; ra * rb];
            let (_, t) =
                tally(|| be.zipper_site(la, lb, ra, rb, &env, &a, &b, &mut panel, &mut out));
            let first = env.len() + b.len() + panel.len();
            let second = a.len() + panel.len() + out.len();
            assert_eq!(t.calls, 2);
            assert_eq!(t.bytes, (first + second) as u64 * BYTES);
        }
    }

    #[test]
    fn tally_skips_calls_outside_it_and_on_other_threads() {
        let be = CpuBackend::new();
        let (a, b) = (test_matrix(4, 4, 7), test_matrix(4, 4, 8));
        let mut c = vec![Complex64::ZERO; 16];
        be.gemm(4, 4, 4, &a, &b, &mut c);
        let (_, t) = tally(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut c = vec![Complex64::ZERO; 16];
                    be.gemm(4, 4, 4, &a, &b, &mut c);
                });
            })
        });
        assert_eq!(t, Tally::default());
        be.gemm(4, 4, 4, &a, &b, &mut c);
        let (_, t) = tally(|| ());
        assert_eq!(t, Tally::default());
        // A nested tally's calls count in the enclosing one too.
        let ((_, inner), outer) = tally(|| tally(|| be.gemm(4, 4, 4, &a, &b, &mut c)));
        assert_eq!((inner.calls, outer.calls), (1, 1));
        assert_eq!(inner.bytes, outer.bytes);
    }

    #[test]
    fn overhead_includes_transfer_term() {
        let model = DeviceModel {
            launch_latency: Duration::ZERO,
            transfer_bytes_per_sec: 1.0e9,
            compute_speedup: 1.0,
        };
        let moved = Tally {
            bytes: 1_000_000,
            ..Tally::default()
        };
        // 1e6 bytes at 1 GB/s = 1 ms.
        assert_eq!(model.price(&moved), Duration::from_millis(1));
        let free = DeviceModel {
            transfer_bytes_per_sec: f64::INFINITY,
            ..model
        };
        assert_eq!(free.price(&moved), Duration::ZERO);
    }

    #[test]
    fn virtual_cost_scales_kernel_time() {
        let model = DeviceModel {
            launch_latency: Duration::from_micros(100),
            transfer_bytes_per_sec: 1.0e9,
            compute_speedup: 4.0,
        };
        let t = Tally {
            calls: 3,
            bytes: 2_000_000,
            kernel: Duration::from_micros(400),
        };
        // 400/4 + 3 x 100 + 2e6 B at 1 GB/s.
        assert_eq!(model.price(&t), Duration::from_micros(100 + 300 + 2_000));
        // The CPU backend has no state at all: a field here is shared by
        // every Gram/serve worker on the hot path.
        assert_eq!(std::mem::size_of::<CpuBackend>(), 0);
    }
}
