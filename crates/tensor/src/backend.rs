//! Execution backends: the CPU / accelerator split of the paper.
//!
//! The paper benchmarks two engines running the *same* MPS algorithm:
//! ITensors on an AMD EPYC CPU and pytket-cutensornet on an NVIDIA A100.
//! We have no GPU, so the accelerator is reproduced as a *device model*
//! (see DESIGN.md, substitution 1): every primitive call pays a fixed
//! launch latency plus a transfer cost proportional to the bytes touched,
//! and in exchange its kernel time is divided by a throughput factor. This
//! preserves the mechanism behind the paper's Fig. 5 crossover — overhead
//! dominates at small bond dimension, throughput wins at large.
//!
//! Both backends run the same host kernels (the GEMMs and the Jacobi
//! SVD; the CPU's fused zipper step has its two GEMMs' bits), so they are
//! deterministic and bit-identical in *results* and differ only in
//! simulated cost, mirroring the paper's Table I observation that CPU and
//! GPU bond dimensions agree.

use crate::complex::Complex64;
use crate::matrix::gemm_serial;
use crate::svd::{svd, Svd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A primitive-execution engine for tensor kernels.
///
/// Implementations must be `Send + Sync`: the Gram-matrix distribution
/// layer shares one backend across worker threads.
pub trait ExecutionBackend: Send + Sync {
    /// Human-readable backend name (appears in harness output).
    fn name(&self) -> &'static str;

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
    /// The default forwards to the serial kernel; backends override to
    /// charge their cost model.
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
    /// The default is exactly those two calls, so backends that price
    /// each GEMM (the accelerator's virtual clock) keep charging two
    /// primitives per site. [`CpuBackend`] overrides it with a kernel
    /// that fuses both steps when every bond is at most 4 and produces
    /// the same bits.
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

    /// Cumulative *virtual* time of all calls, when the backend is timed
    /// on a simulated device clock. `None` means wall-clock is the right
    /// measure (the CPU backend). Harnesses take deltas of this counter
    /// around the section they time.
    fn virtual_clock(&self) -> Option<Duration> {
        None
    }
}

/// Serial CPU backend; stands in for the ITensors/EPYC configuration.
///
/// Deliberately stateless: every Gram and serve worker shares one
/// `&CpuBackend` and issues two GEMMs per zipper site, so any shared
/// mutable field here (a per-call counter, say) is a cache line bouncing
/// between cores on the hottest path of the pipeline.
#[derive(Debug, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates a CPU backend.
    pub fn new() -> Self {
        CpuBackend
    }
}

impl ExecutionBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu-serial"
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
        gemm_serial(m, k, n, a, b, c);
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
        crate::matrix::zipper_site(la, lb, ra, rb, env, a, b, panel, out);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        svd(m, n, a)
    }
}

/// Cost model of the simulated accelerator device.
///
/// The accelerator is timed on a *virtual clock* (the standard
/// architectural-simulation technique): each primitive call of measured
/// host cost `t` is charged `t / compute_speedup + launch_latency +
/// bytes / transfer_bandwidth`. The host kernels are the CPU backend's,
/// run on the calling thread, so the whole throughput advantage lives in
/// `compute_speedup` on the virtual clock. Timing harnesses read that
/// clock via [`ExecutionBackend::virtual_clock`].
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
    /// kernel time on the virtual clock. Must be >= 1.
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
    /// A model with no overhead and no speedup: virtual time equals real
    /// kernel time (ablation baseline).
    pub fn ideal() -> Self {
        DeviceModel {
            launch_latency: Duration::ZERO,
            transfer_bytes_per_sec: f64::INFINITY,
            compute_speedup: 1.0,
        }
    }

    /// Total simulated overhead for one call touching `bytes` operand bytes.
    pub fn overhead(&self, bytes: usize) -> Duration {
        let transfer = if self.transfer_bytes_per_sec.is_finite() {
            Duration::from_secs_f64(bytes as f64 / self.transfer_bytes_per_sec)
        } else {
            Duration::ZERO
        };
        self.launch_latency + transfer
    }

    /// Virtual cost of one call: measured kernel time scaled by the
    /// throughput model, plus overhead.
    pub fn virtual_cost(&self, kernel_time: Duration, bytes: usize) -> Duration {
        let compute =
            Duration::from_secs_f64(kernel_time.as_secs_f64() / self.compute_speedup.max(1.0));
        compute + self.overhead(bytes)
    }
}

/// Simulated "accelerator" backend; stands in for pytket-cutensornet on an
/// A100, with overhead injected per the [`DeviceModel`].
#[derive(Debug)]
pub struct AcceleratorBackend {
    model: DeviceModel,
    virtual_nanos: AtomicU64,
}

impl AcceleratorBackend {
    /// Creates an accelerator backend with the given device model.
    pub fn new(model: DeviceModel) -> Self {
        AcceleratorBackend {
            model,
            virtual_nanos: AtomicU64::new(0),
        }
    }

    /// Creates an accelerator with the default device model.
    pub fn with_default_model() -> Self {
        Self::new(DeviceModel::default())
    }

    /// The device model in use.
    pub fn model(&self) -> DeviceModel {
        self.model
    }

    /// Total virtual time accumulated so far.
    pub fn total_virtual(&self) -> Duration {
        Duration::from_nanos(self.virtual_nanos.load(Ordering::Relaxed))
    }

    /// Records one call of measured kernel time `t` touching `bytes`.
    fn charge(&self, t: Duration, bytes: usize) {
        let v = self.model.virtual_cost(t, bytes);
        self.virtual_nanos
            .fetch_add(v.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl ExecutionBackend for AcceleratorBackend {
    fn name(&self) -> &'static str {
        "accelerator"
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
        let bytes = (a.len() + b.len() + c.len()) * std::mem::size_of::<Complex64>();
        let t0 = Instant::now();
        // Same kernel as the CPU backend (see `gemm_conj_a` below).
        gemm_serial(m, k, n, a, b, c);
        self.charge(t0.elapsed(), bytes);
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
        let bytes = (a.len() + b.len() + c.len()) * std::mem::size_of::<Complex64>();
        let t0 = Instant::now();
        // Same kernel as the CPU backend: results stay bit-identical
        // across backends; only the virtual cost model differs.
        crate::matrix::gemm_conj_a(m, k, n, a, b, c);
        self.charge(t0.elapsed(), bytes);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        let bytes = std::mem::size_of_val(a);
        let t0 = Instant::now();
        // Same driver as the CPU backend, priced like the GEMMs.
        let f = svd(m, n, a);
        self.charge(t0.elapsed(), bytes);
        f
    }

    fn virtual_clock(&self) -> Option<Duration> {
        Some(self.total_virtual())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn bits(v: &[Complex64]) -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

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

    #[test]
    fn backends_agree_on_gemm() {
        let cpu = CpuBackend::new();
        let acc = AcceleratorBackend::new(DeviceModel::ideal());
        let (m, k, n) = (9, 7, 11);
        let a = test_matrix(m, k, 1);
        let b = test_matrix(k, n, 2);
        let mut c1 = vec![Complex64::ZERO; m * n];
        let mut c2 = vec![Complex64::ZERO; m * n];
        cpu.gemm(m, k, n, &a, &b, &mut c1);
        acc.gemm(m, k, n, &a, &b, &mut c2);
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn backends_agree_on_conj_gemm() {
        let cpu = CpuBackend::new();
        let acc = AcceleratorBackend::new(DeviceModel::ideal());
        let (m, k, n) = (6, 10, 5);
        let a = test_matrix(k, m, 6); // stored k x m, enters as a^H
        let b = test_matrix(k, n, 7);
        let mut c1 = vec![Complex64::ZERO; m * n];
        let mut c2 = vec![Complex64::ZERO; m * n];
        cpu.gemm_conj_a(m, k, n, &a, &b, &mut c1);
        acc.gemm_conj_a(m, k, n, &a, &b, &mut c2);
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn backends_agree_on_singular_values() {
        let cpu = CpuBackend::new();
        let acc = AcceleratorBackend::new(DeviceModel::ideal());
        // Both orientations: a wide matrix runs as its tall transpose.
        for (m, n) in [(10, 8), (5, 12)] {
            let a = test_matrix(m, n, 3);
            let (f1, f2) = (cpu.svd(m, n, &a), acc.svd(m, n, &a));
            let s_bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(s_bits(&f1.s), s_bits(&f2.s));
            assert_eq!(bits(&f1.u), bits(&f2.u));
            assert_eq!(bits(&f1.vh), bits(&f2.vh));
            assert_eq!(f1.sweeps, f2.sweeps);
        }
    }

    #[test]
    fn virtual_clock_accumulates_overhead() {
        let model = DeviceModel {
            launch_latency: Duration::from_micros(500),
            transfer_bytes_per_sec: f64::INFINITY,
            compute_speedup: 1.0,
        };
        let acc = AcceleratorBackend::new(model);
        let a = test_matrix(4, 4, 4);
        let b = test_matrix(4, 4, 5);
        let mut c = vec![Complex64::ZERO; 16];
        for _ in 0..3 {
            acc.gemm(4, 4, 4, &a, &b, &mut c);
        }
        // 3 calls x 500us launch, plus (tiny) kernel time.
        let v = acc
            .virtual_clock()
            .expect("accelerator has a virtual clock");
        assert!(v >= Duration::from_micros(1500), "virtual clock {v:?}");
        assert!(v < Duration::from_millis(50));
    }

    #[test]
    fn overhead_includes_transfer_term() {
        let model = DeviceModel {
            launch_latency: Duration::ZERO,
            transfer_bytes_per_sec: 1.0e9,
            compute_speedup: 1.0,
        };
        // 1e6 bytes at 1 GB/s = 1 ms.
        assert_eq!(model.overhead(1_000_000), Duration::from_millis(1));
        assert_eq!(DeviceModel::ideal().overhead(1 << 30), Duration::ZERO);
    }

    #[test]
    fn virtual_cost_scales_kernel_time() {
        let model = DeviceModel {
            launch_latency: Duration::from_micros(100),
            transfer_bytes_per_sec: f64::INFINITY,
            compute_speedup: 4.0,
        };
        let v = model.virtual_cost(Duration::from_micros(400), 0);
        // 400/4 + 100
        assert_eq!(v, Duration::from_micros(200));
        // CPU backend exposes no virtual clock — and no state at all: a
        // field here is shared by every Gram/serve worker on the hot path.
        assert!(CpuBackend::new().virtual_clock().is_none());
        assert_eq!(std::mem::size_of::<CpuBackend>(), 0);
    }
}
