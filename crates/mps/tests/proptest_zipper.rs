//! Property tests pinning the zero-allocation zipper kernel
//! (`Mps::inner_into` / `inner_with`) against the contract-based
//! reference implementation it replaced, across random bond profiles,
//! random site data and every canonical form — plus norm preservation
//! under long-lived workspace reuse.

use proptest::prelude::*;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_mps::{Mps, MpsSimulator, ZipperWorkspace};
use qk_tensor::backend::{CpuBackend, ExecutionBackend};
use qk_tensor::complex::Complex64;
use qk_tensor::svd::{svd, Svd};
use qk_tensor::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Serial kernels that inherit the trait's two-GEMM `zipper_site`.
struct TwoGemm;

impl ExecutionBackend for TwoGemm {
    fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
    ) {
        qk_tensor::matrix::gemm_serial(m, k, n, a, b, c);
    }

    fn svd(&self, m: usize, n: usize, a: &[Complex64]) -> Svd {
        svd(m, n, a)
    }
}

/// A random normalized MPS with `m` sites and random interior bonds in
/// `1..=cap` (adjacent bonds matched; `from_sites` canonicalizes).
fn random_mps(m: usize, cap: usize, seed: u64) -> Mps {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut bonds = vec![1usize; m + 1];
    for b in bonds.iter_mut().take(m).skip(1) {
        *b = rng.gen_range(1..=cap);
    }
    let sites = (0..m)
        .map(|q| {
            let (l, r) = (bonds[q], bonds[q + 1]);
            let data = (0..l * 2 * r)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            Tensor::from_data(&[l, 2, r], data)
        })
        .collect();
    let mut mps = Mps::from_sites(sites);
    mps.normalize();
    mps
}

/// Bond caps every property below walks. At these χ both zipper GEMMs
/// sit under `qk-tensor`'s blocking floor, on the small AVX kernel (the
/// scalar loops without AVX): odd caps (3, 5) leave an odd column for
/// its scalar tail and an odd row for its one-row blocks, 1 and 2 are
/// the boundary steps, 4 is the paper's d = 1 regime and 8 (reached from
/// six sites up) fills a full 8-column segment twice over.
const CHI_CAPS: [usize; 6] = [1, 2, 3, 4, 5, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The workspace kernel agrees with the contract-based reference to
    /// 1e-12 (floating-point operation order in the GEMM legitimately
    /// differs) for random bond profiles and any orthogonality centers,
    /// and is bitwise identical to `inner_with`'s thread-local path.
    #[test]
    fn inner_into_matches_contract_reference(
        m in 2usize..9,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        center_a in 0usize..8,
        center_b in 0usize..8,
    ) {
        let be = CpuBackend::new();
        let mut ws = ZipperWorkspace::new();
        for cap in CHI_CAPS {
            let mut a = random_mps(m, cap, seed_a);
            let mut b = random_mps(m, cap, seed_b.wrapping_add(7919));
            // Exercise left-canonical, right-canonical and interior centers.
            a.canonicalize_to(center_a % m);
            b.canonicalize_to(center_b % m);
            let fast = a.inner_into(&mut ws, &be, &b);
            let reference = a.inner_via_contract(&be, &b);
            prop_assert!(
                (fast - reference).norm() <= 1e-12,
                "cap {cap}: fast {fast:?} vs reference {reference:?}"
            );
            let via_with = a.inner_with(&be, &b);
            prop_assert_eq!(fast.re.to_bits(), via_with.re.to_bits());
            prop_assert_eq!(fast.im.to_bits(), via_with.im.to_bits());
        }
    }

    /// The CPU backend's fused zipper step has the bits of the trait's
    /// two-GEMM default: inner products agree bitwise.
    #[test]
    fn backends_agree_bitwise_on_inner(
        m in 2usize..9,
        seed in 0u64..1000,
    ) {
        let cpu = CpuBackend::new();
        let mut ws = ZipperWorkspace::new();
        for cap in CHI_CAPS {
            let a = random_mps(m, cap, seed);
            let b = random_mps(m, cap, seed.wrapping_add(13));
            let fused = a.inner_into(&mut ws, &cpu, &b);
            let two = a.inner_into(&mut ws, &TwoGemm, &b);
            prop_assert_eq!(fused.re.to_bits(), two.re.to_bits(), "cap {cap}");
            prop_assert_eq!(fused.im.to_bits(), two.im.to_bits(), "cap {cap}");
        }
    }

    /// One workspace reused across many calls on states of varying size
    /// and bond dimension: `|<psi|psi>| = 1` every time, so buffer reuse
    /// never leaks state between calls.
    #[test]
    fn workspace_reuse_preserves_norm(
        seeds in prop::collection::vec(0u64..1000, 4..10),
    ) {
        let be = CpuBackend::new();
        let mut ws = ZipperWorkspace::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let m = 2 + (seed as usize % 4);
            let cap = 1 + (i % 5);
            let mps = random_mps(m, cap, seed);
            let one = mps.inner_into(&mut ws, &be, &mps);
            prop_assert!(
                (one.norm() - 1.0).abs() <= 1e-12,
                "call {i}: |<psi|psi>| = {}",
                one.norm()
            );
        }
    }
}

/// Ansatz-simulated states (the production encoding) agree between the
/// kernels too, and workspace reuse across a whole Gram row matches
/// fresh-workspace evaluation bitwise.
#[test]
fn simulated_states_agree_and_reuse_is_bitwise_stable() {
    let be = CpuBackend::new();
    let cfg = AnsatzConfig::new(2, 2, 0.8);
    let sim = MpsSimulator::new(&be);
    let states: Vec<Mps> = (0..6)
        .map(|i| {
            let row: Vec<f64> = (0..6).map(|j| ((i * 6 + j) % 9) as f64 * 0.21).collect();
            sim.simulate(&feature_map_circuit(&row, &cfg)).0
        })
        .collect();
    let mut shared = ZipperWorkspace::new();
    for i in 0..states.len() {
        for j in i + 1..states.len() {
            let reused = states[i].inner_into(&mut shared, &be, &states[j]);
            let fresh = states[i].inner_into(&mut ZipperWorkspace::new(), &be, &states[j]);
            assert_eq!(reused.re.to_bits(), fresh.re.to_bits(), "[{i}][{j}]");
            assert_eq!(reused.im.to_bits(), fresh.im.to_bits(), "[{i}][{j}]");
            let reference = states[i].inner_via_contract(&be, &states[j]);
            assert!(
                (reused - reference).norm() <= 1e-12,
                "[{i}][{j}]: {reused:?} vs {reference:?}"
            );
        }
    }
}
