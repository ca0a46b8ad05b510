//! Pairwise tensor contraction (eq. 6 of the paper).
//!
//! Contraction is implemented the way every production tensor-network
//! engine does it: permute the contracted axes of each operand to the
//! matrix boundary, reshape to 2-D, run GEMM, and reshape back. The free
//! axes of `a` precede the free axes of `b` in the result.

use crate::backend::ExecutionBackend;
use crate::complex::Complex64;
use crate::matrix::gemm_serial;
use crate::tensor::Tensor;

/// Contracts `a` and `b` along the given axis pairs using serial GEMM.
///
/// `axes_a[i]` of `a` is summed against `axes_b[i]` of `b`; those axes must
/// have equal dimension. The result's shape is the free axes of `a` (in
/// their original order) followed by the free axes of `b`.
///
/// # Panics
/// Panics on rank/dimension mismatches or repeated axes.
pub fn contract(a: &Tensor, axes_a: &[usize], b: &Tensor, axes_b: &[usize]) -> Tensor {
    contract_impl(a, axes_a, b, axes_b, None)
}

/// Contraction with GEMM dispatched through an [`ExecutionBackend`].
pub fn contract_with(
    backend: &dyn ExecutionBackend,
    a: &Tensor,
    axes_a: &[usize],
    b: &Tensor,
    axes_b: &[usize],
) -> Tensor {
    contract_impl(a, axes_a, b, axes_b, Some(backend))
}

fn contract_impl(
    a: &Tensor,
    axes_a: &[usize],
    b: &Tensor,
    axes_b: &[usize],
    backend: Option<&dyn ExecutionBackend>,
) -> Tensor {
    assert_eq!(
        axes_a.len(),
        axes_b.len(),
        "must contract an equal number of axes from each operand"
    );
    validate_axes(a, axes_a);
    validate_axes(b, axes_b);
    for (&ax, &bx) in axes_a.iter().zip(axes_b) {
        assert_eq!(
            a.shape()[ax],
            b.shape()[bx],
            "contracted bond dimension mismatch: a axis {ax} ({}) vs b axis {bx} ({})",
            a.shape()[ax],
            b.shape()[bx]
        );
    }

    let free_a: Vec<usize> = (0..a.rank()).filter(|k| !axes_a.contains(k)).collect();
    let free_b: Vec<usize> = (0..b.rank()).filter(|k| !axes_b.contains(k)).collect();

    // a -> (free_a..., contracted...) then matrix (M, K)
    let mut perm_a = free_a.clone();
    perm_a.extend_from_slice(axes_a);
    let a_perm = a.permute(&perm_a);
    // b -> (contracted..., free_b...) then matrix (K, N)
    let mut perm_b = axes_b.to_vec();
    perm_b.extend_from_slice(&free_b);
    let b_perm = b.permute(&perm_b);

    let m: usize = free_a.iter().map(|&k| a.shape()[k]).product();
    let k: usize = axes_a.iter().map(|&x| a.shape()[x]).product();
    let n: usize = free_b.iter().map(|&x| b.shape()[x]).product();

    let mut out = vec![Complex64::ZERO; m * n];
    match backend {
        Some(be) => be.gemm(m, k, n, a_perm.data(), b_perm.data(), &mut out),
        None => gemm_serial(m, k, n, a_perm.data(), b_perm.data(), &mut out),
    }

    let mut out_shape: Vec<usize> = free_a.iter().map(|&x| a.shape()[x]).collect();
    out_shape.extend(free_b.iter().map(|&x| b.shape()[x]));
    Tensor::from_data(&out_shape, out)
}

fn validate_axes(t: &Tensor, axes: &[usize]) {
    let mut seen = vec![false; t.rank()];
    for &ax in axes {
        assert!(
            ax < t.rank(),
            "axis {ax} out of range for rank {}",
            t.rank()
        );
        assert!(!seen[ax], "axis {ax} repeated in contraction spec");
        seen[ax] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{approx_eq, c64};

    fn fill(shape: &[usize], seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data = (0..len)
            .map(|_| {
                let mut next = || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                };
                c64(next(), next())
            })
            .collect();
        Tensor::from_data(shape, data)
    }

    #[test]
    fn matrix_product_via_contract() {
        let a = fill(&[3, 4], 1);
        let b = fill(&[4, 5], 2);
        let c = contract(&a, &[1], &b, &[0]);
        assert_eq!(c.shape(), &[3, 5]);
        for i in 0..3 {
            for j in 0..5 {
                let mut acc = Complex64::ZERO;
                for p in 0..4 {
                    acc += a.get(&[i, p]) * b.get(&[p, j]);
                }
                assert!(approx_eq(c.get(&[i, j]), acc, 1e-10));
            }
        }
    }

    #[test]
    fn eq6_three_leg_contraction() {
        // C_abxyz = sum_s A_abs B_sxyz -- the paper's eq. (6).
        let a = fill(&[2, 3, 4], 3);
        let b = fill(&[4, 2, 3, 2], 4);
        let c = contract(&a, &[2], &b, &[0]);
        assert_eq!(c.shape(), &[2, 3, 2, 3, 2]);
        let mut acc = Complex64::ZERO;
        for s in 0..4 {
            acc += a.get(&[1, 2, s]) * b.get(&[s, 0, 1, 1]);
        }
        assert!(approx_eq(c.get(&[1, 2, 0, 1, 1]), acc, 1e-10));
    }

    #[test]
    fn contract_multiple_axes() {
        let a = fill(&[2, 3, 4], 5);
        let b = fill(&[3, 4, 5], 6);
        let c = contract(&a, &[1, 2], &b, &[0, 1]);
        assert_eq!(c.shape(), &[2, 5]);
        for i in 0..2 {
            for j in 0..5 {
                let mut acc = Complex64::ZERO;
                for p in 0..3 {
                    for q in 0..4 {
                        acc += a.get(&[i, p, q]) * b.get(&[p, q, j]);
                    }
                }
                assert!(approx_eq(c.get(&[i, j]), acc, 1e-10));
            }
        }
    }

    #[test]
    fn contract_to_scalar() {
        let a = fill(&[3, 4], 7);
        let b = fill(&[3, 4], 8);
        let c = contract(&a, &[0, 1], &b, &[0, 1]);
        assert_eq!(c.rank(), 0);
        let mut acc = Complex64::ZERO;
        for i in 0..3 {
            for j in 0..4 {
                acc += a.get(&[i, j]) * b.get(&[i, j]);
            }
        }
        assert!(approx_eq(c.get(&[]), acc, 1e-10));
    }

    #[test]
    fn contract_axis_order_in_result() {
        let a = fill(&[2, 5, 3], 9);
        let b = fill(&[3, 7], 10);
        let c = contract(&a, &[2], &b, &[0]);
        assert_eq!(c.shape(), &[2, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "bond dimension mismatch")]
    fn mismatched_bond_panics() {
        let a = fill(&[2, 3], 11);
        let b = fill(&[4, 2], 12);
        let _ = contract(&a, &[1], &b, &[0]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_axis_panics() {
        let a = fill(&[2, 2], 13);
        let b = fill(&[2, 2], 14);
        let _ = contract(&a, &[0, 0], &b, &[0, 1]);
    }

    #[test]
    fn contract_with_backend_matches_serial() {
        use crate::backend::{CpuBackend, ExecutionBackend};
        let backend = CpuBackend::new();
        let a = fill(&[4, 6], 15);
        let b = fill(&[6, 3], 16);
        let c1 = contract(&a, &[1], &b, &[0]);
        let c2 = contract_with(&backend as &dyn ExecutionBackend, &a, &[1], &b, &[0]);
        assert_eq!(c1, c2);
    }
}
