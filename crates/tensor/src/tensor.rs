//! Dense multi-dimensional complex tensors in row-major layout.
//!
//! A [`Tensor`] is a shape plus a contiguous `Vec<Complex64>`; "bonds" in the
//! paper's terminology are the axes, and the bond dimension of axis `k` is
//! `shape[k]`. Reshaping is free (entry order is preserved, eq. 7 of the
//! paper); permuting axes physically rearranges entries so downstream GEMM
//! runs on contiguous data.

use crate::complex::Complex64;
use std::fmt;

/// A dense tensor with row-major (C-order) element layout.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<Complex64>,
}

impl Tensor {
    /// Creates a zero-filled tensor with the given shape.
    ///
    /// A zero-rank tensor (`shape == []`) is a scalar holding one entry.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product::<usize>();
        Tensor {
            shape: shape.to_vec(),
            data: vec![Complex64::ZERO; len],
        }
    }

    /// Creates a tensor from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_data(shape: &[usize], data: Vec<Complex64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Tensor shape (bond dimensions of each axis).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes (rank).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no entries (some axis has dimension 0).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major entries.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Consumes the tensor and returns its entries.
    pub fn into_data(self) -> Vec<Complex64> {
        self.data
    }

    /// Memory footprint of the entries in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Complex64>()
    }

    /// Row-major strides for the current shape.
    pub fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.shape)
    }

    /// Linear offset of a multi-index.
    ///
    /// # Panics
    /// Panics in debug builds if the index rank or bounds are wrong.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0;
        for (k, &i) in idx.iter().enumerate() {
            debug_assert!(
                i < self.shape[k],
                "index {idx:?} out of shape {:?}",
                self.shape
            );
            off = off * self.shape[k] + i;
        }
        off
    }

    /// Entry at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> Complex64 {
        self.data[self.offset(idx)]
    }

    /// Sets the entry at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: Complex64) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape of equal total size.
    ///
    /// Entry order is unchanged: this is the bijection of eq. (7) in the
    /// paper and costs O(1) beyond the shape vector.
    ///
    /// # Panics
    /// Panics if the total number of entries differs.
    pub fn reshape(mut self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            new_shape.iter().product::<usize>(),
            self.data.len(),
            "cannot reshape {:?} ({} entries) into {new_shape:?}",
            self.shape,
            self.data.len()
        );
        self.shape = new_shape.to_vec();
        self
    }

    /// Returns a tensor with axes permuted: axis `k` of the result is axis
    /// `perm[k]` of `self`. Physically rearranges entries (O(n)).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        if perm.iter().enumerate().all(|(k, &p)| k == p) {
            return self.clone();
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let old_strides = self.strides();
        // Stride of output axis k in the input layout.
        let gather_strides: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        let mut out = vec![Complex64::ZERO; self.data.len()];
        let rank = new_shape.len();
        let mut idx = vec![0usize; rank];
        let mut src = 0usize;
        for slot in out.iter_mut() {
            *slot = self.data[src];
            // Odometer increment over the output index, tracking src offset.
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                src += gather_strides[ax];
                if idx[ax] < new_shape[ax] {
                    break;
                }
                src -= gather_strides[ax] * new_shape[ax];
                idx[ax] = 0;
            }
        }
        Tensor {
            shape: new_shape,
            data: out,
        }
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a real factor in place.
    pub fn scale_real_inplace(&mut self, k: f64) {
        for z in &mut self.data {
            *z *= k;
        }
    }

    /// Frobenius norm: sqrt of the sum of squared moduli.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} entries]", self.data.len())
        }
    }
}

/// Row-major strides for a shape.
pub fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for k in (0..shape.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * shape[k + 1];
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rank(), 3);
        assert!(t.data().iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn indexing_row_major() {
        let data: Vec<Complex64> = (0..6).map(|k| c64(k as f64, 0.0)).collect();
        let t = Tensor::from_data(&[2, 3], data);
        assert_eq!(t.get(&[0, 0]).re, 0.0);
        assert_eq!(t.get(&[0, 2]).re, 2.0);
        assert_eq!(t.get(&[1, 0]).re, 3.0);
        assert_eq!(t.get(&[1, 2]).re, 5.0);
    }

    #[test]
    fn reshape_preserves_order() {
        let data: Vec<Complex64> = (0..12).map(|k| c64(k as f64, 0.0)).collect();
        let t = Tensor::from_data(&[3, 4], data).reshape(&[2, 6]);
        assert_eq!(t.get(&[0, 5]).re, 5.0);
        assert_eq!(t.get(&[1, 0]).re, 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_size_mismatch_panics() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn permute_transpose() {
        let data: Vec<Complex64> = (0..6).map(|k| c64(k as f64, -(k as f64))).collect();
        let t = Tensor::from_data(&[2, 3], data);
        let tt = t.permute(&[1, 0]);
        assert_eq!(tt.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[i, j]), tt.get(&[j, i]));
            }
        }
    }

    #[test]
    fn permute_rank3_roundtrip() {
        let data: Vec<Complex64> = (0..24).map(|k| c64(k as f64, 1.0)).collect();
        let t = Tensor::from_data(&[2, 3, 4], data);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(t.get(&[a, b, c]), p.get(&[c, a, b]));
                }
            }
        }
        // Applying the inverse permutation restores the original.
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn permute_identity_is_noop() {
        let data: Vec<Complex64> = (0..8).map(|k| c64(k as f64, 0.0)).collect();
        let t = Tensor::from_data(&[2, 2, 2], data);
        assert_eq!(t.permute(&[0, 1, 2]), t);
    }

    #[test]
    fn conj_negates_imaginary() {
        let t = Tensor::from_data(&[2], vec![c64(1.0, 2.0), c64(-3.0, -4.0)]);
        let c = t.conj();
        assert_eq!(c.data()[0], c64(1.0, -2.0));
        assert_eq!(c.data()[1], c64(-3.0, 4.0));
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let t = Tensor::from_data(&[2], vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn memory_bytes_counts_entries() {
        let t = Tensor::zeros(&[4, 4]);
        assert_eq!(t.memory_bytes(), 16 * 16);
    }
}
