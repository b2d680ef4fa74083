use crate::{Tensor, TensorError};

impl Tensor {
    /// Dense matrix product of two rank-2 tensors: `(m×k) · (k×n) = (m×n)`.
    ///
    /// Uses a cache-friendly i-k-j loop order with an accumulator row: each
    /// output element sums its terms in ascending inner index, starting
    /// from `+0.0`. A term whose left-hand factor is zero is skipped, so a
    /// zero times an infinite or NaN right-hand value contributes nothing
    /// (where a plain product would contribute NaN); for finite operands
    /// the skip is bit-neutral.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
    /// or [`TensorError::MatmulDimMismatch`] if inner dimensions disagree.
    ///
    /// ```
    /// use hadas_tensor::Tensor;
    /// # fn main() -> Result<(), hadas_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, got: self.shape().rank() });
        }
        if other.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, got: other.shape().rank() });
        }
        let (m, k) = (self.shape().dims()[0], self.shape().dims()[1]);
        let (k2, n) = (other.shape().dims()[0], other.shape().dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, got: self.shape().rank() });
        }
        let (m, n) = (self.shape().dims()[0], self.shape().dims()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// `x · Wᵀ + bias` — the linear-layer forward primitive, where `x` is
    /// `(batch × in)`, `w` is `(out × in)` and `bias` is `(out)`.
    ///
    /// # Errors
    ///
    /// Returns a rank or dimension error if the operands are incompatible.
    pub fn linear(&self, w: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
        let wt = w.transpose()?;
        let mut y = self.matmul(&wt)?;
        let (rows, cols) = (y.shape().dims()[0], y.shape().dims()[1]);
        if bias.len() != cols {
            return Err(TensorError::ShapeMismatch {
                left: vec![cols],
                right: bias.shape().dims().to_vec(),
            });
        }
        let b = bias.as_slice().to_vec();
        let data = y.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] += b[c];
            }
        }
        Ok(y)
    }
}

/// A read-only strided matrix view: element `(i, j)` of a `rows × cols`
/// matrix sits at `data[i·row_stride + j·col_stride]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_stride: usize,
    pub(crate) col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// A row-major view whose rows are `row_stride` apart.
    pub(crate) fn rows(data: &'a [f32], rows: usize, cols: usize, row_stride: usize) -> Self {
        MatRef { data, rows, cols, row_stride, col_stride: 1 }
    }

    /// The same elements seen as the transposed matrix.
    pub(crate) fn t(self) -> Self {
        MatRef {
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
            ..self
        }
    }

    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.row_stride + j * self.col_stride]
    }
}

/// Rows of `a` one register tile of [`gemm`] covers.
const MR: usize = 4;
/// Columns of `b` one register tile of [`gemm`] covers.
const NR: usize = 8;

/// `c = a · b`, written into `c` with rows `ldc` apart; `b` must have unit
/// column stride.
///
/// Every output element sums its terms in ascending inner index, starting
/// from `+0.0`, one multiply and one add per term, with no term skipped.
/// [`Tensor::matmul`] sums in the same order but skips a zero left-hand
/// factor, so for finite operands the two agree bit for bit.
///
/// The work is done in `MR × NR` tiles that stay in registers across the
/// whole inner dimension: the tile's `MR` rows of `a` are first packed
/// into one contiguous `inner × MR` panel, and each step of the inner
/// loop reads one `NR`-wide run of a `b` row.
pub(crate) fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], ldc: usize) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!(b.col_stride, 1);
    let (m, inner, n) = (a.rows, a.cols, b.cols);
    let mut panel = vec![0.0f32; inner * MR];
    for i0 in (0..m).step_by(MR) {
        let rows = MR.min(m - i0);
        for (p, lane) in panel.chunks_exact_mut(MR).enumerate() {
            for (q, v) in lane.iter_mut().enumerate() {
                *v = if q < rows { a.at(i0 + q, p) } else { 0.0 };
            }
        }
        let mut j0 = 0;
        while j0 + NR <= n {
            let acc = tile(&panel, b, j0);
            for (q, acc_row) in acc.iter().take(rows).enumerate() {
                c[(i0 + q) * ldc + j0..][..NR].copy_from_slice(acc_row);
            }
            j0 += NR;
        }
        for j in j0..n {
            for q in 0..rows {
                let mut sum = 0.0f32;
                for (p, lane) in panel.chunks_exact(MR).enumerate() {
                    sum += lane[q] * b.data[p * b.row_stride + j];
                }
                c[(i0 + q) * ldc + j] = sum;
            }
        }
    }
}

/// One `MR × NR` register tile of [`gemm`]: rows of the packed `panel`
/// times columns `j0..j0 + NR` of `b`.
#[inline(always)]
fn tile(panel: &[f32], b: MatRef<'_>, j0: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, lane) in panel.chunks_exact(MR).enumerate() {
        let run = &b.data[p * b.row_stride + j0..][..NR];
        for (acc_row, &w) in acc.iter_mut().zip(lane) {
            for (o, &x) in acc_row.iter_mut().zip(run) {
                *o += w * x;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(a.matmul(&b), Err(TensorError::MatmulDimMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.at(&[2, 1]).unwrap(), a.at(&[1, 2]).unwrap());
    }

    #[test]
    fn linear_applies_bias() {
        let x = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let y = x.linear(&w, &b).unwrap();
        assert_eq!(y.as_slice(), &[2.5, -0.5]);
    }

    /// The zero-skip contract: a zero left-hand factor adds nothing, even
    /// against an infinite right-hand value, where `0 · inf` would be NaN.
    #[test]
    fn matmul_skips_zero_left_terms() {
        let a = Tensor::from_vec(vec![0.0, 1.0, -0.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::INFINITY, f32::NAN, 3.0, 4.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
        assert!((0.0 * f32::INFINITY).is_nan());
    }

    #[test]
    fn matmul_identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)).unwrap(), a);
        assert_eq!(Tensor::eye(3).matmul(&a).unwrap(), a);
    }
}
