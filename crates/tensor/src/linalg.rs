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

/// Rows one register tile of [`tile`] covers.
pub(crate) const MR: usize = 4;
/// Columns one register tile of [`tile`] covers.
pub(crate) const NR: usize = 8;

/// The rows of an `m × inner` matrix packed `MR` at a time: the panel of
/// rows `g·MR..` is one contiguous `inner × MR` block holding
/// `at(g·MR + q, p)` at `p·MR + q`, with zero lanes for rows past `m`.
pub(crate) fn pack_panels(m: usize, inner: usize, at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut panels = vec![0.0f32; m.div_ceil(MR) * inner * MR];
    for (g, panel) in panels.chunks_exact_mut((inner * MR).max(1)).enumerate() {
        for (p, lane) in panel.chunks_exact_mut(MR).enumerate() {
            for (q, v) in lane.iter_mut().enumerate().take(m - g * MR) {
                *v = at(g * MR + q, p);
            }
        }
    }
    panels
}

/// The lanes of a tile whose `NR` columns are one contiguous run.
pub(crate) const RUN: [usize; NR] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Columns of one half of a tile: one 128-bit vector of `f32`.
const HALF: usize = NR / 2;

/// One `MR × NR` register tile, the micro-kernel of every convolution
/// product: `acc[q][j] = Σ_p panel[p·MR + q] · src[offset_p + lanes[j]]`
/// over the packed `inner × MR` panel, with one offset into `src` per
/// inner step `p`, as `offsets` yields them. Each step reads one
/// `NR`-wide run of `src` for [`RUN`], two `NR/2`-wide runs for lanes
/// whose halves are each contiguous (two image rows of four pixels), and
/// otherwise gathers the `NR` values one by one. (Reading [`RUN`] as two
/// halves measured about 15% slower in the input-gradient product, whose
/// inner dimension is only `c_out` long.)
///
/// Every element sums its terms in ascending `p`, starting from `+0.0`,
/// one multiply and one add per term, with no term skipped.
/// [`Tensor::matmul`] sums in the same order but skips a zero left-hand
/// factor, so for finite operands the two agree bit for bit.
#[inline(always)]
pub(crate) fn tile(
    panel: &[f32],
    src: &[f32],
    offsets: impl Iterator<Item = usize>,
    lanes: &[usize; NR],
) -> [[f32; NR]; MR] {
    let (lo, hi) = (lanes[0], lanes[HALF]);
    if *lanes == RUN {
        accumulate(
            panel,
            offsets.map(|o| {
                let mut run = [0.0f32; NR];
                run.copy_from_slice(&src[o..o + NR]);
                run
            }),
        )
    } else if (0..HALF).all(|j| lanes[j] == lo + j && lanes[HALF + j] == hi + j) {
        accumulate(
            panel,
            offsets.map(|o| {
                let mut run = [0.0f32; NR];
                run[..HALF].copy_from_slice(&src[o + lo..][..HALF]);
                run[HALF..].copy_from_slice(&src[o + hi..][..HALF]);
                run
            }),
        )
    } else {
        accumulate(
            panel,
            offsets.map(|o| {
                let mut run = [0.0f32; NR];
                for (r, &l) in run.iter_mut().zip(lanes) {
                    *r = src[o + l];
                }
                run
            }),
        )
    }
}

/// The register-resident sum of [`tile`] over ready-made runs.
#[inline(always)]
fn accumulate(panel: &[f32], runs: impl Iterator<Item = [f32; NR]>) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (lane, run) in panel.chunks_exact(MR).zip(runs) {
        for (acc_row, &w) in acc.iter_mut().zip(lane) {
            for (o, &x) in acc_row.iter_mut().zip(&run) {
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
