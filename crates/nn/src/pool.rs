use crate::{Layer, NnError, Param};
use hadas_tensor::Tensor;

/// Global average pooling: NCHW `(n, c, h, w)` → `(n, c)`.
///
/// This is the standard bridge between a convolutional feature extractor
/// and a linear classifier, used at the end of every exit head.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let dims = input.shape().dims().to_vec();
        if dims.len() != 4 {
            return Err(NnError::Tensor(hadas_tensor::TensorError::RankMismatch {
                expected: 4,
                got: dims.len(),
            }));
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let src = input.as_slice();
        let mut out = vec![0.0f32; n * c];
        let area = (h * w) as f32;
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                let s: f32 = src[base..base + h * w].iter().sum();
                out[img * c + ch] = s / area;
            }
        }
        self.cached_shape = Some(dims);
        Ok(Tensor::from_vec(out, &[n, c])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_shape
            .take()
            .ok_or(NnError::BackwardBeforeForward { layer: "GlobalAvgPool" })?;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let area = (h * w) as f32;
        let g = grad_out.as_slice();
        let mut dx = vec![0.0f32; n * c * h * w];
        for img in 0..n {
            for ch in 0..c {
                let v = g[img * c + ch] / area;
                let base = (img * c + ch) * h * w;
                for p in 0..h * w {
                    dx[base + p] = v;
                }
            }
        }
        Ok(Tensor::from_vec(dx, &dims)?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_averages_each_channel() {
        let mut gap = GlobalAvgPool::new();
        let x =
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]).unwrap();
        let y = gap.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 2.0]);
    }

    #[test]
    fn gap_backward_spreads_gradient_evenly() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        gap.forward(&x).unwrap();
        let g = gap.backward(&Tensor::from_vec(vec![4.0], &[1, 1]).unwrap()).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gap_rejects_non_4d() {
        let mut gap = GlobalAvgPool::new();
        assert!(gap.forward(&Tensor::ones(&[2, 3])).is_err());
    }
}
