//! Weight-shared layers: the OFA slicing mechanism.
//!
//! A [`SharedConv2d`] owns weights for its **maximum** channel counts; a
//! subnet using `c_in ≤ c_in_max` input and `c_out ≤ c_out_max` output
//! channels executes with the top-left weight slice (first rows, first
//! per-channel column blocks), and its gradients accumulate back into the
//! same slice of the shared parameter. The weight layout puts each output
//! filter's `(c_in_max, k, k)` block in row-major channel order, so an
//! input-channel prefix is a *contiguous* column prefix, which the
//! shared [`hadas_tensor::ConvKernel`] reads in place.

use crate::SupernetError;
use hadas_nn::Param;
use hadas_tensor::{kaiming_uniform, Conv2dGeometry, ConvKernel, Tensor};
use rand::Rng;

/// A convolution whose weights are shared across channel-sliced subnets.
///
/// Between a forward and a backward pass it caches the slice's
/// [`ConvKernel`] and the zero-padded input the kernel returned,
/// `(n, c_in, h + 2p, w + 2p)`.
#[derive(Debug)]
pub struct SharedConv2d {
    weight: Param,
    bias: Param,
    c_in_max: usize,
    c_out_max: usize,
    kernel: usize,
    cache: Option<(ConvKernel, Tensor)>,
}

impl SharedConv2d {
    /// Creates a shared convolution with max channel counts.
    pub fn new<R: Rng>(rng: &mut R, c_in_max: usize, c_out_max: usize, kernel: usize) -> Self {
        let fan_in = c_in_max * kernel * kernel;
        SharedConv2d {
            weight: Param::new(kaiming_uniform(rng, &[c_out_max, fan_in], fan_in)),
            bias: Param::new(Tensor::zeros(&[c_out_max])),
            c_in_max,
            c_out_max,
            kernel,
            cache: None,
        }
    }

    /// Maximum input channels.
    pub fn c_in_max(&self) -> usize {
        self.c_in_max
    }

    /// Maximum output channels.
    pub fn c_out_max(&self) -> usize {
        self.c_out_max
    }

    /// The shared parameters (weight, bias) for an optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Sliced forward pass: `x` is `(n, c_in, h, w)` with `c_in ≤
    /// c_in_max`; produces `(n, c_out, h, w)` (stride 1, same padding)
    /// from the top-left `(c_out × c_in·k²)` slice of the shared weights.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::InvalidChoice`] if the slice exceeds the
    /// shared extents, or propagates tensor errors.
    pub fn forward_slice(&mut self, x: &Tensor, c_out: usize) -> Result<Tensor, SupernetError> {
        let dims = x.shape().dims();
        if dims.len() != 4 {
            return Err(SupernetError::InvalidChoice(format!(
                "expected NCHW input, got rank {}",
                dims.len()
            )));
        }
        let (c_in, h, w) = (dims[1], dims[2], dims[3]);
        if c_in > self.c_in_max || c_out > self.c_out_max || c_out == 0 {
            return Err(SupernetError::InvalidChoice(format!(
                "slice {c_in}->{c_out} exceeds shared {}->{}",
                self.c_in_max, self.c_out_max
            )));
        }
        let geo = Conv2dGeometry::new(h, w, self.kernel, 1, self.kernel / 2)?;
        let kernel = ConvKernel::new(geo, c_in, c_out, self.c_in_max);
        let (y, padded) = kernel.forward(x, self.weight.value(), self.bias.value())?;
        self.cache = Some((kernel, padded));
        Ok(y)
    }

    /// The slice's kernel and padded input from the last forward pass.
    fn take_cache(&mut self) -> Result<(ConvKernel, Tensor), SupernetError> {
        self.cache.take().ok_or(SupernetError::Nn(hadas_nn::NnError::BackwardBeforeForward {
            layer: "SharedConv2d",
        }))
    }

    /// Sliced backward pass: accumulates gradients into the shared weight
    /// slice and returns the input gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if called before [`SharedConv2d::forward_slice`].
    pub fn backward_slice(&mut self, grad_out: &Tensor) -> Result<Tensor, SupernetError> {
        let (kernel, padded) = self.take_cache()?;
        let (weight, weight_grad) = self.weight.value_and_grad_mut();
        Ok(kernel.backward(grad_out, &padded, weight, weight_grad, self.bias.grad_mut())?)
    }

    /// [`SharedConv2d::backward_slice`] for a layer whose input gradient
    /// nobody reads: accumulates the parameter gradients only.
    ///
    /// # Errors
    ///
    /// Returns an error if called before [`SharedConv2d::forward_slice`].
    pub fn backward_params_slice(&mut self, grad_out: &Tensor) -> Result<(), SupernetError> {
        let (kernel, padded) = self.take_cache()?;
        let weight_grad = self.weight.grad_mut();
        Ok(kernel.backward_params(grad_out, &padded, weight_grad, self.bias.grad_mut())?)
    }

    /// Zeroes the shared gradients.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

/// A linear classifier whose input features are channel-sliced.
#[derive(Debug)]
pub struct SharedLinear {
    weight: Param,
    bias: Param,
    in_max: usize,
    out: usize,
    cache: Option<(Tensor, usize)>,
}

impl SharedLinear {
    /// Creates a shared linear layer `in_max → out`.
    pub fn new<R: Rng>(rng: &mut R, in_max: usize, out: usize) -> Self {
        SharedLinear {
            weight: Param::new(kaiming_uniform(rng, &[out, in_max], in_max)),
            bias: Param::new(Tensor::zeros(&[out])),
            in_max,
            out,
            cache: None,
        }
    }

    /// Maximum input features.
    pub fn in_max(&self) -> usize {
        self.in_max
    }

    /// The shared parameters for an optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn sliced_weight(&self, in_act: usize) -> Result<Tensor, SupernetError> {
        let src = self.weight.value().as_slice();
        let mut out = Vec::with_capacity(self.out * in_act);
        for r in 0..self.out {
            out.extend_from_slice(&src[r * self.in_max..r * self.in_max + in_act]);
        }
        Ok(Tensor::from_vec(out, &[self.out, in_act])?)
    }

    /// Sliced forward: `x` is `(n, in_act)` with `in_act ≤ in_max`.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::InvalidChoice`] for oversized slices.
    pub fn forward_slice(&mut self, x: &Tensor) -> Result<Tensor, SupernetError> {
        let dims = x.shape().dims();
        if dims.len() != 2 || dims[1] > self.in_max {
            return Err(SupernetError::InvalidChoice(format!(
                "expected (n, ≤{}) input, got {dims:?}",
                self.in_max
            )));
        }
        let in_act = dims[1];
        let y = x.linear(&self.sliced_weight(in_act)?, self.bias.value())?;
        self.cache = Some((x.clone(), in_act));
        Ok(y)
    }

    /// Sliced backward: accumulates into the shared slice, returns the
    /// input gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if called before [`SharedLinear::forward_slice`].
    pub fn backward_slice(&mut self, grad_out: &Tensor) -> Result<Tensor, SupernetError> {
        let (x, in_act) = self.cache.take().ok_or(SupernetError::Nn(
            hadas_nn::NnError::BackwardBeforeForward { layer: "SharedLinear" },
        ))?;
        let grad_w = grad_out.transpose()?.matmul(&x)?; // (out, in_act)
        {
            let dst = self.weight.grad_mut().as_mut_slice();
            let src = grad_w.as_slice();
            for r in 0..self.out {
                for c in 0..in_act {
                    dst[r * self.in_max + c] += src[r * in_act + c];
                }
            }
        }
        {
            let (batch, out) = (grad_out.shape().dims()[0], grad_out.shape().dims()[1]);
            let db = self.bias.grad_mut().as_mut_slice();
            let g = grad_out.as_slice();
            for r in 0..batch {
                for c in 0..out {
                    db[c] += g[r * out + c];
                }
            }
        }
        Ok(grad_out.matmul(&self.sliced_weight(in_act)?)?)
    }

    /// Zeroes the shared gradients.
    pub fn zero_grad(&mut self) {
        self.weight.zero_grad();
        self.bias.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sliced_forward_matches_max_forward_prefix_weights() {
        // A slice using all channels equals a plain conv with the same
        // weights; a narrower slice must differ from it.
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = SharedConv2d::new(&mut rng, 4, 6, 3);
        let x_full = hadas_tensor::uniform(&mut rng, &[1, 4, 5, 5], -1.0, 1.0);
        let y_full = conv.forward_slice(&x_full, 6).unwrap();
        assert_eq!(y_full.shape().dims(), &[1, 6, 5, 5]);
        let x_narrow = hadas_tensor::uniform(&mut rng, &[1, 2, 5, 5], -1.0, 1.0);
        let y_narrow = conv.forward_slice(&x_narrow, 3).unwrap();
        assert_eq!(y_narrow.shape().dims(), &[1, 3, 5, 5]);
    }

    #[test]
    fn slice_rejects_oversize() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = SharedConv2d::new(&mut rng, 4, 6, 3);
        let x = Tensor::ones(&[1, 5, 4, 4]); // c_in 5 > max 4
        assert!(conv.forward_slice(&x, 6).is_err());
        let x = Tensor::ones(&[1, 4, 4, 4]);
        assert!(conv.forward_slice(&x, 7).is_err());
    }

    #[test]
    fn sliced_gradients_land_in_the_slice_only() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = SharedConv2d::new(&mut rng, 4, 6, 3);
        let x = hadas_tensor::uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let y = conv.forward_slice(&x, 3).unwrap();
        conv.backward_slice(&Tensor::ones(y.shape().dims())).unwrap();
        let grad = conv.params_mut().remove(0).grad().clone();
        let k2 = 9;
        let full_cols = 4 * k2;
        let slice_cols = 2 * k2;
        let g = grad.as_slice();
        // Rows 0..3, cols 0..18 carry gradient; everything else is zero.
        let mut inside = 0.0f32;
        let mut outside = 0.0f32;
        for r in 0..6 {
            for c in 0..full_cols {
                let v = g[r * full_cols + c].abs();
                if r < 3 && c < slice_cols {
                    inside += v;
                } else {
                    outside += v;
                }
            }
        }
        assert!(inside > 0.0, "slice must receive gradient");
        assert_eq!(outside, 0.0, "outside the slice must stay untouched");
    }

    /// The parameter-only backward adds the same gradient bits as the
    /// full one, and refuses to run without a forward pass.
    #[test]
    fn params_only_backward_matches_the_full_one() {
        let grads = |params_only: bool| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut conv = SharedConv2d::new(&mut rng, 4, 6, 3);
            let x = hadas_tensor::uniform(&mut rng, &[2, 3, 5, 5], -1.0, 1.0);
            let y = conv.forward_slice(&x, 5).unwrap();
            let g = hadas_tensor::uniform(&mut rng, y.shape().dims(), -1.0, 1.0);
            if params_only {
                conv.backward_params_slice(&g).unwrap();
                assert!(conv.backward_params_slice(&g).is_err());
            } else {
                conv.backward_slice(&g).unwrap();
            }
            let bits = |p: &mut Param| p.grad().as_slice().iter().map(|v| v.to_bits()).collect();
            conv.params_mut().into_iter().map(bits).collect::<Vec<Vec<u32>>>()
        };
        assert_eq!(grads(true), grads(false));
    }

    #[test]
    fn conv_slice_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = SharedConv2d::new(&mut rng, 3, 4, 3);
        let x = hadas_tensor::uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let y = conv.forward_slice(&x, 3).unwrap();
        let grad_in = conv.backward_slice(&Tensor::ones(y.shape().dims())).unwrap();
        let eps = 1e-2f32;
        for idx in [0usize, 7, 15, 23, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = conv.forward_slice(&xp, 3).unwrap().sum();
            let lm = conv.forward_slice(&xm, 3).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            assert!((num - ana).abs() < 5e-2, "idx {idx}: {num} vs {ana}");
        }
    }

    #[test]
    fn linear_slice_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lin = SharedLinear::new(&mut rng, 8, 3);
        let x = hadas_tensor::uniform(&mut rng, &[2, 5], -1.0, 1.0);
        let y = lin.forward_slice(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
        let gin = lin.backward_slice(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(gin.shape().dims(), &[2, 5]);
        // Shared weight grad outside the first 5 columns is zero.
        let grad = lin.params_mut().remove(0).grad().clone();
        let g = grad.as_slice();
        for r in 0..3 {
            for c in 5..8 {
                assert_eq!(g[r * 8 + c], 0.0);
            }
        }
    }
}
