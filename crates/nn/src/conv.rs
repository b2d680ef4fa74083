use crate::{Layer, NnError, Param};
use hadas_tensor::{kaiming_uniform, Conv2dGeometry, ConvKernel, Tensor};
use rand::Rng;

/// A 2-D convolution over NCHW inputs, run on [`ConvKernel`].
///
/// The kernel bank has shape `(c_out, c_in, k, k)`; the layer owns its
/// geometry, so input spatial dimensions are fixed at construction (which is
/// all an exit head needs — each head attaches at a known feature-map size).
/// Between a forward and a backward pass it caches the zero-padded input
/// the kernel returned, `(n, c_in, h + 2p, w + 2p)`.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    kernel: ConvKernel,
    cached_padded: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with seeded random weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the convolution geometry is invalid.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        rng: &mut R,
        c_in: usize,
        c_out: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        let geo = Conv2dGeometry::new(in_h, in_w, kernel, stride, padding)?;
        let fan_in = c_in * kernel * kernel;
        let weight = Param::new(kaiming_uniform(rng, &[c_out, c_in * kernel * kernel], fan_in));
        let bias = Param::new(Tensor::zeros(&[c_out]));
        let kernel = ConvKernel::new(geo, c_in, c_out, c_in);
        Ok(Conv2d { weight, bias, kernel, cached_padded: None })
    }

    /// The convolution geometry (spatial sizes, kernel, stride, padding).
    pub fn geometry(&self) -> &Conv2dGeometry {
        self.kernel.geometry()
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.kernel.c_out()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let (y, padded) = self.kernel.forward(input, self.weight.value(), self.bias.value())?;
        self.cached_padded = Some(padded);
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let padded =
            self.cached_padded.take().ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })?;
        let (weight, weight_grad) = self.weight.value_and_grad_mut();
        Ok(self.kernel.backward(grad_out, &padded, weight, weight_grad, self.bias.grad_mut())?)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn output_shape_follows_geometry() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 16, 16, 3, 2, 1).unwrap();
        let x = Tensor::ones(&[2, 3, 16, 16]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 8, 8, 3, 1, 1).unwrap();
        assert!(conv.forward(&Tensor::ones(&[1, 4, 8, 8])).is_err());
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 4, 4, 1, 1, 0).unwrap();
        // Force the single 1x1 weight to 1 and bias to 0.
        conv.weight.value_mut().as_mut_slice()[0] = 1.0;
        conv.bias.value_mut().as_mut_slice()[0] = 0.0;
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 5, 5, 3, 1, 1).unwrap();
        let x = hadas_tensor::uniform(&mut rng, &[1, 2, 5, 5], -1.0, 1.0);
        let y = conv.forward(&x).unwrap();
        let grad_in = conv.backward(&Tensor::ones(y.shape().dims())).unwrap();
        let eps = 1e-2f32;
        // Spot-check a handful of coordinates (full sweep is slow in debug).
        for idx in [0usize, 7, 13, 24, 31, 49] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = conv.forward(&xp).unwrap().sum();
            let lm = conv.forward(&xm).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            assert!((num - ana).abs() < 5e-2, "idx {idx}: numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 4, 4, 3, 1, 1).unwrap();
        let x = hadas_tensor::uniform(&mut rng, &[1, 1, 4, 4], -1.0, 1.0);
        let y = conv.forward(&x).unwrap();
        conv.backward(&Tensor::ones(y.shape().dims())).unwrap();
        let analytic = conv.weight.grad().clone();
        let eps = 1e-2f32;
        for idx in [0usize, 4, 8, 12, 17] {
            let orig = conv.weight.value().as_slice()[idx];
            conv.weight.value_mut().as_mut_slice()[idx] = orig + eps;
            let lp = conv.forward(&x).unwrap().sum();
            conv.weight.value_mut().as_mut_slice()[idx] = orig - eps;
            let lm = conv.forward(&x).unwrap().sum();
            conv.weight.value_mut().as_mut_slice()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = analytic.as_slice()[idx];
            assert!((num - ana).abs() < 5e-2, "idx {idx}: numeric {num} vs analytic {ana}");
        }
    }
}
