use hadas_tensor::Tensor;

/// A trainable parameter: a value tensor and its accumulated gradient.
///
/// Layers expose their parameters through [`crate::Layer::params_mut`] so a
/// single optimizer can update an arbitrary network, and gradients are
/// zeroed between steps with [`Param::zero_grad`].
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    value: Tensor,
    grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Param { value, grad }
    }

    /// The parameter value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the parameter value (used by optimizers).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable access to the gradient (used by layers during backward).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// The value and, mutably, the gradient at once: what a layer's
    /// backward pass needs when it reads its weights while accumulating
    /// into their gradient.
    pub fn value_and_grad_mut(&mut self) -> (&Tensor, &mut Tensor) {
        (&self.value, &mut self.grad)
    }

    /// Resets the gradient to zero, keeping the value.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 2]));
        assert!(p.grad().as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut p = Param::new(Tensor::ones(&[3]));
        p.grad_mut().as_mut_slice()[1] = 5.0;
        p.zero_grad();
        assert!(p.grad().as_slice().iter().all(|&g| g == 0.0));
    }
}
