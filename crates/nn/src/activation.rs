//! Parameterless activation layers: ReLU and Tanh.

use crate::{Layer, NnError, Result};
use dinar_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// Used by the convolutional architectures (ResNet20, VGG11, M18).
#[derive(Debug, Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        ReLU { cached_input: None }
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_input = Some(input.clone());
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        Ok(grad_output.zip_with(input, "relu_backward", |g, x| if x > 0.0 { g } else { 0.0 })?)
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }
}

/// Hyperbolic tangent activation.
///
/// The paper's Purchase100/Texas100 fully-connected networks use Tanh
/// activations (§5.1).
#[derive(Debug, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh activation layer.
    pub fn new() -> Self {
        Tanh { cached_output: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let out = input.tanh();
        self.cached_output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let out = self
            .cached_output
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "tanh" })?;
        // d tanh(x)/dx = 1 - tanh(x)^2, computed from the cached output.
        Ok(grad_output.zip_with(out, "tanh_backward", |g, y| g * (1.0 - y * y))?)
    }

    fn name(&self) -> &'static str {
        "tanh"
    }

    fn clear_cache(&mut self) {
        self.cached_output = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        relu.forward(&x, true).unwrap();
        let g = Tensor::from_slice(&[10.0, 10.0, 10.0]);
        let gx = relu.backward(&g).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let mut tanh = Tanh::new();
        let mut rng = Rng::seed_from(0);
        let x = rng.randn(&[1, 5]);
        let y = tanh.forward(&x, true).unwrap();
        let f0 = y.sum();
        let gx = tanh.backward(&Tensor::ones(&[1, 5])).unwrap();
        let eps = 1e-3;
        for j in 0..5 {
            let mut x2 = x.clone();
            let old = x2.get(&[0, j]).unwrap();
            x2.set(&[0, j], old + eps).unwrap();
            let f1 = tanh.forward(&x2, true).unwrap().sum();
            let numeric = (f1 - f0) / eps;
            assert!(
                (numeric - gx.get(&[0, j]).unwrap()).abs() < 1e-2,
                "index {j}"
            );
        }
    }

    #[test]
    fn backward_before_forward_errors() {
        let g = Tensor::ones(&[1]);
        assert!(ReLU::new().backward(&g).is_err());
        assert!(Tanh::new().backward(&g).is_err());
    }
}
