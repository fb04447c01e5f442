//! Fully-connected (dense) layer.

use crate::{init, Layer, NnError, Result};
use dinar_tensor::{Rng, Tensor};

/// A fully-connected layer: `y = x·W + b`.
///
/// `W` has shape `[in_features, out_features]`, `b` has shape
/// `[out_features]`; inputs are `[batch, in_features]`.
///
/// # Example
///
/// ```
/// use dinar_nn::{dense::Dense, Layer};
/// use dinar_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut layer = Dense::xavier(3, 2, &mut rng);
/// let x = rng.randn(&[4, 3]);
/// let y = layer.forward(&x, true)?;
/// assert_eq!(y.shape(), &[4, 2]);
/// # Ok::<(), dinar_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights (use before ReLU).
    pub fn he(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Self::with_weight(init::he_normal(
            rng,
            &[in_features, out_features],
            in_features,
        ))
    }

    /// Creates a dense layer with Xavier-uniform weights (use before Tanh).
    pub fn xavier(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Self::with_weight(init::xavier_uniform(
            rng,
            &[in_features, out_features],
            in_features,
            out_features,
        ))
    }

    fn with_weight(weight: Tensor) -> Self {
        let out_features = weight.shape()[1];
        Dense {
            grad_weight: Tensor::zeros_like(&weight),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let y = input.matmul(&self.weight)?.add_row_broadcast(&self.bias)?;
        self.cached_input = Some(input.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        Ok(grad_output.matmul_t(&self.weight)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        // dW += xᵀ · dy, the product's chains resumed from dW in place (on
        // zeroed gradients, `xᵀ · dy` bit for bit) ; db += column sums of dy.
        self.grad_weight.add_t_matmul(input, grad_output)?;
        self.grad_bias.add_assign(&grad_output.sum_rows()?)?;
        Ok(())
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the dense layer's gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(42);
        let mut layer = Dense::xavier(4, 3, &mut rng);
        let x = rng.randn(&[2, 4]);
        // Scalar objective: sum of outputs.
        let grad_out = Tensor::ones(&[2, 3]);
        let y = layer.forward(&x, true).unwrap();
        let f0 = y.sum();
        let gx = layer.backward(&grad_out).unwrap();

        let eps = 1e-3;
        // Check dW numerically for a few entries.
        for &(i, j) in &[(0, 0), (1, 2), (3, 1)] {
            let mut bumped = Dense::with_weight(layer.weight.clone());
            bumped.bias = layer.bias.clone();
            let old = bumped.weight.get(&[i, j]).unwrap();
            bumped.weight.set(&[i, j], old + eps).unwrap();
            let f1 = bumped.forward(&x, true).unwrap().sum();
            let numeric = (f1 - f0) / eps;
            let analytic = layer.grad_weight.get(&[i, j]).unwrap();
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{i},{j}] numeric={numeric} analytic={analytic}"
            );
        }
        // Check dx numerically for one entry.
        let mut x2 = x.clone();
        let old = x2.get(&[1, 3]).unwrap();
        x2.set(&[1, 3], old + eps).unwrap();
        let f1 = layer.forward(&x2, true).unwrap().sum();
        let numeric = (f1 - f0) / eps;
        let analytic = gx.get(&[1, 3]).unwrap();
        assert!((numeric - analytic).abs() < 1e-2);
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = Rng::seed_from(1);
        let mut layer = Dense::he(2, 2, &mut rng);
        let x = rng.randn(&[3, 2]);
        layer.forward(&x, true).unwrap();
        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        layer.backward(&grad_out).unwrap();
        assert_eq!(layer.grad_bias.as_slice(), &[9.0, 12.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng::seed_from(2);
        let mut layer = Dense::he(2, 2, &mut rng);
        let x = rng.randn(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x, true).unwrap();
        layer.backward(&g).unwrap();
        let first = layer.grad_weight.clone();
        layer.forward(&x, true).unwrap();
        layer.backward(&g).unwrap();
        assert!(layer.grad_weight.approx_eq(&first.mul_scalar(2.0), 1e-6));
        layer.zero_grad();
        assert_eq!(layer.grad_weight.sum(), 0.0);
    }

    #[test]
    fn backward_params_accumulates_what_backward_accumulates() {
        let mut rng = Rng::seed_from(4);
        let mut full = Dense::xavier(5, 3, &mut rng);
        let mut params_only = Dense::with_weight(full.weight.clone());
        let x = rng.randn(&[4, 5]);
        let g = rng.randn(&[4, 3]);
        full.forward(&x, true).unwrap();
        full.backward(&g).unwrap();
        params_only.forward(&x, true).unwrap();
        params_only.backward_params(&g).unwrap();
        assert_eq!(params_only.grad_weight, full.grad_weight);
        assert_eq!(params_only.grad_bias, full.grad_bias);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng::seed_from(3);
        let mut layer = Dense::he(2, 2, &mut rng);
        let g = Tensor::ones(&[1, 2]);
        assert!(matches!(
            layer.backward(&g),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        ));
        assert!(matches!(
            layer.backward_params(&g),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        ));
    }
}
