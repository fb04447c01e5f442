//! The [`Layer`] trait: the unit of composition for models.

use crate::Result;
use dinar_tensor::Tensor;

/// A differentiable network layer.
///
/// Layers own their parameters and accumulated gradients and cache whatever
/// activations the backward pass needs. `forward` must be called before
/// `backward`; gradients *accumulate* across calls until [`Layer::zero_grad`].
/// The backward pass has two halves: [`Layer::backward`] accumulates the
/// parameter gradients *and* returns the input gradient,
/// [`Layer::backward_params`] does only the former — a model calls it on its
/// first trainable layer, whose input gradient nobody reads.
///
/// The paper's middleware operates at layer granularity, so this trait exposes
/// paired parameter/gradient access ([`Layer::params_and_grads`]) used by the
/// optimizers, plus read-only access used by the FL engine and the
/// sensitivity analysis.
///
/// This trait is object-safe; models store `Box<dyn Layer>`.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output for `input`.
    ///
    /// `train` selects training behaviour (e.g. batch statistics in
    /// batch-norm); inference passes `false`.
    ///
    /// # Errors
    ///
    /// Returns an error if `input` has an incompatible shape.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no forward pass
    /// has been cached, or a tensor error on shape mismatch.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Accumulates the parameter gradients for `grad_output` exactly as
    /// [`Layer::backward`] does, without computing the gradient with respect
    /// to the layer input.
    ///
    /// [`crate::Model::backward`] calls this on the first trainable layer,
    /// whose input gradient nothing reads. The default runs the full
    /// `backward` and drops its result, so a layer that does not override it
    /// stays correct; layers whose input product is expensive (dense,
    /// convolutions) override it to skip that product.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// The layer's parameter tensors (empty for parameterless layers).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the parameter tensors.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// The accumulated gradient tensors, aligned with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the accumulated gradients (used by defenses that
    /// clip or noise gradients before the optimizer step, e.g. DP-SGD).
    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Paired mutable-parameter / shared-gradient access for optimizers.
    ///
    /// Implementations split-borrow their fields so parameters can be updated
    /// while reading the matching gradients in one pass.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    /// Non-trainable state tensors (e.g. batch-norm running statistics).
    ///
    /// Buffers are part of the model state exchanged in federated
    /// aggregation, but optimizers never update them.
    fn buffers(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the buffer tensors.
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Resets accumulated gradients to zero.
    fn zero_grad(&mut self) {}

    /// Short human-readable layer name (e.g. `"dense"`, `"conv2d"`).
    fn name(&self) -> &'static str;

    /// `true` if the layer carries trainable parameters.
    ///
    /// This determines whether the layer occupies an index in the model's
    /// *trainable layer* numbering — the numbering used throughout the paper
    /// ("the penultimate layer", "layer p").
    fn is_trainable(&self) -> bool {
        !self.params().is_empty()
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// Clears cached activations (used when cloning model states).
    fn clear_cache(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;

    #[test]
    fn parameterless_layer_defaults() {
        let relu = ReLU::new();
        assert!(!relu.is_trainable());
        assert_eq!(relu.param_count(), 0);
        assert!(relu.params().is_empty());
        assert!(relu.grads().is_empty());
    }
}
