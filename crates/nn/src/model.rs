//! Sequential model container and the residual block used by ResNet20.

use crate::{Layer, LayerParams, ModelParams, NnError, Result};
use dinar_telemetry::Telemetry;
use dinar_tensor::Tensor;

/// A feed-forward model: an ordered sequence of [`Layer`]s.
///
/// Throughout the paper, "layer *j*" refers to the *j*-th **trainable** layer
/// of the network (activations and pooling do not count). `Model` preserves
/// that numbering: [`Model::params`], [`Model::layer_gradients`] and
/// [`Model::set_layer_params`] all index trainable layers, so "obfuscate
/// layer `p`" is a one-call operation for the middleware.
///
/// # Example
///
/// ```
/// use dinar_nn::models;
/// use dinar_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut model = models::mlp(&[4, 8, 8, 2], models::Activation::ReLU, &mut rng)?;
/// assert_eq!(model.num_trainable_layers(), 3);
/// let x = rng.randn(&[5, 4]);
/// let logits = model.forward(&x, false)?;
/// assert_eq!(logits.shape(), &[5, 2]);
/// # Ok::<(), dinar_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    trainable: Vec<usize>,
    telemetry: Telemetry,
    /// The telemetry names, built once: per layer its `fwd[i:name]` and
    /// `bwd[i:name]` spans, per trainable layer its `nn.grad_l2[slot:name]`
    /// gauge.
    span_names: Vec<[String; 2]>,
    gauge_names: Vec<String>,
}

impl Model {
    /// Creates a model from a sequence of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let trainable: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_trainable())
            .map(|(i, _)| i)
            .collect();
        let span_names = layers
            .iter()
            .enumerate()
            .map(|(i, l)| ["fwd", "bwd"].map(|pass| format!("{pass}[{i}:{}]", l.name())))
            .collect();
        let gauge_names = trainable
            .iter()
            .enumerate()
            .map(|(slot, &i)| format!("nn.grad_l2[{slot}:{}]", layers[i].name()))
            .collect();
        Model {
            layers,
            trainable,
            telemetry: Telemetry::disabled(),
            span_names,
            gauge_names,
        }
    }

    /// Attaches a telemetry sink: every forward/backward pass then emits a
    /// `fwd[i:name]` / `bwd[i:name]` span per layer (nested under whatever
    /// span is open on the calling thread) and a `nn.grad_l2[slot:name]`
    /// high-water gauge per trainable layer after each backward pass.
    /// Numerical behaviour is unchanged — the hooks only read.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of trainable (parameter-bearing) layers.
    pub fn num_trainable_layers(&self) -> usize {
        self.trainable.len()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Names of all layers in order (including non-trainable ones).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs the forward pass.
    ///
    /// `train` selects training-time behaviour (batch statistics, gradient
    /// caches); inference should pass `false`.
    ///
    /// # Errors
    ///
    /// Propagates any layer error (typically shape mismatches).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let _span = if self.telemetry.is_enabled() {
                Some(self.telemetry.span(&self.span_names[i][0]))
            } else {
                None
            };
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Runs the backward pass, accumulating gradients in every trainable
    /// layer.
    ///
    /// The walk stops where the gradients stop being needed: the first
    /// trainable layer only accumulates its own gradients
    /// ([`Layer::backward_params`]) and the parameterless layers before it do
    /// not run, so no gradient with respect to the model input is computed.
    /// A caller that optimizes the *input* uses [`Model::backward_input`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if [`Model::forward`] has
    /// not been called.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<()> {
        self.walk_back(grad_logits, false, |_| {}).map(drop)
    }

    /// Runs the backward pass through every layer and returns the gradient
    /// with respect to the model input. Parameter gradients accumulate
    /// exactly as in [`Model::backward`]; the extra work is the first
    /// trainable layer's input product and whatever precedes it.
    ///
    /// Only the model-inversion attack (gradient descent on the input) and
    /// tests of the backward contract need this.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if [`Model::forward`] has
    /// not been called.
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Result<Tensor> {
        self.walk_back(grad_logits, true, |_| {})
    }

    /// The one backward walk. Layers run last to first, `tap` seeing the
    /// gradient that enters each trainable layer. With `to_input` every
    /// layer runs its full `backward` and the input gradient is returned;
    /// without it the walk ends at the first trainable layer, which runs
    /// `backward_params` (the returned tensor is then the gradient that
    /// entered that layer).
    fn walk_back(
        &mut self,
        grad_logits: &Tensor,
        to_input: bool,
        mut tap: impl FnMut(&Tensor),
    ) -> Result<Tensor> {
        let first_trainable = self.trainable.first().copied().unwrap_or(self.layers.len());
        let stop = if to_input { 0 } else { first_trainable };
        let mut g = grad_logits.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().skip(stop).rev() {
            let _span = if self.telemetry.is_enabled() {
                Some(self.telemetry.span(&self.span_names[i][1]))
            } else {
                None
            };
            if self.trainable.binary_search(&i).is_ok() {
                tap(&g);
            }
            if i == stop && !to_input {
                layer.backward_params(&g)?;
            } else {
                g = layer.backward(&g)?;
            }
        }
        self.check_gradients_finite();
        self.record_grad_norms();
        Ok(g)
    }

    /// With the `sanitize` feature, panics if any accumulated gradient
    /// contains a non-finite value, naming the trainable layer that produced
    /// it — so NaN poisoning is pinned to its source instead of surfacing as
    /// a nonsensical metric rounds later. Compiled to nothing otherwise.
    fn check_gradients_finite(&self) {
        #[cfg(feature = "sanitize")]
        for (slot, &i) in self.trainable.iter().enumerate() {
            let layer = &self.layers[i];
            for (tensor_idx, grad) in layer.grads().into_iter().enumerate() {
                if let Some((flat, x)) = grad
                    .as_slice()
                    .iter()
                    .enumerate()
                    .find(|(_, x)| !x.is_finite())
                {
                    // lint: allow(L012, the sanitize contract: fail loudly at the poisoning layer)
                    panic!(
                        "sanitize: backward produced non-finite gradient {x} in \
                         trainable layer {slot} (`{}`), gradient tensor {tensor_idx}, \
                         flat index {flat}",
                        layer.name()
                    );
                }
            }
        }
    }

    /// With telemetry attached, raises a `nn.grad_l2[slot:name]` gauge per
    /// trainable layer to the L2 norm of its accumulated gradients. The
    /// gauge is a high-water maximum, so concurrent clients sharing a sink
    /// update it commutatively (deterministic final value).
    fn record_grad_norms(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (&i, name) in self.trainable.iter().zip(&self.gauge_names) {
            let sumsq: f64 = self.layers[i]
                .grads()
                .iter()
                .map(|g| dinar_tensor::par::chunked_sumsq_f64(g.as_slice()))
                .sum();
            self.telemetry.gauge_max(name, sumsq.sqrt());
        }
    }

    /// Runs the backward pass like [`Model::backward`] (same walk, same
    /// stopping point), additionally returning, for every **trainable**
    /// layer, the gradient of the loss with respect to that layer's *output*
    /// (the backpropagated error signal δ entering the layer).
    ///
    /// The layer-sensitivity analysis uses these taps: they measure how much
    /// sample-specific error signal reaches each layer, independent of the
    /// layer's parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if [`Model::forward`] has
    /// not been called.
    pub fn backward_with_taps(&mut self, grad_logits: &Tensor) -> Result<Vec<Tensor>> {
        let mut taps = Vec::with_capacity(self.trainable.len());
        self.walk_back(grad_logits, false, |g| taps.push(g.clone()))?;
        taps.reverse(); // visited last trainable layer first
        Ok(taps)
    }

    /// Resets all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Clears cached activations in every layer.
    pub fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// Mutable access to all accumulated gradients, in layer order — used
    /// by gradient-perturbing defenses (DP-SGD clipping and noising).
    pub fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.grads_mut()).collect()
    }

    /// Paired mutable-parameter / gradient access across all layers, in
    /// layer order — the optimizer's view of the model.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    /// Snapshot of the full model state as [`ModelParams`].
    ///
    /// Each entry holds the layer's trainable tensors followed by its buffers
    /// (e.g. batch-norm running statistics), so that a client receiving these
    /// parameters reproduces the sender's inference behaviour exactly.
    pub fn params(&self) -> ModelParams {
        let layers = self
            .trainable
            .iter()
            .map(|&i| {
                let layer = &self.layers[i];
                let mut tensors: Vec<Tensor> = layer.params().into_iter().cloned().collect();
                tensors.extend(layer.buffers().into_iter().cloned());
                LayerParams::new(tensors)
            })
            .collect();
        ModelParams::new(layers)
    }

    /// Restores the full model state from [`ModelParams`], all or nothing:
    /// every layer's tensor count and every parameter and buffer shape is
    /// checked ([`Model::check_params`]) before any tensor is replaced.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if `params` does not match the
    /// model architecture; the model is then left as it was.
    pub fn set_params(&mut self, params: &ModelParams) -> Result<()> {
        self.check_params(params)?;
        for (&i, layer) in self.trainable.iter().zip(&params.layers) {
            write_layer_params(self.layers[i].as_mut(), layer);
        }
        Ok(())
    }

    /// Checks, writing nothing, that [`Model::set_params`] would accept
    /// `params`: one entry per trainable layer, each with the layer's tensor
    /// count and every parameter and buffer shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if `params` does not match the
    /// model architecture.
    pub fn check_params(&self, params: &ModelParams) -> Result<()> {
        if params.num_layers() != self.trainable.len() {
            return Err(NnError::ParamShapeMismatch {
                reason: format!(
                    "model has {} trainable layers, parameters describe {}",
                    self.trainable.len(),
                    params.num_layers()
                ),
            });
        }
        for (&i, layer) in self.trainable.iter().zip(&params.layers) {
            check_layer_params(self.layers[i].as_ref(), layer)?;
        }
        Ok(())
    }

    /// Parameters (and buffers) of the trainable layer with index `index`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if `index` is out of range.
    pub fn layer_params(&self, index: usize) -> Result<LayerParams> {
        let &i = self.trainable.get(index).ok_or(NnError::NoSuchLayer {
            index,
            trainable: self.trainable.len(),
        })?;
        let layer = &self.layers[i];
        let mut tensors: Vec<Tensor> = layer.params().into_iter().cloned().collect();
        tensors.extend(layer.buffers().into_iter().cloned());
        Ok(LayerParams::new(tensors))
    }

    /// Replaces the parameters (and buffers) of trainable layer `index`.
    ///
    /// This is the primitive behind DINAR's personalization step (Alg. 1,
    /// line 6): restore the locally stored private layer into a copy of the
    /// global model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] for a bad index or
    /// [`NnError::ParamShapeMismatch`] if tensor shapes differ.
    pub fn set_layer_params(&mut self, index: usize, params: &LayerParams) -> Result<()> {
        let &i = self.trainable.get(index).ok_or(NnError::NoSuchLayer {
            index,
            trainable: self.trainable.len(),
        })?;
        check_layer_params(self.layers[i].as_ref(), params)?;
        write_layer_params(self.layers[i].as_mut(), params);
        Ok(())
    }

    /// Paired mutable-parameter / gradient access for a single trainable
    /// layer — lets callers fine-tune one layer while freezing the rest
    /// (used by adaptive attackers that re-train an obfuscated layer).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if `index` is out of range.
    pub fn layer_params_and_grads(&mut self, index: usize) -> Result<Vec<(&mut Tensor, &Tensor)>> {
        let &i = self.trainable.get(index).ok_or(NnError::NoSuchLayer {
            index,
            trainable: self.trainable.len(),
        })?;
        Ok(self.layers[i].params_and_grads())
    }

    /// Accumulated gradients, one [`LayerParams`] per trainable layer
    /// (buffers excluded).
    ///
    /// This is the input to the paper's layer-sensitivity analysis (§3): the
    /// per-layer gradient distributions of member vs non-member predictions.
    pub fn layer_gradients(&self) -> Vec<LayerParams> {
        self.trainable
            .iter()
            .map(|&i| LayerParams::new(self.layers[i].grads().into_iter().cloned().collect()))
            .collect()
    }

    /// Predicted class per row of `input` (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input, false)?;
        Ok(logits.argmax_rows()?)
    }

    /// Classification accuracy on a labelled batch (inference mode).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] if label count differs from the
    /// batch size.
    pub fn accuracy(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32> {
        let preds = self.predict(input)?;
        if preds.len() != labels.len() {
            return Err(NnError::LabelMismatch {
                batch: preds.len(),
                labels: labels.len(),
            });
        }
        if preds.is_empty() {
            return Ok(0.0);
        }
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f32 / labels.len() as f32)
    }
}

/// Checks that `params` fits `layer`: its parameters, then its buffers, in
/// count and in every shape. Borrows only; nothing is copied.
fn check_layer_params(layer: &dyn Layer, params: &LayerParams) -> Result<()> {
    let n_params = layer.params().len();
    let n_buffers = layer.buffers().len();
    if params.tensors.len() != n_params + n_buffers {
        return Err(NnError::ParamShapeMismatch {
            reason: format!(
                "layer `{}` has {} tensors ({} params + {} buffers), got {}",
                layer.name(),
                n_params + n_buffers,
                n_params,
                n_buffers,
                params.tensors.len()
            ),
        });
    }
    let own = layer.params().into_iter().chain(layer.buffers());
    for (k, (dst, src)) in own.zip(&params.tensors).enumerate() {
        if dst.shape() != src.shape() {
            let what = if k < n_params { "parameter" } else { "buffer" };
            return Err(NnError::ParamShapeMismatch {
                reason: format!("{what} shape {:?} != {:?}", dst.shape(), src.shape()),
            });
        }
    }
    Ok(())
}

/// Installs `params` into `layer`, each tensor an `Arc` share of the one in
/// `params`. The caller has run [`check_layer_params`].
fn write_layer_params(layer: &mut dyn Layer, params: &LayerParams) {
    let dsts = layer.params_mut();
    let n_params = dsts.len();
    for (dst, src) in dsts.into_iter().zip(&params.tensors) {
        *dst = src.clone();
    }
    let buffers = &params.tensors[n_params..];
    for (dst, src) in layer.buffers_mut().into_iter().zip(buffers) {
        *dst = src.clone();
    }
}

/// A residual block: `y = relu(body(x) + shortcut(x))`.
///
/// `body` is typically `conv → bn → relu → conv → bn`; `shortcut` is empty
/// (identity) or a 1×1 strided convolution when the spatial size or channel
/// count changes. The whole block counts as **one** trainable layer in the
/// model's layer numbering.
#[derive(Debug)]
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    cached_sum: Option<Tensor>,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn identity(body: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            body,
            shortcut: Vec::new(),
            cached_sum: None,
        }
    }

    /// Creates a residual block with a projection shortcut (used when the
    /// body changes the activation shape).
    pub fn projected(body: Vec<Box<dyn Layer>>, shortcut: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            body,
            shortcut,
            cached_sum: None,
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut y = input.clone();
        for layer in &mut self.body {
            y = layer.forward(&y, train)?;
        }
        let mut s = input.clone();
        for layer in &mut self.shortcut {
            s = layer.forward(&s, train)?;
        }
        let sum = y.add(&s)?;
        let out = sum.map(|x| x.max(0.0));
        self.cached_sum = Some(sum);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let sum = self
            .cached_sum
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "residual" })?;
        // Backward through the final ReLU.
        let g = grad_output.zip_with(sum, "residual_relu", |g, s| if s > 0.0 { g } else { 0.0 })?;
        // Backward through the body.
        let mut gb = g.clone();
        for layer in self.body.iter_mut().rev() {
            gb = layer.backward(&gb)?;
        }
        // Backward through the shortcut (identity passes g through).
        let mut gs = g;
        for layer in self.shortcut.iter_mut().rev() {
            gs = layer.backward(&gs)?;
        }
        Ok(gb.add(&gs)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.body
            .iter()
            .chain(&self.shortcut)
            .flat_map(|l| l.params())
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.body
            .iter_mut()
            .chain(&mut self.shortcut)
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.body
            .iter()
            .chain(&self.shortcut)
            .flat_map(|l| l.grads())
            .collect()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        self.body
            .iter_mut()
            .chain(&mut self.shortcut)
            .flat_map(|l| l.grads_mut())
            .collect()
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.body
            .iter_mut()
            .chain(&mut self.shortcut)
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.body
            .iter()
            .chain(&self.shortcut)
            .flat_map(|l| l.buffers())
            .collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.body
            .iter_mut()
            .chain(&mut self.shortcut)
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    fn zero_grad(&mut self) {
        for layer in self.body.iter_mut().chain(&mut self.shortcut) {
            layer.zero_grad();
        }
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn clear_cache(&mut self) {
        self.cached_sum = None;
        for layer in self.body.iter_mut().chain(&mut self.shortcut) {
            layer.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use crate::models::{self, Activation};
    use crate::optim::{Optimizer, Sgd};
    use dinar_tensor::Rng;

    #[test]
    fn params_roundtrip() {
        let mut rng = Rng::seed_from(0);
        let mut model = models::mlp(&[3, 5, 2], Activation::Tanh, &mut rng).unwrap();
        let snapshot = model.params();
        // Perturb, then restore.
        let mut perturbed = snapshot.share();
        perturbed.map_inplace(|x| x + 1.0);
        model.set_params(&perturbed).unwrap();
        assert!(model.params().max_abs_diff(&snapshot).unwrap() > 0.9);
        model.set_params(&snapshot).unwrap();
        assert!(model.params().max_abs_diff(&snapshot).unwrap() < 1e-7);
    }

    #[test]
    fn set_layer_params_replaces_only_that_layer() {
        let mut rng = Rng::seed_from(1);
        let mut model = models::mlp(&[3, 5, 2], Activation::ReLU, &mut rng).unwrap();
        let before = model.params();
        let mut layer1 = model.layer_params(1).unwrap();
        for t in &mut layer1.tensors {
            t.map_inplace(|_| 9.0);
        }
        model.set_layer_params(1, &layer1).unwrap();
        let after = model.params();
        // Layer 0 untouched, layer 1 replaced.
        assert_eq!(after.layers[0], before.layers[0]);
        assert!(after.layers[1].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| x == 9.0));
    }

    #[test]
    fn refused_set_params_changes_nothing() {
        let mut model = models::resnet_mini(3, 4, &mut Rng::seed_from(5)).unwrap();
        // A train-mode pass moves the BatchNorm running statistics off init.
        let x = Rng::seed_from(6).randn(&[2, 3, 8, 8]);
        model.forward(&x, true).unwrap();
        let bits =
            |p: &ModelParams| -> Vec<u32> { p.to_flat().iter().map(|v| v.to_bits()).collect() };
        let before = bits(&model.params());
        let other = models::resnet_mini(3, 4, &mut Rng::seed_from(7))
            .unwrap()
            .params();
        let last = other.num_layers() - 1;
        // The classifier's weights, then the first BatchNorm's running
        // variance (a buffer behind that layer's two parameters).
        for (layer, tensor) in [(last, 0), (1, 3)] {
            let mut bad = other.share();
            bad.layers[layer].tensors[tensor] = Tensor::zeros(&[1]);
            assert!(matches!(
                model.set_params(&bad),
                Err(NnError::ParamShapeMismatch { .. })
            ));
            assert!(bits(&model.params()) == before, "layer {layer} was written");
        }
        model.set_params(&other).unwrap();
        assert!(bits(&model.params()) == bits(&other));
    }

    #[test]
    fn invalid_layer_index_errors() {
        let mut rng = Rng::seed_from(2);
        let model = models::mlp(&[3, 2], Activation::ReLU, &mut rng).unwrap();
        assert!(matches!(
            model.layer_params(5),
            Err(NnError::NoSuchLayer { index: 5, .. })
        ));
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        // Two Gaussian blobs, linearly separable.
        let mut rng = Rng::seed_from(3);
        let n = 64;
        let mut x = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            x.set(&[i, 0], rng.normal_with(center, 0.5)).unwrap();
            x.set(&[i, 1], rng.normal_with(center, 0.5)).unwrap();
            labels.push(class);
        }
        let mut model = models::mlp(&[2, 8, 2], Activation::ReLU, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..50 {
            let logits = model.forward(&x, true).unwrap();
            let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
            if epoch == 0 {
                first_loss = loss;
            }
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss * 0.3,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
        assert!(model.accuracy(&x, &labels).unwrap() > 0.95);
    }

    #[test]
    fn residual_block_gradcheck() {
        use crate::conv::Conv2d;
        let mut rng = Rng::seed_from(8);
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(2, 2, 3, 1, 1, &mut rng))];
        let mut block = Residual::identity(body);
        let x = rng.randn(&[1, 2, 4, 4]);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let w = rng.rand_uniform(y.shape(), 0.1, 1.0);
        let gx = block.backward(&w).unwrap();
        // Central difference: the block ends in a ReLU, so a one-sided
        // probe that crosses the kink reports a blend of the two slopes.
        // The symmetric probe cancels the truncation term, and the ±eps
        // evaluations stay on one side of the kink for this seed.
        let eps = 1e-2;
        let probe = |delta: f32, block: &mut Residual| {
            let mut x2 = x.clone();
            let old = x2.get(&[0, 1, 1, 2]).unwrap();
            x2.set(&[0, 1, 1, 2], old + delta).unwrap();
            block.forward(&x2, true).unwrap().mul(&w).unwrap().sum()
        };
        let numeric = (probe(eps, &mut block) - probe(-eps, &mut block)) / (2.0 * eps);
        let analytic = gx.get(&[0, 1, 1, 2]).unwrap();
        assert!(
            (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
            "numeric={numeric} analytic={analytic}"
        );
    }

    #[test]
    fn residual_counts_as_one_trainable_layer() {
        let mut rng = Rng::seed_from(5);
        let model = models::resnet_mini(3, 4, &mut rng).unwrap();
        // conv1+bn count as 2, blocks as 1 each, final dense as 1.
        let names = model.layer_names();
        assert!(names.contains(&"residual"));
        let params = model.params();
        assert_eq!(params.num_layers(), model.num_trainable_layers());
    }
}
