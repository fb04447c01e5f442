//! Layer-structured parameter containers.
//!
//! [`ModelParams`] is the unit of exchange in the federated protocol: clients
//! upload their parameters to the server, the server aggregates them with
//! FedAvg, defenses perturb them, and DINAR obfuscates exactly one
//! [`LayerParams`] entry (the privacy-sensitive layer) before upload. Keeping
//! the per-layer structure — instead of a flat vector — is what makes the
//! paper's fine-grained approach expressible.

use crate::view::NestedNorm;
use crate::{NnError, Result};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::Tensor;

/// The parameters of a single trainable layer (e.g. `[weight, bias]`, or
/// `[gamma, beta, running_mean, running_var]` for batch-norm).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// The layer's tensors, in the layer's canonical order.
    pub tensors: Vec<Tensor>,
}

impl ToJson for LayerParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![("tensors", self.tensors.to_json())])
    }
}

/// A layer is its tensor list to the model framing
/// ([`crate::snapshot::write_layers`]), like an optimizer's state group.
impl AsRef<[Tensor]> for LayerParams {
    fn as_ref(&self) -> &[Tensor] {
        &self.tensors
    }
}

/// A model from its tensors, layer by layer: what a decoder reads back out
/// of the model framing ([`crate::snapshot::read_layers`]).
impl From<Vec<Vec<Tensor>>> for ModelParams {
    fn from(layers: Vec<Vec<Tensor>>) -> ModelParams {
        ModelParams::new(layers.into_iter().map(LayerParams::new).collect())
    }
}

impl LayerParams {
    /// Reconstructs layer parameters from their [`ToJson`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the payload is not an object
    /// with a `tensors` array of valid tensor payloads.
    pub fn from_json(value: &Json) -> Result<Self> {
        let tensors = value
            .get("tensors")
            .and_then(Json::as_arr)
            .ok_or_else(|| NnError::InvalidConfig {
                reason: "layer payload missing `tensors` array".into(),
            })?
            .iter()
            .map(|t| {
                Tensor::from_json(t).map_err(|e| NnError::InvalidConfig {
                    reason: format!("bad tensor in layer payload: {e}"),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(LayerParams { tensors })
    }
    /// Creates a layer-parameter set from tensors.
    pub fn new(tensors: Vec<Tensor>) -> Self {
        LayerParams { tensors }
    }

    /// Total number of scalar parameters in the layer.
    pub fn param_count(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// L2 norm of the concatenated layer parameters.
    pub fn l2_norm(&self) -> f32 {
        self.tensors
            .iter()
            .map(|t| {
                let n = t.norm_l2() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// An O(1) snapshot of this layer's parameters.
    ///
    /// Under copy-on-write tensor storage a clone only bumps buffer
    /// refcounts; `share` is the semantically honest name for that, and the
    /// sanctioned spelling in the parameter plane (lint rule L009 bans bare
    /// `.clone()` there).
    pub fn share(&self) -> LayerParams {
        self.clone()
    }

    /// Concatenates all tensors into one flat vector.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for t in &self.tensors {
            out.extend_from_slice(t.as_slice());
        }
        out
    }

    /// `true` if the two layer-parameter sets have identical tensor shapes.
    pub fn same_shape(&self, other: &LayerParams) -> bool {
        self.tensors.len() == other.tensors.len()
            && self
                .tensors
                .iter()
                .zip(&other.tensors)
                .all(|(a, b)| a.shape() == b.shape())
    }
}

/// The full parameter state of a model, one entry per trainable layer.
///
/// # Example
///
/// ```
/// use dinar_nn::models;
/// use dinar_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let model = models::mlp(&[4, 8, 3], models::Activation::ReLU, &mut rng)?;
/// let params = model.params();
/// assert_eq!(params.num_layers(), 2); // two dense layers
/// # Ok::<(), dinar_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Per-trainable-layer parameters.
    pub layers: Vec<LayerParams>,
}

impl ToJson for ModelParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![("layers", self.layers.to_json())])
    }
}

impl ModelParams {
    /// Reconstructs model parameters from their [`ToJson`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the payload is not an object
    /// with a `layers` array of valid layer payloads.
    pub fn from_json(value: &Json) -> Result<Self> {
        let layers = value
            .get("layers")
            .and_then(Json::as_arr)
            .ok_or_else(|| NnError::InvalidConfig {
                reason: "model payload missing `layers` array".into(),
            })?
            .iter()
            .map(LayerParams::from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(ModelParams { layers })
    }
    /// Creates a model-parameter set from per-layer entries.
    pub fn new(layers: Vec<LayerParams>) -> Self {
        ModelParams { layers }
    }

    /// Number of trainable layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(LayerParams::param_count).sum()
    }

    /// L2 norm of all parameters.
    pub fn l2_norm(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| {
                let n = l.l2_norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    /// An O(1) snapshot of the full parameter state (see
    /// [`LayerParams::share`]): every hop of the FL protocol — broadcast,
    /// upload, defense bookkeeping — snapshots parameters this way and pays
    /// for actual bytes only when a writer materializes them.
    pub fn share(&self) -> ModelParams {
        self.clone()
    }

    /// A structurally identical parameter set filled with zeros.
    pub fn zeros_like(&self) -> ModelParams {
        ModelParams {
            layers: self
                .layers
                .iter()
                .map(|l| LayerParams {
                    tensors: l.tensors.iter().map(Tensor::zeros_like).collect(),
                })
                .collect(),
        }
    }

    /// Zeroes every parameter in place (see [`Tensor::zero_fill`]): unique
    /// buffers are overwritten, shared ones are swapped for fresh zero
    /// buffers — either way no old data is copied. This is how the server
    /// recycles last round's global model as the accumulation scratch.
    pub fn zero_fill(&mut self) {
        for l in &mut self.layers {
            for t in &mut l.tensors {
                t.zero_fill();
            }
        }
    }

    /// `true` if both parameter sets have identical architecture.
    pub fn same_shape(&self, other: &ModelParams) -> bool {
        self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(a, b)| a.same_shape(b))
    }

    pub(crate) fn check_shape(&self, other: &ModelParams, op: &str) -> Result<()> {
        if !self.same_shape(other) {
            return Err(NnError::ParamShapeMismatch {
                reason: format!(
                    "`{op}` on parameter sets with different architectures \
                     ({} vs {} layers)",
                    self.layers.len(),
                    other.layers.len()
                ),
            });
        }
        Ok(())
    }

    /// In-place elementwise sum: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if the architectures differ.
    pub fn add_assign(&mut self, other: &ModelParams) -> Result<()> {
        self.check_shape(other, "add_assign")?;
        for (l, lo) in self.layers.iter_mut().zip(&other.layers) {
            for (t, to) in l.tensors.iter_mut().zip(&lo.tensors) {
                t.add_assign(to)?;
            }
        }
        Ok(())
    }

    /// In-place scaled sum: `self += alpha * other` (the FedAvg accumulation
    /// primitive).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if the architectures differ.
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &ModelParams) -> Result<()> {
        self.check_shape(other, "scaled_add_assign")?;
        for (l, lo) in self.layers.iter_mut().zip(&other.layers) {
            for (t, to) in l.tensors.iter_mut().zip(&lo.tensors) {
                t.scaled_add_assign(alpha, to)?;
            }
        }
        Ok(())
    }

    /// Multiplies every parameter by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for l in &mut self.layers {
            for t in &mut l.tensors {
                t.scale_inplace(alpha);
            }
        }
    }

    /// Elementwise difference `self - other` as a new parameter set.
    ///
    /// Builds the output directly per tensor rather than cloning `self`
    /// first; `a - b` and the old `a + (-1.0) * b` round identically in
    /// IEEE arithmetic, so results are bit-unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if the architectures differ.
    pub fn sub(&self, other: &ModelParams) -> Result<ModelParams> {
        self.check_shape(other, "sub")?;
        let mut layers = Vec::with_capacity(self.layers.len());
        for (l, lo) in self.layers.iter().zip(&other.layers) {
            let mut tensors = Vec::with_capacity(l.tensors.len());
            for (t, to) in l.tensors.iter().zip(&lo.tensors) {
                tensors.push(t.sub(to)?);
            }
            layers.push(LayerParams { tensors });
        }
        Ok(ModelParams { layers })
    }

    /// L2 norm of `self − other` without materializing the difference: the
    /// bits of `self.sub(other)?.l2_norm()` (same nested association, see
    /// [`ParamView::norm_and_count`](crate::ParamView::norm_and_count)) in
    /// one read-only pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if the architectures differ.
    pub fn diff_l2_norm(&self, other: &ModelParams) -> Result<f32> {
        self.check_shape(other, "diff_l2_norm")?;
        let mut norm = NestedNorm::default();
        for (l, lo) in self.layers.iter().zip(&other.layers) {
            for (t, to) in l.tensors.iter().zip(&lo.tensors) {
                norm.tensor(t.diff_norm_l2(to)?);
            }
            norm.end_layer();
        }
        Ok(norm.finish())
    }

    /// Applies `f` to every scalar parameter in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Copy) {
        for l in &mut self.layers {
            for t in &mut l.tensors {
                t.map_inplace(f);
            }
        }
    }

    /// Concatenates all parameters into one flat vector.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend(l.to_flat());
        }
        out
    }

    /// Maximum absolute difference against another parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamShapeMismatch`] if the architectures differ.
    pub fn max_abs_diff(&self, other: &ModelParams) -> Result<f32> {
        self.check_shape(other, "max_abs_diff")?;
        let mut max = 0.0f32;
        for (l, lo) in self.layers.iter().zip(&other.layers) {
            for (t, to) in l.tensors.iter().zip(&lo.tensors) {
                for (&a, &b) in t.as_slice().iter().zip(to.as_slice()) {
                    max = max.max((a - b).abs());
                }
            }
        }
        Ok(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params2() -> ModelParams {
        ModelParams::new(vec![
            LayerParams::new(vec![Tensor::ones(&[2, 2]), Tensor::ones(&[2])]),
            LayerParams::new(vec![Tensor::full(&[2, 1], 2.0), Tensor::zeros(&[1])]),
        ])
    }

    #[test]
    fn param_count_sums_layers() {
        assert_eq!(params2().param_count(), 4 + 2 + 2 + 1);
    }

    #[test]
    fn scaled_add_is_fedavg_primitive() {
        let mut acc = params2().zeros_like();
        acc.scaled_add_assign(0.25, &params2()).unwrap();
        acc.scaled_add_assign(0.75, &params2()).unwrap();
        assert!(acc.max_abs_diff(&params2()).unwrap() < 1e-6);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = params2();
        let b = ModelParams::new(vec![LayerParams::new(vec![Tensor::ones(&[3])])]);
        assert!(matches!(
            a.add_assign(&b),
            Err(NnError::ParamShapeMismatch { .. })
        ));
    }

    #[test]
    fn l2_norm_of_known_values() {
        let p = ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[4], 2.0)])]);
        assert!((p.l2_norm() - 4.0).abs() < 1e-6); // sqrt(4 * 2^2)
    }

    #[test]
    fn sub_then_add_roundtrips() {
        let a = params2();
        let mut b = params2();
        b.scale(3.0);
        let diff = b.sub(&a).unwrap();
        let mut rebuilt = a.clone();
        rebuilt.add_assign(&diff).unwrap();
        assert!(rebuilt.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn diff_norm_is_the_norm_of_the_difference_bit_for_bit() {
        let a = params2();
        let mut b = params2();
        b.map_inplace(|x| x * 0.37 - 1.0);
        let want = crate::ParamView::of_model(&a.sub(&b).unwrap()).l2_norm();
        assert_eq!(a.diff_l2_norm(&b).unwrap().to_bits(), want.to_bits());
        let other = ModelParams::new(vec![LayerParams::new(vec![Tensor::ones(&[3])])]);
        assert!(matches!(
            a.diff_l2_norm(&other),
            Err(NnError::ParamShapeMismatch { .. })
        ));
    }

    #[test]
    fn to_flat_preserves_order_and_count() {
        let p = params2();
        let flat = p.to_flat();
        assert_eq!(flat.len(), p.param_count());
        assert_eq!(flat[0], 1.0);
        assert_eq!(flat[6], 2.0); // first tensor of layer 2
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut p = params2();
        p.map_inplace(|x| x * 10.0);
        assert_eq!(p.layers[1].tensors[0].as_slice()[0], 20.0);
    }
}
