//! Borrowed flat views over parameter sets — the parameter plane.
//!
//! Defenses (clip + noise, magnitude pruning), DINAR obfuscation and attack
//! feature extraction all consume model parameters as a flat sequence of
//! scalars. Before this module they each materialized that sequence with
//! [`ModelParams::to_flat`] — a full copy per hop. A [`ParamView`] walks the
//! layer/tensor structure in place and hands out borrowed slices instead; a
//! [`ParamViewMut`] does the same for writers, paying the copy-on-write
//! materialization only for tensors that are actually written.
//!
//! Reductions preserve the exact floating-point association of the
//! [`LayerParams::l2_norm`]/[`ModelParams::l2_norm`] they replace (per-tensor
//! `f32`-rounded norms squared in `f64` within a layer, per-layer
//! `f32`-rounded norms squared in `f64` across layers), so switching a
//! consumer from flat copies to views is bit-invisible.

use crate::params::{LayerParams, ModelParams};
use dinar_tensor::{cast, Tensor};

/// A read-only flat view over a parameter set (one or more layers).
///
/// Holds borrowed layer references, so constructing it copies nothing and
/// the structural reductions can respect layer boundaries.
#[derive(Debug)]
pub struct ParamView<'a> {
    layers: Vec<&'a LayerParams>,
}

impl<'a> ParamView<'a> {
    /// View over every layer of a model.
    pub fn of_model(params: &'a ModelParams) -> Self {
        ParamView {
            layers: params.layers.iter().collect(),
        }
    }

    /// The viewed tensors, in canonical (layer-major) order.
    pub fn tensors(&self) -> impl Iterator<Item = &'a Tensor> + '_ {
        self.layers.iter().flat_map(|l| l.tensors.iter())
    }

    /// The viewed buffers as borrowed slices, in canonical order.
    pub fn slices(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        self.tensors().map(Tensor::as_slice)
    }

    /// Total number of scalars in the view.
    pub fn param_count(&self) -> usize {
        self.tensors().map(Tensor::len).sum()
    }

    /// L2 norm of the viewed scalars (see [`ParamView::norm_and_count`]).
    pub fn l2_norm(&self) -> f32 {
        self.norm_and_count().0
    }

    /// L2 norm and scalar count in a single pass over the view.
    ///
    /// The norm reproduces the association order of the nested
    /// `ModelParams::l2_norm` it replaces bit-for-bit: each tensor's norm is
    /// rounded to `f32`, squared and summed in `f64` within its layer; each
    /// layer's norm is rounded to `f32`, squared and summed in `f64` across
    /// layers.
    pub fn norm_and_count(&self) -> (f32, usize) {
        let mut count = 0usize;
        let mut norm = NestedNorm::default();
        for l in &self.layers {
            for t in &l.tensors {
                count += t.len();
                norm.tensor(t.norm_l2());
            }
            norm.end_layer();
        }
        (norm.finish(), count)
    }
}

/// The nested association of a parameter-set norm, fed one tensor norm at
/// a time: tensor norms are squared and summed in `f64` within a layer,
/// each layer's `f32`-rounded norm likewise across layers.
#[derive(Debug, Default)]
pub(crate) struct NestedNorm {
    model_acc: f64,
    layer_acc: f64,
}

impl NestedNorm {
    /// Adds one tensor's (`f32`-rounded) norm to the open layer.
    pub(crate) fn tensor(&mut self, norm: f32) {
        let n = f64::from(norm);
        self.layer_acc += n * n;
    }

    /// Closes the open layer.
    pub(crate) fn end_layer(&mut self) {
        let ln = f64::from(cast::f64_to_f32(self.layer_acc.sqrt()));
        self.model_acc += ln * ln;
        self.layer_acc = 0.0;
    }

    /// The norm over every closed layer.
    pub(crate) fn finish(self) -> f32 {
        cast::f64_to_f32(self.model_acc.sqrt())
    }
}

/// A mutable flat view over a parameter set.
///
/// Writers iterate per-tensor mutable slices; each slice access is the COW
/// mutation point of its tensor, so only tensors that are actually written
/// materialize private buffers.
#[derive(Debug)]
pub struct ParamViewMut<'a> {
    tensors: Vec<&'a mut Tensor>,
}

impl<'a> ParamViewMut<'a> {
    /// Mutable view over every layer of a model.
    pub fn of_model(params: &'a mut ModelParams) -> Self {
        ParamViewMut {
            tensors: params
                .layers
                .iter_mut()
                .flat_map(|l| l.tensors.iter_mut())
                .collect(),
        }
    }

    /// Total number of scalars in the view.
    pub fn param_count(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    /// Applies `f` to each tensor's buffer in canonical order.
    ///
    /// `f` may be stateful (e.g. drawing from a sequential RNG stream), so
    /// slices are visited strictly in order on the calling thread.
    pub fn for_each_slice_mut(&mut self, mut f: impl FnMut(&mut [f32])) {
        for t in self.tensors.iter_mut() {
            f(t.as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params2() -> ModelParams {
        ModelParams::new(vec![
            LayerParams::new(vec![Tensor::ones(&[2, 3]), Tensor::full(&[3], 0.5)]),
            LayerParams::new(vec![Tensor::full(&[3, 1], -2.0)]),
        ])
    }

    #[test]
    fn view_counts_match_params() {
        let p = params2();
        let v = ParamView::of_model(&p);
        assert_eq!(v.param_count(), p.param_count());
        assert_eq!(v.slices().map(<[f32]>::len).sum::<usize>(), p.param_count());
    }

    #[test]
    fn view_norm_is_bit_identical_to_params_norm() {
        let p = params2();
        let (norm, count) = ParamView::of_model(&p).norm_and_count();
        assert_eq!(norm.to_bits(), p.l2_norm().to_bits());
        assert_eq!(count, p.param_count());
    }

    #[test]
    fn slices_walk_canonical_order_without_copying() {
        let p = params2();
        let flat = p.to_flat();
        let mut walked = Vec::new();
        for s in ParamView::of_model(&p).slices() {
            walked.extend_from_slice(s);
        }
        assert_eq!(walked, flat);
    }

    #[test]
    fn mut_view_writes_through() {
        let mut p = params2();
        let mut v = ParamViewMut::of_model(&mut p);
        assert_eq!(v.param_count(), 12);
        v.for_each_slice_mut(|s| {
            for x in s {
                *x += 1.0;
            }
        });
        assert_eq!(p.layers[0].tensors[1].as_slice(), &[1.5, 1.5, 1.5]);
        assert_eq!(p.layers[1].tensors[0].as_slice()[0], -1.0);
    }

    #[test]
    fn mut_view_on_shared_params_leaves_reader_untouched() {
        let p = params2();
        let mut writer = p.share();
        ParamViewMut::of_model(&mut writer).for_each_slice_mut(|s| {
            for x in s {
                *x = 9.0;
            }
        });
        assert_eq!(p.layers[0].tensors[0].as_slice()[0], 1.0);
        assert_eq!(writer.layers[0].tensors[0].as_slice()[0], 9.0);
    }
}
