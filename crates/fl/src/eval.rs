//! Evaluation helpers over parameter sets.
//!
//! Attacks and experiment harnesses evaluate *parameter sets* (the global
//! model, an intercepted client upload) rather than live models. These
//! helpers install a parameter set into a caller-provided template model —
//! an architecture-matched [`Model`] instance — and compute accuracies,
//! per-sample losses and confidence vectors from it.

use crate::Result;
use dinar_data::Dataset;
use dinar_nn::loss::{softmax_rows, CrossEntropyLoss};
use dinar_nn::{Model, ModelParams};
use dinar_tensor::Tensor;

/// Accuracy of `params` (installed into `template`) on a dataset.
///
/// # Errors
///
/// Propagates shape and forward-pass errors.
pub fn accuracy_of_params(
    params: &ModelParams,
    template: &mut Model,
    dataset: &Dataset,
) -> Result<f32> {
    template.set_params(params)?;
    let batch = dataset.full_batch()?;
    Ok(template.accuracy(&batch.features, &batch.labels)?)
}

/// Per-sample cross-entropy losses of `params` on a dataset (inference
/// mode) — the raw material of the loss-threshold MIA and Fig. 3.
///
/// # Errors
///
/// Propagates shape and forward-pass errors.
pub fn losses_of_params(
    params: &ModelParams,
    template: &mut Model,
    dataset: &Dataset,
) -> Result<Vec<f32>> {
    template.set_params(params)?;
    let batch = dataset.full_batch()?;
    let logits = template.forward(&batch.features, false)?;
    Ok(CrossEntropyLoss.per_sample(&logits, &batch.labels)?)
}

/// Softmax confidence vectors (`[n, classes]`) of `params` on a dataset —
/// the feature space of the shadow-model MIA.
///
/// # Errors
///
/// Propagates shape and forward-pass errors.
pub fn confidences_of_params(
    params: &ModelParams,
    template: &mut Model,
    dataset: &Dataset,
) -> Result<Tensor> {
    template.set_params(params)?;
    let batch = dataset.full_batch()?;
    let logits = template.forward(&batch.features, false)?;
    Ok(softmax_rows(&logits)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::models::{self, Activation};
    use dinar_tensor::Rng;

    fn toy() -> (ModelParams, Model, Dataset) {
        let mut rng = Rng::seed_from(0);
        let model = models::mlp(&[3, 6, 2], Activation::ReLU, &mut rng).unwrap();
        let params = model.params();
        let mut template = models::mlp(&[3, 6, 2], Activation::ReLU, &mut rng).unwrap();
        template.set_params(&params).unwrap();
        let features = rng.randn(&[10, 3]);
        let labels = (0..10).map(|i| i % 2).collect();
        let ds = Dataset::new(features, labels, &[3], 2).unwrap();
        (params, template, ds)
    }

    #[test]
    fn losses_and_confidences_are_consistent() {
        let (params, mut template, ds) = toy();
        let losses = losses_of_params(&params, &mut template, &ds).unwrap();
        let confs = confidences_of_params(&params, &mut template, &ds).unwrap();
        assert_eq!(losses.len(), 10);
        assert_eq!(confs.shape(), &[10, 2]);
        // loss_i == -ln(conf_i[label_i])
        for i in 0..10 {
            let p = confs.get(&[i, ds.labels()[i]]).unwrap();
            assert!((losses[i] + p.max(1e-12).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn accuracy_in_unit_range() {
        let (params, mut template, ds) = toy();
        let acc = accuracy_of_params(&params, &mut template, &ds).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
