//! Layer-sensitivity analysis: how much does each layer leak membership?
//!
//! Implements the paper's §3 measurement: run the model on member data and
//! on non-member data, compute the per-layer gradients each population
//! induces, and measure the **Jensen–Shannon divergence** between the two
//! gradient distributions, layer by layer. The layer with the largest
//! divergence (the "generalization gap" layer) is the most privacy-sensitive
//! — empirically the penultimate layer (Fig. 1).

use crate::{DinarError, Result};
use dinar_data::Dataset;
use dinar_metrics::histogram::js_divergence_samples;
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::Model;
use dinar_tensor::Rng;

/// Parameters of the divergence measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityConfig {
    /// Samples per gradient probe batch (small batches give many gradient
    /// draws per population).
    pub probe_batch: usize,
    /// Maximum number of probe batches per population.
    pub max_batches: usize,
    /// Histogram bins for the divergence estimate.
    pub bins: usize,
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        SensitivityConfig {
            probe_batch: 8,
            max_batches: 16,
            bins: 30,
        }
    }
}

/// Collects, for every trainable layer, the gradient values induced by
/// probe batches of `data`.
fn gradient_population(
    model: &mut Model,
    data: &Dataset,
    cfg: &SensitivityConfig,
    rng: &mut Rng,
) -> Result<Vec<Vec<f32>>> {
    let loss_fn = CrossEntropyLoss;
    let mut populations: Vec<Vec<f32>> = vec![Vec::new(); model.num_trainable_layers()];
    let mut batches = 0usize;
    for indices in data.batch_indices(cfg.probe_batch, rng) {
        if batches >= cfg.max_batches {
            break;
        }
        let batch = data.batch(&indices).map_err(DinarError::from)?;
        let logits = model
            .forward(&batch.features, true)
            .map_err(DinarError::from)?;
        let (_, grad) = loss_fn
            .loss_and_grad(&logits, &batch.labels)
            .map_err(DinarError::from)?;
        model.zero_grad();
        model.backward(&grad).map_err(DinarError::from)?;
        for (layer, pop) in model.layer_gradients().iter().zip(&mut populations) {
            for t in &layer.tensors {
                // Log-magnitude transform: gradient values span orders of
                // magnitude, and memorization shows up as members' gradients
                // collapsing toward zero. A histogram over log10 |g| resolves
                // that collapse; raw-value bins would lump everything into
                // the near-zero bin.
                pop.extend(t.as_slice().iter().map(|&g| (g.abs() + 1e-12).log10()));
            }
        }
        batches += 1;
    }
    model.zero_grad();
    Ok(populations)
}

/// Per-layer Jensen–Shannon divergence between the gradient distributions of
/// member and non-member data (§3) — one value per trainable layer, higher
/// means more membership leakage.
///
/// # Errors
///
/// Returns [`DinarError::InvalidConfig`] for empty datasets, and propagates
/// model errors.
pub fn layer_divergences(
    model: &mut Model,
    members: &Dataset,
    nonmembers: &Dataset,
    cfg: &SensitivityConfig,
    rng: &mut Rng,
) -> Result<Vec<f64>> {
    if members.is_empty() || nonmembers.is_empty() {
        return Err(DinarError::InvalidConfig {
            reason: "sensitivity analysis needs non-empty member and non-member sets".into(),
        });
    }
    let member_pop = gradient_population(model, members, cfg, rng)?;
    let nonmember_pop = gradient_population(model, nonmembers, cfg, rng)?;
    Ok(member_pop
        .iter()
        .zip(&nonmember_pop)
        .map(|(m, n)| js_divergence_samples(m, n, cfg.bins))
        .collect())
}

/// Index of the most privacy-sensitive trainable layer: the argmax of
/// [`layer_divergences`] — the client's proposal `pᵢ` in the paper's
/// initialization phase (§4.1).
///
/// # Errors
///
/// Same conditions as [`layer_divergences`].
pub fn most_sensitive_layer(
    model: &mut Model,
    members: &Dataset,
    nonmembers: &Dataset,
    cfg: &SensitivityConfig,
    rng: &mut Rng,
) -> Result<usize> {
    let divs = layer_divergences(model, members, nonmembers, cfg, rng)?;
    Ok(divs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::{Optimizer, Sgd};
    use dinar_tensor::Tensor;

    fn noisy_dataset(n: usize, rng: &mut Rng) -> Dataset {
        let mut x = Tensor::zeros(&[n, 10]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 5;
            for j in 0..10 {
                let center = if j % 5 == class { 1.0 } else { 0.0 };
                x.set(&[i, j], rng.normal_with(center, 1.5)).unwrap();
            }
            labels.push(class);
        }
        Dataset::new(x, labels, &[10], 5).unwrap()
    }

    #[test]
    fn divergences_cover_all_layers_and_detect_overfitting() {
        let mut rng = Rng::seed_from(0);
        let members = noisy_dataset(64, &mut rng);
        let nonmembers = noisy_dataset(64, &mut rng);
        let mut model = models::mlp(&[10, 32, 32, 5], Activation::ReLU, &mut rng).unwrap();

        // Before training: member and non-member gradients are i.i.d., so
        // divergences should be small.
        let cfg = SensitivityConfig::default();
        let before = layer_divergences(&mut model, &members, &nonmembers, &cfg, &mut rng).unwrap();
        assert_eq!(before.len(), 3);

        // Overfit on the members.
        let mut opt = Sgd::new(0.1);
        let batch = members.full_batch().unwrap();
        let loss_fn = CrossEntropyLoss;
        for _ in 0..250 {
            let logits = model.forward(&batch.features, true).unwrap();
            let (_, grad) = loss_fn.loss_and_grad(&logits, &batch.labels).unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
        }
        let after = layer_divergences(&mut model, &members, &nonmembers, &cfg, &mut rng).unwrap();
        let max_before = before.iter().copied().fold(0.0, f64::max);
        let max_after = after.iter().copied().fold(0.0, f64::max);
        assert!(
            max_after > max_before * 2.0,
            "overfitting should widen the gap: {max_before} -> {max_after}"
        );
    }

    /// After overfitting, one layer dominates the divergence profile — the
    /// existence of a dominant privacy-sensitive layer is the property §3
    /// establishes. (Which index dominates depends on data and architecture:
    /// the paper's deep CNNs on natural data find the penultimate layer; our
    /// shallow synthetic substitutes concentrate memorization earlier. See
    /// EXPERIMENTS.md.)
    #[test]
    fn a_dominant_layer_exists_in_overfit_mlp() {
        let mut rng = Rng::seed_from(1);
        let members = noisy_dataset(48, &mut rng);
        let nonmembers = noisy_dataset(48, &mut rng);
        let mut model = models::mlp(&[10, 32, 32, 5], Activation::ReLU, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let batch = members.full_batch().unwrap();
        for _ in 0..250 {
            let logits = model.forward(&batch.features, true).unwrap();
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &batch.labels)
                .unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
        }
        let cfg = SensitivityConfig::default();
        let divs = layer_divergences(&mut model, &members, &nonmembers, &cfg, &mut rng).unwrap();
        let p = most_sensitive_layer(&mut model, &members, &nonmembers, &cfg, &mut rng).unwrap();
        assert!(p < divs.len());
        let max = divs.iter().copied().fold(0.0, f64::max);
        let mean = divs.iter().sum::<f64>() / divs.len() as f64;
        assert!(
            max > mean * 1.2,
            "expected a dominant layer: divergences {divs:?}"
        );
    }

    #[test]
    fn empty_sets_rejected() {
        let mut rng = Rng::seed_from(2);
        let data = noisy_dataset(16, &mut rng);
        let empty = data.subset(&[]).unwrap();
        let mut model = models::mlp(&[10, 8, 5], Activation::ReLU, &mut rng).unwrap();
        assert!(layer_divergences(
            &mut model,
            &empty,
            &data,
            &SensitivityConfig::default(),
            &mut rng
        )
        .is_err());
    }
}
