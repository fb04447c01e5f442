//! Attack feature extraction from target-model predictions.
//!
//! The shadow attack classifies fixed-size feature vectors derived from the
//! target model's black-box output on a sample: the top softmax
//! confidences (sorted, class-agnostic), the prediction entropy, the
//! cross-entropy loss at the true label, and whether the prediction was
//! correct. These are the standard Shokri-style attack features; the loss
//! and correctness channels carry the class-conditional information the
//! original per-class attack models capture.

use crate::Result;
use dinar_data::Dataset;
use dinar_fl::eval::confidences_of_params;
use dinar_nn::{Model, ModelParams};
use dinar_tensor::Tensor;

/// Number of features per sample produced by [`extract`].
pub const NUM_FEATURES: usize = 6;

/// Extracts the `[n, 6]` attack-feature matrix of a target model on a
/// dataset: `[top1, top2, top3, entropy, true-label loss, correct]`.
///
/// # Errors
///
/// Propagates model-evaluation errors.
pub fn extract(target: &ModelParams, template: &mut Model, samples: &Dataset) -> Result<Tensor> {
    let confs =
        confidences_of_params(target, template, samples).map_err(crate::AttackError::from)?;
    let n = samples.len();
    let classes = samples.num_classes();
    let labels = samples.labels();
    let p = confs.as_slice();
    let mut features = vec![0.0f32; n * NUM_FEATURES];
    for i in 0..n {
        let row = &p[i * classes..(i + 1) * classes];
        let mut sorted: Vec<f32> = row.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top1 = sorted.first().copied().unwrap_or(0.0);
        let top2 = sorted.get(1).copied().unwrap_or(0.0);
        let top3 = sorted.get(2).copied().unwrap_or(0.0);
        let entropy: f32 = row.iter().filter(|&&x| x > 0.0).map(|&x| -x * x.ln()).sum();
        let true_p = row[labels[i]].max(1e-12);
        let loss = -true_p.ln();
        let correct = if row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            == Some(labels[i])
        {
            1.0
        } else {
            0.0
        };
        let out = &mut features[i * NUM_FEATURES..(i + 1) * NUM_FEATURES];
        out[0] = top1;
        out[1] = top2;
        out[2] = top3;
        // Normalize entropy by ln(classes) so it stays in [0, 1] across
        // datasets with different class counts.
        out[3] = entropy / (classes as f32).ln().max(1e-6);
        // Squash the unbounded loss into [0, 1) for stable attack training.
        out[4] = loss / (1.0 + loss);
        out[5] = correct;
    }
    Ok(Tensor::from_vec(features, &[n, NUM_FEATURES]).map_err(dinar_nn::NnError::from)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::models::{self, Activation};
    use dinar_tensor::Rng;

    #[test]
    fn features_are_bounded_and_shaped() {
        let mut rng = Rng::seed_from(0);
        let model = models::mlp(&[4, 8, 3], Activation::ReLU, &mut rng).unwrap();
        let params = model.params();
        let mut template = models::mlp(&[4, 8, 3], Activation::ReLU, &mut rng).unwrap();
        let ds = Dataset::new(
            rng.randn(&[12, 4]),
            (0..12).map(|i| i % 3).collect(),
            &[4],
            3,
        )
        .unwrap();
        let f = extract(&params, &mut template, &ds).unwrap();
        assert_eq!(f.shape(), &[12, NUM_FEATURES]);
        for i in 0..12 {
            let top1 = f.get(&[i, 0]).unwrap();
            let top2 = f.get(&[i, 1]).unwrap();
            let top3 = f.get(&[i, 2]).unwrap();
            assert!(top1 >= top2 && top2 >= top3, "sorted confidences");
            assert!((0.0..=1.0).contains(&f.get(&[i, 3]).unwrap()), "entropy");
            assert!((0.0..1.0).contains(&f.get(&[i, 4]).unwrap()), "loss squash");
            let c = f.get(&[i, 5]).unwrap();
            assert!(c == 0.0 || c == 1.0, "correct flag");
        }
    }

    #[test]
    fn confident_correct_prediction_has_low_loss_feature() {
        // Hand-build a "model output" via a dataset the model nails: use a
        // linear model trained? Simpler: features reflect relationships, so
        // test monotonicity through two contrived confidence rows is not
        // possible via public API; instead check that across random samples
        // the loss feature correlates negatively with top1.
        let mut rng = Rng::seed_from(1);
        let model = models::mlp(&[4, 16, 2], Activation::ReLU, &mut rng).unwrap();
        let params = model.params();
        let mut template = models::mlp(&[4, 16, 2], Activation::ReLU, &mut rng).unwrap();
        let ds = Dataset::new(
            rng.randn(&[64, 4]),
            (0..64).map(|i| i % 2).collect(),
            &[4],
            2,
        )
        .unwrap();
        let f = extract(&params, &mut template, &ds).unwrap();
        // For binary classes: when the prediction is correct, loss < ln 2.
        for i in 0..64 {
            if f.get(&[i, 5]).unwrap() == 1.0 {
                let squashed = f.get(&[i, 4]).unwrap();
                let loss = squashed / (1.0 - squashed);
                assert!(loss <= std::f32::consts::LN_2 + 1e-4);
            }
        }
    }
}
