//! Model inversion attack — the paper's stated future work ("investigating
//! DINAR's resilience against other privacy threats, such as property
//! inference attacks and model inversion attacks"), implemented here as an
//! extension.
//!
//! The attacker holds the model parameters (white-box FL) and reconstructs a
//! *representative input* for a target class by gradient ascent on the
//! class logit (Fredrikson et al. style): start from noise, repeatedly
//! compute `∂ logit_c / ∂ x`, and climb. On our synthetic datasets the
//! ground-truth class prototype is known, so reconstruction quality is
//! directly measurable as the cosine similarity between the inversion and
//! the prototype — giving a quantitative answer to "does DINAR also blunt
//! inversion?" (see the `ext_inversion` artifact of the `paper` runner).

use crate::{AttackError, Result};
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::{Model, ModelParams};
use dinar_tensor::{Rng, Tensor};

/// Configuration of the inversion optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InversionConfig {
    /// Gradient-ascent steps.
    pub steps: usize,
    /// Step size.
    pub lr: f32,
    /// L2 pull toward zero keeping the reconstruction in-distribution.
    pub weight_decay: f32,
    /// RNG seed for the starting point.
    pub seed: u64,
}

impl Default for InversionConfig {
    fn default() -> Self {
        InversionConfig {
            steps: 200,
            lr: 0.5,
            weight_decay: 0.01,
            seed: 0x1172,
        }
    }
}

/// Inverts `target` for `class`: returns the reconstructed input of shape
/// `sample_shape` (without the batch dimension).
///
/// Maximizing the class logit is implemented as minimizing the cross-entropy
/// of the class label, reusing the model's backward pass to obtain the input
/// gradient.
///
/// # Errors
///
/// Returns [`AttackError::InvalidConfig`] for an empty shape or an
/// out-of-range class, and propagates model errors.
pub fn invert_class(
    target: &ModelParams,
    template: &mut Model,
    sample_shape: &[usize],
    class: usize,
    config: &InversionConfig,
) -> Result<Tensor> {
    if sample_shape.is_empty() {
        return Err(AttackError::InvalidConfig {
            reason: "inversion needs a non-empty sample shape".into(),
        });
    }
    template.set_params(target)?;
    let mut rng = Rng::seed_from(config.seed);
    let mut shape = vec![1usize];
    shape.extend_from_slice(sample_shape);
    let mut x = rng.randn_with(&shape, 0.0, 0.1);
    let loss_fn = CrossEntropyLoss;
    for _ in 0..config.steps {
        let logits = template.forward(&x, false)?;
        if class >= logits.ncols().map_err(dinar_nn::NnError::from)? {
            return Err(AttackError::InvalidConfig {
                reason: format!("class {class} out of range"),
            });
        }
        let (_, grad_logits) = loss_fn.loss_and_grad(&logits, &[class])?;
        template.zero_grad();
        let grad_input = template.backward_input(&grad_logits)?;
        // Descend the class loss (= ascend the class logit) + decay.
        x.scaled_add_assign(-config.lr, &grad_input)
            .map_err(dinar_nn::NnError::from)?;
        x.scale_inplace(1.0 - config.weight_decay);
    }
    template.zero_grad();
    Ok(x.reshape(sample_shape).map_err(dinar_nn::NnError::from)?)
}

/// Cosine similarity between two equally-shaped tensors (0 if either is
/// numerically zero).
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> f32 {
    let na = a.norm_l2();
    let nb = b.norm_l2();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    a.dot(b).map(|d| d / (na * nb)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_data::Dataset;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::{Optimizer, Sgd};

    /// Trains a model on two classes with known prototypes and checks that
    /// inversion recovers the prototype direction.
    #[test]
    fn inversion_recovers_class_prototypes() {
        let mut rng = Rng::seed_from(0);
        let d = 12;
        let proto: Vec<Tensor> = (0..2).map(|_| rng.randn(&[d])).collect();
        let n = 80;
        let mut x = Tensor::zeros(&[n, d]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            for j in 0..d {
                let v = proto[class].as_slice()[j] + 0.4 * rng.normal();
                x.set(&[i, j], v).unwrap();
            }
            labels.push(class);
        }
        let data = Dataset::new(x, labels, &[d], 2).unwrap();
        let mut model = models::mlp(&[d, 32, 2], Activation::ReLU, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let batch = data.full_batch().unwrap();
        for _ in 0..150 {
            let logits = model.forward(&batch.features, true).unwrap();
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &batch.labels)
                .unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
        }
        let params = model.params();
        let mut template = models::mlp(&[d, 32, 2], Activation::ReLU, &mut rng).unwrap();
        for class in 0..2 {
            let inv = invert_class(
                &params,
                &mut template,
                &[d],
                class,
                &InversionConfig::default(),
            )
            .unwrap();
            let own = cosine_similarity(&inv, &proto[class]);
            let other = cosine_similarity(&inv, &proto[1 - class]);
            assert!(
                own > other + 0.2,
                "class {class}: own similarity {own} vs other {other}"
            );
            assert!(own > 0.3, "class {class}: reconstruction too weak ({own})");
        }
    }

    #[test]
    fn inversion_of_random_model_recovers_nothing() {
        let mut rng = Rng::seed_from(1);
        let proto = rng.randn(&[12]);
        let model = models::mlp(&[12, 32, 2], Activation::ReLU, &mut rng).unwrap();
        let params = model.params();
        let mut template = models::mlp(&[12, 32, 2], Activation::ReLU, &mut rng).unwrap();
        let inv = invert_class(
            &params,
            &mut template,
            &[12],
            0,
            &InversionConfig::default(),
        )
        .unwrap();
        // A random 12-dim direction has |cos| ~ 0.29 std; allow slack but
        // rule out genuine prototype recovery.
        assert!(cosine_similarity(&inv, &proto).abs() < 0.75);
    }

    #[test]
    fn invalid_requests_rejected() {
        let mut rng = Rng::seed_from(2);
        let model = models::mlp(&[4, 4, 2], Activation::ReLU, &mut rng).unwrap();
        let params = model.params();
        let mut template = models::mlp(&[4, 4, 2], Activation::ReLU, &mut rng).unwrap();
        assert!(invert_class(&params, &mut template, &[], 0, &InversionConfig::default()).is_err());
        assert!(
            invert_class(&params, &mut template, &[4], 5, &InversionConfig::default()).is_err()
        );
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = Tensor::from_slice(&[1.0, 0.0]);
        let b = Tensor::from_slice(&[2.0, 0.0]);
        let c = Tensor::from_slice(&[0.0, 3.0]);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&a, &c).abs() < 1e-6);
        assert_eq!(cosine_similarity(&a, &Tensor::zeros(&[2])), 0.0);
    }
}
