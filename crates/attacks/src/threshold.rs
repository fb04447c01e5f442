//! The loss-threshold attack: scores membership directly from the target
//! model's per-sample loss (Yeom et al. style).

use crate::{MembershipAttack, Result};
use dinar_data::Dataset;
use dinar_fl::eval::losses_of_params;
use dinar_nn::{Model, ModelParams};

/// Loss-threshold attack: members were fit by the model, so their loss is
/// lower; the membership score is `-loss`.
///
/// Because the AUC integrates over all thresholds, no explicit threshold is
/// chosen — the score ordering is the attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossThresholdAttack;

impl MembershipAttack for LossThresholdAttack {
    fn name(&self) -> &'static str {
        "loss_threshold"
    }

    fn score(
        &mut self,
        target: &ModelParams,
        template: &mut Model,
        samples: &Dataset,
    ) -> Result<Vec<f32>> {
        let losses = losses_of_params(target, template, samples)?;
        Ok(losses.into_iter().map(|l| -l).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_attack;
    use dinar_nn::loss::CrossEntropyLoss;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::{Optimizer, Sgd};
    use dinar_tensor::{Rng, Tensor};

    /// Builds an overfit model plus member and non-member datasets.
    fn overfit_setup() -> (ModelParams, Model, Dataset, Dataset) {
        let mut rng = Rng::seed_from(0);
        let n = 48;
        // Hard task (high noise) + small data + many epochs => memorization.
        let make = |rng: &mut Rng| {
            let mut x = Tensor::zeros(&[n, 8]);
            let mut labels = Vec::new();
            for i in 0..n {
                let class = i % 4;
                for j in 0..8 {
                    let center = if j % 4 == class { 1.0 } else { 0.0 };
                    x.set(&[i, j], rng.normal_with(center, 2.0)).unwrap();
                }
                labels.push(class);
            }
            Dataset::new(x, labels, &[8], 4).unwrap()
        };
        let members = make(&mut rng);
        let nonmembers = make(&mut rng);
        let mut model = models::mlp(&[8, 64, 64, 4], Activation::ReLU, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let batch = members.full_batch().unwrap();
        for _ in 0..300 {
            let logits = model.forward(&batch.features, true).unwrap();
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &batch.labels)
                .unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
        }
        let params = model.params();
        let template = models::mlp(&[8, 64, 64, 4], Activation::ReLU, &mut rng).unwrap();
        (params, template, members, nonmembers)
    }

    #[test]
    fn loss_attack_beats_random_on_overfit_model() {
        let (params, mut template, members, nonmembers) = overfit_setup();
        let result = evaluate_attack(
            &mut LossThresholdAttack,
            &params,
            &mut template,
            &members,
            &nonmembers,
        )
        .unwrap();
        assert!(result.auc > 0.8, "attack AUC {} too low", result.auc);
    }

    #[test]
    fn attack_fails_on_untrained_model() {
        let (_, mut template, members, nonmembers) = overfit_setup();
        // Fresh random parameters: no membership signal.
        let mut rng = Rng::seed_from(99);
        let fresh = models::mlp(&[8, 64, 64, 4], Activation::ReLU, &mut rng)
            .unwrap()
            .params();
        let result = evaluate_attack(
            &mut LossThresholdAttack,
            &fresh,
            &mut template,
            &members,
            &nonmembers,
        )
        .unwrap();
        assert!(
            result.auc < 0.65,
            "no-signal AUC {} should be near 0.5",
            result.auc
        );
    }

    #[test]
    fn empty_evaluation_rejected() {
        let (params, mut template, members, _) = overfit_setup();
        let empty = members.subset(&[]).unwrap();
        assert!(evaluate_attack(
            &mut LossThresholdAttack,
            &params,
            &mut template,
            &members,
            &empty,
        )
        .is_err());
    }
}
