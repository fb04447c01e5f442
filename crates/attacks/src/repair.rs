//! The adaptive "repair" attacker for layer-obfuscated models.
//!
//! A naive MIA against a model whose layer `j` holds random values fails
//! trivially — the model's predictions are garbage. But a white-box FL
//! attacker (§2.2) knows the architecture, can *see* which layer looks
//! random, and holds prior-knowledge data. The strongest realistic attack is
//! therefore to **repair** the obfuscated layer: re-train just that layer on
//! the attacker's own data (freezing everything else), then run a standard
//! MIA on the repaired model.
//!
//! If the obfuscated layer was *not* where the membership information lived,
//! the repaired model still contains the victims' memorization in its intact
//! layers and the MIA succeeds — which is exactly the paper's Fig. 4(b)/5
//! finding that obfuscating a low-leakage layer "is not sufficient for the
//! protection of the overall client model". Obfuscating the most sensitive
//! layer destroys the evidence: no repair can resurrect it, and the attack
//! AUC pins to 50%.

use crate::{AttackError, MembershipAttack, Result};
use dinar_data::Dataset;
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::{Model, ModelParams};
use dinar_tensor::Rng;

/// Configuration of the repair step.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Trainable-layer indices the attacker believes are obfuscated.
    pub obfuscated_layers: Vec<usize>,
    /// Epochs of single-layer fine-tuning on the attacker's data.
    pub epochs: usize,
    /// Fine-tuning batch size.
    pub batch_size: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl RepairConfig {
    /// A reasonable default repairing the given layers.
    pub fn for_layers(layers: &[usize]) -> Self {
        RepairConfig {
            obfuscated_layers: layers.to_vec(),
            epochs: 15,
            batch_size: 32,
            lr: 0.05,
            seed: 0x4E9A_5EED,
        }
    }
}

/// Wraps any [`MembershipAttack`] with a pre-scoring repair phase.
#[derive(Debug)]
pub struct RepairAttack<A> {
    inner: A,
    config: RepairConfig,
    attacker_data: Dataset,
}

impl<A: MembershipAttack> RepairAttack<A> {
    /// Creates the attack: `inner` scores the repaired model; `attacker_data`
    /// is the attacker's prior knowledge used for fine-tuning.
    pub fn new(inner: A, config: RepairConfig, attacker_data: Dataset) -> Self {
        RepairAttack {
            inner,
            config,
            attacker_data,
        }
    }

    /// Repairs the obfuscated layers of `target` by fine-tuning them (and
    /// only them) on the attacker's data, returning the repaired parameters.
    ///
    /// # Errors
    ///
    /// Propagates training errors and invalid layer indices.
    pub fn repair(&self, target: &ModelParams, template: &mut Model) -> Result<ModelParams> {
        template.set_params(target).map_err(AttackError::from)?;
        let mut rng = Rng::seed_from(self.config.seed);
        let loss_fn = CrossEntropyLoss;
        for _ in 0..self.config.epochs {
            for indices in self
                .attacker_data
                .batch_indices(self.config.batch_size, &mut rng)
            {
                let batch = self.attacker_data.batch(&indices)?;
                let logits = template
                    .forward(&batch.features, true)
                    .map_err(AttackError::from)?;
                let (_, grad) = loss_fn
                    .loss_and_grad(&logits, &batch.labels)
                    .map_err(AttackError::from)?;
                template.zero_grad();
                template.backward(&grad).map_err(AttackError::from)?;
                // SGD on the obfuscated layers only; everything else frozen.
                for &layer in &self.config.obfuscated_layers {
                    for (p, g) in template
                        .layer_params_and_grads(layer)
                        .map_err(AttackError::from)?
                    {
                        p.scaled_add_assign(-self.config.lr, g)
                            .map_err(dinar_nn::NnError::from)
                            .map_err(AttackError::from)?;
                    }
                }
            }
        }
        Ok(template.params())
    }
}

impl<A: MembershipAttack> MembershipAttack for RepairAttack<A> {
    fn name(&self) -> &'static str {
        "repair"
    }

    fn score(
        &mut self,
        target: &ModelParams,
        template: &mut Model,
        samples: &Dataset,
    ) -> Result<Vec<f32>> {
        let repaired = self.repair(target, template)?;
        self.inner.score(&repaired, template, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_attack;
    use crate::threshold::LossThresholdAttack;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::{Optimizer, Sgd};
    use dinar_tensor::Tensor;

    fn noisy_dataset(n: usize, rng: &mut Rng) -> Dataset {
        let mut x = Tensor::zeros(&[n, 8]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 4;
            for j in 0..8 {
                let center = if j % 4 == class { 1.0 } else { 0.0 };
                x.set(&[i, j], rng.normal_with(center, 1.5)).unwrap();
            }
            labels.push(class);
        }
        Dataset::new(x, labels, &[8], 4).unwrap()
    }

    fn arch(rng: &mut Rng) -> dinar_nn::Result<Model> {
        models::mlp(&[8, 48, 48, 4], Activation::ReLU, rng)
    }

    #[test]
    fn repair_restores_utility_when_nonsensitive_layer_obfuscated() {
        // Easier data (low noise) so the repaired head has a high accuracy
        // ceiling; the attack-strength tests use the hard variant.
        let easy_dataset = |n: usize, rng: &mut Rng| {
            let mut x = Tensor::zeros(&[n, 8]);
            let mut labels = Vec::new();
            for i in 0..n {
                let class = i % 4;
                for j in 0..8 {
                    let center = if j % 4 == class { 1.0 } else { 0.0 };
                    x.set(&[i, j], rng.normal_with(center, 0.5)).unwrap();
                }
                labels.push(class);
            }
            Dataset::new(x, labels, &[8], 4).unwrap()
        };
        let mut rng = Rng::seed_from(0);
        let members = easy_dataset(48, &mut rng);
        let attacker_data = easy_dataset(120, &mut rng);

        // Overfit a victim.
        let mut victim = arch(&mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let batch = members.full_batch().unwrap();
        for _ in 0..250 {
            let logits = victim.forward(&batch.features, true).unwrap();
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &batch.labels)
                .unwrap();
            victim.zero_grad();
            victim.backward(&grad).unwrap();
            opt.step(&mut victim).unwrap();
        }
        // Obfuscate the FINAL layer (in this setup membership info
        // concentrates early, so the final layer is repairable).
        let mut obfuscated = victim.params();
        let last = obfuscated.num_layers() - 1;
        for t in &mut obfuscated.layers[last].tensors {
            *t = rng.rand_uniform(t.shape(), -0.5, 0.5);
        }
        let mut template = arch(&mut rng).unwrap();
        // Before repair: garbage predictions.
        let acc_before =
            dinar_fl::eval::accuracy_of_params(&obfuscated, &mut template, &members).unwrap();
        let attack = RepairAttack::new(
            LossThresholdAttack,
            RepairConfig {
                epochs: 80,
                lr: 0.2,
                ..RepairConfig::for_layers(&[last])
            },
            attacker_data,
        );
        let repaired = attack.repair(&obfuscated, &mut template).unwrap();
        let acc_after =
            dinar_fl::eval::accuracy_of_params(&repaired, &mut template, &members).unwrap();
        assert!(
            acc_after > acc_before + 0.2,
            "repair should restore utility: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn repair_only_touches_obfuscated_layers() {
        let mut rng = Rng::seed_from(1);
        let attacker_data = noisy_dataset(64, &mut rng);
        let model = arch(&mut rng).unwrap();
        let target = model.params();
        let mut template = arch(&mut rng).unwrap();
        let attack = RepairAttack::new(
            LossThresholdAttack,
            RepairConfig {
                epochs: 3,
                ..RepairConfig::for_layers(&[1])
            },
            attacker_data,
        );
        let repaired = attack.repair(&target, &mut template).unwrap();
        // Layers 0 and 2 must be bit-identical; layer 1 changed.
        assert_eq!(repaired.layers[0], target.layers[0]);
        assert_eq!(repaired.layers[2], target.layers[2]);
        assert_ne!(repaired.layers[1], target.layers[1]);
    }

    #[test]
    fn scoring_delegates_to_inner_attack() {
        let mut rng = Rng::seed_from(2);
        let members = noisy_dataset(32, &mut rng);
        let nonmembers = noisy_dataset(32, &mut rng);
        let attacker_data = noisy_dataset(64, &mut rng);
        let model = arch(&mut rng).unwrap();
        let target = model.params();
        let mut template = arch(&mut rng).unwrap();
        let mut attack = RepairAttack::new(
            LossThresholdAttack,
            RepairConfig {
                epochs: 1,
                ..RepairConfig::for_layers(&[0])
            },
            attacker_data,
        );
        // Untrained target: AUC near chance regardless of repair.
        let result =
            evaluate_attack(&mut attack, &target, &mut template, &members, &nonmembers).unwrap();
        assert!(result.auc < 0.7);
    }
}
