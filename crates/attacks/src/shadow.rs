//! The Shokri-style shadow-model membership inference attack \[41\].
//!
//! The attacker holds prior-knowledge data drawn from the same distribution
//! as the victims' data (the 50% attacker split of §5.1). It trains several
//! *shadow models* with the target architecture on disjoint chunks of that
//! data; for each shadow it knows exactly which samples were members. The
//! shadows' predictions on members vs non-members form a labelled training
//! set for an *attack classifier* over confidence-vector features
//! ([`crate::features`]). Scoring a real target model then requires only
//! black-box predictions — exactly the capability a curious FL server or
//! client has over exchanged model parameters.

use crate::features::{extract, NUM_FEATURES};
use crate::{AttackError, MembershipAttack, Result};
use dinar_data::Dataset;
use dinar_nn::loss::{softmax_rows, CrossEntropyLoss};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::{self, Optimizer, Sgd};
use dinar_nn::{Model, ModelParams};
use dinar_tensor::{Rng, Tensor};

/// Shadow-attack hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowConfig {
    /// Number of shadow models (the more, the more attack training data).
    pub num_shadows: usize,
    /// Training epochs per shadow model — should mimic the victims'
    /// training budget so shadows overfit similarly.
    pub shadow_epochs: usize,
    /// Shadow mini-batch size.
    pub batch_size: usize,
    /// Shadow learning rate.
    pub lr: f32,
    /// Shadow optimizer name (see [`optim::by_name`]); should mimic the
    /// victims' optimizer so shadows overfit the same way.
    pub optimizer: &'static str,
    /// Epochs for the attack classifier.
    pub attack_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            num_shadows: 4,
            shadow_epochs: 30,
            batch_size: 32,
            lr: 0.05,
            optimizer: "sgd",
            attack_epochs: 120,
            seed: 0x5A5A,
        }
    }
}

/// The fitted shadow attack.
///
/// # Example
///
/// See the crate-level integration tests; fitting requires an attacker
/// dataset and the target model architecture.
#[derive(Debug)]
pub struct ShadowAttack {
    config: ShadowConfig,
    attack_model: Option<Model>,
}

impl ShadowAttack {
    /// Creates an unfitted attack.
    pub fn new(config: ShadowConfig) -> Self {
        ShadowAttack {
            config,
            attack_model: None,
        }
    }

    /// `true` once [`ShadowAttack::fit`] has succeeded.
    pub fn is_fitted(&self) -> bool {
        self.attack_model.is_some()
    }

    /// Fits the attack: trains shadow models on the attacker's data and the
    /// attack classifier on their member/non-member predictions.
    ///
    /// `model_fn` must build the target architecture (the attacker knows it
    /// in white-box FL).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] if the attacker data cannot
    /// feed the requested number of shadows, and propagates training errors.
    pub fn fit(
        &mut self,
        attacker_data: &Dataset,
        model_fn: impl Fn(&mut Rng) -> dinar_nn::Result<Model>,
    ) -> Result<()> {
        let cfg = self.config;
        if cfg.num_shadows == 0 {
            return Err(AttackError::InvalidConfig {
                reason: "need at least one shadow model".into(),
            });
        }
        let chunk = attacker_data.len() / cfg.num_shadows;
        if chunk < 8 {
            return Err(AttackError::InvalidConfig {
                reason: format!(
                    "attacker data of {} cannot feed {} shadows (chunk {chunk} < 8)",
                    attacker_data.len(),
                    cfg.num_shadows
                ),
            });
        }
        let make_opt = optim::by_name(cfg.optimizer).ok_or_else(|| AttackError::InvalidConfig {
            reason: format!("unknown shadow optimizer `{}`", cfg.optimizer),
        })?;
        let mut rng = Rng::seed_from(cfg.seed);
        let loss_fn = CrossEntropyLoss;

        // Every draw of the fit comes from one stream, in shadow order: a
        // shadow's member split, its initial model and its batch orders.
        // Training draws nothing, so taking the draws up front and training
        // the shadows side by side leaves each shadow's bits as they are.
        let mut shadows = Vec::with_capacity(cfg.num_shadows);
        for s in 0..cfg.num_shadows {
            let indices: Vec<usize> = (s * chunk..(s + 1) * chunk).collect();
            let shard = attacker_data.subset(&indices)?;
            let (in_set, out_set) = shard.split_fraction(0.5, &mut rng)?;
            let model = model_fn(&mut rng)?;
            let epochs: Vec<Vec<Vec<usize>>> = (0..cfg.shadow_epochs)
                .map(|_| in_set.batch_indices(cfg.batch_size, &mut rng))
                .collect();
            shadows.push((in_set, out_set, model, make_opt(cfg.lr), epochs));
        }
        // Train each shadow on its member half and label its behaviour:
        // members -> 1, non-members -> 0.
        let fitted = dinar_tensor::par::map_items_mut(&mut shadows, |_, shadow| {
            let (in_set, out_set, model, opt, epochs) = shadow;
            for batch_idx in epochs.iter().flatten() {
                let batch = in_set.batch(batch_idx)?;
                let logits = model.forward(&batch.features, true)?;
                let (_, grad) = loss_fn.loss_and_grad(&logits, &batch.labels)?;
                model.zero_grad();
                model.backward(&grad)?;
                opt.step(model)?;
            }
            let params = model.params();
            Ok::<_, AttackError>((
                extract(&params, model, in_set)?,
                extract(&params, model, out_set)?,
            ))
        });
        let mut feature_rows: Vec<Tensor> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for ((in_set, out_set, ..), features) in shadows.iter().zip(fitted) {
            let (f_in, f_out) = features?;
            labels.extend(std::iter::repeat_n(1, in_set.len()));
            labels.extend(std::iter::repeat_n(0, out_set.len()));
            feature_rows.push(f_in);
            feature_rows.push(f_out);
        }

        let refs: Vec<&Tensor> = feature_rows.iter().collect();
        let features = Tensor::vstack(&refs).map_err(dinar_nn::NnError::from)?;

        // Train the attack classifier (member vs non-member).
        let mut attack_model = models::mlp(&[NUM_FEATURES, 24, 2], Activation::ReLU, &mut rng)?;
        let mut opt = Sgd::new(0.1);
        let attack_ds = Dataset::new(features, labels, &[NUM_FEATURES], 2)?;
        for _ in 0..cfg.attack_epochs {
            for batch_idx in attack_ds.batch_indices(64, &mut rng) {
                let batch = attack_ds.batch(&batch_idx)?;
                let logits = attack_model.forward(&batch.features, true)?;
                let (_, grad) = loss_fn.loss_and_grad(&logits, &batch.labels)?;
                attack_model.zero_grad();
                attack_model.backward(&grad)?;
                opt.step(&mut attack_model)?;
            }
        }
        self.attack_model = Some(attack_model);
        Ok(())
    }
}

impl MembershipAttack for ShadowAttack {
    fn name(&self) -> &'static str {
        "shadow"
    }

    fn score(
        &mut self,
        target: &ModelParams,
        template: &mut Model,
        samples: &Dataset,
    ) -> Result<Vec<f32>> {
        let attack_model = self.attack_model.as_mut().ok_or(AttackError::NotFitted)?;
        let features = extract(target, template, samples)?;
        let logits = attack_model.forward(&features, false)?;
        let probs = softmax_rows(&logits)?;
        // P(member) = probability of class 1.
        (0..samples.len())
            .map(|i| Ok(probs.get(&[i, 1]).map_err(dinar_nn::NnError::from)?))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_attack;

    /// A hard 4-class task where models memorize.
    fn noisy_dataset(n: usize, rng: &mut Rng) -> Dataset {
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
    }

    fn arch(rng: &mut Rng) -> dinar_nn::Result<Model> {
        models::mlp(&[8, 64, 4], Activation::ReLU, rng)
    }

    #[test]
    fn shadow_attack_detects_membership() {
        let mut rng = Rng::seed_from(1);
        let attacker_data = noisy_dataset(240, &mut rng);
        let members = noisy_dataset(40, &mut rng);
        let nonmembers = noisy_dataset(40, &mut rng);

        // Train a victim that overfits its member set.
        let mut victim = arch(&mut rng).unwrap();
        let mut opt = Sgd::new(0.05);
        let batch = members.full_batch().unwrap();
        for _ in 0..200 {
            let logits = victim.forward(&batch.features, true).unwrap();
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &batch.labels)
                .unwrap();
            victim.zero_grad();
            victim.backward(&grad).unwrap();
            opt.step(&mut victim).unwrap();
        }
        let target = victim.params();

        let mut attack = ShadowAttack::new(ShadowConfig {
            num_shadows: 3,
            shadow_epochs: 60,
            ..ShadowConfig::default()
        });
        attack.fit(&attacker_data, arch).unwrap();
        assert!(attack.is_fitted());

        let mut template = arch(&mut rng).unwrap();
        let result =
            evaluate_attack(&mut attack, &target, &mut template, &members, &nonmembers).unwrap();
        assert!(result.auc > 0.7, "shadow attack AUC {} too low", result.auc);
    }

    #[test]
    fn unfitted_attack_errors() {
        let mut rng = Rng::seed_from(2);
        let ds = noisy_dataset(16, &mut rng);
        let model = arch(&mut rng).unwrap();
        let params = model.params();
        let mut template = arch(&mut rng).unwrap();
        let mut attack = ShadowAttack::new(ShadowConfig::default());
        assert!(matches!(
            attack.score(&params, &mut template, &ds),
            Err(AttackError::NotFitted)
        ));
    }

    #[test]
    fn fit_rejects_starved_shadows() {
        let mut rng = Rng::seed_from(3);
        let tiny = noisy_dataset(16, &mut rng);
        let mut attack = ShadowAttack::new(ShadowConfig {
            num_shadows: 4,
            ..ShadowConfig::default()
        });
        assert!(matches!(
            attack.fit(&tiny, arch),
            Err(AttackError::InvalidConfig { .. })
        ));
    }
}
