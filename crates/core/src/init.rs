//! DINAR initialization (§4.1): each client measures its most
//! privacy-sensitive layer and all clients agree on one index through
//! Byzantine-tolerant broadcast voting.

use crate::sensitivity::{most_sensitive_layer, SensitivityConfig};
use crate::{DinarError, Result};
use dinar_consensus::network::{simulate_vote, NodeBehavior, SimConfig};
use dinar_data::Dataset;
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::optim::{Adagrad, Optimizer};
use dinar_nn::Model;
use dinar_tensor::Rng;

/// Configuration of the initialization phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitConfig {
    /// Warm-up epochs each client trains locally before probing (a model at
    /// random initialization has no membership signal to localize).
    pub warmup_epochs: usize,
    /// Warm-up batch size.
    pub batch_size: usize,
    /// Warm-up learning rate for the Adagrad optimizer.
    pub lr: f32,
    /// Sensitivity measurement parameters.
    pub sensitivity: SensitivityConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InitConfig {
    fn default() -> Self {
        InitConfig {
            warmup_epochs: 20,
            batch_size: 32,
            lr: 0.05,
            sensitivity: SensitivityConfig::default(),
            seed: 0xD1AA,
        }
    }
}

/// Computes one client's layer proposal `pᵢ`: warm-up training on its member
/// data `Dᵐᵢ`, then the argmax-divergence layer against its held-out
/// non-member data `Dⁿᵢ`.
///
/// # Errors
///
/// Propagates training and sensitivity errors.
pub fn client_proposal(
    model: &mut Model,
    members: &Dataset,
    nonmembers: &Dataset,
    cfg: &InitConfig,
    rng: &mut Rng,
) -> Result<usize> {
    let loss_fn = CrossEntropyLoss;
    let mut opt = Adagrad::new(cfg.lr);
    for _ in 0..cfg.warmup_epochs {
        for indices in members.batch_indices(cfg.batch_size, rng) {
            let batch = members.batch(&indices).map_err(DinarError::from)?;
            let logits = model
                .forward(&batch.features, true)
                .map_err(DinarError::from)?;
            let (_, grad) = loss_fn
                .loss_and_grad(&logits, &batch.labels)
                .map_err(DinarError::from)?;
            model.zero_grad();
            model.backward(&grad).map_err(DinarError::from)?;
            opt.step(model).map_err(DinarError::from)?;
        }
    }
    most_sensitive_layer(model, members, nonmembers, &cfg.sensitivity, rng)
}

/// Runs the full initialization phase over all clients' local data and
/// returns the agreed layer index `p`.
///
/// Each entry in `client_data` is a client's `(members, nonmembers)` pair —
/// its training split `Dᵐᵢ` and held-out split `Dⁿᵢ`. `byzantine` lists
/// client indices that behave maliciously during the vote (they still
/// obfuscate layer `p` afterwards, as the paper requires). `model_fn` builds
/// the shared architecture.
///
/// # Errors
///
/// Returns [`DinarError::NoAgreement`] if honest clients fail to decide a
/// common value, and propagates proposal/vote errors.
pub fn agree_on_layer(
    client_data: &[(Dataset, Dataset)],
    model_fn: impl Fn(&mut Rng) -> dinar_nn::Result<Model>,
    byzantine: &[usize],
    cfg: &InitConfig,
) -> Result<usize> {
    if client_data.is_empty() {
        return Err(DinarError::InvalidConfig {
            reason: "initialization needs at least one client".into(),
        });
    }
    let root = Rng::seed_from(cfg.seed);
    let mut behaviors = Vec::with_capacity(client_data.len());
    let mut num_layers = 0;
    for (i, (members, nonmembers)) in client_data.iter().enumerate() {
        let mut rng = root.split(i as u64);
        let mut model = model_fn(&mut rng).map_err(DinarError::from)?;
        num_layers = model.num_trainable_layers();
        if byzantine.contains(&i) {
            behaviors.push(NodeBehavior::byzantine_random());
            continue;
        }
        let proposal = client_proposal(&mut model, members, nonmembers, cfg, &mut rng)?;
        behaviors.push(NodeBehavior::Honest { proposal });
    }
    let outcome = simulate_vote(
        &behaviors,
        &SimConfig {
            num_choices: num_layers,
            seed: cfg.seed,
        },
    )?;
    outcome.agreed_value().ok_or(DinarError::NoAgreement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::models::{self, Activation};
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

    fn arch(rng: &mut Rng) -> dinar_nn::Result<Model> {
        models::mlp(&[10, 24, 24, 5], Activation::ReLU, rng)
    }

    #[test]
    fn clients_agree_on_a_layer_with_byzantine_minority() {
        let mut rng = Rng::seed_from(0);
        let client_data: Vec<(Dataset, Dataset)> = (0..5)
            .map(|_| (noisy_dataset(40, &mut rng), noisy_dataset(24, &mut rng)))
            .collect();
        let cfg = InitConfig {
            warmup_epochs: 15,
            ..InitConfig::default()
        };
        let p = agree_on_layer(&client_data, arch, &[4], &cfg).unwrap();
        assert!(p < 3, "layer index {p} within range");
    }

    #[test]
    fn empty_client_list_rejected() {
        let cfg = InitConfig::default();
        assert!(matches!(
            agree_on_layer(&[], arch, &[], &cfg),
            Err(DinarError::InvalidConfig { .. })
        ));
    }
}
