//! The high-level DINAR facade: initialization → per-client middleware →
//! recommended optimizer, in one object.
//!
//! [`Dinar`] packages the full §4 pipeline so an application configures the
//! middleware in three lines (see the crate example). Lower-level pieces
//! ([`crate::init`], [`crate::middleware`], [`crate::sensitivity`]) remain
//! available for custom setups.

use crate::init::{agree_on_layer, InitConfig};
use crate::middleware::DinarMiddleware;
use crate::{DinarConfig, DinarError, Result};
use dinar_data::Dataset;
use dinar_nn::optim::Adagrad;
use dinar_nn::Model;
use dinar_tensor::Rng;

/// A configured DINAR deployment: the agreed private layer plus the
/// obfuscation configuration, ready to mint per-client middleware.
#[derive(Debug, Clone)]
pub struct Dinar {
    layer: usize,
    config: DinarConfig,
}

impl Dinar {
    /// Runs the full initialization phase (§4.1): every client probes its
    /// local data for the most privacy-sensitive layer and the clients agree
    /// through the Byzantine-tolerant broadcast vote.
    ///
    /// `client_data` holds each client's `(members, held-out)` pair;
    /// `byzantine` lists clients that misbehave during the vote.
    ///
    /// # Errors
    ///
    /// Propagates [`agree_on_layer`] errors, including
    /// [`DinarError::NoAgreement`].
    pub fn initialize(
        client_data: &[(Dataset, Dataset)],
        model_fn: impl Fn(&mut Rng) -> dinar_nn::Result<Model>,
        byzantine: &[usize],
        init: &InitConfig,
        config: DinarConfig,
    ) -> Result<Self> {
        let layer = agree_on_layer(client_data, model_fn, byzantine, init)?;
        Ok(Dinar { layer, config })
    }

    /// Skips the vote and pins the protected layer directly (e.g. the
    /// penultimate layer the paper reports the consensus converges to).
    ///
    /// # Errors
    ///
    /// Returns [`DinarError::InvalidConfig`] if `layer` is out of range for
    /// a model with `num_trainable_layers` layers.
    pub fn with_layer(
        layer: usize,
        num_trainable_layers: usize,
        config: DinarConfig,
    ) -> Result<Self> {
        if layer >= num_trainable_layers {
            return Err(DinarError::InvalidConfig {
                reason: format!(
                    "layer {layer} out of range for {num_trainable_layers} trainable layers"
                ),
            });
        }
        Ok(Dinar { layer, config })
    }

    /// The agreed privacy-sensitive layer index `p`.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Mints the middleware for one client (each client gets its own
    /// obfuscation randomness stream and private-layer store).
    pub fn middleware_for(&self, client_id: usize) -> DinarMiddleware {
        DinarMiddleware::new(self.layer, self.config, client_id as u64)
    }

    /// The adaptive optimizer of Algorithm 1 (lines 8–14) at the given
    /// learning rate.
    pub fn recommended_optimizer(learning_rate: f32) -> Adagrad {
        Adagrad::new(learning_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_fl::ClientMiddleware;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    #[test]
    fn with_layer_validates_range() {
        assert!(Dinar::with_layer(5, 6, DinarConfig::default()).is_ok());
        assert!(matches!(
            Dinar::with_layer(6, 6, DinarConfig::default()),
            Err(DinarError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn minted_middleware_protects_the_agreed_layer() {
        let dinar = Dinar::with_layer(1, 3, DinarConfig::default()).unwrap();
        let mut mw = dinar.middleware_for(0);
        assert_eq!(mw.private_layers(), &[1]);
        let mut params = dinar_nn::ModelParams::new(vec![
            LayerParams::new(vec![Tensor::full(&[4], 1.0)]),
            LayerParams::new(vec![Tensor::full(&[4], 2.0)]),
            LayerParams::new(vec![Tensor::full(&[4], 3.0)]),
        ]);
        mw.transform_upload(0, &mut params).unwrap();
        assert_eq!(params.layers[0].tensors[0].as_slice(), &[1.0; 4]);
        assert!(params.layers[1].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| x != 2.0));
    }

    #[test]
    fn clients_get_distinct_obfuscation_streams() {
        let dinar = Dinar::with_layer(0, 2, DinarConfig::default()).unwrap();
        let make = |id: usize| {
            let mut mw = dinar.middleware_for(id);
            let mut p = dinar_nn::ModelParams::new(vec![
                LayerParams::new(vec![Tensor::full(&[16], 1.0)]),
                LayerParams::new(vec![Tensor::full(&[4], 2.0)]),
            ]);
            mw.transform_upload(0, &mut p).unwrap();
            p
        };
        assert_ne!(make(0), make(1));
    }

    #[test]
    fn initialize_runs_the_vote() {
        let mut rng = Rng::seed_from(0);
        let data = |rng: &mut Rng| {
            let features = rng.randn(&[40, 6]);
            let labels = (0..40).map(|i| i % 3).collect();
            Dataset::new(features, labels, &[6], 3).unwrap()
        };
        let client_data: Vec<_> = (0..3).map(|_| (data(&mut rng), data(&mut rng))).collect();
        let dinar = Dinar::initialize(
            &client_data,
            |rng| models::mlp(&[6, 12, 3], Activation::ReLU, rng),
            &[],
            &InitConfig {
                warmup_epochs: 3,
                ..InitConfig::default()
            },
            DinarConfig::default(),
        )
        .unwrap();
        assert!(dinar.layer() < 2);
    }
}
