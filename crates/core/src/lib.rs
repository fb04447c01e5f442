//! # dinar
//!
//! DINAR: a fine-grained, personalized privacy-preserving federated learning
//! middleware — the primary contribution of *Personalized Privacy-Preserving
//! Federated Learning* (MIDDLEWARE '24).
//!
//! DINAR protects FL models against membership inference attacks by
//! obfuscating only the **most privacy-sensitive layer** of the network,
//! instead of perturbing everything (DP) or encrypting everything
//! (SA/TEE). The pipeline (paper Fig. 2 and Algorithm 1):
//!
//! 1. **Initialization** ([`init`]) — before training, every client measures
//!    each layer's membership leakage as the Jensen–Shannon divergence
//!    between member and non-member gradient distributions
//!    ([`sensitivity`]), proposes the most-leaking layer, and all clients
//!    agree on one index `p` via Byzantine-tolerant broadcast voting
//!    (the [`dinar_consensus`] crate).
//! 2. **Model personalization** (Alg. 1 lines 1–6) — on receiving the global
//!    model, the client restores its privately stored layer `p` parameters,
//!    yielding a personalized model used for its predictions.
//! 3. **Adaptive model training** (Alg. 1 lines 7–14) — local training with
//!    accumulated-squared-gradient adaptive descent
//!    ([`dinar_nn::optim::Adagrad`]) to recover any utility loss.
//! 4. **Model obfuscation** (Alg. 1 lines 15–17) — before upload, the client
//!    stores layer `p` and replaces it with random values
//!    ([`obfuscation`]), so neither the server nor other clients ever see
//!    the privacy-sensitive parameters.
//!
//! Steps 2–4 are packaged as an FL client middleware
//! ([`middleware::DinarMiddleware`]) that drops into the
//! [`dinar_fl`] engine next to any baseline defense. A deployment runs
//! step 1 once ([`init::agree_on_layer`]) and attaches one middleware per
//! client with the agreed layer, as the example below does with a pinned
//! layer.
//!
//! # Example
//!
//! ```
//! use dinar::{middleware::DinarMiddleware, DinarConfig};
//! use dinar_fl::{FlConfig, FlSystem};
//! use dinar_data::{catalog::{self, Profile}, partition::{partition_dataset, Distribution}};
//! use dinar_nn::{models, optim::Adagrad};
//! use dinar_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let data = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
//! let shards = partition_dataset(&data, 3, Distribution::Iid, &mut rng)?;
//! let config = DinarConfig::default();
//! let mut system = FlSystem::builder(FlConfig { local_epochs: 1, batch_size: 64, seed: 1 })
//!     .clients_from_shards(shards, |rng| models::fcnn6(600, 100, 64, rng), |_| Box::new(Adagrad::new(1e-3)))?
//!     .with_client_middleware(|id| vec![Box::new(DinarMiddleware::new(4, config, id as u64))])
//!     .build()?;
//! system.run_round()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod init;
pub mod middleware;
pub mod obfuscation;
pub mod sensitivity;

pub use error::DinarError;
pub use middleware::DinarMiddleware;
pub use obfuscation::ObfuscationStrategy;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DinarError>;

/// DINAR configuration shared by the middleware and initialization phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DinarConfig {
    /// How the private layer is obfuscated before upload (Alg. 1 line 17).
    pub strategy: ObfuscationStrategy,
    /// Histogram bins for the sensitivity analysis divergences.
    pub divergence_bins: usize,
}

impl Default for DinarConfig {
    fn default() -> Self {
        DinarConfig {
            strategy: ObfuscationStrategy::Random,
            divergence_bins: 30,
        }
    }
}
