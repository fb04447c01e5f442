//! # dinar-nn
//!
//! Neural-network substrate of the DINAR reproduction: layers, models, losses
//! and optimizers, built on [`dinar-tensor`](dinar_tensor).
//!
//! The design is driven by what the paper needs:
//!
//! * **Per-layer parameter and gradient access.** DINAR's whole contribution
//!   is *fine-grained, per-layer* protection: the sensitivity analysis
//!   (Fig. 1/4) measures each layer's gradient divergence, and the
//!   obfuscation step (Alg. 1, line 17) replaces the parameters of one layer.
//!   [`Model`] therefore exposes its parameters as a [`ModelParams`]
//!   structure with one [`LayerParams`] entry per *trainable* layer, and
//!   per-layer gradients via [`Model::layer_gradients`].
//! * **The paper's model zoo.** [`models`] provides the four architectures of
//!   Table 2 — the 6-layer fully-connected network (Purchase100/Texas100),
//!   VGG11 (GTSRB/CelebA), ResNet20 (CIFAR-10/100) and M18 (Speech
//!   Commands) — each in a `full` profile matching the paper's dimensions and
//!   a `mini` profile for CPU-scale experiments.
//! * **The optimizers of Algorithm 1 and the ablation (Fig. 11).**
//!   [`optim`] implements the paper's Adagrad-style adaptive gradient descent
//!   (Alg. 1 lines 8–14) plus SGD, Adam, AdaMax and ADGD.
//!
//! # Example
//!
//! ```
//! use dinar_nn::{models, loss::CrossEntropyLoss, optim::{Optimizer, Sgd}};
//! use dinar_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let mut model = models::mlp(&[4, 16, 3], models::Activation::Tanh, &mut rng)?;
//! let x = rng.randn(&[8, 4]);
//! let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//! let mut opt = Sgd::new(0.1);
//! let logits = model.forward(&x, true)?;
//! let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &y)?;
//! // Accumulates every parameter gradient; the gradient with respect to `x`
//! // is not computed (`Model::backward_input` is for callers that need it).
//! model.backward(&grad)?;
//! opt.step(&mut model)?;
//! assert!(loss > 0.0);
//! # Ok::<(), dinar_nn::NnError>(())
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod ckpt;
pub mod conv;
pub mod dense;
pub mod dropout;
mod error;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod optim;
pub mod params;
pub mod pool;
pub mod snapshot;
pub mod view;

pub use error::NnError;
pub use layer::Layer;
pub use model::Model;
pub use params::{LayerParams, ModelParams};
pub use view::{ParamView, ParamViewMut};

/// Crate-wide result alias for fallible network operations.
pub type Result<T> = std::result::Result<T, NnError>;
