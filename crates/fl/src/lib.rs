//! # dinar-fl
//!
//! Cross-silo federated learning engine: the substrate on which DINAR and
//! every baseline defense run.
//!
//! The engine mirrors the paper's setting (§2.1, §5.3):
//!
//! * a fixed set of clients, each holding a disjoint data shard,
//! * per-round local training (`local_epochs` epochs of mini-batch SGD-family
//!   updates) followed by an upload of the full client model parameters,
//! * **FedAvg** aggregation on the server — a weighted average with weights
//!   proportional to each client's sample count,
//! * the server shares the global model only with participating clients
//!   (cross-silo; no external release).
//!
//! Defenses plug in as middleware, matching the paper's description of DINAR
//! as an FL *middleware*:
//!
//! * [`middleware::ClientMiddleware`] transforms the parameter sets a client
//!   downloads and uploads (LDP, WDP, gradient compression, secure-aggregation
//!   masking, and DINAR's personalize/obfuscate pipeline live here);
//! * [`middleware::ServerMiddleware`] transforms the aggregated model
//!   (central DP lives here).
//!
//! The engine also accounts costs per round — client training wall-clock,
//! server aggregation wall-clock, and peak extra tensor memory on the client
//! — which regenerate Table 3.
//!
//! # Example
//!
//! ```
//! use dinar_fl::{FlConfig, FlSystem};
//! use dinar_data::{catalog::{self, Profile}, partition::{partition_dataset, Distribution}};
//! use dinar_nn::{models, optim::Sgd};
//! use dinar_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let data = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
//! let shards = partition_dataset(&data, 3, Distribution::Iid, &mut rng)?;
//! let config = FlConfig { local_epochs: 1, batch_size: 64, seed: 1 };
//! let mut system = FlSystem::builder(config)
//!     .clients_from_shards(shards, |rng| models::fcnn6(600, 100, 64, rng), |_| Box::new(Sgd::new(0.01)))?
//!     .build()?;
//! let report = system.run_round()?;
//! assert!(report.mean_train_loss > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod client;
pub mod clock;
pub mod deadline;
mod error;
pub mod eval;
pub mod fault;
pub mod middleware;
pub mod netsim;
mod round;
pub mod server;
pub mod system;
pub mod transport;

pub use ckpt::{ClientCkpt, FlCheckpoint, PendingRound};
pub use client::{ClientUpdate, FlClient};
pub use error::FlError;
pub use middleware::MiddlewareState;
pub use fault::{FaultKind, FaultPlan, Quorum, RetryPolicy, RoundFaultStats, RoundPolicy};
pub use middleware::{ClientMiddleware, ServerMiddleware};
pub use netsim::{ClientLink, LinkModel, NetworkModel, RoundWireStats, WireConfig};
pub use server::FlServer;
pub use system::{FlConfig, FlSystem, RoundReport};
pub use transport::{run_threaded_wire, ResilientRun};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlError>;
