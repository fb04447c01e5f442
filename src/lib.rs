//! # dinar-suite
//!
//! Umbrella crate of the DINAR reproduction: re-exports every workspace
//! crate under one roof so the repository-level examples and integration
//! tests (and downstream users who want everything) can depend on a single
//! crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `dinar-tensor` | dense tensors, RNG, allocation accounting |
//! | [`nn`] | `dinar-nn` | layers, models, losses, optimizers |
//! | [`data`] | `dinar-data` | synthetic datasets, splits, partitioning |
//! | [`fl`] | `dinar-fl` | the federated learning engine |
//! | [`attacks`] | `dinar-attacks` | membership inference attacks |
//! | [`defenses`] | `dinar-defenses` | LDP, CDP, WDP, GC, SA baselines |
//! | [`consensus`] | `dinar-consensus` | Byzantine-tolerant layer voting |
//! | [`metrics`] | `dinar-metrics` | AUC, JS divergence, cost tracking |
//! | [`telemetry`] | `dinar-telemetry` | spans, metrics registry, profiling export |
//! | [`core`] | `dinar` | the DINAR middleware itself |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete end-to-end run: synthesize a
//! dataset, train undefended FL, attack it, then attach DINAR and attack
//! again.

#![warn(missing_docs)]

pub use dinar as core;
pub use dinar_attacks as attacks;
pub use dinar_consensus as consensus;
pub use dinar_data as data;
pub use dinar_defenses as defenses;
pub use dinar_fl as fl;
pub use dinar_metrics as metrics;
pub use dinar_nn as nn;
pub use dinar_telemetry as telemetry;
pub use dinar_tensor as tensor;
