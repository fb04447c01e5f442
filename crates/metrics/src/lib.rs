//! # dinar-metrics
//!
//! Evaluation metrics for the DINAR reproduction, mirroring Appendix A of
//! the paper:
//!
//! * **Attack AUC** ([`roc`]) — the paper's privacy metric: the area under
//!   the ROC curve of the binary member/non-member classifier implementing
//!   the MIA. 50% is the optimum a defense can reach (random attacker);
//!   100% is a perfect attacker. [`roc::roc_curve`] gives the curve itself.
//! * **Jensen–Shannon divergence over histograms** ([`histogram`]) — the
//!   generalization-gap measure of §3 used to rank layers by privacy
//!   sensitivity (Fig. 1/4).
//! * **Cost tracking** ([`cost`]) — wall-time and tensor-memory measurement
//!   behind the Table 3 overhead columns, timed through the injectable
//!   [`clock::Clock`].
//! * **Summary statistics** ([`stats`]) — means, standard deviations and
//!   quantiles used across the experiment reports.

#![warn(missing_docs)]

pub mod clock;
pub mod cost;
pub mod histogram;
pub mod roc;
pub mod stats;

pub use histogram::{js_divergence, Histogram};
pub use roc::attack_auc;
