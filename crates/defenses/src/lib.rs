//! # dinar-defenses
//!
//! The five state-of-the-art baseline defenses the paper compares DINAR
//! against (§5.2), implemented from scratch as FL middleware (LDP as an
//! optimizer wrapper):
//!
//! | Defense | Hook | Paper setting |
//! |---|---|---|
//! | [`dpsgd::DpOptimizer`] — local differential privacy (DP-SGD) | every client optimizer step | ε = 2.2, δ = 10⁻⁵ |
//! | [`cdp::CentralDp`] — central differential privacy | server aggregate | ε = 2.2, δ = 10⁻⁵ |
//! | [`wdp::WeakDp`] — norm bounding + weak Gaussian noise | client upload | bound 5, σ = 0.025 |
//! | [`gc::GradientCompression`] — top-k update sparsification | client upload | keeps the largest update entries |
//! | [`sa::SecureAggregation`] — pairwise additive masking | client upload | masks cancel in the FedAvg sum |
//!
//! **DP calibration note.** The paper uses Opacus, whose moments accountant
//! amortizes a privacy budget over thousands of SGD steps. We apply the
//! analytic Gaussian mechanism — per optimizer step for LDP, per round
//! aggregate for CDP — with `σ = √(2 ln(1.25/δ)) / ε` and a per-coordinate
//! noise scale of `σ · clip / √d` (so the total noise norm is `σ · clip`;
//! CDP further divides by the client count). The absolute ε values are
//! therefore not comparable to Opacus's, but the *shape* the
//! paper's experiments rely on — noise ∝ 1/ε, privacy improving and utility
//! collapsing as ε shrinks (Fig. 10) — is preserved exactly.

#![warn(missing_docs)]

pub mod cdp;
pub mod dp;
pub mod dpsgd;
pub mod gc;
pub mod sa;
pub mod wdp;

pub use cdp::CentralDp;
pub use dp::DpParams;
pub use dpsgd::DpOptimizer;
pub use gc::GradientCompression;
pub use sa::{SaGroup, SecureAggregation};
pub use wdp::WeakDp;
