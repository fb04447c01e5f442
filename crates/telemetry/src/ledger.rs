//! Privacy-budget ledger: a per-(defense, entity) (ε, δ) accountant.
//!
//! Every defense transform in `crates/defenses` charges its differential
//! privacy cost here — the DP family (`dp-sgd`, `ldp`, `wdp`, `cdp`)
//! charges a per-application (ε, δ), while the non-DP defenses (`sa`,
//! `gc`) charge explicit **zero-cost** entries so ledger coverage is
//! total: an audit report distinguishes "this defense spends no budget"
//! from "this defense forgot to report" (lint rule L016 enforces the
//! latter can't happen silently).
//!
//! # Composition
//!
//! For `k` charges (ε₁, δ₁) … (ε_k, δ_k) against one `(defense, entity)`
//! account the ledger reports two sequential-composition bounds:
//!
//! * **basic**: ε = Σεᵢ, δ = Σδᵢ — tight for small k;
//! * **advanced** (heterogeneous Dwork–Rothblum–Vadhan): for a slack
//!   δ′ = 1e-6,
//!   ε = √(2 ln(1/δ′) · Σεᵢ²) + Σ εᵢ(e^εᵢ − 1),  δ = Σδᵢ + δ′ —
//!   asymptotically √k, tighter for long compositions of small ε.
//!
//! The headline `eps_composed` is the minimum of the two, the standard
//! "best available bound" an accountant reports. Accounts accumulate the
//! sufficient statistics (k, Σε, Σδ, Σε², Σε(e^ε−1)) so a charge is O(1)
//! and per-step DP-SGD accounting stays cheap.
//!
//! All state is deterministic: accounts live in a [`BTreeMap`] keyed by
//! `(defense, entity)` and charges are pure arithmetic, so the exported
//! report is byte-identical across runs and pool widths.

use dinar_tensor::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Slack δ′ spent by the advanced-composition bound.
pub const ADVANCED_COMPOSITION_SLACK: f64 = 1e-6;

/// Accumulated sufficient statistics for one `(defense, entity)` account.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Accum {
    charges: u64,
    sum_eps: f64,
    sum_delta: f64,
    sum_eps_sq: f64,
    /// Σ εᵢ(e^εᵢ − 1), the residual term of heterogeneous advanced
    /// composition.
    sum_eps_expm1: f64,
}

/// One composed account, as reported by [`PrivacyLedger::accounts`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyAccount {
    /// Defense name, as reported by the middleware/optimizer (`"dp-sgd"`,
    /// `"ldp"`, `"wdp"`, `"cdp"`, `"sa"`, `"gc"`, …).
    pub defense: String,
    /// Budget owner: `"client[i]"` for local defenses, `"global"` for
    /// server-side ones.
    pub entity: String,
    /// Number of charges (zero-cost charges included).
    pub charges: u64,
    /// Basic-composition ε = Σεᵢ.
    pub eps_basic: f64,
    /// Basic-composition δ = Σδᵢ.
    pub delta_basic: f64,
    /// Advanced-composition ε (module docs; ∞-free, 0 when no ε spent).
    pub eps_advanced: f64,
    /// Advanced-composition δ = Σδᵢ + δ′ (0 when no ε spent).
    pub delta_advanced: f64,
    /// min(basic, advanced) ε — the headline spent budget.
    pub eps_composed: f64,
    /// The δ that accompanies [`eps_composed`](Self::eps_composed).
    pub delta_composed: f64,
}

impl Accum {
    fn compose(&self, defense: &str, entity: &str) -> PrivacyAccount {
        let eps_basic = self.sum_eps;
        let delta_basic = self.sum_delta;
        let slack = ADVANCED_COMPOSITION_SLACK;
        let (eps_advanced, delta_advanced) = if self.sum_eps == 0.0 {
            // Pure zero-cost account (sa/gc): both bounds are exactly zero
            // and no δ′ slack is spent.
            (0.0, delta_basic)
        } else {
            let eps = (2.0 * (1.0 / slack).ln() * self.sum_eps_sq).sqrt() + self.sum_eps_expm1;
            (eps, self.sum_delta + slack)
        };
        let (eps_composed, delta_composed) = if eps_advanced < eps_basic {
            (eps_advanced, delta_advanced)
        } else {
            (eps_basic, delta_basic)
        };
        PrivacyAccount {
            defense: defense.to_string(),
            entity: entity.to_string(),
            charges: self.charges,
            eps_basic,
            delta_basic,
            eps_advanced,
            delta_advanced,
            eps_composed,
            delta_composed,
        }
    }
}

/// The accountant: a deterministic map of accounts behind one mutex.
#[derive(Debug, Default)]
pub(crate) struct PrivacyLedger {
    accounts: Mutex<BTreeMap<(String, String), Accum>>,
}

impl PrivacyLedger {
    /// Charges (ε, δ) to the `(defense, entity)` account. Negative and
    /// non-finite charges are clamped to zero — the ledger only ever
    /// *under*-reports by refusing a bogus charge, never by dropping it.
    pub(crate) fn charge(&self, defense: &str, entity: &str, eps: f64, delta: f64) {
        let eps = if eps.is_finite() && eps > 0.0 { eps } else { 0.0 };
        let delta = if delta.is_finite() && delta > 0.0 { delta } else { 0.0 };
        let mut accounts = self
            .accounts
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let acc = accounts
            .entry((defense.to_string(), entity.to_string()))
            .or_default();
        acc.charges += 1;
        acc.sum_eps += eps;
        acc.sum_delta += delta;
        acc.sum_eps_sq += eps * eps;
        acc.sum_eps_expm1 += eps * eps.exp_m1();
    }

    /// Total ε spent so far by `(defense, entity)` under basic
    /// composition (0.0 for an untouched account).
    pub(crate) fn eps_basic(&self, defense: &str, entity: &str) -> f64 {
        self.accounts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(defense.to_string(), entity.to_string()))
            .map_or(0.0, |a| a.sum_eps)
    }

    /// Every account composed, in `(defense, entity)` order.
    pub(crate) fn accounts(&self) -> Vec<PrivacyAccount> {
        self.accounts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|((d, e), acc)| acc.compose(d, e))
            .collect()
    }

    /// The audit report: `{"slack":…,"accounts":[…]}` with accounts in
    /// `(defense, entity)` order and a fixed field order per account.
    pub(crate) fn report(&self) -> Json {
        let accounts: Vec<Json> = self
            .accounts()
            .iter()
            .map(|a| {
                Json::obj([
                    ("defense", a.defense.to_json()),
                    ("entity", a.entity.to_json()),
                    ("charges", a.charges.to_json()),
                    ("eps_basic", a.eps_basic.to_json()),
                    ("delta_basic", a.delta_basic.to_json()),
                    ("eps_advanced", a.eps_advanced.to_json()),
                    ("delta_advanced", a.delta_advanced.to_json()),
                    ("eps_composed", a.eps_composed.to_json()),
                    ("delta_composed", a.delta_composed.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("slack", ADVANCED_COMPOSITION_SLACK.to_json()),
            ("accounts", Json::Arr(accounts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_composition_sums() {
        let ledger = PrivacyLedger::default();
        ledger.charge("ldp", "client[0]", 2.2, 1e-5);
        ledger.charge("ldp", "client[0]", 2.2, 1e-5);
        let acc = &ledger.accounts()[0];
        assert_eq!(acc.charges, 2);
        assert!((acc.eps_basic - 4.4).abs() < 1e-12);
        assert!((acc.delta_basic - 2e-5).abs() < 1e-18);
    }

    #[test]
    fn advanced_composition_wins_for_many_small_charges() {
        let ledger = PrivacyLedger::default();
        // 1000 steps of ε = 0.05: basic gives 50; advanced ~ √k scaling.
        for _ in 0..1000 {
            ledger.charge("dp-sgd", "client[3]", 0.05, 1e-7);
        }
        let acc = &ledger.accounts()[0];
        assert!((acc.eps_basic - 50.0).abs() < 1e-6);
        assert!(
            acc.eps_advanced < acc.eps_basic,
            "advanced {} should beat basic {}",
            acc.eps_advanced,
            acc.eps_basic
        );
        assert_eq!(acc.eps_composed, acc.eps_advanced);
        assert!((acc.delta_advanced - (1000.0 * 1e-7 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn basic_composition_wins_for_few_large_charges() {
        let ledger = PrivacyLedger::default();
        ledger.charge("cdp", "global", 2.2, 1e-5);
        let acc = &ledger.accounts()[0];
        // One charge: advanced pays the √(2 ln 1/δ′) factor, basic is ε.
        assert!(acc.eps_advanced > acc.eps_basic);
        assert_eq!(acc.eps_composed, acc.eps_basic);
        assert_eq!(acc.delta_composed, acc.delta_basic);
    }

    #[test]
    fn zero_cost_accounts_stay_exactly_zero() {
        let ledger = PrivacyLedger::default();
        ledger.charge("sa", "client[1]", 0.0, 0.0);
        ledger.charge("sa", "client[1]", 0.0, 0.0);
        let acc = &ledger.accounts()[0];
        assert_eq!(acc.charges, 2);
        assert_eq!(acc.eps_composed, 0.0);
        assert_eq!(acc.delta_composed, 0.0);
        assert_eq!(acc.eps_advanced, 0.0, "no δ′ slack for zero accounts");
    }

    #[test]
    fn bogus_charges_are_clamped_not_dropped() {
        let ledger = PrivacyLedger::default();
        ledger.charge("ldp", "client[0]", f64::NAN, -1.0);
        let acc = &ledger.accounts()[0];
        assert_eq!(acc.charges, 1);
        assert_eq!(acc.eps_basic, 0.0);
        assert_eq!(acc.delta_basic, 0.0);
    }

    #[test]
    fn accounts_and_report_are_sorted() {
        let ledger = PrivacyLedger::default();
        ledger.charge("wdp", "client[1]", 1.0, 1e-5);
        ledger.charge("cdp", "global", 1.0, 1e-5);
        let accounts = ledger.accounts();
        assert_eq!(accounts[0].defense, "cdp");
        assert_eq!(accounts[1].defense, "wdp");
        let dump = ledger.report().dump();
        assert!(dump.starts_with("{\"slack\":"));
        assert!(dump.contains("\"eps_composed\""));
    }
}
