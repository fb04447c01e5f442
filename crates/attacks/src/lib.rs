//! # dinar-attacks
//!
//! Membership inference attacks (MIAs) against FL models, following the
//! paper's threat model (§2.2) and attack instantiation (§5.5, after Shokri
//! et al. \[41\]).
//!
//! Two attackers are provided behind the common [`MembershipAttack`] trait:
//!
//! * [`threshold::LossThresholdAttack`] — the classic generalization-gap
//!   attack: members have lower loss, so `-loss` scores membership. Needs no
//!   training; used as a fast cross-check and for the Fig. 3 loss
//!   distributions.
//! * [`shadow::ShadowAttack`] — the Shokri-style attack the paper runs: the
//!   attacker trains *shadow models* on its own prior-knowledge data (the
//!   50% attacker split of §5.1), labels their outputs as member/non-member,
//!   and fits an attack classifier on confidence-vector features. Scoring a
//!   target model then requires only black-box predictions.
//!
//! [`repair::RepairAttack`] wraps either of them for layer-obfuscated
//! targets: it re-trains the obfuscated layer on the attacker's data before
//! scoring. [`inversion`] is the model-inversion extension.
//!
//! Attack quality is reported as **attack AUC** via [`evaluate_attack`],
//! where 50% (random guessing) is the optimum a defense can force;
//! [`report::AttackReport`] adds TPR at low FPR and the best balanced
//! accuracy from the same scores.
//!
//! The attacker can sit on the server side (scoring an individual client
//! upload) or the client side (scoring the global model) — both are just
//! parameter sets passed to [`MembershipAttack::score`].

#![warn(missing_docs)]

mod error;
pub mod features;
pub mod inversion;
pub mod repair;
pub mod report;
pub mod shadow;
pub mod threshold;

pub use error::AttackError;

use dinar_data::Dataset;
use dinar_nn::{Model, ModelParams};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AttackError>;

/// A membership inference attack: assigns each sample a score where higher
/// means "more likely a member of the target model's training set".
pub trait MembershipAttack: std::fmt::Debug {
    /// Attack name for reports.
    fn name(&self) -> &'static str;

    /// Scores every sample in `samples` against the target model
    /// (`target` installed into the architecture-matched `template`).
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation errors.
    fn score(
        &mut self,
        target: &ModelParams,
        template: &mut Model,
        samples: &Dataset,
    ) -> Result<Vec<f32>>;
}

/// The outcome of running an attack against one target model.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Raw AUC in `[0, 1]` (membership scores of members vs non-members).
    pub raw_auc: f64,
    /// The paper's reported AUC in `[0.5, 1]` (an attacker below 0.5 would
    /// invert its decision).
    pub auc: f64,
    /// Scores assigned to the true members.
    pub member_scores: Vec<f32>,
    /// Scores assigned to the true non-members.
    pub nonmember_scores: Vec<f32>,
}

/// Runs an attack against a target model and computes the attack AUC over a
/// balanced member/non-member evaluation.
///
/// `members` must be data the target trained on; `nonmembers` data it never
/// saw. The two sets are truncated to equal size so the AUC is balanced.
///
/// # Errors
///
/// Propagates attack and evaluation errors.
pub fn evaluate_attack(
    attack: &mut dyn MembershipAttack,
    target: &ModelParams,
    template: &mut Model,
    members: &Dataset,
    nonmembers: &Dataset,
) -> Result<AttackResult> {
    let n = members.len().min(nonmembers.len());
    if n == 0 {
        return Err(AttackError::InvalidEvaluation {
            reason: "need at least one member and one non-member".into(),
        });
    }
    let member_eval = members.subset(&(0..n).collect::<Vec<_>>())?;
    let nonmember_eval = nonmembers.subset(&(0..n).collect::<Vec<_>>())?;
    let member_scores = attack.score(target, template, &member_eval)?;
    let nonmember_scores = attack.score(target, template, &nonmember_eval)?;
    let raw_auc = dinar_metrics::roc::attack_auc(&member_scores, &nonmember_scores);
    Ok(AttackResult {
        raw_auc,
        auc: raw_auc.max(1.0 - raw_auc),
        member_scores,
        nonmember_scores,
    })
}
