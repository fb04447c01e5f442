//! Fault-tolerance policy for the threaded transport.
//!
//! The paper's cross-silo protocol (§2.1) assumes every selected client
//! returns an update each round; real deployments do not get that luxury.
//! This module defines how the threaded engine degrades when clients fail:
//!
//! * a per-round **deadline** ([`RoundPolicy::deadline`]) bounds how long
//!   the server waits for stragglers, budgeted by the injectable
//!   [`Clock`](crate::clock::Clock) so replay tests stay deterministic;
//! * a **quorum** ([`Quorum`]) decides whether the updates that *did*
//!   arrive are enough to aggregate — FedAvg is sample-weighted, so a
//!   partial aggregate renormalizes gracefully over the arrived subset;
//! * a **retry policy** ([`RetryPolicy`]) re-dispatches transiently failed
//!   clients a bounded number of times, extending the round deadline by a
//!   backoff per retry;
//! * a **fault plan** ([`FaultPlan`]) injects deterministic crash / drop /
//!   delay / stall / fail-then-recover faults so every failure path is
//!   testable bit-for-bit.
//!
//! The default policy ([`RoundPolicy::default`]) is the faithful §2.1
//! protocol: no deadline, full quorum, no retries, no faults — with the one
//! crucial difference that a dead client now surfaces as
//! [`FlError::ClientFailure`](crate::FlError::ClientFailure) instead of
//! hanging the server forever.
//!
//! A [`FaultPlan`] is a pure, seedable map from *(client, round)* to a
//! [`FaultKind`], consulted by the engine at the moment the client would
//! act. Because the plan is data — not timing — the same plan and seed
//! reproduce the same failure schedule on every run and at every
//! worker-pool width, which is what lets the integration tests assert
//! bit-identical models *under* injected faults.

use dinar_tensor::rng::splitmix64;
use std::collections::BTreeMap;
use std::time::Duration;

/// What happens to a client at its scheduled fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The client dies silently at the start of the round and never
    /// returns: no farewell message, no further participation. This is the
    /// "client thread died mid-round" condition that used to hang the
    /// threaded FL server.
    Crash,
    /// The client does its round work but its upload is lost. The client
    /// itself stays healthy.
    DropUpdate,
    /// The client does its round work but the result arrives *after* the
    /// round it belongs to (a straggler): the engine delivers it during the
    /// next round, where tag-checking discards it as stale.
    Delay,
    /// The client goes silent for the round without dying: it neither
    /// works nor reports. Only a round deadline can resolve a stall, so the
    /// engine rejects stall plans when no deadline is configured.
    Stall,
    /// The client fails transiently: the first `failures` attempts of the
    /// round report a retryable error, after which the client recovers and
    /// completes the round normally (if the engine retries that often).
    Transient {
        /// Number of failed attempts before the client recovers.
        failures: u32,
    },
}

/// A deterministic schedule of injected faults, keyed by `(client, round)`.
///
/// Rounds are 1-based, matching the engine's round numbering. At most one
/// fault per `(client, round)` cell; inserting twice keeps the latest.
///
/// # Example
///
/// ```
/// use dinar_fl::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new().crash(2, 3).delay(0, 1);
/// assert_eq!(plan.action(2, 3), Some(FaultKind::Crash));
/// assert_eq!(plan.action(2, 4), None);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), FaultKind>,
    /// The seed behind a generated plan ([`FaultPlan::seeded_dropout`]);
    /// `None` for hand-built plans. Carried so benchmark rows and audit
    /// artifacts can name the exact schedule that produced them.
    seed: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no injected faults (the healthy baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` for `node` at `round` (replacing any previous fault
    /// in that cell).
    pub fn with_fault(mut self, node: usize, round: usize, kind: FaultKind) -> Self {
        self.faults.insert((node, round), kind);
        self
    }

    /// Schedules a silent [`FaultKind::Crash`].
    pub fn crash(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Crash)
    }

    /// Schedules a lost upload ([`FaultKind::DropUpdate`]).
    pub fn drop_update(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::DropUpdate)
    }

    /// Schedules a straggler round ([`FaultKind::Delay`]).
    pub fn delay(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Delay)
    }

    /// Schedules a silent stall ([`FaultKind::Stall`]).
    pub fn stall(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Stall)
    }

    /// Schedules a fail-then-recover round ([`FaultKind::Transient`]).
    pub fn transient(self, node: usize, round: usize, failures: u32) -> Self {
        self.with_fault(node, round, FaultKind::Transient { failures })
    }

    /// The fault scheduled for `node` at `round`, if any.
    pub fn action(&self, node: usize, round: usize) -> Option<FaultKind> {
        self.faults.get(&(node, round)).copied()
    }

    /// The seed this plan was generated from, when it came from a seeded
    /// generator like [`FaultPlan::seeded_dropout`] — `None` for hand-built
    /// plans. Lets telemetry make fault-injected runs self-describing.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Iterates the schedule in `(node, round)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&(n, r), &k)| (n, r, k))
    }

    /// `true` if any scheduled fault is of `kind` (ignoring payloads for
    /// [`FaultKind::Transient`]).
    pub fn contains_kind(&self, kind: FaultKind) -> bool {
        self.faults.values().any(|&k| {
            std::mem::discriminant(&k) == std::mem::discriminant(&kind)
        })
    }

    /// A seeded independent-dropout schedule: each of `nodes × rounds`
    /// cells receives a [`FaultKind::DropUpdate`] with probability `rate`,
    /// decided by a splitmix64 stream — the same `(seed, nodes, rounds,
    /// rate)` always yields the same plan. `rate` is clamped to `[0, 1]`.
    ///
    /// This models the uniform per-round client dropout studied by the
    /// partial-participation FL literature; the dropout bench sweeps `rate`
    /// against accuracy and rounds-to-converge.
    pub fn seeded_dropout(seed: u64, nodes: usize, rounds: usize, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        // Map the top 53 bits to [0, 1), the standard uniform construction.
        let scale = 1.0 / (1u64 << 53) as f64;
        let mut state = seed ^ 0xD0_5E_ED;
        let mut plan = FaultPlan::new();
        for round in 1..=rounds {
            for node in 0..nodes {
                let u = (splitmix64(&mut state) >> 11) as f64 * scale;
                if u < rate {
                    plan.faults.insert((node, round), FaultKind::DropUpdate);
                }
            }
        }
        plan.seed = Some(seed);
        plan
    }
}

/// Minimum number of client updates a round must collect to aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quorum {
    /// Every client must report (the paper's full-participation protocol).
    All,
    /// At least this many updates (clamped to ≥ 1).
    AtLeast(usize),
    /// At least `⌈fraction · clients⌉` updates (clamped to `[1, clients]`).
    Fraction(f64),
}

impl Quorum {
    /// The number of updates required out of `clients` total.
    pub fn required(&self, clients: usize) -> usize {
        match *self {
            Quorum::All => clients,
            Quorum::AtLeast(q) => q.max(1),
            Quorum::Fraction(f) => {
                let need = (f.clamp(0.0, 1.0) * clients as f64).ceil();
                (need as usize).clamp(1, clients.max(1))
            }
        }
    }
}

impl Default for Quorum {
    fn default() -> Self {
        Quorum::All
    }
}

/// Bounded retry with deadline-extending backoff for transient client
/// failures.
///
/// When a client reports a transient failure, the server re-dispatches the
/// round to it up to `max_retries` times and extends the round deadline by
/// `backoff` per retry (the simulation's analogue of waiting out an
/// exponential backoff — the collection loop keeps serving other clients
/// instead of sleeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Maximum retry attempts per client per round (0 = fail fast).
    pub max_retries: u32,
    /// Deadline extension granted per retry.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A policy of `max_retries` immediate retries (zero backoff).
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        }
    }
}

/// The complete fault-tolerance configuration of a threaded run.
#[derive(Debug, Clone, Default)]
pub struct RoundPolicy {
    /// Per-round collection deadline, measured on the run's [`Clock`]
    /// from the round's first broadcast. `None` waits until every
    /// outstanding client is *accounted for* (update, fault notice, or
    /// detected death) — it never spins on a silent stall, which is why
    /// [`FaultKind::Stall`] plans require a deadline.
    ///
    /// [`Clock`]: crate::clock::Clock
    pub deadline: Option<Duration>,
    /// Minimum updates required to aggregate the round.
    pub quorum: Quorum,
    /// Retry policy for transient client failures.
    pub retry: RetryPolicy,
    /// Injected fault schedule (empty = healthy run).
    pub faults: FaultPlan,
}

impl RoundPolicy {
    /// The strict full-participation policy (no deadline, full quorum,
    /// no retries, no faults) — behaviourally identical to the sequential
    /// engine on a healthy system.
    pub fn strict() -> Self {
        RoundPolicy::default()
    }

    /// A lenient policy: aggregate whatever arrived as long as `quorum`
    /// clients reported, with `deadline` bounding the wait.
    pub fn with_quorum(quorum: Quorum, deadline: Option<Duration>) -> Self {
        RoundPolicy {
            deadline,
            quorum,
            ..RoundPolicy::default()
        }
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Per-round fault accounting reported by the resilient transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundFaultStats {
    /// Round number (1-based, absolute).
    pub round: usize,
    /// Updates actually aggregated this round.
    pub participants: usize,
    /// Clients that contributed nothing this round (crashed, dropped,
    /// delayed, stalled past the deadline, or exhausted their retries).
    pub clients_dropped: usize,
    /// Retry dispatches issued for transient failures.
    pub clients_retried: usize,
    /// Stale (wrong-round) updates discarded by the tag check.
    pub stale_discarded: usize,
    /// Whether the collection deadline expired with clients outstanding.
    pub deadline_expired: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_required_math() {
        assert_eq!(Quorum::All.required(5), 5);
        assert_eq!(Quorum::AtLeast(3).required(5), 3);
        assert_eq!(Quorum::AtLeast(0).required(5), 1);
        assert_eq!(Quorum::Fraction(0.5).required(5), 3); // ceil(2.5)
        assert_eq!(Quorum::Fraction(0.0).required(5), 1);
        assert_eq!(Quorum::Fraction(1.0).required(5), 5);
        assert_eq!(Quorum::Fraction(2.0).required(5), 5); // clamped
    }

    #[test]
    fn default_policy_is_strict_full_participation() {
        let p = RoundPolicy::default();
        assert_eq!(p.deadline, None);
        assert_eq!(p.quorum, Quorum::All);
        assert_eq!(p.retry.max_retries, 0);
        assert!(p.faults.is_empty());
    }

    #[test]
    fn builders_compose() {
        let p = RoundPolicy::with_quorum(Quorum::AtLeast(2), Some(Duration::from_secs(1)))
            .with_retry(RetryPolicy::retries(3))
            .with_faults(FaultPlan::new().crash(0, 1));
        assert_eq!(p.quorum, Quorum::AtLeast(2));
        assert_eq!(p.deadline, Some(Duration::from_secs(1)));
        assert_eq!(p.retry.max_retries, 3);
        assert_eq!(p.faults.len(), 1);
    }

    #[test]
    fn builder_schedules_and_queries() {
        let plan = FaultPlan::new()
            .crash(1, 2)
            .drop_update(0, 1)
            .delay(2, 2)
            .stall(3, 1)
            .transient(4, 5, 2);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.action(1, 2), Some(FaultKind::Crash));
        assert_eq!(plan.action(0, 1), Some(FaultKind::DropUpdate));
        assert_eq!(plan.action(2, 2), Some(FaultKind::Delay));
        assert_eq!(plan.action(3, 1), Some(FaultKind::Stall));
        assert_eq!(plan.action(4, 5), Some(FaultKind::Transient { failures: 2 }));
        assert_eq!(plan.action(4, 4), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn later_insert_replaces_earlier() {
        let plan = FaultPlan::new().crash(0, 1).delay(0, 1);
        assert_eq!(plan.action(0, 1), Some(FaultKind::Delay));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn contains_kind_ignores_payload() {
        let plan = FaultPlan::new().transient(0, 1, 3);
        assert!(plan.contains_kind(FaultKind::Transient { failures: 99 }));
        assert!(!plan.contains_kind(FaultKind::Stall));
    }

    #[test]
    fn seeded_dropout_is_deterministic() {
        // The exact schedule, pinned cell by cell: any change to the
        // splitmix64 stream or the cell walk order moves it.
        let cells: Vec<(usize, usize)> = FaultPlan::seeded_dropout(7, 10, 20, 0.3)
            .iter()
            .map(|(n, r, _)| (n, r))
            .collect();
        #[rustfmt::skip]
        let expected = [
            (0, 9), (0, 12), (0, 15), (0, 16), (0, 19),
            (1, 1), (1, 6), (1, 9), (1, 11), (1, 15),
            (2, 1), (2, 6), (2, 10), (2, 13), (2, 15), (2, 17), (2, 18), (2, 20),
            (3, 4), (3, 5), (3, 10), (3, 11), (3, 14), (3, 19), (3, 20),
            (4, 5), (4, 10), (4, 14), (4, 15),
            (5, 1), (5, 3), (5, 10), (5, 15), (5, 17), (5, 19),
            (6, 1), (6, 3), (6, 5), (6, 8), (6, 12), (6, 16), (6, 18), (6, 19),
            (7, 4), (7, 9), (7, 14), (7, 16), (7, 17), (7, 18), (7, 19), (7, 20),
            (8, 9), (8, 14), (8, 19),
            (9, 8), (9, 14), (9, 16), (9, 17),
        ];
        assert_eq!(cells, expected);
        let a = FaultPlan::seeded_dropout(7, 10, 20, 0.3);
        assert_eq!(a, FaultPlan::seeded_dropout(7, 10, 20, 0.3));
        let c = FaultPlan::seeded_dropout(8, 10, 20, 0.3);
        assert_ne!(a, c, "different seeds should differ at rate 0.3");
    }

    #[test]
    fn seeded_plans_carry_their_seed_and_built_plans_do_not() {
        assert_eq!(FaultPlan::seeded_dropout(7, 10, 20, 0.3).seed(), Some(7));
        assert_eq!(FaultPlan::new().crash(0, 1).seed(), None);
    }

    #[test]
    fn seeded_dropout_rate_extremes() {
        assert!(FaultPlan::seeded_dropout(1, 5, 5, 0.0).is_empty());
        let all = FaultPlan::seeded_dropout(1, 5, 5, 1.0);
        assert_eq!(all.len(), 25);
        assert!(all
            .iter()
            .all(|(_, _, k)| k == FaultKind::DropUpdate));
    }

    #[test]
    fn seeded_dropout_rate_is_approximately_respected() {
        let plan = FaultPlan::seeded_dropout(42, 50, 100, 0.2);
        let frac = plan.len() as f64 / 5000.0;
        assert!((frac - 0.2).abs() < 0.03, "empirical rate {frac}");
    }

    #[test]
    fn iter_is_sorted_by_node_then_round() {
        let plan = FaultPlan::new().crash(2, 1).crash(0, 5).crash(0, 2);
        let cells: Vec<(usize, usize)> = plan.iter().map(|(n, r, _)| (n, r)).collect();
        assert_eq!(cells, vec![(0, 2), (0, 5), (2, 1)]);
    }
}
