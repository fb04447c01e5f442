//! Pooled message-passing simulation of the broadcast vote.
//!
//! The round runs as a deterministic two-phase fan-out on the shared
//! [`dinar_tensor::par`] pool instead of one raw thread per node:
//!
//! 1. **Broadcast** — every node computes its outbox in parallel. Byzantine
//!    RNG draws happen inside the node's own task in ascending-peer order,
//!    so the emitted values match the historical per-thread behaviour.
//! 2. **Deliver + decide** — each honest node receives its inbox sorted by
//!    sender id and decides with [`vote::decide`], which is order-independent
//!    over the vote multiset anyway.
//!
//! The phases are barriers: every message is "sent" before any is delivered,
//! which models a synchronous round (the old channel version approximated
//! the same thing with a generous timeout). The outcome is bit-identical for
//! any `DINAR_THREADS` setting because each node's messages and decision
//! depend only on the config, never on scheduling.

use crate::{vote, ConsensusError, Result};
use dinar_telemetry::Telemetry;
use dinar_tensor::par;
use dinar_tensor::rng::splitmix64;

/// A vote message broadcast between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteMsg {
    /// Sender node id.
    pub from: usize,
    /// Proposed value (layer index).
    pub value: usize,
}

/// Adversarial strategies for Byzantine nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineStrategy {
    /// Broadcast a uniformly random (but consistent) value.
    Random,
    /// Broadcast a fixed chosen value (targeted manipulation).
    Fixed(usize),
    /// Send a *different* random value to every peer (equivocation).
    Equivocate,
    /// Send nothing at all (crash/omission fault).
    Silent,
}

/// The behaviour of one node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeBehavior {
    /// Follows the protocol, proposing `proposal`.
    Honest {
        /// The value this node measured and proposes.
        proposal: usize,
    },
    /// Deviates from the protocol.
    Byzantine(ByzantineStrategy),
}

impl NodeBehavior {
    /// Shorthand for a random-lying Byzantine node.
    pub fn byzantine_random() -> Self {
        NodeBehavior::Byzantine(ByzantineStrategy::Random)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of vote alternatives (model layers).
    pub num_choices: usize,
    /// RNG seed for Byzantine behaviour.
    pub seed: u64,
}

/// The result of a simulated vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteOutcome {
    /// Per-node decision (`None` for Byzantine nodes, which do not decide).
    pub decisions: Vec<Option<usize>>,
    honest: Vec<bool>,
}

impl VoteOutcome {
    /// The value unanimously decided by all honest nodes, or `None` if the
    /// honest nodes disagree (possible only when honest proposals were split).
    pub fn agreed_value(&self) -> Option<usize> {
        let mut agreed = None;
        for (d, &h) in self.decisions.iter().zip(&self.honest) {
            if !h {
                continue;
            }
            match (agreed, d) {
                (None, Some(v)) => agreed = Some(*v),
                (Some(a), Some(v)) if a == *v => {}
                _ => return None,
            }
        }
        agreed
    }

    /// Decisions of honest nodes only.
    pub fn honest_decisions(&self) -> Vec<usize> {
        self.decisions
            .iter()
            .zip(&self.honest)
            .filter(|(_, &h)| h)
            .filter_map(|(d, _)| *d)
            .collect()
    }
}

/// Computes node `i`'s outgoing messages: `(destination, message)` pairs in
/// ascending-destination order. Byzantine RNG draws happen here, in the same
/// per-node stream and peer order as the original threaded simulation.
fn outbox(i: usize, behavior: NodeBehavior, n: usize, config: &SimConfig) -> Vec<(usize, VoteMsg)> {
    let peers = (0..n).filter(|&j| j != i);
    let mut rng_state = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
    match behavior {
        NodeBehavior::Honest { proposal } => peers
            .map(|j| {
                (
                    j,
                    VoteMsg {
                        from: i,
                        value: proposal,
                    },
                )
            })
            .collect(),
        NodeBehavior::Byzantine(strategy) => match strategy {
            ByzantineStrategy::Silent => Vec::new(),
            ByzantineStrategy::Fixed(v) => peers
                .map(|j| {
                    (
                        j,
                        VoteMsg {
                            from: i,
                            value: v % config.num_choices,
                        },
                    )
                })
                .collect(),
            ByzantineStrategy::Random => {
                let v = (splitmix64(&mut rng_state) % config.num_choices as u64) as usize;
                peers.map(|j| (j, VoteMsg { from: i, value: v })).collect()
            }
            ByzantineStrategy::Equivocate => peers
                .map(|j| {
                    let v = (splitmix64(&mut rng_state) % config.num_choices as u64) as usize;
                    (j, VoteMsg { from: i, value: v })
                })
                .collect(),
        },
    }
}

/// Runs the broadcast vote as a two-phase fan-out on the shared pool.
///
/// Honest nodes broadcast their proposal to every peer; after the broadcast
/// barrier each honest node decides with [`vote::decide`] over the received
/// votes plus its own. Byzantine nodes behave per their
/// [`ByzantineStrategy`] and report no decision. The result is identical at
/// every `DINAR_THREADS` width.
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidConfig`] for zero nodes/choices or an
/// out-of-range honest proposal.
pub fn simulate_vote(behaviors: &[NodeBehavior], config: &SimConfig) -> Result<VoteOutcome> {
    simulate_vote_with_telemetry(behaviors, config, &Telemetry::disabled())
}

/// [`simulate_vote`] under an attached telemetry sink: the round emits a
/// `consensus.vote` span with `broadcast`/`deliver`/`decide` children (the
/// fan-outs are pool barriers, so the phase spans nest correctly on the
/// calling thread) plus the deterministic `consensus.vote.*` counters —
/// nodes, messages sent, honest decisions reached.
///
/// # Errors
///
/// Same conditions as [`simulate_vote`].
pub fn simulate_vote_with_telemetry(
    behaviors: &[NodeBehavior],
    config: &SimConfig,
    telemetry: &Telemetry,
) -> Result<VoteOutcome> {
    let n = behaviors.len();
    if n == 0 {
        return Err(ConsensusError::InvalidConfig {
            reason: "no nodes".into(),
        });
    }
    if config.num_choices == 0 {
        return Err(ConsensusError::InvalidConfig {
            reason: "num_choices must be positive".into(),
        });
    }
    for (i, b) in behaviors.iter().enumerate() {
        if let NodeBehavior::Honest { proposal } = b {
            if *proposal >= config.num_choices {
                return Err(ConsensusError::InvalidConfig {
                    reason: format!(
                        "node {i} proposes {proposal}, out of range for {} choices",
                        config.num_choices
                    ),
                });
            }
        }
    }

    let _round_span = telemetry.span("consensus.vote");

    // Phase 1: every node computes its outbox in parallel.
    let mut senders: Vec<(usize, NodeBehavior)> = behaviors.iter().copied().enumerate().collect();
    let outboxes: Vec<Vec<(usize, VoteMsg)>> = {
        let _span = telemetry.span("broadcast");
        par::map_items_mut(&mut senders, |_, &mut (i, behavior)| {
            outbox(i, behavior, n, config)
        })
    };
    let messages: usize = outboxes.iter().map(Vec::len).sum();

    // Barrier: deliver every message into per-node inboxes. Senders are
    // walked in ascending id order, so each inbox is sorted by sender.
    let mut inboxes: Vec<Vec<VoteMsg>> = vec![Vec::new(); n];
    {
        let _span = telemetry.span("deliver");
        for msgs in &outboxes {
            for &(dest, msg) in msgs {
                inboxes[dest].push(msg);
            }
        }
    }

    // Phase 2: every honest node decides in parallel from its inbox.
    let mut receivers: Vec<(NodeBehavior, Vec<VoteMsg>)> =
        behaviors.iter().copied().zip(inboxes).collect();
    let decisions: Vec<Option<usize>> = {
        let _span = telemetry.span("decide");
        par::map_items_mut(&mut receivers, |_, (behavior, inbox)| match behavior {
            NodeBehavior::Honest { proposal } => {
                let mut votes = vec![*proposal]; // own vote
                votes.extend(inbox.iter().map(|m| m.value.min(config.num_choices - 1)));
                vote::decide(&votes, config.num_choices).ok()
            }
            NodeBehavior::Byzantine(_) => None,
        })
    };

    // All inputs to these counters are pure functions of (behaviors,
    // config), so the metrics replay bit-identically at every pool width.
    telemetry.counter_add("consensus.vote.rounds", 1);
    telemetry.counter_add("consensus.vote.nodes", n as u64);
    telemetry.counter_add("consensus.vote.messages", messages as u64);
    telemetry.counter_add(
        "consensus.vote.decided",
        decisions.iter().flatten().count() as u64,
    );

    Ok(VoteOutcome {
        decisions,
        honest: behaviors
            .iter()
            .map(|b| matches!(b, NodeBehavior::Honest { .. }))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest(n: usize, proposal: usize) -> Vec<NodeBehavior> {
        vec![NodeBehavior::Honest { proposal }; n]
    }

    #[test]
    fn unanimous_honest_agree() {
        let outcome = simulate_vote(
            &honest(5, 3),
            &SimConfig {
                num_choices: 6,
                seed: 0,
            },
        )
        .unwrap();
        assert_eq!(outcome.agreed_value(), Some(3));
        assert_eq!(outcome.honest_decisions(), vec![3; 5]);
    }

    #[test]
    fn tolerates_minority_byzantine_of_every_strategy() {
        for strategy in [
            ByzantineStrategy::Random,
            ByzantineStrategy::Fixed(0),
            ByzantineStrategy::Equivocate,
            ByzantineStrategy::Silent,
        ] {
            let mut behaviors = honest(4, 4);
            behaviors.push(NodeBehavior::Byzantine(strategy));
            behaviors.push(NodeBehavior::Byzantine(strategy));
            let outcome = simulate_vote(
                &behaviors,
                &SimConfig {
                    num_choices: 6,
                    seed: 42,
                },
            )
            .unwrap();
            assert_eq!(
                outcome.agreed_value(),
                Some(4),
                "strategy {strategy:?} broke agreement"
            );
        }
    }

    #[test]
    fn split_honest_proposals_still_decide() {
        // 3 propose layer 4, 2 propose layer 3: plurality fallback on 4.
        let mut behaviors = honest(3, 4);
        behaviors.extend(honest(2, 3));
        let outcome = simulate_vote(
            &behaviors,
            &SimConfig {
                num_choices: 6,
                seed: 1,
            },
        )
        .unwrap();
        // All honest nodes see the same 5 votes -> same decision.
        assert_eq!(outcome.agreed_value(), Some(4));
    }

    #[test]
    fn single_node_decides_alone() {
        let outcome = simulate_vote(
            &honest(1, 2),
            &SimConfig {
                num_choices: 3,
                seed: 0,
            },
        )
        .unwrap();
        assert_eq!(outcome.agreed_value(), Some(2));
    }

    #[test]
    fn config_validation() {
        assert!(simulate_vote(
            &[],
            &SimConfig {
                num_choices: 3,
                seed: 0
            }
        )
        .is_err());
        assert!(simulate_vote(
            &honest(2, 5),
            &SimConfig {
                num_choices: 3,
                seed: 0
            }
        )
        .is_err());
        assert!(simulate_vote(
            &honest(2, 0),
            &SimConfig {
                num_choices: 0,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn byzantine_nodes_report_no_decision() {
        let mut behaviors = honest(3, 1);
        behaviors.push(NodeBehavior::byzantine_random());
        let outcome = simulate_vote(
            &behaviors,
            &SimConfig {
                num_choices: 4,
                seed: 9,
            },
        )
        .unwrap();
        assert_eq!(outcome.decisions[3], None);
        assert!(outcome.decisions[..3].iter().all(Option::is_some));
    }

    #[test]
    fn instrumented_vote_emits_spans_and_counters() {
        use dinar_telemetry::{ManualClock, Telemetry};
        use std::sync::Arc;
        let telemetry = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let mut behaviors = honest(4, 1);
        behaviors.push(NodeBehavior::Byzantine(ByzantineStrategy::Silent));
        let outcome = simulate_vote_with_telemetry(
            &behaviors,
            &SimConfig {
                num_choices: 3,
                seed: 5,
            },
            &telemetry,
        )
        .unwrap();
        assert_eq!(outcome.agreed_value(), Some(1));
        let paths: Vec<String> = telemetry.spans().iter().map(|s| s.path.clone()).collect();
        for expect in [
            "consensus.vote",
            "consensus.vote/broadcast",
            "consensus.vote/deliver",
            "consensus.vote/decide",
        ] {
            assert!(paths.iter().any(|p| p == expect), "missing span {expect}");
        }
        assert_eq!(telemetry.counter_value("consensus.vote.rounds"), 1);
        assert_eq!(telemetry.counter_value("consensus.vote.nodes"), 5);
        // 4 honest senders × 4 peers; the silent node sends nothing.
        assert_eq!(telemetry.counter_value("consensus.vote.messages"), 16);
        assert_eq!(telemetry.counter_value("consensus.vote.decided"), 4);
    }

    #[test]
    fn outcome_is_identical_at_every_pool_width() {
        let mut behaviors = honest(5, 2);
        behaviors.push(NodeBehavior::Byzantine(ByzantineStrategy::Equivocate));
        behaviors.push(NodeBehavior::Byzantine(ByzantineStrategy::Random));
        let config = SimConfig {
            num_choices: 4,
            seed: 7,
        };
        let mut outcomes = Vec::new();
        for width in [1usize, 2, 4] {
            par::set_threads(width);
            outcomes.push(simulate_vote(&behaviors, &config).unwrap());
            par::reset_threads();
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }
}
