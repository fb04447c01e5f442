//! Property tests of the voting protocol — agreement, validity and
//! Byzantine tolerance across arbitrary configurations — driven by the
//! workspace's own seeded RNG instead of `proptest` so the whole suite is
//! deterministic and dependency-free.

use dinar_consensus::network::{simulate_vote, ByzantineStrategy, NodeBehavior, SimConfig};
use dinar_consensus::vote;
use dinar_tensor::Rng;

const CASES: u64 = 24;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xD1AA_3000 + property * 10_007 + case)
}

/// Random vote multiset: `len` votes over `choices` values.
fn random_votes(rng: &mut Rng, len: usize, choices: usize) -> Vec<usize> {
    (0..len).map(|_| rng.below(choices)).collect()
}

/// Broadcast vote: when all honest nodes propose the same value and
/// Byzantine nodes are a strict minority, every honest node decides the
/// honest value — for every adversarial strategy.
#[test]
fn broadcast_agreement_under_byzantine_minority() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let honest = 2 + rng.below(5);
        let byzantine = rng.below(honest.min(3)); // strict minority
        let value = rng.below(5);
        let strategy = [
            ByzantineStrategy::Random,
            ByzantineStrategy::Fixed(0),
            ByzantineStrategy::Equivocate,
            ByzantineStrategy::Silent,
        ][rng.below(4)];
        let seed = rng.next_u64() % 500;
        let mut behaviors = vec![NodeBehavior::Honest { proposal: value }; honest];
        behaviors.extend(vec![NodeBehavior::Byzantine(strategy); byzantine]);
        let outcome = simulate_vote(
            &behaviors,
            &SimConfig {
                num_choices: 5,
                seed,
            },
        )
        .unwrap();
        assert_eq!(outcome.agreed_value(), Some(value), "case {case}");
    }
}

/// The pure decision rule is *valid*: it only ever returns a value that
/// was actually voted for.
#[test]
fn decide_validity() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let len = 1 + rng.below(24);
        let votes = random_votes(&mut rng, len, 7);
        let decided = vote::decide(&votes, 7).unwrap();
        assert!(votes.contains(&decided), "case {case}");
    }
}

/// Absolute majority, when it exists, is unique and decided.
#[test]
fn absolute_majority_uniqueness() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let len = 1 + rng.below(29);
        let votes = random_votes(&mut rng, len, 4);
        if let Some(winner) = vote::absolute_majority(&votes, 4).unwrap() {
            let count = votes.iter().filter(|&&v| v == winner).count();
            assert!(count * 2 > votes.len(), "case {case}");
            assert_eq!(vote::decide(&votes, 4).unwrap(), winner, "case {case}");
        }
    }
}
