//! The pure DMVR decision rule: tally received votes and decide.

use crate::{ConsensusError, Result};

/// Tallies votes over `num_choices` alternatives.
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidConfig`] if `num_choices` is zero or any
/// vote is out of range.
pub fn tally(votes: &[usize], num_choices: usize) -> Result<Vec<usize>> {
    if num_choices == 0 {
        return Err(ConsensusError::InvalidConfig {
            reason: "num_choices must be positive".into(),
        });
    }
    let mut counts = vec![0usize; num_choices];
    for &v in votes {
        if v >= num_choices {
            return Err(ConsensusError::InvalidConfig {
                reason: format!("vote {v} out of range for {num_choices} choices"),
            });
        }
        counts[v] += 1;
    }
    Ok(counts)
}

/// The DMVR decision: the value holding an **absolute majority** of the
/// votes (strictly more than half), or `None` if no value does.
///
/// # Errors
///
/// Same conditions as [`tally`].
pub fn absolute_majority(votes: &[usize], num_choices: usize) -> Result<Option<usize>> {
    let counts = tally(votes, num_choices)?;
    let threshold = votes.len() / 2; // strictly more than half
    Ok(counts
        .iter()
        .enumerate()
        .find(|(_, &c)| c > threshold)
        .map(|(i, _)| i))
}

/// The full decision rule used by each node: absolute majority if one
/// exists, otherwise the deterministic fallback of the lowest index among
/// the plurality winners (so that nodes observing identical tallies always
/// agree).
///
/// # Errors
///
/// Returns [`ConsensusError::InvalidConfig`] for an empty vote set or the
/// [`tally`] conditions.
pub fn decide(votes: &[usize], num_choices: usize) -> Result<usize> {
    if votes.is_empty() {
        return Err(ConsensusError::InvalidConfig {
            reason: "cannot decide from zero votes".into(),
        });
    }
    if let Some(winner) = absolute_majority(votes, num_choices)? {
        return Ok(winner);
    }
    // `tally` rejected `num_choices == 0`, so index 0 exists; the strict `>`
    // keeps the lowest index among tied plurality winners.
    let counts = tally(votes, num_choices)?;
    Ok((1..counts.len()).fold(0, |best, i| if counts[i] > counts[best] { i } else { best }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts() {
        assert_eq!(tally(&[0, 1, 1, 2, 1], 3).unwrap(), vec![1, 3, 1]);
    }

    #[test]
    fn tally_rejects_out_of_range() {
        assert!(tally(&[3], 3).is_err());
        assert!(tally(&[], 0).is_err());
    }

    #[test]
    fn absolute_majority_requires_strict_half() {
        // 2 of 4 is not an absolute majority.
        assert_eq!(absolute_majority(&[1, 1, 2, 0], 3).unwrap(), None);
        // 3 of 4 is.
        assert_eq!(absolute_majority(&[1, 1, 1, 0], 3).unwrap(), Some(1));
        // 2 of 3 is.
        assert_eq!(absolute_majority(&[2, 2, 0], 3).unwrap(), Some(2));
    }

    #[test]
    fn decide_uses_majority_then_fallback() {
        assert_eq!(decide(&[4, 4, 4, 1, 2], 6).unwrap(), 4);
        // No majority: plurality tie between 1 and 2 -> lowest index wins.
        assert_eq!(decide(&[1, 1, 2, 2, 0], 3).unwrap(), 1);
    }

    #[test]
    fn decide_rejects_empty() {
        assert!(decide(&[], 3).is_err());
    }
}
