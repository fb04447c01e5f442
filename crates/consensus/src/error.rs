use std::fmt;

/// Error type for the voting protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConsensusError {
    /// The vote was configured inconsistently (no nodes, no choices, or a
    /// proposal outside the choice range).
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusError::InvalidConfig { reason } => {
                write!(f, "invalid vote configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ConsensusError {}

#[cfg(test)]
mod tests {
    use crate::network::{simulate_vote, NodeBehavior, SimConfig};

    #[test]
    fn display_mentions_node() {
        let behaviors = [
            NodeBehavior::Honest { proposal: 0 },
            NodeBehavior::Honest { proposal: 3 },
        ];
        let config = SimConfig {
            num_choices: 3,
            seed: 0,
        };
        let err = simulate_vote(&behaviors, &config).unwrap_err();
        assert!(err.to_string().contains("node 1 proposes 3"), "{err}");
    }
}
