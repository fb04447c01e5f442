//! # dinar-consensus
//!
//! The distributed voting substrate of DINAR's initialization phase (§4.1).
//!
//! Before federated training starts, every client measures which of its model
//! layers leaks the most membership information and proposes that layer's
//! index. The clients then agree on a single index via **broadcast
//! distributed multi-choice voting** (DMVR, Salehkaleybar et al.), tolerant
//! of Byzantine participants: each client broadcasts its proposal to all
//! others, tallies the received proposals, and decides the value with the
//! absolute majority.
//!
//! Two implementations are provided:
//!
//! * [`vote`] — the pure decision rule (tally + absolute majority), used for
//!   reasoning and property tests;
//! * [`network`] — a message-passing simulation of one synchronous round:
//!   every node's outbox is computed as a task on the shared worker pool,
//!   delivered at a barrier, and decided from its inbox, while Byzantine
//!   nodes lie, equivocate (tell different peers different values), or stay
//!   silent. The outcome is identical at every pool width.
//!
//! **Agreement guarantee.** If every honest node proposes the same value `v`
//! and honest nodes form a strict majority, every honest node decides `v`
//! regardless of Byzantine behaviour — each node receives at least
//! `⌈(n+1)/2⌉` votes for `v`, which no other value can reach. This matches
//! the paper's setting, where honest clients' sensitivity analyses converge
//! on the same (penultimate) layer.
//!
//! # Example
//!
//! ```
//! use dinar_consensus::network::{simulate_vote, NodeBehavior, SimConfig};
//!
//! // 5 clients: 4 honest proposing layer 4, 1 Byzantine lying at random.
//! let behaviors = vec![
//!     NodeBehavior::Honest { proposal: 4 },
//!     NodeBehavior::Honest { proposal: 4 },
//!     NodeBehavior::Honest { proposal: 4 },
//!     NodeBehavior::Honest { proposal: 4 },
//!     NodeBehavior::byzantine_random(),
//! ];
//! let outcome = simulate_vote(&behaviors, &SimConfig { num_choices: 6, seed: 7 })?;
//! assert_eq!(outcome.agreed_value(), Some(4));
//! # Ok::<(), dinar_consensus::ConsensusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod network;
pub mod vote;

pub use error::ConsensusError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ConsensusError>;
