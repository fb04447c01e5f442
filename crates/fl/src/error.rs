use dinar_data::DataError;
use dinar_nn::NnError;
use dinar_tensor::wire::WireError;
use dinar_tensor::TensorError;
use std::fmt;

/// Error type for the federated learning engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlError {
    /// A neural-network operation failed.
    Nn(NnError),
    /// A dataset operation failed.
    Data(DataError),
    /// A tensor operation failed.
    Tensor(TensorError),
    /// The system was configured inconsistently.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// Aggregation was attempted with no client updates.
    NoUpdates,
    /// A client failed during a round: its thread died, it reported a
    /// training error, or so many clients dropped out that the round fell
    /// below its quorum. `client` names the (first) failed client.
    ClientFailure {
        /// Id of the failed client.
        client: usize,
        /// Round (1-based, absolute) in which the failure surfaced.
        round: usize,
        /// Human-readable description of the failure.
        cause: String,
    },
    /// A middleware reported a failure.
    Middleware {
        /// Middleware name.
        name: &'static str,
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::Nn(e) => write!(f, "network error: {e}"),
            FlError::Data(e) => write!(f, "data error: {e}"),
            FlError::Tensor(e) => write!(f, "tensor error: {e}"),
            FlError::InvalidConfig { reason } => write!(f, "invalid FL configuration: {reason}"),
            FlError::NoUpdates => write!(f, "aggregation requires at least one client update"),
            FlError::ClientFailure {
                client,
                round,
                cause,
            } => {
                write!(f, "client {client} failed in round {round}: {cause}")
            }
            FlError::Middleware { name, reason } => {
                write!(f, "middleware `{name}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Nn(e) => Some(e),
            FlError::Data(e) => Some(e),
            FlError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for FlError {
    fn from(e: NnError) -> Self {
        FlError::Nn(e)
    }
}

/// A byte-codec failure is the model plane's, as the decoders report it.
impl From<WireError> for FlError {
    fn from(e: WireError) -> Self {
        FlError::Nn(NnError::Wire(e))
    }
}

impl From<DataError> for FlError {
    fn from(e: DataError) -> Self {
        FlError::Data(e)
    }
}

impl From<TensorError> for FlError {
    fn from(e: TensorError) -> Self {
        FlError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_failure_names_client_round_and_cause() {
        let e = FlError::ClientFailure {
            client: 3,
            round: 7,
            cause: "thread died".into(),
        };
        let s = e.to_string();
        assert!(s.contains("client 3"), "{s}");
        assert!(s.contains("round 7"), "{s}");
        assert!(s.contains("thread died"), "{s}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn conversions_and_sources() {
        let e: FlError = NnError::BackwardBeforeForward { layer: "dense" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: FlError = DataError::InvalidSplit { reason: "x".into() }.into();
        assert!(e.to_string().contains("data error"));
    }
}
