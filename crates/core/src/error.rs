use dinar_consensus::ConsensusError;
use dinar_data::DataError;
use dinar_fl::FlError;
use dinar_nn::NnError;
use std::fmt;

/// Error type for the DINAR middleware.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DinarError {
    /// A network operation failed.
    Nn(NnError),
    /// A dataset operation failed.
    Data(DataError),
    /// The FL engine reported a failure.
    Fl(FlError),
    /// The layer-vote consensus failed.
    Consensus(ConsensusError),
    /// DINAR was configured inconsistently.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The consensus produced no agreed layer (honest nodes split).
    NoAgreement,
}

impl fmt::Display for DinarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DinarError::Nn(e) => write!(f, "network error: {e}"),
            DinarError::Data(e) => write!(f, "data error: {e}"),
            DinarError::Fl(e) => write!(f, "fl error: {e}"),
            DinarError::Consensus(e) => write!(f, "consensus error: {e}"),
            DinarError::InvalidConfig { reason } => {
                write!(f, "invalid DINAR configuration: {reason}")
            }
            DinarError::NoAgreement => write!(f, "clients failed to agree on a layer index"),
        }
    }
}

impl std::error::Error for DinarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DinarError::Nn(e) => Some(e),
            DinarError::Data(e) => Some(e),
            DinarError::Fl(e) => Some(e),
            DinarError::Consensus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DinarError {
    fn from(e: NnError) -> Self {
        DinarError::Nn(e)
    }
}

impl From<DataError> for DinarError {
    fn from(e: DataError) -> Self {
        DinarError::Data(e)
    }
}

impl From<FlError> for DinarError {
    fn from(e: FlError) -> Self {
        DinarError::Fl(e)
    }
}

impl From<ConsensusError> for DinarError {
    fn from(e: ConsensusError) -> Self {
        DinarError::Consensus(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_chain_sources() {
        let e: DinarError = ConsensusError::InvalidConfig {
            reason: "no nodes".into(),
        }
        .into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("consensus"));
    }
}
