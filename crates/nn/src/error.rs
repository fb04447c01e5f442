use dinar_tensor::wire::WireError;
use dinar_tensor::TensorError;
use std::fmt;

/// Error type for network construction, forward/backward passes and
/// optimization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// `backward` was called before `forward` (no cached activations).
    BackwardBeforeForward {
        /// Layer that was asked to run backward.
        layer: &'static str,
    },
    /// A model or layer was configured inconsistently.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// Label vector length does not match the batch size.
    LabelMismatch {
        /// Number of rows in the logits.
        batch: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// A label value was out of range for the number of classes.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// A layer index did not refer to a trainable layer of the model.
    NoSuchLayer {
        /// The offending index.
        index: usize,
        /// Number of trainable layers in the model.
        trainable: usize,
    },
    /// Parameter structures being combined have different architectures.
    ParamShapeMismatch {
        /// Human-readable description.
        reason: String,
    },
    /// A wire-format encode/decode of a parameter snapshot failed.
    Wire(WireError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "backward called before forward on layer `{layer}`")
            }
            NnError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            NnError::LabelMismatch { batch, labels } => {
                write!(
                    f,
                    "batch has {batch} rows but {labels} labels were provided"
                )
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::NoSuchLayer { index, trainable } => {
                write!(
                    f,
                    "layer index {index} invalid: model has {trainable} trainable layers"
                )
            }
            NnError::ParamShapeMismatch { reason } => {
                write!(f, "parameter shape mismatch: {reason}")
            }
            NnError::Wire(e) => write!(f, "wire codec error: {e}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<WireError> for NnError {
    fn from(e: WireError) -> Self {
        NnError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_error_converts_and_chains() {
        let te = TensorError::Empty { op: "max" };
        let ne: NnError = te.clone().into();
        assert!(ne.to_string().contains("max"));
        assert!(std::error::Error::source(&ne).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
