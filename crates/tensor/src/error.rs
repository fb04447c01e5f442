use std::fmt;

/// Error type returned by fallible tensor operations.
///
/// All variants carry enough context (the offending shapes or indices) to
/// diagnose the failure without a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the length of
    /// the provided data buffer.
    ShapeDataMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Length of the provided buffer.
        data_len: usize,
    },
    /// Two tensors involved in a binary operation have incompatible shapes.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A matrix operation was attempted on a tensor whose rank is not 2.
    NotAMatrix {
        /// Actual shape of the tensor.
        shape: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// Shape of the tensor.
        shape: Vec<usize>,
    },
    /// A reshape was requested to a shape with a different element count.
    InvalidReshape {
        /// Current shape.
        from: Vec<usize>,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// An axis argument exceeded the tensor's rank.
    InvalidAxis {
        /// The offending axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// A convolution configuration was invalid (e.g. kernel larger than the
    /// padded input).
    InvalidConv {
        /// Human-readable description of the invalid configuration.
        reason: String,
    },
    /// An operation requiring a non-empty tensor received an empty one.
    Empty {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A checked numeric conversion would have truncated or wrapped.
    InvalidCast {
        /// The offending value (widened to `f64`).
        value: f64,
        /// Name of the conversion target type.
        target: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { shape, data_len } => write!(
                f,
                "shape {shape:?} implies {} elements but buffer holds {data_len}",
                shape.iter().product::<usize>()
            ),
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in `{op}`: {lhs:?} vs {rhs:?}")
            }
            TensorError::NotAMatrix { shape, op } => {
                write!(f, "`{op}` requires a rank-2 tensor, got shape {shape:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(
                    f,
                    "cannot reshape {from:?} into {to:?}: element counts differ"
                )
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} invalid for tensor of rank {rank}")
            }
            TensorError::InvalidConv { reason } => {
                write!(f, "invalid convolution configuration: {reason}")
            }
            TensorError::Empty { op } => write!(f, "`{op}` requires a non-empty tensor"),
            TensorError::InvalidCast { value, target } => {
                write!(f, "cannot convert {value} to {target} without loss")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
            op: "add",
        };
        let msg = err.to_string();
        assert!(msg.contains("add"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.contains("[4, 5]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn shape_data_mismatch_reports_product() {
        let err = TensorError::ShapeDataMismatch {
            shape: vec![2, 3],
            data_len: 5,
        };
        assert!(err.to_string().contains('6'));
        assert!(err.to_string().contains('5'));
    }
}
