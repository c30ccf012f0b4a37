use std::fmt;

use edvit_tensor::TensorError;

/// Error type for neural-network layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch, bad axis, ...).
    Tensor(TensorError),
    /// `backward` found no record to take: no `forward_train` since the last
    /// `backward` (a plain `forward` records nothing).
    MissingForwardCache {
        /// Name of the layer whose record was missing.
        layer: &'static str,
    },
    /// The layer was constructed or called with an invalid configuration.
    InvalidConfig {
        /// Human-readable description of the problem.
        message: String,
    },
    /// Labels passed to a loss do not match the batch dimension.
    LabelMismatch {
        /// Number of rows in the logits batch.
        batch: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label index is outside the number of classes.
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::MissingForwardCache { layer } => {
                write!(f, "no forward_train record for backward on layer {layer}")
            }
            NnError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            NnError::LabelMismatch { batch, labels } => {
                write!(f, "label count {labels} does not match batch size {batch}")
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = NnError::MissingForwardCache { layer: "linear" };
        assert!(e.to_string().contains("linear"));
        let e = NnError::LabelMismatch {
            batch: 4,
            labels: 3,
        };
        assert!(e.to_string().contains("4"));
        let e = NnError::LabelOutOfRange {
            label: 9,
            classes: 5,
        };
        assert!(e.to_string().contains("9"));
        let e = NnError::InvalidConfig {
            message: "x".into(),
        };
        assert!(e.to_string().contains("x"));
    }

    #[test]
    fn from_tensor_error_preserves_source() {
        let te = TensorError::EmptyInput { op: "softmax" };
        let ne: NnError = te.clone().into();
        assert_eq!(ne, NnError::Tensor(te));
        assert!(std::error::Error::source(&ne).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<NnError>();
    }
}
