use crate::NumericAnomaly;
use hadas_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced by the micro NN framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NnError {
    /// A tensor primitive failed (shape mismatch, bad geometry, ...).
    Tensor(TensorError),
    /// `backward` was called before `forward` on a layer that caches
    /// activations, or a second time without an intervening forward pass.
    BackwardBeforeForward {
        /// Name of the offending layer.
        layer: &'static str,
    },
    /// A loss function received labels inconsistent with the logits batch.
    LabelMismatch {
        /// Number of rows in the logits.
        batch: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label index was outside the classifier's class range.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// A training guard tripped on a numeric anomaly (non-finite loss or
    /// gradient, or a loss spike) and the rollback budget is exhausted.
    Numeric(NumericAnomaly),
    /// A training checkpoint could not be written, read, or applied.
    Checkpoint(String),
    /// A guarded run was given a learning rate that is not finite and
    /// positive.
    InvalidLearningRate {
        /// The refused learning rate.
        lr: f32,
    },
    /// A guarded run's epoch holds no full batch, so no step would run.
    EmptyEpoch,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "backward called before forward on layer {layer}")
            }
            NnError::LabelMismatch { batch, labels } => {
                write!(f, "batch of {batch} logits given {labels} labels")
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::Numeric(a) => write!(f, "numeric anomaly during training: {a}"),
            NnError::Checkpoint(msg) => write!(f, "train checkpoint failed: {msg}"),
            NnError::InvalidLearningRate { lr } => {
                write!(f, "learning rate {lr} is not a finite positive number")
            }
            NnError::EmptyEpoch => write!(f, "an epoch holds no full batch, so no step would run"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Numeric(a) => Some(a),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<NumericAnomaly> for NnError {
    fn from(a: NumericAnomaly) -> Self {
        NnError::Numeric(a)
    }
}

impl From<crate::seal::SealError> for NnError {
    fn from(e: crate::seal::SealError) -> Self {
        NnError::Checkpoint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tensor_error_with_source() {
        let e = NnError::from(TensorError::RankMismatch { expected: 2, got: 3 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("rank"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
