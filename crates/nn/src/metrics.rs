//! Evaluation metrics of the training loops.

use crate::NnError;
use hadas_tensor::Tensor;

/// Top-1 accuracy of `(batch × classes)` logits against integer labels.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] if the label count differs from the
/// batch size.
///
/// ```
/// use hadas_nn::accuracy;
/// use hadas_tensor::Tensor;
/// # fn main() -> Result<(), hadas_nn::NnError> {
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2])?;
/// assert_eq!(accuracy(&logits, &[0, 1])?, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.len() {
        return Err(NnError::LabelMismatch { batch: preds.len(), labels: labels.len() });
    }
    if preds.is_empty() {
        return Ok(0.0);
    }
    let correct = preds.iter().zip(labels.iter()).filter(|(p, l)| p == l).count();
    Ok(correct as f32 / labels.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]).unwrap();
        let acc = accuracy(&logits, &[0, 1, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_checks_label_count() {
        let logits = Tensor::zeros(&[2, 2]);
        assert!(accuracy(&logits, &[0]).is_err());
    }
}
