//! Model evaluation metrics.

use ctfl_core::error::{CoreError, Result};

/// Binary F1 score of predictions against labels (positive class = 1).
///
/// Returns 0 when there are no predicted and no actual positives.
pub fn f1_binary(predictions: &[usize], labels: &[u32]) -> Result<f64> {
    if predictions.len() != labels.len() {
        return Err(CoreError::LengthMismatch {
            what: "predictions",
            expected: labels.len(),
            actual: predictions.len(),
        });
    }
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fneg = 0usize;
    for (&p, &l) in predictions.iter().zip(labels) {
        match (p == 1, l == 1) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fneg += 1,
            (false, false) => {}
        }
    }
    let denom = 2 * tp + fp + fneg;
    if denom == 0 {
        return Ok(0.0);
    }
    Ok(2.0 * tp as f64 / denom as f64)
}

/// Macro-averaged F1 over `n_classes` classes: the unweighted mean of each
/// class's one-vs-rest F1, so minority classes count as much as the
/// majority. A class absent from both predictions and labels scores 0, the
/// same convention as [`f1_binary`]'s degenerate case.
pub fn f1_macro(predictions: &[usize], labels: &[u32], n_classes: usize) -> Result<f64> {
    if predictions.len() != labels.len() {
        return Err(CoreError::LengthMismatch {
            what: "predictions",
            expected: labels.len(),
            actual: predictions.len(),
        });
    }
    if n_classes == 0 {
        return Err(CoreError::InvalidParameter {
            name: "n_classes",
            message: "macro F1 needs at least one class".into(),
        });
    }
    let mut sum = 0.0;
    for class in 0..n_classes {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fneg = 0usize;
        for (&p, &l) in predictions.iter().zip(labels) {
            match (p == class, l as usize == class) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fneg += 1,
                (false, false) => {}
            }
        }
        let denom = 2 * tp + fp + fneg;
        if denom > 0 {
            sum += 2.0 * tp as f64 / denom as f64;
        }
    }
    Ok(sum / n_classes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_known_values() {
        // tp=2, fp=1, fn=1 -> f1 = 4/6.
        let preds = [1usize, 1, 1, 0, 0];
        let labels = [1u32, 1, 0, 1, 0];
        let f1 = f1_binary(&preds, &labels).unwrap();
        assert!((f1 - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_and_degenerate() {
        assert_eq!(f1_binary(&[1, 0], &[1, 0]).unwrap(), 1.0);
        assert_eq!(f1_binary(&[0, 0], &[0, 0]).unwrap(), 0.0);
        assert_eq!(f1_binary(&[1, 1], &[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn empty_inputs_score_zero() {
        // No predictions, no labels: no positives anywhere, F1's degenerate
        // 0 — not an error and not a NaN.
        assert_eq!(f1_binary(&[], &[]).unwrap(), 0.0);
        assert_eq!(f1_macro(&[], &[], 3).unwrap(), 0.0);
    }

    #[test]
    fn all_negative_inputs_score_zero() {
        // Every prediction and label is the negative class: tp=fp=fn=0.
        let preds = [0usize; 6];
        let labels = [0u32; 6];
        assert_eq!(f1_binary(&preds, &labels).unwrap(), 0.0);
    }

    #[test]
    fn length_mismatch() {
        assert!(f1_binary(&[1], &[1, 0]).is_err());
        assert!(f1_macro(&[1], &[1, 0], 2).is_err());
    }

    #[test]
    fn macro_f1_averages_per_class() {
        // Class 0: tp=1 (idx 3), fp=1 (idx 4), fn=1 (idx 2) -> 2/4.
        // Class 1: tp=2 (idx 0, 1), fp=1 (idx 2), fn=1 (idx 4) -> 4/6.
        let preds = [1usize, 1, 1, 0, 0];
        let labels = [1u32, 1, 0, 1, 0];
        let got = f1_macro(&preds, &labels, 2).unwrap();
        assert!((got - (0.5 + 2.0 / 3.0) / 2.0).abs() < 1e-9);
        // With a third class nobody uses, its 0 dilutes the mean.
        let got3 = f1_macro(&preds, &labels, 3).unwrap();
        assert!((got3 - (0.5 + 2.0 / 3.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn macro_f1_on_binary_agrees_with_symmetric_binary_f1() {
        let preds = [1usize, 0, 1, 0];
        let labels = [1u32, 0, 1, 0];
        assert_eq!(f1_macro(&preds, &labels, 2).unwrap(), 1.0);
        assert!(f1_macro(&preds, &labels, 0).is_err());
    }
}
