//! Contribution allocation schemes (paper Eq. 5 and Eq. 6).
//!
//! Given a [`TraceOutcome`], credits are distributed per test instance:
//!
//! * **Micro** (Eq. 5): each correctly classified test instance's credit
//!   `1/|D_te|` is split among clients *proportionally to their number of
//!   related training instances* — mirroring FedAvg's data-size weighting.
//! * **Macro** (Eq. 6, replication-robust): the credit is split *equally*
//!   among clients holding at least `δ` related training instances, making
//!   the score invariant to duplicating data beyond the threshold.
//!
//! Both schemes have **loss-tracing** variants (indicator flipped to
//! `1[ŷ ≠ y]`, paper Section IV-A) used to localise the damage caused by
//! label-flipped data.

use crate::error::{CoreError, Result};
use crate::tracing::TraceOutcome;

/// Which test instances contribute credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditDirection {
    /// `1[ŷ = y]` — credit for performance gain (the default).
    Gain,
    /// `1[ŷ ≠ y]` — blame for performance loss (label-flip forensics).
    Loss,
}

/// Micro contribution scores `φ_v^m(i)` (Eq. 5).
///
/// Returns one score per client. Scores are in `[0, 1]` and, over
/// [`CreditDirection::Gain`], sum to at most the test accuracy — exactly to
/// it when every correctly classified test instance has at least one related
/// training instance (group rationality; see [`crate::properties`]).
pub fn micro_scores(outcome: &TraceOutcome, direction: CreditDirection) -> Vec<f64> {
    let n_test = outcome.per_test.len().max(1);
    let mut scores = vec![0.0; outcome.n_clients];
    for t in &outcome.per_test {
        if !direction_matches(direction, t.correct()) {
            continue;
        }
        let total = t.total_related();
        if total == 0 {
            continue;
        }
        for (i, &cnt) in t.related_per_client.iter().enumerate() {
            scores[i] += cnt as f64 / total as f64;
        }
    }
    for s in &mut scores {
        *s /= n_test as f64;
    }
    scores
}

/// Macro contribution scores `φ_v^M(i)` (Eq. 6) at threshold `δ`
/// (minimum related training instances for a client to receive a share).
///
/// `δ` must be at least 1 — a threshold of 0 would award credit to every
/// client on every test instance, including clients with no related data.
pub fn macro_scores(
    outcome: &TraceOutcome,
    delta: u32,
    direction: CreditDirection,
) -> Result<Vec<f64>> {
    if delta == 0 {
        return Err(CoreError::InvalidParameter {
            name: "delta",
            message: "must be >= 1".into(),
        });
    }
    let mut all = macro_scores_multi(outcome, &[delta], direction)?;
    Ok(all.swap_remove(0))
}

/// Macro scores for several `δ` values in one pass (paper: *"we can
/// generate scores for multiple δ values progressively without much extra
/// computation"*).
///
/// Returns `deltas.len()` score vectors in the same order.
pub fn macro_scores_multi(
    outcome: &TraceOutcome,
    deltas: &[u32],
    direction: CreditDirection,
) -> Result<Vec<Vec<f64>>> {
    if deltas.contains(&0) {
        return Err(CoreError::InvalidParameter {
            name: "deltas",
            message: "every delta must be >= 1".into(),
        });
    }
    let n_test = outcome.per_test.len().max(1);
    let mut all = vec![vec![0.0; outcome.n_clients]; deltas.len()];
    for t in &outcome.per_test {
        if !direction_matches(direction, t.correct()) {
            continue;
        }
        for (di, &delta) in deltas.iter().enumerate() {
            let qualifying = t.related_per_client.iter().filter(|&&c| c >= delta).count();
            if qualifying == 0 {
                continue;
            }
            let share = 1.0 / qualifying as f64;
            for (i, &cnt) in t.related_per_client.iter().enumerate() {
                if cnt >= delta {
                    all[di][i] += share;
                }
            }
        }
    }
    for scores in &mut all {
        for s in scores.iter_mut() {
            *s /= n_test as f64;
        }
    }
    Ok(all)
}

fn direction_matches(direction: CreditDirection, correct: bool) -> bool {
    match direction {
        CreditDirection::Gain => correct,
        CreditDirection::Loss => !correct,
    }
}

/// Generalised micro allocation for arbitrary *decomposable* data-utility
/// metrics (paper Section II-A: "this approach can be extended to ... other
/// performance metrics, such as F1-score"; Section III-D: additivity).
///
/// `test_weights[t]` is the credit test instance `t` carries when counted
/// by the metric: test accuracy uses `1/|D_te|` everywhere (recovering
/// Eq. 5); class-balanced accuracy uses `1/(K · |D_te^{y_t}|)`; a macro-F1
/// surrogate weights each class's instances by its F1 denominator share.
/// Additivity (`φ_{u+v} = φ_u + φ_v`) holds by construction: weights add.
///
/// # Errors
/// Returns an error if `test_weights` does not match the trace length or
/// contains negative/non-finite entries.
pub fn weighted_micro_scores(
    outcome: &TraceOutcome,
    test_weights: &[f64],
    direction: CreditDirection,
) -> Result<Vec<f64>> {
    if test_weights.len() != outcome.per_test.len() {
        return Err(CoreError::LengthMismatch {
            what: "test weights",
            expected: outcome.per_test.len(),
            actual: test_weights.len(),
        });
    }
    if test_weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "test_weights",
            message: "weights must be finite and non-negative".into(),
        });
    }
    let mut scores = vec![0.0; outcome.n_clients];
    for (t, &w) in outcome.per_test.iter().zip(test_weights) {
        if w == 0.0 || !direction_matches(direction, t.correct()) {
            continue;
        }
        let total = t.total_related();
        if total == 0 {
            continue;
        }
        for (i, &cnt) in t.related_per_client.iter().enumerate() {
            scores[i] += w * cnt as f64 / total as f64;
        }
    }
    Ok(scores)
}

/// Per-test weights realizing the plain test-accuracy metric (Eq. 1):
/// uniform `1/|D_te|`. [`weighted_micro_scores`] with these weights equals
/// [`micro_scores`].
pub fn accuracy_weights(n_test: usize) -> Vec<f64> {
    vec![1.0 / n_test.max(1) as f64; n_test]
}

/// Per-test weights realizing class-balanced accuracy: each class
/// contributes equally regardless of its frequency in `D_te`. With these
/// weights the scores sum (over matched tests) to the balanced accuracy of
/// the global model.
pub fn balanced_accuracy_weights(test_labels: &[u32], n_classes: usize) -> Result<Vec<f64>> {
    if n_classes == 0 {
        return Err(CoreError::InvalidParameter {
            name: "n_classes",
            message: "must be positive".into(),
        });
    }
    let mut counts = vec![0usize; n_classes];
    for &l in test_labels {
        let l = l as usize;
        if l >= n_classes {
            return Err(CoreError::ClassOutOfRange { class: l, n_classes });
        }
        counts[l] += 1;
    }
    Ok(test_labels
        .iter()
        .map(|&l| 1.0 / (n_classes as f64 * counts[l as usize].max(1) as f64))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::TestTrace;

    /// Hand-built trace reproducing Figure 2-(b): 3 clients (A, B, C) and
    /// 4 test records:
    ///   x1 (correct): A=4 related;
    ///   x2 (wrong):   nobody related;
    ///   x3 (correct): B=6, C=2;
    ///   x4 (wrong):   C=1.
    fn figure2_outcome() -> TraceOutcome {
        let per_test = vec![
            TestTrace {
                predicted: 1,
                actual: 1,
                traced_class: 1,
                denom: 1.0,
                related_per_client: vec![4, 0, 0],
            },
            TestTrace {
                predicted: 1,
                actual: 0,
                traced_class: 1,
                denom: 1.0,
                related_per_client: vec![0, 0, 0],
            },
            TestTrace {
                predicted: 0,
                actual: 0,
                traced_class: 0,
                denom: 1.5,
                related_per_client: vec![0, 6, 2],
            },
            TestTrace {
                predicted: 0,
                actual: 1,
                traced_class: 0,
                denom: 0.5,
                related_per_client: vec![0, 0, 1],
            },
        ];
        TraceOutcome::from_per_test(per_test, 3, 4)
    }

    #[test]
    fn example_iii4_micro() {
        // Paper Example III.4: φ^m(B) = 1/4 · 6/8 = 3/16, φ^m(C) = 1/16.
        let scores = micro_scores(&figure2_outcome(), CreditDirection::Gain);
        assert!((scores[1] - 3.0 / 16.0).abs() < 1e-12, "B = {}", scores[1]);
        assert!((scores[2] - 1.0 / 16.0).abs() < 1e-12, "C = {}", scores[2]);
        // A gets the whole credit of x1: 1/4.
        assert!((scores[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn example_iii4_macro() {
        // Paper Example III.4: with δ=2, φ^M(B) = φ^M(C) = 1/4 · 1/2 = 1/8.
        let scores = macro_scores(&figure2_outcome(), 2, CreditDirection::Gain).unwrap();
        assert!((scores[1] - 0.125).abs() < 1e-12);
        assert!((scores[2] - 0.125).abs() < 1e-12);
        assert!((scores[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn macro_delta_excludes_small_holders() {
        // δ=3 drops C from x3 entirely; B then takes the full credit.
        let scores = macro_scores(&figure2_outcome(), 3, CreditDirection::Gain).unwrap();
        assert!((scores[1] - 0.25).abs() < 1e-12);
        assert_eq!(scores[2], 0.0);
    }

    #[test]
    fn loss_direction_blames_wrong_predictions() {
        let micro = micro_scores(&figure2_outcome(), CreditDirection::Loss);
        // Only x4 (wrong, C=1 related) contributes loss credit; x2 has no
        // related rows.
        assert_eq!(micro[0], 0.0);
        assert_eq!(micro[1], 0.0);
        assert!((micro[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn micro_is_replication_sensitive_macro_is_not() {
        // Duplicate C's related data on x3 (2 -> 8).
        let mut inflated = figure2_outcome();
        inflated.per_test[2].related_per_client = vec![0, 6, 8];
        let base = micro_scores(&figure2_outcome(), CreditDirection::Gain);
        let after = micro_scores(&inflated, CreditDirection::Gain);
        assert!(after[2] > base[2], "micro should inflate");
        assert!(after[1] < base[1], "micro deficit for B");
        let base_m = macro_scores(&figure2_outcome(), 2, CreditDirection::Gain).unwrap();
        let after_m = macro_scores(&inflated, 2, CreditDirection::Gain).unwrap();
        assert_eq!(base_m, after_m, "macro must be replication-invariant");
    }

    #[test]
    fn multi_delta_matches_single_delta() {
        let outcome = figure2_outcome();
        let multi =
            macro_scores_multi(&outcome, &[1, 2, 3], CreditDirection::Gain).unwrap();
        for (i, &d) in [1u32, 2, 3].iter().enumerate() {
            let single = macro_scores(&outcome, d, CreditDirection::Gain).unwrap();
            assert_eq!(multi[i], single, "delta={d}");
        }
    }

    #[test]
    fn group_rationality_when_all_correct_tests_match() {
        // x2 is wrong (no credit), x1/x3 correct & matched, x4 wrong.
        // Micro-gain scores sum to fraction of correct-and-matched tests.
        let scores = micro_scores(&figure2_outcome(), CreditDirection::Gain);
        let sum: f64 = scores.iter().sum();
        assert!((sum - 0.5).abs() < 1e-12); // 2 of 4 tests correct
    }

    #[test]
    fn weighted_with_uniform_weights_equals_micro() {
        let o = figure2_outcome();
        let w = accuracy_weights(o.per_test.len());
        let weighted = weighted_micro_scores(&o, &w, CreditDirection::Gain).unwrap();
        let plain = micro_scores(&o, CreditDirection::Gain);
        for (a, b) in weighted.iter().zip(&plain) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn weighted_scores_are_additive_over_metrics() {
        // phi_{u+v} = phi_u + phi_v for any two weight vectors (Section
        // III-D additivity).
        let o = figure2_outcome();
        let u = vec![0.1, 0.4, 0.0, 0.3];
        let v = vec![0.2, 0.0, 0.5, 0.1];
        let sum_w: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a + b).collect();
        let phi_u = weighted_micro_scores(&o, &u, CreditDirection::Gain).unwrap();
        let phi_v = weighted_micro_scores(&o, &v, CreditDirection::Gain).unwrap();
        let phi_uv = weighted_micro_scores(&o, &sum_w, CreditDirection::Gain).unwrap();
        for i in 0..3 {
            assert!((phi_uv[i] - (phi_u[i] + phi_v[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_weights_equalize_classes() {
        // 3 tests of class 1, 1 test of class 0 -> class-0 instances carry
        // 3x the weight of class-1 instances.
        let labels = [1u32, 1, 1, 0];
        let w = balanced_accuracy_weights(&labels, 2).unwrap();
        assert!((w[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((w[3] - 1.0 / 2.0).abs() < 1e-12);
        let class1: f64 = w[..3].iter().sum();
        assert!((class1 - w[3]).abs() < 1e-12, "classes carry equal total weight");
        assert!(balanced_accuracy_weights(&[5], 2).is_err());
    }

    #[test]
    fn weighted_validation() {
        let o = figure2_outcome();
        assert!(weighted_micro_scores(&o, &[1.0], CreditDirection::Gain).is_err());
        assert!(
            weighted_micro_scores(&o, &[1.0, -1.0, 0.0, 0.0], CreditDirection::Gain).is_err()
        );
        assert!(weighted_micro_scores(
            &o,
            &[f64::NAN, 0.0, 0.0, 0.0],
            CreditDirection::Gain
        )
        .is_err());
    }

    #[test]
    fn delta_zero_rejected() {
        assert!(macro_scores(&figure2_outcome(), 0, CreditDirection::Gain).is_err());
        assert!(macro_scores_multi(&figure2_outcome(), &[1, 0], CreditDirection::Gain).is_err());
    }

    #[test]
    fn empty_outcome_yields_zero_scores() {
        let outcome = TraceOutcome::from_per_test(vec![], 2, 0);
        assert_eq!(micro_scores(&outcome, CreditDirection::Gain), vec![0.0, 0.0]);
        assert_eq!(
            macro_scores(&outcome, 1, CreditDirection::Gain).unwrap(),
            vec![0.0, 0.0]
        );
    }
}
