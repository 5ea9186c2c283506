//! Rule-based task models (paper Definition III.2, Eq. 3).
//!
//! A [`RuleModel`] classifies by weighted voting over activated rules: for
//! binary classification, `M(x) = 1[w⁺ · r⁺(x) ≥ w⁻ · r⁻(x)]` — an input is
//! positive when the weighted sum of activated positive rules is at least
//! the weighted sum of activated negative rules. The implementation
//! generalises to multi-class by argmax over per-class weighted sums, with
//! ties broken toward the higher class index so the binary case reduces
//! exactly to Eq. 3.

use std::sync::Arc;

use crate::activation::ActivationMatrix;
use crate::batch::CompiledRules;
use crate::data::{Dataset, DatasetView, FeatureSchema, FeatureValue};
use crate::error::{CoreError, Result};
use crate::rule::Rule;

/// A rule-based classifier: a set of weighted rules, each supporting a class.
#[derive(Debug, Clone)]
pub struct RuleModel {
    schema: Arc<FeatureSchema>,
    n_classes: usize,
    rules: Vec<Rule>,
    /// The rules compiled into columnar predicate programs; built once at
    /// construction, reused by every activation-matrix fill.
    compiled: CompiledRules,
    /// Per-class bit masks over rule indices, used for Eq. 4 tracing.
    class_masks: Vec<Vec<u64>>,
    /// Rule weights as f64 for stable accumulation.
    weights: Vec<f64>,
    /// Learned per-class bias added to the vote (paper §III-B: "learned
    /// biases are typically incorporated before employing the indicator
    /// function"). Zero by default.
    biases: Vec<f64>,
}

impl RuleModel {
    /// Builds a model, validating every rule against the schema.
    pub fn new(schema: Arc<FeatureSchema>, n_classes: usize, rules: Vec<Rule>) -> Result<Self> {
        Self::with_biases(schema, n_classes, rules, None)
    }

    /// Builds a model with optional per-class vote biases.
    pub fn with_biases(
        schema: Arc<FeatureSchema>,
        n_classes: usize,
        rules: Vec<Rule>,
        biases: Option<Vec<f64>>,
    ) -> Result<Self> {
        if n_classes < 2 {
            return Err(CoreError::InvalidParameter {
                name: "n_classes",
                message: format!("need at least 2 classes, got {n_classes}"),
            });
        }
        // Compilation validates every predicate against the schema (feature
        // range, kind agreement, category arity) — the typed errors the
        // columnar evaluator relies on to assume well-typed programs.
        let compiled = CompiledRules::compile(&rules, &schema)?;
        if let Some(rule) = rules.iter().find(|r| r.class >= n_classes) {
            return Err(CoreError::ClassOutOfRange { class: rule.class, n_classes });
        }
        let n_bits = rules.len();
        // Masks sized exactly to the rule count: a rule-free (degenerate)
        // model yields zero-word masks matching zero-word activation rows.
        let class_masks: Vec<Vec<u64>> = (0..n_classes)
            .map(|c| {
                ActivationMatrix::build_mask(
                    n_bits,
                    rules.iter().enumerate().filter(|(_, r)| r.class == c).map(|(i, _)| i),
                )
            })
            .collect();
        let weights: Vec<f64> = rules.iter().map(|r| r.weight as f64).collect();
        check_artifacts(&weights, &class_masks)?;
        let biases = match biases {
            Some(b) => {
                if b.len() != n_classes {
                    return Err(CoreError::LengthMismatch {
                        what: "biases",
                        expected: n_classes,
                        actual: b.len(),
                    });
                }
                b
            }
            None => vec![0.0; n_classes],
        };
        Ok(RuleModel { schema, n_classes, rules, compiled, class_masks, weights, biases })
    }

    /// The feature schema.
    pub fn schema(&self) -> &Arc<FeatureSchema> {
        &self.schema
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The rules, in activation-bit order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rule weights as `f64`, indexed like [`Self::rules`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Bit mask over rule indices selecting the rules that support `class`.
    ///
    /// # Panics
    /// Panics if `class >= n_classes`.
    pub fn class_mask(&self, class: usize) -> &[u64] {
        &self.class_masks[class]
    }

    /// All per-class rule masks, indexed by class.
    pub fn class_masks_all(&self) -> &[Vec<u64>] {
        &self.class_masks
    }

    /// Per-class vote biases.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// The activation vector of a single row (one bool per rule).
    pub fn activations(&self, row: &[FeatureValue]) -> Vec<bool> {
        self.rules.iter().map(|r| r.activated(row)).collect()
    }

    /// Per-class weighted vote for a row.
    pub fn votes(&self, row: &[FeatureValue]) -> Vec<f64> {
        let mut votes = self.biases.clone();
        for (rule, &w) in self.rules.iter().zip(&self.weights) {
            if rule.activated(row) {
                votes[rule.class] += w;
            }
        }
        votes
    }

    /// Classifies a row by weighted voting (Eq. 3).
    ///
    /// Ties break toward the higher class, so for binary classification this
    /// is exactly `1[w⁺·r⁺(x) ≥ w⁻·r⁻(x)]`.
    pub fn classify(&self, row: &[FeatureValue]) -> usize {
        let votes = self.votes(row);
        let mut best = 0usize;
        for (c, &v) in votes.iter().enumerate() {
            if v >= votes[best] {
                best = c;
            }
        }
        best
    }

    /// Classifies a row from a precomputed activation matrix row.
    pub fn classify_from_activations(&self, acts: &ActivationMatrix, row: usize) -> usize {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for c in 0..self.n_classes {
            let v = self.biases[c] + acts.masked_weight_sum(row, &self.class_masks[c], &self.weights);
            if v >= best_v {
                best_v = v;
                best = c;
            }
        }
        best
    }

    /// Predicted labels for a whole dataset (batched: one activation-matrix
    /// fill, then per-row weighted voting over the packed bits).
    pub fn predict(&self, data: &Dataset) -> Result<Vec<usize>> {
        let acts = self.activation_matrix(data, false)?;
        Ok((0..data.len()).map(|i| self.classify_from_activations(&acts, i)).collect())
    }

    /// Test accuracy on a dataset (Eq. 1's utility metric).
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        if data.is_empty() {
            return Err(CoreError::Empty { what: "dataset" });
        }
        let preds = self.predict(data)?;
        let correct = preds.iter().zip(data.labels()).filter(|(p, &l)| **p == l as usize).count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// Builds the bit-packed activation matrix for a dataset via the
    /// compiled columnar evaluator: each unique predicate scans its column
    /// once for all rows, rule formulas combine the resulting row masks
    /// word-at-a-time. With `parallel = true` the predicate scans are
    /// chunked over [`crate::parallel::map_chunks`] threads (the paper's GPU
    /// parallelization, realised on CPU); output is identical either way.
    pub fn activation_matrix(&self, data: &Dataset, parallel: bool) -> Result<ActivationMatrix> {
        self.activation_matrix_view(&data.view(), parallel)
    }

    /// [`RuleModel::activation_matrix`] over a zero-copy [`DatasetView`].
    pub fn activation_matrix_view(
        &self,
        view: &DatasetView<'_>,
        parallel: bool,
    ) -> Result<ActivationMatrix> {
        if view.schema().as_ref() != self.schema.as_ref() {
            return Err(CoreError::InvalidParameter {
                name: "dataset",
                message: "dataset schema differs from model schema".into(),
            });
        }
        Ok(self.compiled.activation_matrix(view, parallel))
    }

    /// Reference implementation of [`RuleModel::activation_matrix`]: per-row
    /// `Rule::activated` dispatch. Kept as the baseline the property tests
    /// and the activation-fill microbench compare the batch evaluator
    /// against; not used on any hot path.
    pub fn activation_matrix_rowwise(&self, data: &Dataset) -> Result<ActivationMatrix> {
        self.check_schema(data)?;
        let mut m = ActivationMatrix::zeros(data.len(), self.rules.len());
        for i in 0..data.len() {
            let row = data.row(i);
            for (bit, rule) in self.rules.iter().enumerate() {
                if rule.activated(&row) {
                    m.set(i, bit, true);
                }
            }
        }
        Ok(m)
    }

    fn check_schema(&self, data: &Dataset) -> Result<()> {
        if data.schema().as_ref() != self.schema.as_ref() {
            return Err(CoreError::InvalidParameter {
                name: "dataset",
                message: "dataset schema differs from model schema".into(),
            });
        }
        Ok(())
    }
}

/// The one check of a model's rule weights and class masks, run by
/// [`RuleModel::new`] and on the artifacts the tracer and the upload audit
/// take apart from a model: every class mask has
/// `weights.len().div_ceil(64)` words, and every weight is finite and
/// non-negative.
///
/// A NaN weight would make every Eq. 4 comparison false and trace nothing;
/// a negative one would let the ratio exceed 1; and the trace kernel's
/// missing-weight bound is only sound over finite, non-negative weights.
pub(crate) fn check_artifacts(weights: &[f64], class_masks: &[Vec<u64>]) -> Result<()> {
    let words = weights.len().div_ceil(64);
    if let Some(mask) = class_masks.iter().find(|mask| mask.len() != words) {
        return Err(CoreError::LengthMismatch {
            what: "class mask words",
            expected: words,
            actual: mask.len(),
        });
    }
    if let Some((i, w)) = weights.iter().enumerate().find(|(_, w)| !(w.is_finite() && **w >= 0.0)) {
        return Err(CoreError::InvalidParameter {
            name: "rule.weight",
            message: format!("weights must be finite and >= 0, got {w} for rule {i}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureKind;
    use crate::rule::{conjunction, disjunction, Predicate};

    fn paper_figure2_model() -> (Arc<FeatureSchema>, RuleModel) {
        // Features: capital-gain (cont), edu-years (cont), work-class (disc 4:
        // 0=private,1=state-gov,2=other,3=never), work-hours (cont),
        // marital-status (disc 2: 0=married,1=never).
        let schema = FeatureSchema::new(vec![
            ("capital-gain", FeatureKind::continuous(0.0, 100_000.0)),
            ("edu-years", FeatureKind::continuous(0.0, 20.0)),
            ("work-class", FeatureKind::discrete(4)),
            ("work-hours", FeatureKind::continuous(0.0, 100.0)),
            ("marital-status", FeatureKind::discrete(2)),
        ]);
        // r1+: capital-gain > 21k           (w=1)
        // r2+: edu-years > 15 AND work-class = state-gov (w=1)
        // r1-: capital-gain < 5k            (w=1)
        // r2-: work-hours > 14 OR marital-status = never (w=0.5)
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 21_000.0)], 1, 1.0),
            conjunction(vec![Predicate::gt(1, 15.0), Predicate::eq(2, 1)], 1, 1.0),
            conjunction(vec![Predicate::lt(0, 5_000.0)], 0, 1.0),
            disjunction(vec![Predicate::gt(3, 14.0), Predicate::eq(4, 1)], 0, 0.5),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        (schema, model)
    }

    fn row(gain: f32, edu: f32, wc: u32, hours: f32, ms: u32) -> Vec<FeatureValue> {
        vec![gain.into(), edu.into(), wc.into(), hours.into(), ms.into()]
    }

    #[test]
    fn example_iii2_classification() {
        // Paper Example III.2: x with r2+ and r2- activated, weights 1 vs 0.5
        // classifies positive.
        let (_, model) = paper_figure2_model();
        let x = row(10_000.0, 16.0, 1, 20.0, 0);
        let acts = model.activations(&x);
        assert_eq!(acts, vec![false, true, false, true]);
        assert_eq!(model.classify(&x), 1);
    }

    #[test]
    fn negative_vote_wins_when_heavier() {
        let (_, model) = paper_figure2_model();
        // r1- (w=1) and r2- (w=0.5) vs nothing positive.
        let x = row(1_000.0, 10.0, 0, 20.0, 1);
        assert_eq!(model.classify(&x), 0);
    }

    #[test]
    fn tie_breaks_positive_matching_eq3() {
        // One positive and one negative rule with equal weight; both active.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::ge(0, 0.0)], 1, 1.0),
            conjunction(vec![Predicate::ge(0, 0.0)], 0, 1.0),
        ];
        let model = RuleModel::new(schema, 2, rules).unwrap();
        // Eq. 3 uses >= so ties classify positive.
        assert_eq!(model.classify(&[0.5.into()]), 1);
    }

    #[test]
    fn biases_shift_the_vote() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![conjunction(vec![Predicate::ge(0, 0.0)], 1, 1.0)];
        let unbiased = RuleModel::new(Arc::clone(&schema), 2, rules.clone()).unwrap();
        assert_eq!(unbiased.classify(&[0.5.into()]), 1);
        let biased =
            RuleModel::with_biases(schema, 2, rules, Some(vec![2.0, 0.0])).unwrap();
        assert_eq!(biased.classify(&[0.5.into()]), 0);
    }

    #[test]
    fn activation_matrix_matches_per_row_activations() {
        let (schema, model) = paper_figure2_model();
        let mut data = Dataset::empty(schema, 2);
        data.push_row(&row(25_000.0, 16.0, 1, 10.0, 0), 1).unwrap();
        data.push_row(&row(1_000.0, 10.0, 0, 20.0, 1), 0).unwrap();
        data.push_row(&row(10_000.0, 8.0, 2, 10.0, 0), 0).unwrap();
        let m = model.activation_matrix(&data, false).unwrap();
        for i in 0..data.len() {
            let expect = model.activations(&data.row(i));
            for (bit, &e) in expect.iter().enumerate() {
                assert_eq!(m.get(i, bit), e, "row {i} bit {bit}");
            }
            assert_eq!(model.classify_from_activations(&m, i), model.classify(&data.row(i)));
        }
        // The batch evaluator agrees with the row-wise reference path.
        assert_eq!(m, model.activation_matrix_rowwise(&data).unwrap());
    }

    #[test]
    fn activation_matrix_view_matches_subset() {
        let (schema, model) = paper_figure2_model();
        let mut data = Dataset::empty(schema, 2);
        data.push_row(&row(25_000.0, 16.0, 1, 10.0, 0), 1).unwrap();
        data.push_row(&row(1_000.0, 10.0, 0, 20.0, 1), 0).unwrap();
        data.push_row(&row(10_000.0, 8.0, 2, 10.0, 0), 0).unwrap();
        let idx = [2usize, 0, 0, 1];
        let on_view = model.activation_matrix_view(&data.view_of(&idx), false).unwrap();
        let on_copy = model.activation_matrix(&data.subset(&idx), false).unwrap();
        assert_eq!(on_view, on_copy);
    }

    #[test]
    fn parallel_activation_matrix_matches_serial() {
        let (schema, model) = paper_figure2_model();
        let mut data = Dataset::empty(schema, 2);
        for i in 0..3000 {
            let gain = (i % 50) as f32 * 1000.0;
            let edu = (i % 20) as f32;
            let wc = (i % 4) as u32;
            let hours = (i % 60) as f32;
            let ms = (i % 2) as u32;
            data.push_row(&row(gain, edu, wc, hours, ms), (i % 2) as u32).unwrap();
        }
        let serial = model.activation_matrix(&data, false).unwrap();
        let parallel = model.activation_matrix(&data, true).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, model.activation_matrix_rowwise(&data).unwrap());
    }

    #[test]
    fn class_masks_partition_rules() {
        let (_, model) = paper_figure2_model();
        let pos = model.class_mask(1);
        let neg = model.class_mask(0);
        // Rules 0,1 positive; rules 2,3 negative.
        assert_eq!(pos[0] & 0b1111, 0b0011);
        assert_eq!(neg[0] & 0b1111, 0b1100);
    }

    #[test]
    fn constructor_validates() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        // Bad class.
        let bad = vec![conjunction(vec![Predicate::gt(0, 0.5)], 7, 1.0)];
        assert!(RuleModel::new(Arc::clone(&schema), 2, bad).is_err());
        // Negative weight.
        let bad = vec![conjunction(vec![Predicate::gt(0, 0.5)], 1, -1.0)];
        assert!(RuleModel::new(Arc::clone(&schema), 2, bad).is_err());
        // Predicate on missing feature.
        let bad = vec![conjunction(vec![Predicate::gt(3, 0.5)], 1, 1.0)];
        assert!(RuleModel::new(Arc::clone(&schema), 2, bad).is_err());
        // n_classes < 2.
        assert!(RuleModel::new(schema, 1, vec![]).is_err());
    }

    #[test]
    fn rule_free_model_degrades_to_bias_voting() {
        // A degenerate extraction can produce zero rules; the model must
        // still classify (by biases alone) and build empty activation
        // matrices without width mismatches.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let model =
            RuleModel::with_biases(Arc::clone(&schema), 2, vec![], Some(vec![0.3, 0.1])).unwrap();
        assert_eq!(model.classify(&[0.5.into()]), 0);
        let mut data = Dataset::empty(schema, 2);
        data.push_row(&[0.2f32.into()], 0).unwrap();
        data.push_row(&[0.9f32.into()], 1).unwrap();
        let acts = model.activation_matrix(&data, false).unwrap();
        assert_eq!(acts.n_bits(), 0);
        assert_eq!(model.classify_from_activations(&acts, 0), 0);
        assert_eq!(model.accuracy(&data).unwrap(), 0.5);
    }

    #[test]
    fn accuracy_on_separable_data() {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.5)], 0, 1.0),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        let mut data = Dataset::empty(schema, 2);
        for i in 0..10 {
            let v = i as f32 / 10.0 + 0.05;
            data.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
        }
        assert_eq!(model.accuracy(&data).unwrap(), 1.0);
    }
}
