//! The high-level CTFL estimator façade.
//!
//! [`CtflEstimator`] wires the pipeline together: given a trained
//! [`RuleModel`], the pooled training data with its client assignment, and
//! the federation's reserved test set, a single call produces contribution
//! scores, robustness signals and interpretation profiles — the paper's
//! steps ② (rule-based tracing), ③ (contribution allocation) and
//! ④ (interpretation) in one pass.

use crate::allocation::{macro_scores, micro_scores, CreditDirection};
use crate::data::Dataset;
use crate::error::{CoreError, Result};
use crate::interpret::{client_profiles, coverage_gaps, ClientProfile, CoverageGap};
use crate::model::RuleModel;
use crate::robustness::{
    analyze_with_participation, ClientParticipation, RobustnessConfig, RobustnessReport,
};
use crate::tracing::{inputs_from_model, trace, GroupingStrategy, TraceConfig, TraceOutcome, TraceParts};

/// Configuration for a full CTFL estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtflConfig {
    /// Tracing threshold `τ_w` (Eq. 4). Paper default range `[0.8, 1.0]`.
    pub tau_w: f64,
    /// Macro-scheme threshold `δ` (Eq. 6).
    pub delta: u32,
    /// Parallelize tracing across test instances.
    pub parallel: bool,
    /// Always [`GroupingStrategy::SignatureDedup`]; see the enum for why the
    /// field remains.
    pub grouping: GroupingStrategy,
    /// Robustness flagging thresholds.
    pub robustness: RobustnessConfig,
    /// How many rules to keep per interpretation list.
    pub interpret_top_k: usize,
    /// Minimum related rows for a misclassified test to count as covered
    /// (guided data collection).
    pub coverage_min_related: u32,
}

impl Default for CtflConfig {
    fn default() -> Self {
        CtflConfig {
            tau_w: 0.9,
            delta: 2,
            parallel: true,
            grouping: GroupingStrategy::SignatureDedup,
            robustness: RobustnessConfig::default(),
            interpret_top_k: 5,
            coverage_min_related: 3,
        }
    }
}

/// Everything CTFL reports about one federation.
#[derive(Debug, Clone)]
pub struct ContributionReport {
    /// Micro contribution scores (Eq. 5), one per client — the primary
    /// scoring metric.
    pub micro: Vec<f64>,
    /// Macro contribution scores (Eq. 6) at the configured `δ` — the
    /// replication-robust auxiliary metric.
    pub macro_: Vec<f64>,
    /// Loss-tracing micro scores (blame shares for misclassifications).
    pub loss: Vec<f64>,
    /// Per-client fraction of federation rounds with an accepted update
    /// (all 1.0 when no participation record was supplied).
    pub participation_rate: Vec<f64>,
    /// Participation-weighted micro scores: `micro[i] · rate[i]`. A client
    /// whose every update was rejected or dropped contributed nothing to
    /// the global model, so its *effective* contribution is zero no matter
    /// what its data matches — CTFL's zero-element property lifted to the
    /// run level.
    pub micro_effective: Vec<f64>,
    /// Global model test accuracy `v(D_N)`.
    pub test_accuracy: f64,
    /// Robustness signals and flagged clients.
    pub robustness: RobustnessReport,
    /// Per-client interpretable profiles.
    pub profiles: Vec<ClientProfile>,
    /// Under-covered test scenarios for guided data collection.
    pub coverage_gaps: Vec<CoverageGap>,
    /// The raw trace, for downstream analyses.
    pub trace: TraceOutcome,
}

impl ContributionReport {
    /// Clients ranked by micro score, descending.
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.micro.len()).collect();
        order.sort_by(|&a, &b| self.micro[b].total_cmp(&self.micro[a]));
        order
    }

    /// The clients this report's own robustness analysis flagged (union of
    /// every detector's suspect list), ascending — the default slashing
    /// target set.
    pub fn flagged_clients(&self) -> Vec<usize> {
        let r = &self.robustness;
        let mut out: Vec<usize> = r
            .suspected_label_flippers
            .iter()
            .chain(&r.suspected_replicators)
            .chain(&r.suspected_low_quality)
            .chain(&r.suspected_unreliable)
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The CTFL contribution estimator.
#[derive(Debug, Clone)]
pub struct CtflEstimator {
    model: RuleModel,
    config: CtflConfig,
}

impl CtflEstimator {
    /// Creates an estimator around a trained rule-based model.
    pub fn new(model: RuleModel, config: CtflConfig) -> Self {
        CtflEstimator { model, config }
    }

    /// The wrapped model.
    pub fn model(&self) -> &RuleModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &CtflConfig {
        &self.config
    }

    /// Runs the full pipeline.
    ///
    /// * `train` — the pooled training data `D_N` (all participants).
    /// * `client_of` — owning client of each training row; clients are
    ///   `0..n` where `n = max(client_of) + 1`.
    /// * `test` — the federation's reserved test set `D_te`.
    pub fn estimate(
        &self,
        train: &Dataset,
        client_of: &[u32],
        test: &Dataset,
    ) -> Result<ContributionReport> {
        self.estimate_impl(train, client_of, test, None)
    }

    /// [`CtflEstimator::estimate`] plus the federation runtime's per-client
    /// participation record (from `ctfl-fl`'s `FederationLog::participation`).
    ///
    /// The record feeds the robustness analysis (unreliable-client flags)
    /// and the `micro_effective` scores, which weight each client's micro
    /// score by the fraction of rounds its updates actually entered the
    /// global model.
    pub fn estimate_with_participation(
        &self,
        train: &Dataset,
        client_of: &[u32],
        test: &Dataset,
        participation: &[ClientParticipation],
    ) -> Result<ContributionReport> {
        self.estimate_impl(train, client_of, test, Some(participation))
    }

    fn estimate_impl(
        &self,
        train: &Dataset,
        client_of: &[u32],
        test: &Dataset,
        participation: Option<&[ClientParticipation]>,
    ) -> Result<ContributionReport> {
        if train.is_empty() {
            return Err(CoreError::Empty { what: "training data" });
        }
        if test.is_empty() {
            return Err(CoreError::Empty { what: "test data" });
        }
        if client_of.len() != train.len() {
            return Err(CoreError::LengthMismatch {
                what: "client assignment",
                expected: train.len(),
                actual: client_of.len(),
            });
        }
        let n_clients = client_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);

        // Single model inference pass: activations + predictions. The fills
        // run the compiled columnar evaluator (one predicate scan per unique
        // predicate, word-wide combine), not per-row rule dispatch.
        let train_acts = self.model.activation_matrix(train, self.config.parallel)?;
        let test_acts = self.model.activation_matrix(test, self.config.parallel)?;
        let predictions: Vec<usize> =
            (0..test.len()).map(|i| self.model.classify_from_activations(&test_acts, i)).collect();
        let correct =
            predictions.iter().zip(test.labels()).filter(|(p, &l)| **p == l as usize).count();
        let test_accuracy = correct as f64 / test.len() as f64;

        let inputs = inputs_from_model(
            &self.model,
            TraceParts {
                train_acts: &train_acts,
                train_labels: train.labels(),
                client_of,
                n_clients,
                test_acts: &test_acts,
                test_labels: test.labels(),
                predictions: &predictions,
            },
        );
        let trace_cfg = TraceConfig {
            tau_w: self.config.tau_w,
            parallel: self.config.parallel,
            threads: 0,
            grouping: self.config.grouping,
        };
        let outcome = trace(&inputs, &trace_cfg)?;

        let micro = micro_scores(&outcome, CreditDirection::Gain);
        let macro_ = macro_scores(&outcome, self.config.delta, CreditDirection::Gain)?;
        let loss = micro_scores(&outcome, CreditDirection::Loss);
        let robustness =
            analyze_with_participation(&outcome, client_of, participation, &self.config.robustness)?;
        let participation_rate: Vec<f64> = match participation {
            Some(p) => p.iter().map(ClientParticipation::rate).collect(),
            None => vec![1.0; n_clients],
        };
        let micro_effective: Vec<f64> =
            micro.iter().zip(&participation_rate).map(|(m, r)| m * r).collect();
        let profiles = client_profiles(&outcome, client_of, self.config.interpret_top_k);
        let gaps = coverage_gaps(
            &outcome,
            &test_acts,
            self.model.weights(),
            self.config.coverage_min_related,
            self.config.interpret_top_k,
        );

        Ok(ContributionReport {
            micro,
            macro_,
            loss,
            participation_rate,
            micro_effective,
            test_accuracy,
            robustness,
            profiles,
            coverage_gaps: gaps,
            trace: outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{FeatureKind, FeatureSchema};
    use crate::rule::{conjunction, Predicate};
    use std::sync::Arc;

    /// Two clients each "own" one half of a separable 1-D task.
    fn separable_setup() -> (CtflEstimator, Dataset, Vec<u32>, Dataset) {
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.5)], 0, 1.0),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        let mut train = Dataset::empty(Arc::clone(&schema), 2);
        let mut client_of = Vec::new();
        // Client 0: 10 negatives; client 1: 10 positives.
        for i in 0..10 {
            train.push_row(&[(i as f32 * 0.04).into()], 0).unwrap();
            client_of.push(0);
        }
        for i in 0..10 {
            train.push_row(&[(0.6 + i as f32 * 0.04).into()], 1).unwrap();
            client_of.push(1);
        }
        let mut test = Dataset::empty(schema, 2);
        for i in 0..5 {
            test.push_row(&[(i as f32 * 0.05).into()], 0).unwrap();
            test.push_row(&[(0.7 + i as f32 * 0.05).into()], 1).unwrap();
        }
        (
            CtflEstimator::new(model, CtflConfig { parallel: false, ..CtflConfig::default() }),
            train,
            client_of,
            test,
        )
    }

    #[test]
    fn end_to_end_symmetric_split() {
        let (est, train, client_of, test) = separable_setup();
        let report = est.estimate(&train, &client_of, &test).unwrap();
        assert_eq!(report.test_accuracy, 1.0);
        // Each client powers exactly half the test set.
        assert!((report.micro[0] - 0.5).abs() < 1e-12);
        assert!((report.micro[1] - 0.5).abs() < 1e-12);
        let sum: f64 = report.micro.iter().sum();
        assert!((sum - report.test_accuracy).abs() < 1e-12, "group rationality");
        assert_eq!(report.loss, vec![0.0, 0.0]);
        assert!(report.robustness.suspected_label_flippers.is_empty());
        assert_eq!(report.ranking().len(), 2);
    }

    #[test]
    fn replicated_client_inflates_micro_not_macro() {
        let (est, train, mut client_of, test) = separable_setup();
        // Client 1 replicates its data 4x.
        let dup_indices: Vec<usize> = (10..20).flat_map(|i| std::iter::repeat_n(i, 3)).collect();
        let dups = train.subset(&dup_indices);
        let train2 = Dataset::concat([&train, &dups]).unwrap();
        client_of.extend(std::iter::repeat_n(1u32, dup_indices.len()));
        let base = est.estimate(&train, &[0; 10].iter().chain(&vec![1; 10]).copied().collect::<Vec<u32>>(), &test).unwrap();
        let after = est.estimate(&train2, &client_of, &test).unwrap();
        // Micro unchanged here because clients match disjoint test halves —
        // replication only inflates micro when clients SHARE test matches.
        // Macro must be identical regardless.
        assert_eq!(base.macro_, after.macro_);
        // Per-test related counts did grow for client 1.
        let grew = after
            .trace
            .per_test
            .iter()
            .zip(&base.trace.per_test)
            .any(|(a, b)| a.related_per_client[1] > b.related_per_client[1]);
        assert!(grew);
    }

    #[test]
    fn shared_matches_show_replication_inflation() {
        // Both clients hold identical positive data; replication by client 0
        // then steals micro credit from client 1.
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.5)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.5)], 0, 1.0),
        ];
        let model = RuleModel::new(Arc::clone(&schema), 2, rules).unwrap();
        let mut train = Dataset::empty(Arc::clone(&schema), 2);
        let mut client_of = Vec::new();
        for c in 0..2u32 {
            for i in 0..5 {
                train.push_row(&[(0.6 + i as f32 * 0.05).into()], 1).unwrap();
                client_of.push(c);
            }
        }
        let mut test = Dataset::empty(schema, 2);
        test.push_row(&[0.8f32.into()], 1).unwrap();
        let est = CtflEstimator::new(model, CtflConfig { parallel: false, ..CtflConfig::default() });

        let base = est.estimate(&train, &client_of, &test).unwrap();
        assert!((base.micro[0] - base.micro[1]).abs() < 1e-12, "symmetry");

        // Client 0 replicates 20x.
        let dup: Vec<usize> = (0..5).flat_map(|i| std::iter::repeat_n(i, 20)).collect();
        let train2 = Dataset::concat([&train, &train.subset(&dup)]).unwrap();
        let mut client_of2 = client_of.clone();
        client_of2.extend(std::iter::repeat_n(0u32, dup.len()));
        let after = est.estimate(&train2, &client_of2, &test).unwrap();
        assert!(after.micro[0] > base.micro[0], "micro inflates");
        assert!(after.micro[1] < base.micro[1], "victim deficit");
        assert!((after.macro_[0] - base.macro_[0]).abs() < 1e-12, "macro robust");
        assert!((after.macro_[1] - base.macro_[1]).abs() < 1e-12, "macro robust");
    }

    #[test]
    fn participation_zeroes_effective_score_of_excluded_client() {
        use crate::robustness::ClientParticipation;
        let (est, train, client_of, test) = separable_setup();
        // Client 1's updates were rejected in every round (e.g. a NaN
        // corrupter): its raw micro score survives — its data still matches
        // tests — but its effective contribution must be exactly zero.
        let part = vec![
            ClientParticipation::full(10),
            ClientParticipation { accepted: 0, rejected: 10, missed: 0, scheduled_out: 0, rounds: 10 },
        ];
        let report = est.estimate_with_participation(&train, &client_of, &test, &part).unwrap();
        assert!(report.micro[1] > 0.0, "raw data-level score survives");
        assert_eq!(report.micro_effective[1], 0.0, "zero-element: excluded client earns nothing");
        assert_eq!(report.micro_effective[0], report.micro[0]);
        assert_eq!(report.participation_rate, vec![1.0, 0.0]);
        assert_eq!(report.robustness.suspected_unreliable, vec![1]);
        // Plain estimate defaults to full participation.
        let plain = est.estimate(&train, &client_of, &test).unwrap();
        assert_eq!(plain.micro_effective, plain.micro);
        assert!(plain.robustness.suspected_unreliable.is_empty());
    }

    #[test]
    fn slashing_threads_through_the_report() {
        use crate::robustness::slash_scores;
        let (est, mut train, client_of, test) = separable_setup();
        // Client 0 flips its labels; the report flags it as low-quality.
        for i in 0..10 {
            train.set_label(i, 1).unwrap();
        }
        let report = est.estimate(&train, &client_of, &test).unwrap();
        assert_eq!(report.flagged_clients(), vec![0]);
        let settled = slash_scores(&report.micro_effective, &report.flagged_clients()).unwrap();
        assert_eq!(settled[0], 0.0, "flagged client forfeits everything");
        let total: f64 = report.micro_effective.iter().sum();
        let settled_total: f64 = settled.iter().sum();
        assert!((total - settled_total).abs() < 1e-12, "redistribution preserves the total");
        assert!(settled[1] >= report.micro_effective[1]);
        // Out-of-range flag set is a typed error.
        assert!(slash_scores(&report.micro_effective, &[9]).is_err());
    }

    #[test]
    fn input_validation() {
        let (est, train, client_of, test) = separable_setup();
        let empty = Dataset::empty(Arc::clone(train.schema()), 2);
        assert!(est.estimate(&empty, &[], &test).is_err());
        assert!(est.estimate(&train, &client_of, &empty).is_err());
        assert!(est.estimate(&train, &client_of[..5], &test).is_err());
    }

    #[test]
    fn label_flipper_gets_blamed() {
        let (est, mut train, client_of, test) = separable_setup();
        // Client 0 flips its labels: its x<=0.5 rows become "positive".
        for i in 0..10 {
            train.set_label(i, 1).unwrap();
        }
        let report = est.estimate(&train, &client_of, &test).unwrap();
        // The model still predicts by rules; x<=0.5 test rows are classified
        // 0 but... the model is fixed here, so predictions unchanged; the
        // flipped training data no longer matches correct tests (labels
        // disagree) — client 0's micro score collapses to 0.
        assert_eq!(report.micro[0], 0.0);
        assert!(report.micro[1] > 0.0);
        // And the flipped rows match misclassified? None here (model is
        // perfect), so loss is 0; useless ratio of client 0 is 1.0.
        assert_eq!(report.robustness.clients[0].useless_ratio, 1.0);
        assert!(report.robustness.suspected_low_quality.contains(&0));
    }
}
