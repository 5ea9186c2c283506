//! Interpretation of participants' contributions (paper Section IV-B).
//!
//! During tracing, CTFL records for every client the weighted activation
//! frequency of each rule, split into *beneficial* (matches on correctly
//! classified tests) and *harmful* (matches on misclassified tests). The
//! most frequent rules characterise what a client's data is good (or bad)
//! at — the paper's Figure 7 / Table V case studies.
//!
//! The same bookkeeping powers **guided data collection**: misclassified
//! test instances whose activation vectors match too little training data
//! indicate under-covered scenarios; aggregating their activated rules tells
//! the federation which data to ask participants to collect.

use crate::activation::ActivationMatrix;
use crate::data::FeatureSchema;
use crate::rule::Rule;
use crate::tracing::TraceOutcome;

/// A rule reference with an accumulated (weighted) activation frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleFrequency {
    /// Rule index into the model's rule list.
    pub rule: usize,
    /// Weighted activation frequency.
    pub frequency: f64,
}

/// The interpretable profile of one participant.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientProfile {
    /// Client index.
    pub client: usize,
    /// Top rules whose matches earned this client credit, descending by
    /// weighted frequency.
    pub beneficial: Vec<RuleFrequency>,
    /// Top rules whose matches implicated this client in misclassifications.
    pub harmful: Vec<RuleFrequency>,
    /// Fraction of this client's training rows never matched by any test
    /// instance (its useless / low-quality data ratio).
    pub useless_ratio: f64,
}

/// Builds per-client profiles from a trace outcome.
///
/// `top_k` bounds how many rules are reported per list.
///
/// # Panics
/// Panics if an owner id in `client_of` is `>= outcome.n_clients`.
pub fn client_profiles(
    outcome: &TraceOutcome,
    client_of: &[u32],
    top_k: usize,
) -> Vec<ClientProfile> {
    let useless = useless_ratios(outcome, client_of);
    (0..outcome.n_clients)
        .map(|c| {
            let mut beneficial: Vec<RuleFrequency> = (0..outcome.n_rules)
                .map(|r| RuleFrequency { rule: r, frequency: outcome.benefit_freq(c, r) })
                .filter(|rf| rf.frequency > 0.0)
                .collect();
            beneficial.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
            beneficial.truncate(top_k);
            let mut harmful: Vec<RuleFrequency> = (0..outcome.n_rules)
                .map(|r| RuleFrequency { rule: r, frequency: outcome.harm_freq(c, r) })
                .filter(|rf| rf.frequency > 0.0)
                .collect();
            harmful.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
            harmful.truncate(top_k);
            ClientProfile { client: c, beneficial, harmful, useless_ratio: useless[c] }
        })
        .collect()
}

/// Each client's fraction of training rows (row `i` owned by `client_of[i]`)
/// that no test instance related to in either direction; 0 for a client
/// with no rows.
///
/// # Panics
/// Panics if an owner id is `>= outcome.n_clients`.
pub(crate) fn useless_ratios(outcome: &TraceOutcome, client_of: &[u32]) -> Vec<f64> {
    let n = outcome.n_clients;
    let mut total = vec![0usize; n];
    let mut unmatched = vec![0usize; n];
    for (i, &c) in client_of.iter().enumerate() {
        let c = c as usize;
        total[c] += 1;
        let b = outcome.train_benefit_counts.get(i).copied().unwrap_or(0);
        let h = outcome.train_harm_counts.get(i).copied().unwrap_or(0);
        if b == 0 && h == 0 {
            unmatched[c] += 1;
        }
    }
    total
        .iter()
        .zip(&unmatched)
        .map(|(&t, &u)| if t == 0 { 0.0 } else { u as f64 / t as f64 })
        .collect()
}

/// A data-collection recommendation: an under-covered test pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageGap {
    /// Rule indices frequently activated by uncovered, misclassified tests,
    /// with aggregated weighted frequencies (descending).
    pub frequent_rules: Vec<RuleFrequency>,
    /// How many misclassified test instances were under-covered.
    pub n_uncovered: usize,
    /// Class label these uncovered tests actually belong to.
    pub class: usize,
}

/// Identifies under-covered test scenarios for guided data collection.
///
/// A misclassified test instance is *under-covered* when fewer than
/// `min_related` training rows were related to it — this is the paper's
/// distinction between honest coverage gaps (few matches) and label-flip
/// attacks (many matches with contradictory labels).
///
/// Returns one [`CoverageGap`] per true class that has uncovered tests,
/// ordered by descending `n_uncovered`.
pub fn coverage_gaps(
    outcome: &TraceOutcome,
    test_acts: &ActivationMatrix,
    rule_weights: &[f64],
    min_related: u32,
    top_k: usize,
) -> Vec<CoverageGap> {
    let n_classes = outcome
        .per_test
        .iter()
        .map(|t| t.actual.max(t.predicted) + 1)
        .max()
        .unwrap_or(0);
    let n_rules = outcome.n_rules;
    let mut freq = vec![vec![0f64; n_rules]; n_classes];
    let mut counts = vec![0usize; n_classes];
    for (t, tt) in outcome.per_test.iter().enumerate() {
        if tt.correct() || tt.total_related() >= min_related as u64 {
            continue;
        }
        counts[tt.actual] += 1;
        let class_freq = &mut freq[tt.actual];
        test_acts.for_each_bit(t, |bit| class_freq[bit] += rule_weights[bit]);
    }
    let mut gaps: Vec<CoverageGap> = (0..n_classes)
        .filter(|&c| counts[c] > 0)
        .map(|c| {
            let mut frequent_rules: Vec<RuleFrequency> = (0..n_rules)
                .map(|r| RuleFrequency { rule: r, frequency: freq[c][r] })
                .filter(|rf| rf.frequency > 0.0)
                .collect();
            frequent_rules.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
            frequent_rules.truncate(top_k);
            CoverageGap { frequent_rules, n_uncovered: counts[c], class: c }
        })
        .collect();
    gaps.sort_by_key(|g| std::cmp::Reverse(g.n_uncovered));
    gaps
}

/// Pretty-prints a client profile against the model's rules and schema.
pub fn render_profile(profile: &ClientProfile, rules: &[Rule], schema: &FeatureSchema) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Client {}:", profile.client);
    let _ = writeln!(out, "  useless-data ratio: {:.1}%", profile.useless_ratio * 100.0);
    let _ = writeln!(out, "  beneficial characteristics:");
    for rf in &profile.beneficial {
        let _ = writeln!(out, "    [{:8.2}] {}", rf.frequency, rules[rf.rule].display(schema));
    }
    if !profile.harmful.is_empty() {
        let _ = writeln!(out, "  harmful characteristics:");
        for rf in &profile.harmful {
            let _ = writeln!(out, "    [{:8.2}] {}", rf.frequency, rules[rf.rule].display(schema));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{TestTrace, TraceOutcome};

    fn outcome_with_freqs() -> TraceOutcome {
        let mut o = TraceOutcome::from_per_test(
            vec![
                TestTrace {
                    predicted: 1,
                    actual: 1,
                    traced_class: 1,
                    denom: 1.0,
                    related_per_client: vec![2, 0],
                },
                TestTrace {
                    predicted: 0,
                    actual: 1,
                    traced_class: 0,
                    denom: 1.0,
                    related_per_client: vec![0, 1],
                },
            ],
            2,
            3,
        );
        // Client 0 benefits via rule 1 heavily, rule 0 lightly.
        o.client_rule_benefit[1] = 5.0; // client 0, rule 1
        o.client_rule_benefit[0] = 1.0; // client 0, rule 0
        // Client 1 harms via rule 2.
        o.client_rule_harm[3 + 2] = 2.5;
        o.train_benefit_counts = vec![1, 0, 0];
        o.train_harm_counts = vec![0, 1, 0];
        o
    }

    #[test]
    fn profiles_rank_rules_by_weighted_frequency() {
        let o = outcome_with_freqs();
        let profiles = client_profiles(&o, &[0, 1, 1], 10);
        assert_eq!(profiles[0].beneficial.len(), 2);
        assert_eq!(profiles[0].beneficial[0].rule, 1);
        assert_eq!(profiles[0].beneficial[0].frequency, 5.0);
        assert_eq!(profiles[0].beneficial[1].rule, 0);
        assert!(profiles[0].harmful.is_empty());
        assert_eq!(profiles[1].harmful[0].rule, 2);
        // Client 0: 1 row, matched -> useless 0. Client 1: rows 1 (harm) and
        // 2 (never) -> 0.5.
        assert_eq!(profiles[0].useless_ratio, 0.0);
        assert_eq!(profiles[1].useless_ratio, 0.5);
    }

    #[test]
    fn top_k_truncates() {
        let o = outcome_with_freqs();
        let profiles = client_profiles(&o, &[0, 1, 1], 1);
        assert_eq!(profiles[0].beneficial.len(), 1);
        assert_eq!(profiles[0].beneficial[0].rule, 1);
    }

    #[test]
    fn coverage_gaps_only_report_uncovered_misclassifications() {
        let o = outcome_with_freqs();
        // Test activation matrix: row 0 activates rule 1; row 1 activates
        // rules 0 and 2.
        let mut acts = ActivationMatrix::zeros(0, 3);
        acts.push_row(&[false, true, false]).unwrap();
        acts.push_row(&[true, false, true]).unwrap();
        let weights = [1.0, 1.0, 0.5];
        // Row 1 is misclassified with 1 related row; min_related=2 makes it
        // under-covered.
        let gaps = coverage_gaps(&o, &acts, &weights, 2, 10);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].class, 1);
        assert_eq!(gaps[0].n_uncovered, 1);
        let rules: Vec<usize> = gaps[0].frequent_rules.iter().map(|r| r.rule).collect();
        assert_eq!(rules, vec![0, 2]); // 1.0 > 0.5
        // min_related=1 means the single related row suffices: no gaps.
        let gaps = coverage_gaps(&o, &acts, &weights, 1, 10);
        assert!(gaps.is_empty());
    }

    #[test]
    fn render_profile_includes_rule_text() {
        use crate::data::{FeatureKind, FeatureSchema};
        use crate::rule::{conjunction, Predicate};
        let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
        let rules = vec![
            conjunction(vec![Predicate::gt(0, 0.1)], 1, 1.0),
            conjunction(vec![Predicate::gt(0, 0.2)], 1, 1.0),
            conjunction(vec![Predicate::le(0, 0.3)], 0, 1.0),
        ];
        let o = outcome_with_freqs();
        let profiles = client_profiles(&o, &[0, 1, 1], 10);
        let text = render_profile(&profiles[0], &rules, &schema);
        assert!(text.contains("x > 0.2"), "{text}");
        assert!(text.contains("beneficial"), "{text}");
    }
}
