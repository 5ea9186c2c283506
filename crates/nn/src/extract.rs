//! Rule extraction from a binarized logical network.
//!
//! Builds each logical node straight from its selected literal predicates
//! (`1(θ > 0.5)`) into a `ctfl-core` [`RuleExpr`]; the head slots are those
//! nodes followed by the literals themselves. Each slot gets a supported
//! class and an importance weight from the linear head, and the result is a
//! [`RuleModel`].
//!
//! **Exactness (binary tasks):** the extracted model classifies *identically*
//! to the binarized network. Constant-true nodes (a conjunction whose
//! binarized selection is empty) are folded into the model's per-class
//! biases; constant-false nodes (an empty disjunction) are dropped; for
//! every remaining slot the
//! rule's weight is the head margin `|v[s][1] − v[s][0]|` and its class the
//! margin's sign, so the weighted vote difference of the [`RuleModel`]
//! equals the logit difference of the network. Verified by tests.
//!
//! For multi-class networks the mapping (`class = argmax_c v[s][c]`,
//! `weight = top margin`) is an approximation; the paper's scope is binary.

use ctfl_core::data::FeatureSchema;
use ctfl_core::error::Result;
use ctfl_core::model::RuleModel;
use ctfl_core::rule::{Rule, RuleExpr};
use std::sync::Arc;

use crate::logical::NodeKind;
use crate::net::LogicalNet;

/// A head slot's expression: logical constants are tracked exactly so they
/// can be folded or dropped.
#[derive(Debug, PartialEq)]
enum Built {
    ConstTrue,
    ConstFalse,
    Expr(RuleExpr),
}

/// Options for rule extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractOptions {
    /// Drop rules whose head margin is at most this (absolute) value.
    /// `0.0` (default) preserves exact decision equivalence with the
    /// binarized network; small positive values trade a bounded decision
    /// perturbation for a cleaner rule set.
    pub prune_margin: f32,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { prune_margin: 0.0 }
    }
}

/// Extracts the rule-based model from a trained network.
pub fn extract_rules(net: &LogicalNet, options: ExtractOptions) -> Result<RuleModel> {
    let schema: &Arc<FeatureSchema> = net.schema();
    let literals = net.encoder().literals();
    let predicate = |i: usize| RuleExpr::pred(literals[i].to_predicate());

    // Head slots: the layer's nodes in order, then the literals themselves.
    let layer = net.layer();
    let nodes = layer
        .kinds()
        .iter()
        .enumerate()
        .map(|(j, &kind)| combine(kind, layer.selected(j).into_iter().map(predicate).collect()));
    let slots = nodes.chain((0..literals.len()).map(|i| Built::Expr(predicate(i))));
    let head = net.head();
    let n_classes = net.n_classes();
    let mut biases: Vec<f64> = head.bias().iter().map(|&b| f64::from(b)).collect();
    let mut rules = Vec::new();
    for (s, built) in slots.enumerate() {
        match built {
            Built::ConstFalse => {}
            Built::ConstTrue => {
                // Always-active slot: its head weights are pure bias.
                for (c, b) in biases.iter_mut().enumerate() {
                    *b += f64::from(head.weights().get(s, c));
                }
            }
            Built::Expr(expr) => {
                let (class, weight) = slot_class_weight(head.weights().row(s), n_classes);
                if weight <= options.prune_margin {
                    continue;
                }
                rules.push(Rule::new(expr, class, weight));
            }
        }
    }
    RuleModel::with_biases(Arc::clone(schema), n_classes, rules, Some(biases))
}

/// A node's expression over its selected literal predicates: an empty AND
/// is true, an empty OR false, and a single predicate stands alone.
fn combine(kind: NodeKind, mut parts: Vec<RuleExpr>) -> Built {
    match (kind, parts.len()) {
        (NodeKind::Conj, 0) => Built::ConstTrue,
        (NodeKind::Disj, 0) => Built::ConstFalse,
        (_, 1) => Built::Expr(parts.pop().expect("len checked")),
        (NodeKind::Conj, _) => Built::Expr(RuleExpr::And(parts)),
        (NodeKind::Disj, _) => Built::Expr(RuleExpr::Or(parts)),
    }
}

/// Maps a head-weight row to (supported class, rule weight).
fn slot_class_weight(v: &[f32], n_classes: usize) -> (usize, f32) {
    if n_classes == 2 {
        let margin = v[1] - v[0];
        if margin >= 0.0 {
            (1, margin)
        } else {
            (0, -margin)
        }
    } else {
        // Multi-class approximation: strongest class, margin over runner-up.
        let mut best = 0usize;
        for (c, &val) in v.iter().enumerate() {
            if val >= v[best] {
                best = c;
            }
        }
        let runner_up = v
            .iter()
            .enumerate()
            .filter(|(c, _)| *c != best)
            .map(|(_, &val)| val)
            .fold(f32::NEG_INFINITY, f32::max);
        (best, (v[best] - runner_up).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LogicalNet, LogicalNetConfig};
    use ctfl_core::data::{Dataset, FeatureKind};

    fn cfg(seed: u64) -> LogicalNetConfig {
        LogicalNetConfig {
            tau_d: 6,
            layer_sizes: vec![16],
            epochs: 50,
            batch_size: 32,
            seed,
            ..LogicalNetConfig::default()
        }
    }

    fn mixed_dataset() -> Dataset {
        // label = (x > 0.5 AND cat = 1) OR cat = 2
        let schema = FeatureSchema::new(vec![
            ("x", FeatureKind::continuous(0.0, 1.0)),
            ("cat", FeatureKind::discrete(3)),
        ]);
        let mut ds = Dataset::empty(schema, 2);
        for i in 0..300 {
            let x = (i % 100) as f32 / 100.0;
            let cat = (i % 3) as u32;
            let label = ((x > 0.5 && cat == 1) || cat == 2) as u32;
            ds.push_row(&[x.into(), cat.into()], label).unwrap();
        }
        ds
    }

    #[test]
    fn extracted_model_matches_network_predictions_exactly() {
        let ds = mixed_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg(11)).unwrap();
        net.fit(&ds).unwrap();
        let model = extract_rules(&net, ExtractOptions::default()).unwrap();
        let encoded = net.encode(&ds).unwrap();
        let net_preds = net.predict_encoded(&encoded.x);
        let model_preds = model.predict(&ds).unwrap();
        assert_eq!(net_preds, model_preds, "binarized net and rule model must agree");
    }

    #[test]
    fn rule_activations_match_expr_evaluation() {
        // Every non-constant head slot's expression must evaluate exactly
        // like the discrete network's activation for that slot. We verify
        // through the model's total per-class votes instead of slot-by-slot
        // (constant slots are folded), which the exact-match test above
        // already implies; here we additionally check a direct semantic
        // invariant: model activations reproduce model classification.
        let ds = mixed_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg(13)).unwrap();
        net.fit(&ds).unwrap();
        let model = extract_rules(&net, ExtractOptions::default()).unwrap();
        let acts = model.activation_matrix(&ds, false).unwrap();
        for i in 0..ds.len() {
            assert_eq!(
                model.classify_from_activations(&acts, i),
                model.classify(&ds.row(i)),
                "row {i}"
            );
        }
    }

    #[test]
    fn extraction_learns_the_planted_rule_structure() {
        let ds = mixed_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg(17)).unwrap();
        let report = net.fit(&ds).unwrap();
        assert!(report.best_accuracy > 0.9, "accuracy {}", report.best_accuracy);
        let model = extract_rules(&net, ExtractOptions::default()).unwrap();
        // The model must actually use rules (not just biases).
        assert!(!model.rules().is_empty());
        // And achieve the same accuracy as the network.
        let acc = model.accuracy(&ds).unwrap();
        assert!(acc > 0.9, "rule model accuracy {acc}");
    }

    #[test]
    fn pruning_threshold_drops_weak_rules() {
        let ds = mixed_dataset();
        let mut net = LogicalNet::new(Arc::clone(ds.schema()), 2, cfg(19)).unwrap();
        net.fit(&ds).unwrap();
        let full = extract_rules(&net, ExtractOptions::default()).unwrap();
        let pruned = extract_rules(&net, ExtractOptions { prune_margin: 0.05 }).unwrap();
        assert!(pruned.rules().len() <= full.rules().len());
        for r in pruned.rules() {
            assert!(r.weight > 0.05);
        }
    }

    #[test]
    fn constant_folding() {
        // Direct unit tests of `combine`.
        use ctfl_core::rule::Predicate;
        let e = || RuleExpr::pred(Predicate::eq(0, 1));
        assert_eq!(combine(NodeKind::Conj, vec![]), Built::ConstTrue);
        assert_eq!(combine(NodeKind::Disj, vec![]), Built::ConstFalse);
        // Singletons flatten.
        for kind in [NodeKind::Conj, NodeKind::Disj] {
            assert_eq!(combine(kind, vec![e()]), Built::Expr(e()), "{kind:?}");
        }
        let (and, or) = (RuleExpr::And(vec![e(), e()]), RuleExpr::Or(vec![e(), e()]));
        assert_eq!(combine(NodeKind::Conj, vec![e(), e()]), Built::Expr(and));
        assert_eq!(combine(NodeKind::Disj, vec![e(), e()]), Built::Expr(or));
    }

    #[test]
    fn slot_class_weight_binary_and_multiclass() {
        let (c, w) = slot_class_weight(&[0.2, 0.7], 2);
        assert_eq!(c, 1);
        assert!((w - 0.5).abs() < 1e-6);
        let (c, w) = slot_class_weight(&[0.9, 0.4], 2);
        assert_eq!(c, 0);
        assert!((w - 0.5).abs() < 1e-6);
        // Tie goes positive with weight 0.
        assert_eq!(slot_class_weight(&[0.3, 0.3], 2), (1, 0.0));
        let (c, w) = slot_class_weight(&[0.1, 0.8, 0.5], 3);
        assert_eq!(c, 1);
        assert!((w - 0.3).abs() < 1e-6);
    }
}
