//! Property tests for the columnar data plane (ctfl-testkit harness).
//!
//! Two contracts the refactor rests on:
//!
//! 1. The compiled columnar batch evaluator fills an [`ActivationMatrix`]
//!    **bit-identically** to the legacy per-row reference path, on random
//!    schemas, datasets, rule sets, subsets and both parallelism settings.
//! 2. Zero-copy [`DatasetView`]s are semantically equal to materialized
//!    clones: a view-built coalition equals the concatenation of its
//!    members' cloned shards, row for row.
//!
//! Every failing case prints its seed; replay with
//! `CTFL_PROP_SEED=<seed> cargo test -q <test_name>`.

use ctfl::core::data::{Dataset, FeatureKind, FeatureSchema, FeatureValue};
use ctfl::core::model::RuleModel;
use ctfl::core::rule::{Predicate, Rule, RuleExpr};
use ctfl_testkit::prop::Gen;
use ctfl_testkit::{check, prop_assert, prop_assert_eq};

// ---------- generators ----------

#[derive(Debug, Clone)]
struct RandomTask {
    kinds: Vec<FeatureKind>,
    n_classes: usize,
    rows: Vec<(Vec<FeatureValue>, u32)>,
    rules: Vec<Rule>,
}

fn random_kind(g: &mut Gen) -> FeatureKind {
    if g.bool() {
        FeatureKind::continuous(0.0, 1.0)
    } else {
        FeatureKind::discrete(g.u32_in(2, 5))
    }
}

fn random_value(g: &mut Gen, kind: &FeatureKind) -> FeatureValue {
    match kind {
        FeatureKind::Continuous { .. } => (g.f64_in(0.0, 1.0) as f32).into(),
        FeatureKind::Discrete { arity } => g.u32_in(0, arity - 1).into(),
    }
}

fn random_predicate(g: &mut Gen, kinds: &[FeatureKind]) -> Predicate {
    let f = g.usize_in(0, kinds.len() - 1);
    match &kinds[f] {
        FeatureKind::Continuous { .. } => {
            let t = g.f64_in(0.0, 1.0) as f32;
            match g.usize_in(0, 3) {
                0 => Predicate::gt(f, t),
                1 => Predicate::ge(f, t),
                2 => Predicate::lt(f, t),
                _ => Predicate::le(f, t),
            }
        }
        FeatureKind::Discrete { arity } => {
            let c = g.u32_in(0, arity - 1);
            if g.bool() {
                Predicate::eq(f, c)
            } else {
                Predicate::neq(f, c)
            }
        }
    }
}

fn random_expr(g: &mut Gen, kinds: &[FeatureKind], depth: usize) -> RuleExpr {
    if depth == 0 || g.usize_in(0, 2) == 0 {
        return RuleExpr::pred(random_predicate(g, kinds));
    }
    match g.usize_in(0, 2) {
        0 => {
            let n = g.len_in(1, 3);
            RuleExpr::and(g.vec(n, |g| random_expr(g, kinds, depth - 1)))
        }
        1 => {
            let n = g.len_in(1, 3);
            RuleExpr::or(g.vec(n, |g| random_expr(g, kinds, depth - 1)))
        }
        _ => RuleExpr::not(random_expr(g, kinds, depth - 1)),
    }
}

fn random_task(g: &mut Gen) -> RandomTask {
    let n_features = g.len_in(1, 5);
    let kinds = g.vec(n_features, random_kind);
    let n_classes = g.usize_in(2, 4);
    let n_rows = g.len_in(0, 199);
    let rows = g.vec(n_rows, |g| {
        let row: Vec<FeatureValue> =
            (0..n_features).map(|f| random_value(g, &kinds[f])).collect();
        (row, g.u32_in(0, n_classes as u32 - 1))
    });
    // Up to 150 rules, so activation rows span one to three words and the
    // fill's multi-word scatter gets covered; up to 199 rows cover tail words.
    let n_rules = g.len_in(1, 150);
    let rules = g.vec(n_rules, |g| {
        let expr = random_expr(g, &kinds, 3);
        let class = g.usize_in(0, n_classes - 1);
        Rule::new(expr, class, g.f64_in(0.1, 2.0) as f32)
    });
    RandomTask { kinds, n_classes, rows, rules }
}

fn build(task: &RandomTask) -> (Dataset, RuleModel) {
    let schema = FeatureSchema::new(
        task.kinds.iter().enumerate().map(|(i, k)| (format!("f{i}"), *k)).collect(),
    );
    let mut ds = Dataset::empty(schema.clone(), task.n_classes);
    for (row, label) in &task.rows {
        ds.push_row(row, *label).expect("generated rows are schema-valid");
    }
    let model = RuleModel::new(schema, task.n_classes, task.rules.clone())
        .expect("generated rules are schema-valid");
    (ds, model)
}

// ---------- properties ----------

#[test]
fn batch_evaluator_is_bit_identical_to_rowwise() {
    check(
        "batch_evaluator_is_bit_identical_to_rowwise",
        48,
        |g| (random_task(g), g.bool()),
        |(task, parallel)| {
            let (ds, model) = build(task);
            let reference = model.activation_matrix_rowwise(&ds).expect("rowwise eval");
            let batched = model.activation_matrix(&ds, *parallel).expect("batched eval");
            prop_assert_eq!(&batched, &reference);
            Ok(())
        },
    );
}

#[test]
fn batch_evaluator_on_views_matches_materialized_subsets() {
    check(
        "batch_evaluator_on_views_matches_materialized_subsets",
        48,
        |g| {
            let task = random_task(g);
            let n = task.rows.len();
            let picks = g.vec(n, Gen::bool);
            (task, picks, g.bool())
        },
        |(task, picks, parallel)| {
            let (ds, model) = build(task);
            let indices: Vec<usize> =
                picks.iter().enumerate().filter(|(_, &p)| p).map(|(i, _)| i).collect();
            let view = ds.view_of(&indices);
            let materialized = view.materialize();
            prop_assert_eq!(materialized.len(), indices.len());
            let on_view = model.activation_matrix_view(&view, *parallel).expect("view eval");
            let on_clone = model.activation_matrix_rowwise(&materialized).expect("rowwise eval");
            prop_assert_eq!(&on_view, &on_clone);
            Ok(())
        },
    );
}

#[test]
fn view_built_coalitions_equal_materialized_clones() {
    check(
        "view_built_coalitions_equal_materialized_clones",
        48,
        |g| {
            let task = random_task(g);
            let n = task.rows.len();
            let client_of = g.vec(n, |g| g.u32_in(0, 2));
            let members = g.vec(3, Gen::bool);
            (task, client_of, members)
        },
        |(task, client_of, members)| {
            let (ds, _) = build(task);
            let shard_indices = |c: u32| -> Vec<usize> {
                client_of.iter().enumerate().filter(|(_, &o)| o == c).map(|(i, _)| i).collect()
            };
            // Coalition via zero-copy views, gathered into one dataset.
            let mut via_views = Dataset::empty(ds.schema().clone(), ds.n_classes());
            for c in 0..3u32 {
                if members[c as usize] {
                    via_views.extend_from_view(&ds.view_of(&shard_indices(c))).expect("same schema");
                }
            }
            // Coalition via materialized per-client clones.
            let shards: Vec<Dataset> =
                (0..3u32).filter(|&c| members[c as usize]).map(|c| ds.subset(&shard_indices(c))).collect();
            let via_clones = if shards.is_empty() {
                Dataset::empty(ds.schema().clone(), ds.n_classes())
            } else {
                Dataset::concat(shards.iter()).expect("same schema")
            };
            prop_assert_eq!(&via_views, &via_clones);
            prop_assert!(via_views.len() <= ds.len());
            Ok(())
        },
    );
}
