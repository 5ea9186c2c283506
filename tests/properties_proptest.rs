//! Property-based tests over the core invariants (ctfl-testkit harness;
//! this file replaced its `proptest` ancestor one strategy at a time).
//!
//! These fuzz the *contracts* the paper's correctness rests on: the trace
//! kernel equals its pinned per-bit oracle; allocation satisfies the
//! Section III-D properties on arbitrary traces; the macro scheme is
//! replication-invariant; Shapley satisfies its axioms on random games; the
//! bit-packed activation matrix matches a naive reference.
//!
//! Every failing case prints its seed; replay with
//! `CTFL_PROP_SEED=<seed> cargo test -q <test_name>`.

use ctfl::core::activation::ActivationMatrix;
use ctfl::core::allocation::{macro_scores, micro_scores, CreditDirection};
use ctfl::core::properties;
use ctfl::core::tracing::{
    trace, trace_reference, TestTrace, TraceConfig, TraceInputs, TraceOutcome,
};
use ctfl::valuation::shapley::exact_shapley;
use ctfl::valuation::utility::TableUtility;
use ctfl_testkit::prop::Gen;
use ctfl_testkit::{check, prop_assert, prop_assert_eq};

// ---------- generators ----------

#[derive(Debug, Clone)]
struct RandomTraceSetup {
    n_rules: usize,
    train_rows: Vec<(Vec<bool>, u32, u32)>, // bits, label, client
    test_rows: Vec<(Vec<bool>, u32, usize)>, // bits, label, prediction
    weights: Vec<f64>,
    tau_w: f64,
}

fn trace_setup(g: &mut Gen) -> RandomTraceSetup {
    let n_rules = g.len_in(2, 24);
    let n_train = g.len_in(1, 39);
    let n_test = g.len_in(1, 19);
    let row = |g: &mut Gen| g.vec(n_rules, Gen::bool);
    let train_rows = g.vec(n_train, |g| (row(g), g.u32_in(0, 1), g.u32_in(0, 3)));
    let test_rows = g.vec(n_test, |g| (row(g), g.u32_in(0, 1), g.usize_in(0, 1)));
    let weights = g.vec(n_rules, |g| g.f64_in(0.05, 2.0));
    let tau_w = g.f64_in(0.3, 1.0);
    RandomTraceSetup { n_rules, train_rows, test_rows, weights, tau_w }
}

/// Traces `setup` serially with `tracer`: the kernel or its oracle.
fn run_trace(
    setup: &RandomTraceSetup,
    tracer: fn(&TraceInputs<'_>, &TraceConfig) -> ctfl::core::Result<TraceOutcome>,
) -> TraceOutcome {
    let mut train = ActivationMatrix::zeros(0, setup.n_rules);
    let mut train_labels = Vec::new();
    let mut client_of = Vec::new();
    for (bits, label, client) in &setup.train_rows {
        train.push_row(bits).unwrap();
        train_labels.push(*label);
        client_of.push(*client);
    }
    let mut test = ActivationMatrix::zeros(0, setup.n_rules);
    let mut test_labels = Vec::new();
    let mut predictions = Vec::new();
    for (bits, label, pred) in &setup.test_rows {
        test.push_row(bits).unwrap();
        test_labels.push(*label);
        predictions.push(*pred);
    }
    // Alternate rules between the two classes.
    let masks = vec![
        ActivationMatrix::build_mask(setup.n_rules, (0..setup.n_rules).filter(|r| r % 2 == 0)),
        ActivationMatrix::build_mask(setup.n_rules, (0..setup.n_rules).filter(|r| r % 2 == 1)),
    ];
    let inputs = TraceInputs {
        train_acts: &train,
        train_labels: &train_labels,
        client_of: &client_of,
        n_clients: 4,
        test_acts: &test,
        test_labels: &test_labels,
        predictions: &predictions,
        weights: &setup.weights,
        class_masks: &masks,
    };
    tracer(&inputs, &TraceConfig { tau_w: setup.tau_w, parallel: false, ..TraceConfig::default() })
        .unwrap()
}

// ---------- kernel vs oracle ----------

/// The grouped kernel and the ungrouped per-bit oracle, compared on every
/// field with `==`.
#[test]
fn tracing_strategies_are_semantically_identical() {
    check("tracing_strategies_are_semantically_identical", 64, trace_setup, |setup| {
        prop_assert_eq!(run_trace(setup, trace), run_trace(setup, trace_reference));
        Ok(())
    });
}

#[test]
fn tau_w_is_monotone() {
    check("tau_w_is_monotone", 64, trace_setup, |setup| {
        // Raising tau_w can only shrink the related sets.
        let loose = run_trace(
            &RandomTraceSetup { tau_w: (setup.tau_w * 0.5).max(0.05), ..setup.clone() },
            trace,
        );
        let strict = run_trace(setup, trace);
        for (l, s) in loose.per_test.iter().zip(&strict.per_test) {
            for (cl, cs) in l.related_per_client.iter().zip(&s.related_per_client) {
                prop_assert!(cl >= cs, "loose {cl} < strict {cs}");
            }
        }
        Ok(())
    });
}

// ---------- allocation properties (paper §III-D) ----------

fn arbitrary_outcome(g: &mut Gen) -> TraceOutcome {
    let n = g.len_in(1, 29);
    let per_test = g.vec(n, |g| {
        let correct = g.bool();
        TestTrace {
            predicted: 1,
            actual: if correct { 1 } else { 0 },
            traced_class: 1,
            denom: 1.0,
            related_per_client: g.vec(4, |g| g.u32_in(0, 29)),
        }
    });
    TraceOutcome::from_per_test(per_test, 4, 0)
}

/// §III-D group rationality: micro scores distribute exactly the matched
/// accuracy mass — no credit appears or vanishes.
#[test]
fn micro_scores_sum_to_matched_accuracy() {
    check("micro_scores_sum_to_matched_accuracy", 128, arbitrary_outcome, |outcome| {
        let scores = micro_scores(outcome, CreditDirection::Gain);
        let matched = outcome
            .per_test
            .iter()
            .filter(|t| t.correct() && t.total_related() > 0)
            .count() as f64
            / outcome.per_test.len() as f64;
        let sum: f64 = scores.iter().sum();
        prop_assert!((sum - matched).abs() < 1e-9, "sum {sum} != matched {matched}");
        prop_assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        Ok(())
    });
}

/// §III-D additivity: gain- and loss-direction credit partition the matched
/// tests exactly.
#[test]
fn gain_and_loss_partition_the_matched_tests() {
    check("gain_and_loss_partition_the_matched_tests", 128, arbitrary_outcome, |outcome| {
        let gain: f64 = micro_scores(outcome, CreditDirection::Gain).iter().sum();
        let loss: f64 = micro_scores(outcome, CreditDirection::Loss).iter().sum();
        let matched = outcome.per_test.iter().filter(|t| t.total_related() > 0).count() as f64
            / outcome.per_test.len() as f64;
        prop_assert!((gain + loss - matched).abs() < 1e-9);
        Ok(())
    });
}

/// §III-D symmetry: clients with identical related counts receive identical
/// scores, micro and macro.
#[test]
fn symmetric_clients_get_equal_scores() {
    check("symmetric_clients_get_equal_scores", 128, arbitrary_outcome, |outcome| {
        // Force clients 0 and 1 symmetric, then check equality.
        let mut o = outcome.clone();
        for t in &mut o.per_test {
            let v = t.related_per_client[0];
            t.related_per_client[1] = v;
        }
        let micro = micro_scores(&o, CreditDirection::Gain);
        prop_assert!((micro[0] - micro[1]).abs() < 1e-12);
        let macro_ = macro_scores(&o, 2, CreditDirection::Gain).unwrap();
        prop_assert!((macro_[0] - macro_[1]).abs() < 1e-12);
        Ok(())
    });
}

/// §III-D zero element: a client related to nothing scores exactly zero.
#[test]
fn zero_element_client_scores_zero() {
    check("zero_element_client_scores_zero", 128, arbitrary_outcome, |outcome| {
        let mut o = outcome.clone();
        for t in &mut o.per_test {
            t.related_per_client[3] = 0;
        }
        let micro = micro_scores(&o, CreditDirection::Gain);
        prop_assert_eq!(micro[3], 0.0);
        let macro_ = macro_scores(&o, 1, CreditDirection::Gain).unwrap();
        prop_assert_eq!(macro_[3], 0.0);
        Ok(())
    });
}

/// The executable §III-D checkers in `ctfl-core::properties` must agree with
/// the direct assertions above on arbitrary traces — one checker per
/// property: group rationality, symmetry, zero element, additivity.
#[test]
fn executable_property_checkers_hold_on_arbitrary_traces() {
    check(
        "executable_property_checkers_hold_on_arbitrary_traces",
        128,
        |g| {
            let outcome = arbitrary_outcome(g);
            let split = g.vec(outcome.per_test.len(), |g| g.bool());
            (outcome, split)
        },
        |(outcome, split)| {
            let gr = properties::group_rationality(outcome, 1e-9);
            prop_assert!(gr.holds, "group rationality deviation {}", gr.max_deviation);

            let mut sym = outcome.clone();
            for t in &mut sym.per_test {
                t.related_per_client[1] = t.related_per_client[0];
            }
            let sy = properties::symmetry(&sym, 0, 1, 1e-12);
            prop_assert!(sy.holds, "symmetry deviation {}", sy.max_deviation);

            let mut zeroed = outcome.clone();
            for t in &mut zeroed.per_test {
                t.related_per_client[3] = 0;
            }
            let ze = properties::zero_element(&zeroed, 3, 0.0);
            prop_assert!(ze.holds, "zero element deviation {}", ze.max_deviation);

            let ad = properties::additivity(outcome, split, 1e-9);
            prop_assert!(ad.holds, "additivity deviation {}", ad.max_deviation);
            Ok(())
        },
    );
}

#[test]
fn macro_is_invariant_to_count_inflation() {
    check(
        "macro_is_invariant_to_count_inflation",
        128,
        |g| (arbitrary_outcome(g), g.u32_in(2, 9)),
        |(outcome, factor)| {
            // Multiplying a client's related counts (pure replication) must
            // not change macro scores once the client already passes delta.
            let delta = 1;
            let base = macro_scores(outcome, delta, CreditDirection::Gain).unwrap();
            let mut inflated = outcome.clone();
            for t in &mut inflated.per_test {
                t.related_per_client[2] = t.related_per_client[2].saturating_mul(*factor);
            }
            let after = macro_scores(&inflated, delta, CreditDirection::Gain).unwrap();
            for (b, a) in base.iter().zip(&after) {
                prop_assert!((b - a).abs() < 1e-12, "macro changed: {b} -> {a}");
            }
            Ok(())
        },
    );
}

// ---------- Shapley axioms on random games ----------

#[test]
fn shapley_efficiency_on_random_games() {
    check(
        "shapley_efficiency_on_random_games",
        64,
        |g| g.vec(16, |g| g.f64_in(0.0, 100.0)),
        |values| {
            let u = TableUtility::new(4, values.clone());
            let phi = exact_shapley(&u);
            let sum: f64 = phi.iter().sum();
            prop_assert!((sum - (values[15] - values[0])).abs() < 1e-6);
            Ok(())
        },
    );
}

#[test]
fn shapley_dummy_axiom() {
    check(
        "shapley_dummy_axiom",
        64,
        |g| g.vec(8, |g| g.f64_in(0.0, 100.0)),
        |values| {
            // Build a 4-player game where player 3 never adds value:
            // v(S u {3}) = v(S).
            let mut table = vec![0.0; 16];
            for m in 0..8usize {
                table[m] = values[m];
                table[m | 0b1000] = values[m];
            }
            let u = TableUtility::new(4, table);
            let phi = exact_shapley(&u);
            prop_assert!(phi[3].abs() < 1e-9, "dummy got {}", phi[3]);
            Ok(())
        },
    );
}

// ---------- bit-packed activation matrix vs naive reference ----------

#[test]
fn activation_matrix_matches_naive_reference() {
    check(
        "activation_matrix_matches_naive_reference",
        128,
        |g| {
            let n_bits = g.len_in(1, 99);
            let n_rows = g.len_in(1, 19);
            g.vec(n_rows, |g| g.vec(n_bits, Gen::bool))
        },
        |rows| {
            let n_bits = rows[0].len();
            let m = ActivationMatrix::from_rows(n_bits, rows).unwrap();
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(m.row_count(i) as usize, row.iter().filter(|&&b| b).count());
                for (bit, &b) in row.iter().enumerate() {
                    prop_assert_eq!(m.get(i, bit), b);
                }
            }
            Ok(())
        },
    );
}
