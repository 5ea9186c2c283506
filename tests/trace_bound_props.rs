//! Property tests for the trace kernel's missing-weight bound: wide, dense
//! activation rows where most work groups carry enough traced bits to
//! build the bound, and many train rows sit at the Eq. 4 threshold.
//!
//! The kernel rules a train row out only when the bound proves it cannot
//! reach the threshold, and tests every other row exactly, so both row
//! stores and every thread count must equal the pinned per-bit oracle
//! `trace_reference` with `==`.
//!
//! Every failing case prints its seed; replay with
//! `CTFL_PROP_SEED=<seed> cargo test -q <test_name>`.

use ctfl::core::activation::ActivationMatrix;
use ctfl::core::shard::{ActivationShard, ShardedActivations};
use ctfl::core::tracing::{
    trace, trace_reference, trace_sharded, ShardedTraceInputs, TraceConfig, TraceInputs,
};
use ctfl_testkit::prop::Gen;
use ctfl_testkit::{check, prop_assert};

#[derive(Debug, Clone)]
struct WideCase {
    n_rules: usize,
    n_clients: u32,
    family: usize,
    weights: Vec<f64>,
    tau_w: f64,
    /// Rule `r` supports class `rule_class[r]`.
    rule_class: Vec<u32>,
    train: Vec<(Vec<u64>, u32)>,       // packed row, label
    test: Vec<(Vec<u64>, u32, usize)>, // packed row, label, prediction
    /// Contiguous shards of the train rows: (end row, owning client).
    shards: Vec<(usize, u32)>,
}

/// One of six weight families: uniform, all equal (exact ties at
/// `τ·denom`), powers of two, zeros mixed in, 1e6/1e-6 mixes, and a
/// Pareto heavy tail.
fn family_weight(g: &mut Gen, family: usize) -> f64 {
    match family {
        0 => g.f64_in(0.05, 2.0),
        1 => 1.0,
        2 => 2f64.powi(g.usize_in(0, 16) as i32 - 8),
        3 => [0.0, g.f64_in(0.05, 2.0)][g.usize_in(0, 1)],
        4 => [1e6, 1e-6][g.usize_in(0, 1)],
        _ => (1.0 - g.f64_in(0.0, 0.999)).powf(-1.0 / 1.2),
    }
}

fn random_row(g: &mut Gen, n_rules: usize, density: f64) -> Vec<u64> {
    let set: Vec<usize> = (0..n_rules).filter(|_| g.f64_in(0.0, 1.0) < density).collect();
    ActivationMatrix::build_mask(n_rules, set)
}

fn wide_case(g: &mut Gen) -> WideCase {
    let n_rules = g.len_in(65, 300);
    let family = g.usize_in(0, 5);
    let weights = g.vec(n_rules, |g| family_weight(g, family));
    let tau_w = [0.5, 0.8, 0.9, 0.95, 1.0][g.usize_in(0, 4)];
    let rule_class = g.vec(n_rules, |g| g.u32_in(0, 1));
    let density = g.f64_in(0.4, 0.95);
    let n_test = g.len_in(1, 12);
    let test =
        g.vec(n_test, |g| (random_row(g, n_rules, density), g.u32_in(0, 1), g.usize_in(0, 1)));
    // Half the train rows are near-copies of a test row, labeled with its
    // traced class (its prediction), that drop a few bits: they sit at or
    // near the threshold. Up to 260 rows, so a class arena's rows cross
    // 64-row blocks and end in a short one.
    let n_train = g.len_in(1, 260);
    let train = g.vec(n_train, |g| {
        if g.bool() {
            let (row, _, prediction) = &test[g.usize_in(0, n_test - 1)];
            let mut row = row.clone();
            for _ in 0..g.usize_in(0, 6) {
                let b = g.usize_in(0, n_rules - 1);
                row[b / 64] &= !(1 << (b % 64));
            }
            (row, *prediction as u32)
        } else {
            (random_row(g, n_rules, density), g.u32_in(0, 1))
        }
    });
    let n_clients = g.u32_in(1, 4);
    let n_cuts = g.usize_in(0, 4);
    let mut cuts = g.vec(n_cuts, |g| g.usize_in(0, n_train));
    cuts.push(n_train);
    cuts.sort_unstable();
    let shards = cuts.into_iter().map(|end| (end, g.u32_in(0, n_clients - 1))).collect();
    WideCase { n_rules, n_clients, family, weights, tau_w, rule_class, train, test, shards }
}

#[test]
fn wide_dense_traces_match_the_oracle_for_every_grouping_store_and_thread_count() {
    check(
        "wide_dense_traces_match_the_oracle_for_every_grouping_store_and_thread_count",
        64,
        wide_case,
        |case| {
            let matrix = |rows: &mut dyn Iterator<Item = &Vec<u64>>| {
                let mut m = ActivationMatrix::zeros(0, case.n_rules);
                rows.for_each(|r| m.extend_from_words(1, r).unwrap());
                m
            };
            let train = matrix(&mut case.train.iter().map(|(r, _)| r));
            let train_labels: Vec<u32> = case.train.iter().map(|&(_, l)| l).collect();
            let test = matrix(&mut case.test.iter().map(|(r, _, _)| r));
            let test_labels: Vec<u32> = case.test.iter().map(|&(_, l, _)| l).collect();
            let predictions: Vec<usize> = case.test.iter().map(|&(_, _, p)| p).collect();
            let class_masks: Vec<Vec<u64>> = (0..2)
                .map(|c| {
                    let rules = (0..case.n_rules).filter(|&r| case.rule_class[r] == c);
                    ActivationMatrix::build_mask(case.n_rules, rules)
                })
                .collect();

            let mut shards = Vec::new();
            let mut client_of = Vec::new();
            let mut start = 0;
            for &(end, client) in &case.shards {
                let acts = matrix(&mut case.train[start..end].iter().map(|(r, _)| r));
                let labels = train_labels[start..end].to_vec();
                shards.push(ActivationShard { client, acts, labels });
                client_of.resize(end, client);
                start = end;
            }
            let store = ShardedActivations::from_shards(shards).unwrap();

            let mono = TraceInputs {
                train_acts: &train,
                train_labels: &train_labels,
                client_of: &client_of,
                n_clients: case.n_clients as usize,
                test_acts: &test,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: &case.weights,
                class_masks: &class_masks,
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: case.n_clients as usize,
                test_acts: &test,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: &case.weights,
                class_masks: &class_masks,
            };
            let serial =
                TraceConfig { tau_w: case.tau_w, parallel: false, ..TraceConfig::default() };
            let oracle = trace_reference(&mono, &serial).unwrap();
            for threads in [1, 2, 3] {
                let cfg = TraceConfig { parallel: true, threads, ..serial };
                let (from_mono, from_store) =
                    (trace(&mono, &cfg).unwrap(), trace_sharded(&sharded, &cfg).unwrap());
                prop_assert!(
                    from_mono == oracle,
                    "pooled store diverged: family {} threads={threads}",
                    case.family
                );
                prop_assert!(
                    from_store == oracle,
                    "sharded store diverged: family {} threads={threads}",
                    case.family
                );
            }
            Ok(())
        },
    );
}
