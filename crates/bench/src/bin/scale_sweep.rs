//! **Scale gate**: the million-row / thousand-client data plane.
//!
//! Sweeps the tracing hot path over a `rows × clients` grid —
//! `{20k, 200k, 1M} × {10, 100, 1000}` — with the federation stream-built
//! as per-client shards ([`ctfl_data::synthetic::federated_shards`]) and
//! traced straight off the [`ShardedActivations`] store. Four things must
//! hold for `SCALE_OK` to print:
//!
//! 1. **Bit-identity at every grid point** — serial trace, parallel trace
//!    (auto *and* forced thread counts) and the sharded-store trace all
//!    produce the same [`TraceOutcome`](ctfl_core::tracing::TraceOutcome);
//!    the per-client micro scores hash onto stdout.
//! 2. **Sharded-vs-monolithic parity** — the sharded store flattens
//!    word-for-word to the monolithic matrix (checked at the smallest
//!    cells where the double-build is cheap).
//! 3. **Speedup** — at the largest cell (1M rows × 1000 clients) the fast
//!    path must beat the pinned per-bit serial oracle
//!    ([`trace_reference`]) by at least 2x. Single-core containers pass
//!    this too: the margin is algorithmic (word-parallel popcounts +
//!    signature dedup + member-count multiplication), not thread count.
//! 4. **Coalition-sweep parity** — leave-one-out and sampled-Shapley over
//!    32 consortium blocks of the 1000 clients are byte-identical with
//!    parallel sweeps on and off.
//! 5. **Wide-cell parity** — a seeded 20k-row federation of 230-bit rows
//!    at ~45% density with heavy-tailed rule weights, where the trace's
//!    work groups are wide enough to build the missing-weight bound (the
//!    planted five-rule model never is): serial, parallel, sharded and the
//!    per-bit oracle are one outcome, and its score hash is on stdout.
//!
//! Output discipline: everything on **stdout** is deterministic (grid
//! shape, score hashes, gate verdicts) so `run_experiments.sh --check` can
//! double-run and byte-diff it; wall-clock numbers go to **stderr** and to
//! `results/BENCH_scale.json`.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::measure::median_ns;
use ctfl_core::activation::ActivationMatrix;
use ctfl_core::allocation::{micro_scores, CreditDirection};
use ctfl_core::batch::CompiledRules;
use ctfl_core::data::DatasetView;
use ctfl_core::model::RuleModel;
use ctfl_core::shard::{ActivationShard, ShardedActivations};
use ctfl_core::tracing::{
    trace, trace_reference, trace_sharded, ShardedTraceInputs, TraceConfig, TraceInputs,
};
use ctfl_data::synthetic::{federated_shards, generate, SyntheticConfig};
use ctfl_fl::server::fnv1a_bytes;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use ctfl_valuation::coalition::Coalition;
use ctfl_valuation::utility::UtilityFn;
use ctfl_valuation::{leave_one_out_scores, sampled_shapley, ShapleySamplingConfig};
use std::sync::Arc;
use std::time::Instant;

const ROW_GRID: [usize; 3] = [20_000, 200_000, 1_000_000];
const CLIENT_GRID: [usize; 3] = [10, 100, 1000];
const N_TEST: usize = 64;
const N_BLOCKS: usize = 32;
/// Wide-cell shape: rule count, train rows, clients and row density.
const WIDE_BITS: usize = 230;
const WIDE_ROWS: usize = 20_000;
const WIDE_CLIENTS: usize = 100;
const WIDE_DENSITY: f64 = 0.45;

/// FNV-1a over the little-endian bit patterns of an f64 slice.
fn fnv1a_f64(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a_bytes(&bytes)
}

/// The sweep's planted-DNF federation shape: mixed features, 4 terms of 2
/// literals (5 rules with the class-0 catch-all), 10% label noise so the
/// trace exercises both benefit and harm cells.
fn sweep_config(rows: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_instances: rows,
        n_continuous: 3,
        n_discrete: 3,
        discrete_arity: 4,
        n_terms: 4,
        term_len: 2,
        label_noise: 0.1,
        seed,
    }
}

/// Deterministic consortium game over the client blocks: coalition value is
/// the blocks' pooled contribution under mild congestion (concave in
/// coalition size, so marginals genuinely depend on position).
struct BlockUtility {
    weights: Vec<f64>,
}

impl UtilityFn for BlockUtility {
    fn n_players(&self) -> usize {
        self.weights.len()
    }

    fn value(&self, c: &Coalition) -> f64 {
        let total: f64 = c.members().iter().map(|&i| self.weights[i]).sum();
        total / (1.0 + 0.05 * c.len() as f64)
    }
}

/// A seeded row of `WIDE_BITS` bits, each set with probability `density`.
fn wide_row(rng: &mut StdRng, density: f64) -> Vec<u64> {
    let bits: Vec<usize> = (0..WIDE_BITS).filter(|_| rng.gen_bool(density)).collect();
    ActivationMatrix::build_mask(WIDE_BITS, bits)
}

/// The wide cell's federation and test side. Rule weights are Pareto
/// (α = 1.5), each rule supports a random one of two classes, a test row
/// is predicted by its heavier class sum and mislabeled 20% of the time,
/// and 30% of the train rows are copies of a test row, labeled with its
/// prediction, that drop each bit with probability 0.05: pairs at the
/// threshold.
struct WideCell {
    train: ActivationMatrix,
    train_labels: Vec<u32>,
    client_of: Vec<u32>,
    test: ActivationMatrix,
    test_labels: Vec<u32>,
    predictions: Vec<usize>,
    weights: Vec<f64>,
    class_masks: Vec<Vec<u64>>,
}

fn wide_cell(seed: u64) -> WideCell {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_1DE0);
    let weights: Vec<f64> =
        (0..WIDE_BITS).map(|_| (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.5)).collect();
    let rule_class: Vec<usize> = (0..WIDE_BITS).map(|_| rng.gen_range(0..2usize)).collect();
    let class_masks: Vec<Vec<u64>> = (0..2)
        .map(|c| {
            ActivationMatrix::build_mask(WIDE_BITS, (0..WIDE_BITS).filter(|&b| rule_class[b] == c))
        })
        .collect();
    let mut test = ActivationMatrix::with_capacity(N_TEST, WIDE_BITS);
    let (mut test_labels, mut predictions) = (Vec::new(), Vec::new());
    for _ in 0..N_TEST {
        let row = wide_row(&mut rng, WIDE_DENSITY);
        test.extend_from_words(1, &row).expect("row width");
        let votes: Vec<f64> = class_masks
            .iter()
            .map(|m| test.masked_weight_sum(test.n_rows() - 1, m, &weights))
            .collect();
        let predicted = usize::from(votes[1] >= votes[0]);
        predictions.push(predicted);
        test_labels.push((predicted ^ usize::from(rng.gen_bool(0.2))) as u32);
    }
    let mut train = ActivationMatrix::with_capacity(WIDE_ROWS, WIDE_BITS);
    let mut train_labels = Vec::with_capacity(WIDE_ROWS);
    for _ in 0..WIDE_ROWS {
        if rng.gen_bool(0.3) {
            let t = rng.gen_range(0..N_TEST);
            let mut row = test.row_words(t).to_vec();
            for b in 0..WIDE_BITS {
                if rng.gen_bool(0.05) {
                    row[b / 64] &= !(1 << (b % 64));
                }
            }
            train.extend_from_words(1, &row).expect("row width");
            train_labels.push(predictions[t] as u32);
        } else {
            train.extend_from_words(1, &wide_row(&mut rng, WIDE_DENSITY)).expect("row width");
            train_labels.push(rng.gen_range(0..2u32));
        }
    }
    let client_of = (0..WIDE_ROWS).map(|r| (r * WIDE_CLIENTS / WIDE_ROWS) as u32).collect();
    WideCell {
        train,
        train_labels,
        client_of,
        test,
        test_labels,
        predictions,
        weights,
        class_masks,
    }
}

struct CellResult {
    rows: usize,
    clients: usize,
    fast_ns: u128,
    scores_hash: u64,
    scores: Vec<f64>,
}

fn main() {
    let args = CommonArgs::parse();
    let samples = args.repeats.max(3);

    // Federation-side test artifacts, shared across every cell: the planted
    // rules ARE the model (known-perfect, no training pass — this gate
    // measures the data plane, not the learner). The test set draws from a
    // shifted seed so it is disjoint from every training federation.
    let (test_ds, truth) = generate(&SyntheticConfig {
        seed: args.seed.wrapping_add(0xD15C),
        ..sweep_config(N_TEST, args.seed)
    });
    let rules = truth.to_rules();
    let model =
        RuleModel::new(Arc::clone(test_ds.schema()), 2, rules.clone()).expect("planted rules valid");
    let compiled = CompiledRules::compile(&rules, test_ds.schema()).expect("rules compile");
    let test_acts = model.activation_matrix(&test_ds, false).expect("test activations");
    let test_labels: Vec<u32> = test_ds.labels().to_vec();
    let predictions: Vec<usize> =
        (0..test_ds.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    println!(
        "scale sweep: {} test rows x {} rules, grid {:?} rows x {:?} clients, seed {}",
        N_TEST,
        model.rules().len(),
        ROW_GRID,
        CLIENT_GRID,
        args.seed
    );

    let trace_cfg = TraceConfig::default();
    let serial_cfg = TraceConfig { parallel: false, ..trace_cfg };

    let mut cells: Vec<CellResult> = Vec::new();
    let mut reference_ns = 0u128;
    for rows in ROW_GRID {
        for clients in CLIENT_GRID {
            let cfg = sweep_config(rows, args.seed);
            let (shards, _) = federated_shards(&cfg, clients);
            let views: Vec<(u32, DatasetView<'_>)> =
                shards.iter().enumerate().map(|(c, d)| (c as u32, d.view())).collect();

            let t0 = Instant::now();
            let store =
                ShardedActivations::build(&compiled, &views, true).expect("shard build succeeds");
            let build_ns = t0.elapsed().as_nanos();
            let (mono_acts, train_labels, client_of) =
                store.to_matrix().expect("store flattens");

            // Sharded-vs-monolithic parity (double-build only where cheap).
            if rows == ROW_GRID[0] {
                let serial_store = ShardedActivations::build(&compiled, &views, false)
                    .expect("serial shard build succeeds");
                assert_eq!(
                    serial_store.to_matrix().expect("store flattens").0,
                    mono_acts,
                    "parallel shard build diverged at {rows}x{clients}"
                );
            }

            let mono = TraceInputs {
                train_acts: &mono_acts,
                train_labels: &train_labels,
                client_of: &client_of,
                n_clients: clients,
                test_acts: &test_acts,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: model.weights(),
                class_masks: model.class_masks_all(),
            };
            let sharded = ShardedTraceInputs {
                train: &store,
                n_clients: clients,
                test_acts: &test_acts,
                test_labels: &test_labels,
                predictions: &predictions,
                weights: model.weights(),
                class_masks: model.class_masks_all(),
            };

            // Gate 1: serial / parallel-auto / parallel-forced / sharded are
            // one outcome.
            let serial_out = trace(&mono, &serial_cfg).expect("serial trace");
            let parallel_out = trace(&mono, &trace_cfg).expect("parallel trace");
            let forced_out = trace(&mono, &TraceConfig { threads: 3, ..trace_cfg })
                .expect("forced-thread trace");
            let sharded_out = trace_sharded(&sharded, &trace_cfg).expect("sharded trace");
            assert_eq!(serial_out, parallel_out, "parallel trace diverged at {rows}x{clients}");
            assert_eq!(serial_out, forced_out, "forced threads diverged at {rows}x{clients}");
            assert_eq!(serial_out, sharded_out, "sharded trace diverged at {rows}x{clients}");

            // Gate 3 setup: the pinned per-bit oracle — checked at the
            // cheap cells, checked AND timed at the largest cell.
            let largest = rows == *ROW_GRID.last().unwrap() && clients == *CLIENT_GRID.last().unwrap();
            if rows == ROW_GRID[0] || largest {
                let t0 = Instant::now();
                let ref_out = trace_reference(&mono, &serial_cfg).expect("reference trace");
                let elapsed = t0.elapsed().as_nanos();
                assert_eq!(
                    ref_out, serial_out,
                    "fast path diverged from the per-bit oracle at {rows}x{clients}"
                );
                if largest {
                    reference_ns = elapsed;
                }
            }

            let fast_ns =
                median_ns(samples, || trace_sharded(&sharded, &trace_cfg).expect("sharded trace"));
            let scores = micro_scores(&sharded_out, CreditDirection::Gain);
            let scores_hash = fnv1a_f64(&scores);
            println!("cell {rows:>7} x {clients:>4}: parity ok, scores {scores_hash:#018X}");
            eprintln!(
                "cell {rows:>7} x {clients:>4}: build {:>9.3} ms, trace median {:>9.3} ms, {:>12.0} rows/s",
                build_ns as f64 / 1e6,
                fast_ns as f64 / 1e6,
                rows as f64 / (fast_ns as f64 / 1e9),
            );
            cells.push(CellResult { rows, clients, fast_ns, scores_hash, scores });
        }
    }

    // Gate 3: >= 2x over the oracle at the largest cell.
    let largest = cells.last().expect("grid is non-empty");
    let speedup = reference_ns as f64 / largest.fast_ns as f64;
    eprintln!(
        "reference trace at {} x {}: {:>9.3} ms; speedup {speedup:.2}x (gate: >= 2.0x)",
        largest.rows,
        largest.clients,
        reference_ns as f64 / 1e6
    );

    // Gate 4: coalition sweeps over 32 consortium blocks of the 1000
    // clients, parallel and serial byte-identical.
    let mut block_weights = vec![0.0f64; N_BLOCKS];
    for (client, &score) in largest.scores.iter().enumerate() {
        block_weights[client * N_BLOCKS / largest.clients] += score;
    }
    let utility = BlockUtility { weights: block_weights };
    let loo_serial = leave_one_out_scores(&utility, false);
    let loo_parallel = leave_one_out_scores(&utility, true);
    assert_eq!(loo_serial, loo_parallel, "parallel leave-one-out diverged");
    let shap_cfg =
        ShapleySamplingConfig { n_permutations: 64, truncation_tolerance: -1.0, parallel: false };
    let shap_serial =
        sampled_shapley(&utility, &shap_cfg, &mut StdRng::seed_from_u64(args.seed));
    let shap_parallel = sampled_shapley(
        &utility,
        &ShapleySamplingConfig { parallel: true, ..shap_cfg },
        &mut StdRng::seed_from_u64(args.seed),
    );
    assert_eq!(shap_serial, shap_parallel, "parallel sampled Shapley diverged");
    println!(
        "coalition sweep over {N_BLOCKS} blocks: loo {:#018X}, shapley {:#018X}, parity ok",
        fnv1a_f64(&loo_serial),
        fnv1a_f64(&shap_serial)
    );

    // Gate 5: the wide cell, where the kernel's missing-weight bound runs.
    let wide = wide_cell(args.seed);
    let mono = TraceInputs {
        train_acts: &wide.train,
        train_labels: &wide.train_labels,
        client_of: &wide.client_of,
        n_clients: WIDE_CLIENTS,
        test_acts: &wide.test,
        test_labels: &wide.test_labels,
        predictions: &wide.predictions,
        weights: &wide.weights,
        class_masks: &wide.class_masks,
    };
    let words = wide.train.words_per_row();
    let shards: Vec<ActivationShard> = (0..WIDE_CLIENTS)
        .map(|c| {
            let (lo, hi) = (c * WIDE_ROWS / WIDE_CLIENTS, (c + 1) * WIDE_ROWS / WIDE_CLIENTS);
            let mut acts = ActivationMatrix::with_capacity(hi - lo, WIDE_BITS);
            acts.extend_from_words(hi - lo, &wide.train.as_words()[lo * words..hi * words])
                .expect("shard rows");
            ActivationShard { client: c as u32, acts, labels: wide.train_labels[lo..hi].to_vec() }
        })
        .collect();
    let store = ShardedActivations::from_shards(shards).expect("wide shards");
    let sharded = ShardedTraceInputs {
        train: &store,
        n_clients: WIDE_CLIENTS,
        test_acts: &wide.test,
        test_labels: &wide.test_labels,
        predictions: &wide.predictions,
        weights: &wide.weights,
        class_masks: &wide.class_masks,
    };
    let serial_out = trace(&mono, &serial_cfg).expect("wide serial trace");
    let parallel_out = trace(&mono, &trace_cfg).expect("wide parallel trace");
    let sharded_out = trace_sharded(&sharded, &trace_cfg).expect("wide sharded trace");
    let ref_out = trace_reference(&mono, &serial_cfg).expect("wide reference trace");
    assert_eq!(serial_out, parallel_out, "wide cell: parallel trace diverged");
    assert_eq!(serial_out, sharded_out, "wide cell: sharded trace diverged");
    assert_eq!(serial_out, ref_out, "wide cell: fast path diverged from the per-bit oracle");
    let wide_ns =
        median_ns(samples, || trace_sharded(&sharded, &trace_cfg).expect("wide sharded trace"));
    let wide_related: u64 = sharded_out.per_test.iter().map(|t| t.total_related()).sum();
    let wide_hash = fnv1a_f64(&micro_scores(&sharded_out, CreditDirection::Gain));
    println!(
        "wide cell {WIDE_ROWS} x {WIDE_BITS} bits: parity ok, related {wide_related}, scores {wide_hash:#018X}"
    );
    eprintln!(
        "wide cell {WIDE_ROWS} x {WIDE_BITS} bits: trace median {:>9.3} ms",
        wide_ns as f64 / 1e6
    );

    let cell_reports: Vec<ctfl_testkit::json::Json> = cells
        .iter()
        .map(|c| {
            ctfl_testkit::json!({
                "rows": c.rows,
                "clients": c.clients,
                "trace_median_ns": c.fast_ns as f64,
                "rows_per_s": c.rows as f64 / (c.fast_ns as f64 / 1e9),
                "scores_hash": format!("{:#018X}", c.scores_hash),
            })
        })
        .collect();
    let report = ctfl_testkit::json!({
        "bench": "scale_sweep",
        "seed": args.seed as i64,
        "test_rows": N_TEST,
        "n_rules": model.rules().len(),
        "cells": cell_reports,
        "wide_cell": ctfl_testkit::json!({
            "rows": WIDE_ROWS,
            "clients": WIDE_CLIENTS,
            "bits": WIDE_BITS,
            "trace_median_ns": wide_ns as f64,
            "related": wide_related as f64,
            "scores_hash": format!("{wide_hash:#018X}"),
        }),
        "reference_ns": reference_ns as f64,
        "speedup": speedup,
        "gate": "speedup >= 2.0 at 1M x 1000",
    });
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_scale.json", report.pretty() + "\n")
        .expect("write BENCH_scale.json");

    assert!(
        speedup >= 2.0,
        "fast trace is only {speedup:.2}x the per-bit oracle at the largest cell (gate: >= 2.0x)"
    );
    println!("SCALE_OK");
}
