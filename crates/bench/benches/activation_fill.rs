//! **E9** — activation-matrix fill throughput: the compiled columnar batch
//! evaluator versus the legacy per-row dispatch path, on a synthetic
//! mixed-type task. This is the inference pass every CTFL estimate performs
//! over both the training pool and the test set (Section III-C), so its
//! cost bounds the whole "single training round" efficiency story.
//!
//! Also reports the end-to-end speedup ratio so regressions are visible in
//! the JSON log: the batched path must stay well ahead of row-at-a-time
//! evaluation (the refactor targets ≥2×).
//!
//! Two more groups time the client side of private scoring at its own
//! shape, 1,000 shards of ~24 rows under a 230-rule model: the fill alone,
//! and the whole upload with and without randomized response at `p = 0.1`.
//! Each prints per-client figures, since at this shape a pass is ~1,000
//! fixed costs rather than one column scan.

use ctfl_core::data::Dataset;
use ctfl_core::model::RuleModel;
use ctfl_core::rule::{Predicate, Rule, RuleExpr};
use ctfl_data::synthetic::{self, SyntheticConfig};
use ctfl_fl::privacy::{ActivationUpload, PrivacyConfig};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::Rng;
use ctfl_rng::SeedableRng;
use ctfl_testkit::Bencher;

/// A rule model over the synthetic schema with realistic shape: mostly
/// shallow conjunctions, sharing predicates across rules (the dedup the
/// compiler exploits), plus a few negated and disjunctive rules.
fn model_for(data: &Dataset, n_rules: usize, seed: u64) -> RuleModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = data.schema();
    let n_features = schema.len();
    let pred = |rng: &mut StdRng| {
        let f = rng.gen_range(0..n_features);
        match schema.feature(f).expect("feature in range").kind {
            ctfl_core::data::FeatureKind::Continuous { .. } => {
                let t = rng.gen_range(0..8) as f32 / 8.0;
                if rng.gen_bool(0.5) {
                    Predicate::gt(f, t)
                } else {
                    Predicate::le(f, t)
                }
            }
            ctfl_core::data::FeatureKind::Discrete { arity } => {
                let c = rng.gen_range(0..arity);
                if rng.gen_bool(0.5) {
                    Predicate::eq(f, c)
                } else {
                    Predicate::neq(f, c)
                }
            }
        }
    };
    let rules: Vec<Rule> = (0..n_rules)
        .map(|i| {
            let width = 1 + (i % 3);
            let parts: Vec<RuleExpr> =
                (0..width).map(|_| RuleExpr::pred(pred(&mut rng))).collect();
            let expr = match i % 5 {
                0..=2 => RuleExpr::and(parts),
                3 => RuleExpr::or(parts),
                _ => RuleExpr::not(RuleExpr::and(parts)),
            };
            Rule::new(expr, i % 2, 0.5 + rng.gen::<f32>())
        })
        .collect();
    RuleModel::new(schema.clone(), data.n_classes(), rules).expect("rules fit the schema")
}

fn bench_fill() {
    let cfg = SyntheticConfig {
        n_instances: 20_000,
        n_continuous: 6,
        n_discrete: 8,
        discrete_arity: 6,
        n_terms: 5,
        term_len: 2,
        label_noise: 0.12,
        seed: 7,
    };
    let (data, _) = synthetic::generate(&cfg);
    let model = model_for(&data, 96, 11);

    // Sanity first: the two paths must agree bit for bit.
    let reference = model.activation_matrix_rowwise(&data).unwrap();
    assert_eq!(model.activation_matrix(&data, false).unwrap(), reference);
    assert_eq!(model.activation_matrix(&data, true).unwrap(), reference);

    // 60 samples: the median of 10 read 2.6–4.3 ms across back-to-back
    // runs of one binary on 2 vCPUs; compare minimums.
    let mut group = Bencher::new("activation_fill_20000x96");
    group.sample_size(60);
    let row = group.bench("per_row", || model.activation_matrix_rowwise(&data).unwrap()).median_ns;
    let serial =
        group.bench("batch/serial", || model.activation_matrix(&data, false).unwrap()).median_ns;
    let par =
        group.bench("batch/parallel", || model.activation_matrix(&data, true).unwrap()).median_ns;

    // A view over half the rows: the gather path partitioners/valuation use.
    let half: Vec<u32> = (0..data.len() as u32).filter(|i| i % 2 == 0).collect();
    let view = data.view_of_rows(half);
    group.bench("batch/view_half", || model.activation_matrix_view(&view, false).unwrap());

    println!(
        "speedup vs per-row: serial {:.2}x, parallel {:.2}x",
        row as f64 / serial as f64,
        row as f64 / par as f64
    );
    assert!(
        (row as f64) >= 2.0 * serial as f64,
        "batched fill regressed below 2x over per-row ({row} vs {serial} ns)"
    );
}

/// 1,000 client shards of 1–47 rows (~24 on average) of one synthetic
/// task, and a 230-rule model over it: the `score_1k_clients` upload shape.
fn short_shards() -> (Vec<Dataset>, RuleModel) {
    let cfg = SyntheticConfig {
        n_instances: 24_000,
        n_continuous: 6,
        n_discrete: 8,
        discrete_arity: 6,
        n_terms: 5,
        term_len: 2,
        label_noise: 0.12,
        seed: 7,
    };
    let (data, _) = synthetic::generate(&cfg);
    let model = model_for(&data, 230, 13);
    let mut rng = StdRng::seed_from_u64(17);
    let mut next = 0;
    let shards = (0..1_000)
        .map(|_| {
            let len = rng.gen_range(1usize..=47);
            let rows: Vec<usize> = (next..next + len).map(|i| i % data.len()).collect();
            next += len;
            data.subset(&rows)
        })
        .collect();
    (shards, model)
}

fn bench_short_shards() {
    let (shards, model) = short_shards();
    let n_rows: usize = shards.iter().map(Dataset::len).sum();
    for shard in &shards {
        assert_eq!(
            model.activation_matrix(shard, false).unwrap(),
            model.activation_matrix_rowwise(shard).unwrap()
        );
    }
    let per_client = |ns: u128| ns as f64 / 1e3 / shards.len() as f64;

    let mut fill = Bencher::new("activation_fill_1000_shards_x230");
    fill.sample_size(20);
    let serial = fill
        .bench("batch/serial", || {
            shards.iter().map(|s| model.activation_matrix(s, false).unwrap()).collect::<Vec<_>>()
        })
        .median_ns;
    println!(
        "fill: {:.1} us per client ({n_rows} rows over {} shards)",
        per_client(serial),
        shards.len()
    );

    let mut upload = Bencher::new("upload_1000_shards_x230");
    upload.sample_size(20);
    let mut medians = [0u128; 2];
    for (median, p) in medians.iter_mut().zip([0.0, 0.1]) {
        let privacy = PrivacyConfig { flip_probability: p };
        *median = upload
            .bench(&format!("compute/p{p}"), || {
                shards
                    .iter()
                    .enumerate()
                    .map(|(c, shard)| {
                        let mut rng = StdRng::seed_from_u64(c as u64);
                        ActivationUpload::compute(c, &model, shard, &privacy, &mut rng).unwrap()
                    })
                    .collect::<Vec<_>>()
            })
            .median_ns;
    }
    println!(
        "upload: {:.1} us per client at p = 0, {:.1} us at p = 0.1 \
         (randomized response {:.1} us, {:.2} ns per bit)",
        per_client(medians[0]),
        per_client(medians[1]),
        per_client(medians[1].saturating_sub(medians[0])),
        medians[1].saturating_sub(medians[0]) as f64 / (n_rows * model.rules().len()) as f64
    );
}

fn main() {
    bench_fill();
    bench_short_shards();
}
