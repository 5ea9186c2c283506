//! `federate_adult`: the `ctfl estimate` path on adult-like data.
//!
//! Set-up draws 6,512 training rows and a seeded 1,628-row test set from the
//! fixed adult-like task (14 features) and splits the training rows across
//! 8 clients by a skew-label Dirichlet(0.8) partition. One run goes from
//! the client shards to the final report: `train_federated` (FedAvg, 10
//! rounds of 5 local epochs), then `extract_rules`, then
//! `CtflEstimator::estimate`. Training is about 90% of a run, so a
//! training-kernel change shows here.
//!
//! The traced run repeats the same pipeline stage by stage — the engine
//! stepped round by round, extraction, activation fill, trace, allocation,
//! robustness analysis, interpretation — and checks that every stage's
//! output equals the untraced run's with `==`.

use crate::adapter::{self, TestSide, TrainSide};
use crate::report::{latency, mean, median, peak_rss_mb, Context, Outcome};
use crate::{for_seconds, net_config, sample, task_rows, timed_setup, Args, SHAPE_SEED};
use ctfl_core::allocation::{macro_scores, micro_scores, CreditDirection};
use ctfl_core::data::Dataset;
use ctfl_core::estimator::{ContributionReport, CtflConfig, CtflEstimator};
use ctfl_core::interpret::{client_profiles, coverage_gaps};
use ctfl_core::robustness::analyze_with_participation;
use ctfl_core::tracing::{TraceConfig, TraceOutcome};
use ctfl_data::partition::skew_label;
use ctfl_fl::fedavg::{train_federated, FlConfig};
use ctfl_fl::server::fnv1a_bits;
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;
use std::time::Instant;

/// Workload shape; `tiny` is the smoke-test size.
struct Shape {
    train_rows: usize,
    test_rows: usize,
    clients: usize,
    rounds: usize,
    local_epochs: usize,
}

impl Shape {
    fn new(tiny: bool) -> Self {
        if tiny {
            Shape {
                train_rows: 520,
                test_rows: 130,
                clients: 4,
                rounds: 2,
                local_epochs: 1,
            }
        } else {
            Shape {
                train_rows: 6_512,
                test_rows: 1_628,
                clients: 8,
                rounds: ROUNDS,
                local_epochs: 5,
            }
        }
    }
}

const ROUNDS: usize = 10;
const DIRICHLET_ALPHA: f64 = 0.8;
/// Seed of the network's initialization and minibatch order.
const NET_SEED: u64 = 0x5EED_0001;

/// The federation every run starts from.
///
/// The clients' training rows, their partition and the network seed are
/// the same for every `--seed`; the seed draws the federation's reserved
/// test set. Training cost follows the learning trajectory (how sparse the
/// logical layers stay), which a seeded training set would move by up to
/// 2x from seed to seed, swamping any change a PR makes; the trace, the
/// allocation and the report all follow the seeded test set.
struct Federation {
    train: Dataset,
    test: Dataset,
    client_of: Vec<u32>,
    shards: Vec<Dataset>,
}

impl Federation {
    fn build(shape: &Shape, seed: u64) -> Result<Self, String> {
        let pool = task_rows(shape.train_rows + 2 * shape.test_rows)?;
        let train = pool.subset(&(0..shape.train_rows).collect::<Vec<_>>());
        let held_out = sample(2 * shape.test_rows, shape.test_rows, seed);
        let test = pool.subset(
            &held_out
                .iter()
                .map(|i| shape.train_rows + i)
                .collect::<Vec<_>>(),
        );
        let partition = skew_label(
            train.labels(),
            train.n_classes(),
            shape.clients,
            DIRICHLET_ALPHA,
            &mut StdRng::seed_from_u64(SHAPE_SEED),
        );
        let shards = (0..shape.clients)
            .map(|c| train.subset(&partition.client_indices(c)))
            .collect();
        Ok(Federation {
            train,
            test,
            client_of: partition.client_of,
            shards,
        })
    }
}

fn fl_config(shape: &Shape) -> FlConfig {
    FlConfig {
        rounds: shape.rounds,
        local_epochs: shape.local_epochs,
        parallel: true,
    }
}

/// One untraced run's outputs.
struct Estimate {
    params_hash: u64,
    n_params: usize,
    n_rules: usize,
    report: ContributionReport,
}

/// The untraced path, shards to report, through stable entry points only.
fn estimate(fed: &Federation, shape: &Shape) -> Result<Estimate, String> {
    let net = train_federated(
        &fed.shards,
        fed.train.n_classes(),
        &net_config(NET_SEED),
        &fl_config(shape),
    )
    .ctx("train_federated")?;
    let model = extract_rules(&net, ExtractOptions::default()).ctx("extract_rules")?;
    let n_rules = model.rules().len();
    let report = CtflEstimator::new(model, CtflConfig::default())
        .estimate(&fed.train, &fed.client_of, &fed.test)
        .ctx("estimate")?;
    let params = net.params();
    Ok(Estimate {
        params_hash: fnv1a_bits(&params),
        n_params: params.len(),
        n_rules,
        report,
    })
}

/// Whether two untraced runs of the same inputs agree bit for bit.
fn same_estimate(a: &Estimate, b: &Estimate) -> bool {
    a.params_hash == b.params_hash
        && a.report.trace == b.report.trace
        && a.report.micro == b.report.micro
        && a.report.macro_ == b.report.macro_
        && a.report.loss == b.report.loss
}

/// One traced run: seconds per stage plus the stage outputs to check.
struct Traced {
    run_s: f64,
    open_s: f64,
    round_s: Vec<f64>,
    extract_s: f64,
    fill_s: f64,
    trace_s: f64,
    allocation_s: f64,
    analyze_s: f64,
    interpret_s: f64,
    rows_filled: usize,
    pairs: u64,
    related: u64,
    row_words: usize,
    params_hash: u64,
    outcome: TraceOutcome,
    scores: [Vec<f64>; 3],
}

impl Traced {
    fn stages_s(&self) -> f64 {
        self.open_s
            + self.round_s.iter().sum::<f64>()
            + self.extract_s
            + self.fill_s
            + self.trace_s
            + self.allocation_s
            + self.analyze_s
            + self.interpret_s
    }
}

/// Seconds spent in `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// The traced path: `CtflEstimator::estimate`'s stages called one by one.
fn traced(fed: &Federation, shape: &Shape) -> Result<Traced, String> {
    let config = CtflConfig::default();
    let start = Instant::now();
    let stepped = adapter::train_stepped(
        &fed.shards,
        fed.train.n_classes(),
        &net_config(NET_SEED),
        &fl_config(shape),
    )
    .ctx("stepped federation")?;
    let (model, extract_s) = timed(|| extract_rules(&stepped.net, ExtractOptions::default()));
    let model = model.ctx("extract_rules")?;
    let (fill, fill_s) = timed(|| -> Result<_, String> {
        let train_acts = model
            .activation_matrix(&fed.train, config.parallel)
            .ctx("train fill")?;
        let test_acts = model
            .activation_matrix(&fed.test, config.parallel)
            .ctx("test fill")?;
        let predictions: Vec<usize> = (0..fed.test.len())
            .map(|i| model.classify_from_activations(&test_acts, i))
            .collect();
        Ok((train_acts, test_acts, predictions))
    });
    let (train_acts, test_acts, predictions) = fill?;
    let n_clients = fed.shards.len();
    let trace_config = TraceConfig {
        tau_w: config.tau_w,
        parallel: config.parallel,
        threads: 0,
        grouping: config.grouping,
    };
    let (outcome, trace_s) = timed(|| {
        adapter::trace_stage(
            &model,
            TrainSide::Pooled {
                acts: &train_acts,
                labels: fed.train.labels(),
                client_of: &fed.client_of,
            },
            n_clients,
            &TestSide {
                acts: &test_acts,
                labels: fed.test.labels(),
                predictions: &predictions,
            },
            &trace_config,
        )
    });
    let outcome = outcome.ctx("trace")?;
    let (scores, allocation_s) = timed(|| -> Result<_, String> {
        let micro = micro_scores(&outcome, CreditDirection::Gain);
        let macro_ = macro_scores(&outcome, config.delta, CreditDirection::Gain).ctx("macro")?;
        let loss = micro_scores(&outcome, CreditDirection::Loss);
        Ok([micro, macro_, loss])
    });
    let scores = scores?;
    let (analysis, analyze_s) =
        timed(|| analyze_with_participation(&outcome, &fed.client_of, None, &config.robustness));
    analysis.ctx("robustness analysis")?;
    let ((), interpret_s) = timed(|| {
        std::hint::black_box(client_profiles(
            &outcome,
            &fed.client_of,
            config.interpret_top_k,
        ));
        std::hint::black_box(coverage_gaps(
            &outcome,
            &test_acts,
            model.weights(),
            config.coverage_min_related,
            config.interpret_top_k,
        ));
    });
    let run_s = start.elapsed().as_secs_f64();

    // Work counts, outside the timed region: train rows of the traced
    // class per test row, and how many of those pairs were related.
    let mut class_rows = vec![0u64; fed.train.n_classes()];
    for &l in fed.train.labels() {
        class_rows[l as usize] += 1;
    }
    let pairs = outcome
        .per_test
        .iter()
        .map(|t| class_rows[t.traced_class])
        .sum();
    let related = outcome.per_test.iter().map(|t| t.total_related()).sum();
    Ok(Traced {
        run_s,
        open_s: stepped.open_s,
        round_s: stepped.round_s,
        extract_s,
        fill_s,
        trace_s,
        allocation_s,
        analyze_s,
        interpret_s,
        rows_filled: fed.train.len() + fed.test.len(),
        pairs,
        related,
        row_words: train_acts.words_per_row(),
        params_hash: fnv1a_bits(&stepped.net.params()),
        outcome,
        scores,
    })
}

/// Whether the traced stages reproduced the untraced estimate exactly.
fn traced_matches(t: &Traced, e: &Estimate) -> bool {
    t.params_hash == e.params_hash
        && t.outcome == e.report.trace
        && t.scores[0] == e.report.micro
        && t.scores[1] == e.report.macro_
        && t.scores[2] == e.report.loss
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let shape = Shape::new(args.tiny);
    let (fed, setup_s) = timed_setup(args, || Federation::build(&shape, args.seed))?;
    let mut out = Outcome::default();
    out.size("train_rows", fed.train.len() as f64);
    out.size("test_rows", fed.test.len() as f64);
    out.size("features", fed.train.schema().len() as f64);
    out.size("clients", fed.shards.len() as f64);
    out.size("rounds", shape.rounds as f64);
    out.size("local_epochs", shape.local_epochs as f64);

    // Every untraced run must reproduce the first bit for bit; a traced run
    // follows each untraced one and must match it stage by stage.
    let mut first: Option<Estimate> = None;
    let mut untraced_s = Vec::new();
    let mut traced_runs: Vec<Traced> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for_seconds(args.seconds, || {
        attempted += 1;
        let (result, secs) = timed(|| estimate(&fed, &shape));
        let ok = match result {
            Ok(e) => {
                untraced_s.push(secs);
                let ok = first.as_ref().is_none_or(|f| same_estimate(f, &e));
                first.get_or_insert(e);
                ok
            }
            Err(e) => {
                eprintln!("federate_adult: {e}");
                false
            }
        };
        failed += u64::from(!ok);
        if args.trace {
            attempted += 1;
            let ok = match (traced(&fed, &shape), &first) {
                (Ok(t), Some(e)) => {
                    let ok = traced_matches(&t, e);
                    traced_runs.push(t);
                    ok
                }
                (Err(e), _) => {
                    eprintln!("federate_adult traced: {e}");
                    false
                }
                (Ok(_), None) => false,
            };
            failed += u64::from(!ok);
        }
    });
    out.tally(attempted, failed);
    let first = first.ok_or("no untraced run succeeded")?;
    out.size("rules", first.n_rules as f64);
    out.size("params", first.n_params as f64);

    if !args.trace {
        out.set("setup_s", setup_s);
        let (p50, p99) = latency(&untraced_s);
        out.set("run_s", mean(&untraced_s));
        out.set("req_per_s", 1.0 / mean(&untraced_s));
        out.set("req_p50_ms", p50 * 1e3);
        out.set("req_p99_ms", p99 * 1e3);
        out.set("peak_rss_mb", peak_rss_mb(None));
        out.set("model_accuracy", first.report.test_accuracy);
        return Ok(out);
    }

    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced_runs.iter().map(f).collect::<Vec<_>>());
    let rounds: Vec<f64> = traced_runs
        .iter()
        .flat_map(|t| t.round_s.iter().copied())
        .collect();
    out.set("data.generate_ms", setup_s * 1e3);
    out.set("fl.engine.open_ms", med(&|t| t.open_s) * 1e3);
    out.set("fl.engine.round_ms", median(&rounds) * 1e3);
    out.set("fl.engine.rounds", med(&|t| t.round_s.len() as f64));
    out.set("nn.extract_ms", med(&|t| t.extract_s) * 1e3);
    out.set("core.model.fill_ms", med(&|t| t.fill_s) * 1e3);
    out.set("core.model.rows_filled", med(&|t| t.rows_filled as f64));
    out.set("core.tracing.trace_ms", med(&|t| t.trace_s) * 1e3);
    out.set("core.tracing.pairs", med(&|t| t.pairs as f64));
    out.set(
        "core.tracing.related_ratio",
        med(&|t| t.related as f64 / t.pairs.max(1) as f64),
    );
    out.set(
        "core.tracing.bytes",
        med(&|t| (t.pairs * t.row_words as u64 * 8) as f64),
    );
    out.set("core.allocation_ms", med(&|t| t.allocation_s) * 1e3);
    out.set("core.robustness.analyze_ms", med(&|t| t.analyze_s) * 1e3);
    out.set("core.interpret_ms", med(&|t| t.interpret_s) * 1e3);
    out.set(
        "core.robustness.flagged",
        first.report.flagged_clients().len() as f64,
    );
    out.set("bench.stage_coverage", med(&|t| t.stages_s() / t.run_s));
    out.set("trace_overhead_s", med(&|t| t.run_s) - median(&untraced_s));
    Ok(out)
}
