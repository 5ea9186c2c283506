//! `score_1k_clients`: the private deployment path (paper Section V),
//! with no training in the timed region.
//!
//! Set-up trains the scoring model — one fixed artifact for every seed — on
//! a 1,628-row adult-like federation of 8 clients, draws a seeded 512-row
//! test set and computes the federation-side test artifacts, and spreads
//! 24,420 seeded rows of the same task over 1,000 clients by a skew-sample
//! Dirichlet(0.8) partition; 10% of the clients are gamers inflating their
//! uploads (`Inflate { all_classes: false }`).
//!
//! One run: every client computes its `ActivationUpload` under randomized
//! response p = 0.1 (timed), the gamers rewrite theirs (untimed), and the
//! server runs `PrivateScoring::score_hardened` — audit, quarantine,
//! assembly, trace, allocation (timed). The audit, the trace at a trained
//! model's row width and the client-side fill all do real work here.
//!
//! The cohort holds a quarter of the 97.7k rows a 1,000-client adult
//! federation would. The audit and upload stages are single-threaded, and
//! on a 2-vCPU VM whose vCPUs ran the same single-threaded loop in 0.83 s
//! and 1.3 s, a run's time depends on which vCPU it lands on. About 20
//! one-second runs per measurement average that out; five four-second runs
//! do not.

use crate::adapter::{self, TestSide, TrainSide};
use crate::report::{latency, mean, median, peak_rss_mb, Context, Outcome};
use crate::{for_seconds, net_config, sample, task_rows, timed_setup, Args, SHAPE_SEED};
use ctfl_core::activation::ActivationMatrix;
use ctfl_core::allocation::{micro_scores, CreditDirection};
use ctfl_core::data::Dataset;
use ctfl_core::model::RuleModel;
use ctfl_core::robustness::{UploadAuditConfig, UploadAuditReport};
use ctfl_core::tracing::TraceConfig;
use ctfl_data::partition::{skew_label, skew_sample};
use ctfl_fl::fedavg::{train_federated, FlConfig};
use ctfl_fl::privacy::{
    assemble_sharded, ActivationUpload, HardenedScores, PrivacyConfig, PrivateScoring,
};
use ctfl_fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;
use std::time::Instant;

/// Workload shape; `tiny` is the smoke-test size.
struct Shape {
    clients: usize,
    client_rows: usize,
    model_rows: usize,
    model_clients: usize,
    model_rounds: usize,
    test_rows: usize,
}

impl Shape {
    fn new(tiny: bool) -> Self {
        if tiny {
            Shape {
                clients: 50,
                client_rows: 4_000,
                model_rows: 400,
                model_clients: 4,
                model_rounds: 2,
                test_rows: 64,
            }
        } else {
            Shape {
                clients: 1_000,
                client_rows: 24_420,
                model_rows: 1_628,
                model_clients: 8,
                model_rounds: MODEL_ROUNDS,
                test_rows: 512,
            }
        }
    }
}

const MODEL_ROUNDS: usize = 10;
/// Seed of the scoring model's initialization and minibatch order.
const MODEL_SEED: u64 = 0x30DE_1000;
const GAMER_FRAC: f64 = 0.1;
const FLIP_PROBABILITY: f64 = 0.1;
const DIRICHLET_ALPHA: f64 = 0.8;

/// Everything a scoring run starts from.
struct Deployment {
    model: RuleModel,
    test: Dataset,
    test_acts: ActivationMatrix,
    predictions: Vec<usize>,
    shards: Vec<Dataset>,
    declared_rows: Vec<usize>,
    injector: ScoreAttackInjector,
    gamers: Vec<usize>,
    data_s: f64,
}

impl Deployment {
    fn build(shape: &Shape, seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        // One pool of the fixed task: the model federation's rows first,
        // then the rows the seed draws the test set and the cohort from.
        let cohort = shape.test_rows + shape.client_rows;
        let pool = task_rows(shape.model_rows + 2 * cohort)?;
        let drawn: Vec<usize> = sample(2 * cohort, cohort, seed)
            .into_iter()
            .map(|i| shape.model_rows + i)
            .collect();
        let test = pool.subset(&drawn[..shape.test_rows]);
        let clients = pool.subset(&drawn[shape.test_rows..]);
        let partition = skew_sample(
            clients.len(),
            shape.clients,
            DIRICHLET_ALPHA,
            &mut StdRng::seed_from_u64(SHAPE_SEED),
        );
        let mut rows_of = vec![Vec::new(); shape.clients];
        for (row, &c) in partition.client_of.iter().enumerate() {
            rows_of[c as usize].push(row);
        }
        let shards: Vec<Dataset> = rows_of.iter().map(|rows| clients.subset(rows)).collect();
        let data_s = t.elapsed().as_secs_f64();

        // The model is one fixed artifact for every seed: this workload
        // measures scoring, and a per-seed model would change the rules
        // being traced, and so the trace's work.
        let model_rows = pool.subset(&(0..shape.model_rows).collect::<Vec<_>>());
        let model_partition = skew_label(
            model_rows.labels(),
            model_rows.n_classes(),
            shape.model_clients,
            DIRICHLET_ALPHA,
            &mut StdRng::seed_from_u64(SHAPE_SEED),
        );
        let model_shards: Vec<Dataset> = (0..shape.model_clients)
            .map(|c| model_rows.subset(&model_partition.client_indices(c)))
            .collect();
        let fl = FlConfig {
            rounds: shape.model_rounds,
            local_epochs: 5,
            parallel: true,
        };
        let net = train_federated(
            &model_shards,
            model_rows.n_classes(),
            &net_config(MODEL_SEED),
            &fl,
        )
        .ctx("model training")?;
        let model = extract_rules(&net, ExtractOptions::default()).ctx("extract_rules")?;
        let test_acts = model.activation_matrix(&test, true).ctx("test fill")?;
        let predictions = (0..test.len())
            .map(|i| model.classify_from_activations(&test_acts, i))
            .collect();

        let plan = ScoreAttackPlan::generate(
            shape.clients,
            GAMER_FRAC,
            ScoreAttackKind::Inflate { all_classes: false },
            seed ^ 0x6A3E,
        );
        let gamers = plan.gamers();
        Ok(Deployment {
            model,
            test,
            test_acts,
            predictions,
            declared_rows: shards.iter().map(Dataset::len).collect(),
            shards,
            injector: ScoreAttackInjector::new(plan, seed ^ 0x17),
            gamers,
            data_s,
        })
    }

    fn scoring(&self) -> PrivateScoring<'_> {
        PrivateScoring::new(
            &self.model,
            &self.test_acts,
            self.test.labels(),
            &self.predictions,
            self.shards.len(),
            TraceConfig::default(),
        )
    }

    /// Every client's upload, computed locally under randomized response
    /// with a per-client seeded RNG (so runs repeat bit for bit).
    fn uploads(&self, seed: u64) -> Result<Vec<ActivationUpload>, String> {
        let privacy = PrivacyConfig {
            flip_probability: FLIP_PROBABILITY,
        };
        self.shards
            .iter()
            .enumerate()
            .map(|(c, shard)| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                ActivationUpload::compute(c, &self.model, shard, &privacy, &mut rng).ctx("upload")
            })
            .collect()
    }

    fn model_accuracy(&self) -> f64 {
        let correct = self
            .predictions
            .iter()
            .zip(self.test.labels())
            .filter(|(p, &l)| **p == l as usize)
            .count();
        correct as f64 / self.test.len() as f64
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One untraced scoring run: hardened scores, the gamed uploads, and the
/// timed seconds (uploads + server-side scoring; the gamers' rewrite is
/// not timed).
fn score(
    dep: &Deployment,
    seed: u64,
) -> Result<(HardenedScores, Vec<ActivationUpload>, f64), String> {
    let t = Instant::now();
    let mut uploads = dep.uploads(seed)?;
    let upload_s = t.elapsed().as_secs_f64();
    dep.injector
        .rewrite_uploads(&mut uploads, dep.model.class_masks_all());
    let t = Instant::now();
    let hardened = dep
        .scoring()
        .score_hardened(
            &uploads,
            Some(&dep.declared_rows),
            &UploadAuditConfig::default(),
        )
        .ctx("score_hardened")?;
    Ok((hardened, uploads, upload_s + t.elapsed().as_secs_f64()))
}

/// The hardened result must equal scoring with the flagged clients
/// excluded, bit for bit, and every flagged client must score exactly 0.
fn check_quarantine(dep: &Deployment, uploads: &[ActivationUpload], h: &HardenedScores) -> bool {
    let flagged = &h.audit.flagged;
    flagged.iter().all(|&c| h.scores.get(c) == Some(&0.0))
        && dep
            .scoring()
            .score_excluding(uploads, flagged)
            .is_ok_and(|s| bits_equal(&s, &h.scores))
}

/// One traced run: the hardened path's stages called one by one.
struct Traced {
    run_s: f64,
    upload_s: f64,
    audit_s: f64,
    assemble_s: f64,
    trace_s: f64,
    allocation_s: f64,
    pairs: u64,
    related: u64,
    audit: UploadAuditReport,
    scores: Vec<f64>,
}

fn traced(dep: &Deployment, seed: u64) -> Result<Traced, String> {
    let start = Instant::now();
    let mut uploads = dep.uploads(seed)?;
    let upload_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    dep.injector
        .rewrite_uploads(&mut uploads, dep.model.class_masks_all());
    let rewrite_s = t.elapsed().as_secs_f64();

    let scoring = dep.scoring();
    let t = Instant::now();
    let audit = scoring
        .audit(
            &uploads,
            Some(&dep.declared_rows),
            &UploadAuditConfig::default(),
        )
        .ctx("audit")?;
    let audit_s = t.elapsed().as_secs_f64();
    // The workload never flags every client, so the quarantined remainder
    // is never empty (`score_hardened`'s all-zero branch does not run).
    let t = Instant::now();
    let store = assemble_sharded(&uploads, &audit.flagged).ctx("assemble")?;
    let assemble_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = adapter::trace_stage(
        &dep.model,
        TrainSide::Sharded(&store),
        dep.shards.len(),
        &TestSide {
            acts: &dep.test_acts,
            labels: dep.test.labels(),
            predictions: &dep.predictions,
        },
        &TraceConfig::default(),
    )
    .ctx("trace")?;
    let trace_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scores = micro_scores(&outcome, CreditDirection::Gain);
    let allocation_s = t.elapsed().as_secs_f64();
    let run_s = start.elapsed().as_secs_f64() - rewrite_s;

    let mut class_rows = vec![0u64; dep.model.n_classes()];
    for up in uploads
        .iter()
        .filter(|u| !audit.flagged.contains(&u.client))
    {
        for &l in &up.labels {
            class_rows[l as usize] += 1;
        }
    }
    let pairs = outcome
        .per_test
        .iter()
        .map(|t| class_rows[t.traced_class])
        .sum();
    let related = outcome.per_test.iter().map(|t| t.total_related()).sum();
    Ok(Traced {
        run_s,
        upload_s,
        audit_s,
        assemble_s,
        trace_s,
        allocation_s,
        pairs,
        related,
        audit,
        scores,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let shape = Shape::new(args.tiny);
    let (dep, setup_s) = timed_setup(args, || Deployment::build(&shape, args.seed))?;
    let mut out = Outcome::default();
    out.size("clients", dep.shards.len() as f64);
    out.size(
        "client_rows",
        dep.declared_rows.iter().sum::<usize>() as f64,
    );
    out.size("model_rows", shape.model_rows as f64);
    out.size("test_rows", dep.test.len() as f64);
    out.size("rules", dep.model.rules().len() as f64);
    out.size("gamers", dep.gamers.len() as f64);
    out.size("flip_probability", FLIP_PROBABILITY);

    let mut first: Option<HardenedScores> = None;
    let mut untraced_s = Vec::new();
    let mut traced_runs: Vec<Traced> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for_seconds(args.seconds, || {
        attempted += 1;
        let ok = match score(&dep, args.seed) {
            Ok((h, uploads, secs)) => {
                untraced_s.push(secs);
                // The quarantine check re-traces the cohort, so it runs
                // once; later runs must repeat the first bit for bit.
                let ok = match &first {
                    None => check_quarantine(&dep, &uploads, &h),
                    Some(f) => f.audit == h.audit && bits_equal(&f.scores, &h.scores),
                };
                first.get_or_insert(h);
                ok
            }
            Err(e) => {
                eprintln!("score_1k_clients: {e}");
                false
            }
        };
        failed += u64::from(!ok);
        if args.trace {
            attempted += 1;
            let ok = match (traced(&dep, args.seed), &first) {
                (Ok(t), Some(f)) => {
                    let ok = t.audit == f.audit && bits_equal(&t.scores, &f.scores);
                    traced_runs.push(t);
                    ok
                }
                (Err(e), _) => {
                    eprintln!("score_1k_clients traced: {e}");
                    false
                }
                (Ok(_), None) => false,
            };
            failed += u64::from(!ok);
        }
    });
    out.tally(attempted, failed);
    let first = first.ok_or("no untraced run succeeded")?;

    if !args.trace {
        out.set("setup_s", setup_s);
        let (p50, p99) = latency(&untraced_s);
        out.set("run_s", mean(&untraced_s));
        out.set("req_per_s", 1.0 / mean(&untraced_s));
        out.set("req_p50_ms", p50 * 1e3);
        out.set("req_p99_ms", p99 * 1e3);
        out.set("peak_rss_mb", peak_rss_mb(None));
        out.set("model_accuracy", dep.model_accuracy());
        return Ok(out);
    }

    let flagged = &first.audit.flagged;
    let caught = dep.gamers.iter().filter(|g| flagged.contains(g)).count();
    let honest = dep.shards.len() - dep.gamers.len();
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced_runs.iter().map(f).collect::<Vec<_>>());
    let row_words = dep.test_acts.words_per_row() as f64;
    out.set("data.generate_ms", dep.data_s * 1e3);
    out.set("fl.privacy.upload_ms", med(&|t| t.upload_s) * 1e3);
    out.set("core.robustness.audit_ms", med(&|t| t.audit_s) * 1e3);
    out.set("fl.privacy.assemble_ms", med(&|t| t.assemble_s) * 1e3);
    out.set("core.tracing.trace_ms", med(&|t| t.trace_s) * 1e3);
    out.set("core.tracing.pairs", med(&|t| t.pairs as f64));
    out.set(
        "core.tracing.related_ratio",
        med(&|t| t.related as f64 / t.pairs.max(1) as f64),
    );
    out.set(
        "core.tracing.bytes",
        med(&|t| t.pairs as f64 * row_words * 8.0),
    );
    out.set("core.allocation_ms", med(&|t| t.allocation_s) * 1e3);
    out.set("core.robustness.flagged", flagged.len() as f64);
    out.set(
        "core.robustness.audit_recall",
        caught as f64 / dep.gamers.len().max(1) as f64,
    );
    out.set(
        "core.robustness.false_flag_rate",
        (flagged.len() - caught) as f64 / honest.max(1) as f64,
    );
    out.set(
        "bench.stage_coverage",
        med(&|t| (t.upload_s + t.audit_s + t.assemble_s + t.trace_s + t.allocation_s) / t.run_s),
    );
    out.set("trace_overhead_s", med(&|t| t.run_s) - median(&untraced_s));
    Ok(out)
}
