//! **Scenario sweep**: federation regimes × contribution schemes.
//!
//! Scenario: 5 clients on tic-tac-toe, skew-label, no faults and no
//! adversaries — the *only* thing that varies across regimes is who trains,
//! when updates land, and who aggregates:
//!
//! * `full`        — every client, every round, star server (the legacy
//!   engine, bit-for-bit).
//! * `sampled-50`  — seeded uniform 50% client sampling per round.
//! * `async-stale` — asynchronous arrival: every update is delayed by a
//!   seeded 0..=2-round lag and aggregated late with a staleness-decayed
//!   weight.
//! * `gossip`      — no server: each node averages only its own update and
//!   a seeded 2-neighbor sample, and the reported model is the node
//!   consensus mean.
//!
//! Each cell scores the clients under one regime with one scheme — CTFL's
//! effective micro allocation (one training run), leave-one-out, and
//! permutation-sampled Shapley (whose coalition retrainings *also* run
//! under the regime's schedule and topology) — and reports the Spearman
//! rank correlation against the same scheme's full-participation scores.
//! The full row is the identity check (`rho = +1.000` exactly); the other
//! rows measure how much ranking signal each scheme loses when
//! participation thins out or the topology decentralizes.
//!
//! `run_experiments.sh --check` runs this binary twice with the same seed
//! and byte-diffs the outputs (the determinism gate for the scheduler, the
//! delayed-update queue, and gossip neighborhood sampling), then greps for
//! `SCENARIO_OK` — printed only after every identity, sanity, and
//! regime-shape assertion has held.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{Federation, FederationConfig, SkewMode};
use ctfl_bench::report::Table;
use ctfl_core::data::Dataset;
use ctfl_core::estimator::{CtflConfig, CtflEstimator};
use ctfl_fl::adversary::AdversaryPlan;
use ctfl_fl::faults::FaultPlan;
use ctfl_fl::engine::FederationEngine;
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::{GuardConfig, Participation};
use ctfl_fl::{Schedule, Topology, WeightedFedAvg};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;
use ctfl_testkit::json;
use ctfl_valuation::coalition::Coalition;
use ctfl_valuation::utility::UtilityFn;
use ctfl_valuation::{leave_one_out_scores, sampled_shapley, spearman_rho, ShapleySamplingConfig};

const N_CLIENTS: usize = 5;

/// One federation regime: a schedule plus a topology.
struct Regime {
    name: &'static str,
    schedule: Schedule,
    topology: Topology,
}

fn regimes(seed: u64) -> Vec<Regime> {
    vec![
        Regime { name: "full", schedule: Schedule::Full, topology: Topology::Star },
        Regime {
            name: "sampled-50",
            schedule: Schedule::UniformSample { frac: 0.5, seed: seed ^ 0x5A },
            topology: Topology::Star,
        },
        Regime {
            name: "async-stale",
            schedule: Schedule::Async { max_staleness: 2, staleness_decay: 0.5, seed: seed ^ 0xA5 },
            topology: Topology::Star,
        },
        Regime {
            name: "gossip",
            schedule: Schedule::Full,
            topology: Topology::Gossip { degree: 2, seed: seed ^ 0x60 },
        },
    ]
}

/// Coalition utility that retrains under the regime's schedule and
/// topology — the baselines pay the regime's thinning too, not just CTFL.
struct ScenarioUtility {
    shards: Vec<Dataset>,
    test: Dataset,
    net_config: LogicalNetConfig,
    fl: FlConfig,
    schedule: Schedule,
    topology: Topology,
    /// Majority-class accuracy: the value of the empty coalition.
    empty_value: f64,
}

impl ScenarioUtility {
    fn new(fed: &Federation, fl: &FlConfig, regime: &Regime) -> Self {
        let counts = fed.test.class_counts();
        let empty_value =
            *counts.iter().max().expect("at least one class") as f64 / fed.test.len() as f64;
        ScenarioUtility {
            shards: fed.client_datasets(),
            test: fed.test.clone(),
            net_config: fed.net_config.clone(),
            // Coalition evaluations already run concurrently; keep each
            // retraining serial to avoid nested fan-out.
            fl: FlConfig { parallel: false, ..*fl },
            schedule: regime.schedule,
            topology: regime.topology,
            empty_value,
        }
    }
}

impl UtilityFn for ScenarioUtility {
    fn n_players(&self) -> usize {
        self.shards.len()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        if coalition.is_empty() {
            return self.empty_value;
        }
        let members = coalition.members();
        let shards: Vec<Dataset> = members.iter().map(|&m| self.shards[m].clone()).collect();
        // Gossip needs at least two nodes; a singleton coalition is its own
        // consensus either way.
        let topology = if shards.len() < 2 { Topology::Star } else { self.topology };
        let faults = FaultPlan::none(shards.len(), self.fl.rounds);
        let adversary = AdversaryPlan::none(shards.len());
        // The tolerant default guard: the async regime starves early rounds
        // below a full quorum by design, which the strict guard treats as
        // fatal.
        let guard = GuardConfig::default();
        let setup = ByzantineSetup {
            faults: &faults,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        let mut engine = FederationEngine::from_datasets(
            &shards,
            self.test.n_classes(),
            &self.net_config,
            &self.fl,
            &setup,
        )
        .and_then(|e| e.with_schedule(self.schedule)?.with_topology(topology))
        .expect("coalition shards are valid");
        engine.run_to_completion().expect("coalition federation runs");
        let run = engine.finish();
        let model = extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
        model.accuracy(&self.test).expect("non-empty test set")
    }
}

/// CTFL's effective micro scores from one scheduled training run, plus the
/// regime-shape observations the gates check.
struct CtflRun {
    scores: Vec<f64>,
    unscheduled: usize,
    stale_accepts: usize,
}

fn run_ctfl_cell(fed: &Federation, fl: &FlConfig, regime: &Regime) -> CtflRun {
    let faults = FaultPlan::none(N_CLIENTS, fl.rounds);
    let adversary = AdversaryPlan::none(N_CLIENTS);
    let guard = GuardConfig::default();
    let setup = ByzantineSetup {
        faults: &faults,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut engine = fed
        .engine(fl, &setup)
        .with_schedule(regime.schedule)
        .and_then(|e| e.with_topology(regime.topology))
        .expect("regime is valid");
    engine.run_to_completion().expect("federation runs");
    let run = engine.finish();
    let model = extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
    let log = run.log;
    let part = log.participation();
    let report = CtflEstimator::new(model, CtflConfig::default())
        .estimate_with_participation(&fed.train, &fed.partition.client_of, &fed.test, &part)
        .expect("federation inputs are valid");
    let stale_accepts = log
        .rounds
        .iter()
        .flat_map(|r| r.entries.iter())
        .filter(|e| e.stale && matches!(e.outcome, Participation::Accepted { .. }))
        .count();
    CtflRun {
        scores: report.micro_effective,
        unscheduled: part.iter().map(|p| p.scheduled_out).sum(),
        stale_accepts,
    }
}

fn main() {
    let args = CommonArgs::parse();
    let mut cfg = FederationConfig::new(DatasetSpec::TicTacToe, 1.0, args.seed);
    cfg.n_clients = N_CLIENTS;
    cfg.skew = SkewMode::Label;
    let fed = Federation::build(cfg);
    let fl = FlConfig { rounds: 10, local_epochs: 2, parallel: true };
    let shapley_cfg =
        ShapleySamplingConfig { n_permutations: 4, truncation_tolerance: -1.0, parallel: true };
    let schemes = ["ctfl", "leave-one-out", "shapley-sampled"];

    println!(
        "scenario sweep: {N_CLIENTS} clients on tic-tac-toe, {} rounds, seed {}",
        fl.rounds, args.seed
    );
    println!(
        "cell = Spearman rho of the regime's scores vs the same scheme under full participation"
    );
    println!();

    // scores[regime][scheme]
    let mut scores: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut ctfl_runs: Vec<CtflRun> = Vec::new();
    for regime in regimes(args.seed) {
        let ctfl = run_ctfl_cell(&fed, &fl, &regime);
        let u = ScenarioUtility::new(&fed, &fl, &regime);
        let loo = leave_one_out_scores(&u, true);
        // Same permutations in every regime: the rho column compares
        // regimes, not Monte-Carlo noise.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x54AB);
        let shap = sampled_shapley(&u, &shapley_cfg, &mut rng);
        scores.push(vec![ctfl.scores.clone(), loo, shap]);
        ctfl_runs.push(ctfl);
    }

    let regs = regimes(args.seed);
    let mut header = vec!["regime".to_string(), "participation".to_string()];
    header.extend(schemes.iter().map(|s| s.to_string()));
    let mut table = Table::new(header);
    let mut json_out = Vec::new();
    let mut rho_of = vec![vec![0.0f64; schemes.len()]; regs.len()];
    for (r, regime) in regs.iter().enumerate() {
        let total_rounds = N_CLIENTS * fl.rounds;
        let mut row = vec![
            regime.name.to_string(),
            format!(
                "{}/{total_rounds} trained",
                total_rounds - ctfl_runs[r].unscheduled
            ),
        ];
        for (s, scheme) in schemes.iter().enumerate() {
            let rho = spearman_rho(&scores[0][s], &scores[r][s]);
            rho_of[r][s] = rho;
            row.push(format!("{rho:+.3}"));
            json_out.push(json!({
                "experiment": "scenario_sweep",
                "regime": regime.name,
                "scheme": *scheme,
                "spearman_vs_full": rho,
            }));
        }
        table.row(row);
    }
    println!("{}", table.render());

    // --- Gates ------------------------------------------------------------
    // The full row is the identity: same scheme, same regime, same seed.
    for (s, scheme) in schemes.iter().enumerate() {
        assert!(
            (rho_of[0][s] - 1.0).abs() < 1e-9,
            "{scheme}: full vs full must be the identity ranking, got {}",
            rho_of[0][s]
        );
    }
    // Every cell is a well-formed rank correlation.
    for (r, regime) in regs.iter().enumerate() {
        for (s, scheme) in schemes.iter().enumerate() {
            let rho = rho_of[r][s];
            assert!(
                rho.is_finite() && rho.abs() <= 1.0 + 1e-9,
                "{}/{scheme}: rho {rho} out of range",
                regime.name
            );
        }
    }
    // Regime shape: full thins nobody, sampling thins someone, async
    // actually lands stale updates, and all scores stay finite.
    assert_eq!(ctfl_runs[0].unscheduled, 0, "full participation schedules everyone");
    assert!(ctfl_runs[1].unscheduled > 0, "50% sampling must bench someone");
    assert!(ctfl_runs[2].stale_accepts > 0, "async regime must accept delayed updates");
    assert!(
        scores.iter().flatten().flatten().all(|v| v.is_finite()),
        "every score in every cell is finite"
    );

    if args.json {
        println!("{}", ctfl_testkit::json::Json::Array(json_out).pretty());
    }
    println!("SCENARIO_OK");
}
