//! **Attack sweep**: update-level attacks × aggregation rules, scored by
//! how well the *honest* clients' contribution ranking survives.
//!
//! Scenario: 10 clients on tic-tac-toe, 3 of them (30%) adversarial per
//! attack. For every attack × aggregator cell the federation is retrained
//! under the Byzantine runtime and CTFL re-scores the clients from that one
//! run; the cell reports Spearman rank correlation of the honest clients'
//! effective scores against the same aggregator's attack-free run. The
//! expected shape: naive FedAvg's ranking collapses under sign-flip
//! poisoning while at least one robust rule (median / trimmed mean /
//! Multi-Krum) keeps it ≥ 0.9 — and the update-signature detectors name
//! the colluding ring and the free-riders exactly, with no false positives
//! on the honest baseline.
//!
//! `run_experiments.sh --check` runs this binary twice with the same seed
//! and byte-diffs the outputs (the determinism gate for the adversary
//! injector, the pluggable aggregators, and the signature pipeline), then
//! greps for `ATTACK_SWEEP_OK` — the marker printed only after every
//! ranking and detector assertion above has held.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{Federation, FederationConfig, SkewMode};
use ctfl_bench::measure::spearman_honest;
use ctfl_bench::report::Table;
use ctfl_core::estimator::{CtflConfig, CtflEstimator};
use ctfl_core::robustness::{analyze_signatures, SignatureConfig};
use ctfl_fl::adversary::{AdversaryPlan, AttackKind};
use ctfl_fl::aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
use ctfl_fl::faults::FaultPlan;
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::{FederationLog, GuardConfig};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_testkit::json;

const N_CLIENTS: usize = 10;

/// One Byzantine training run → effective contribution scores + round log.
fn run_cell(
    fed: &Federation,
    fl: &FlConfig,
    faults: &FaultPlan,
    guard: &GuardConfig,
    adversary: &AdversaryPlan,
    rule: &dyn Aggregator,
) -> (Vec<f64>, FederationLog) {
    let setup = ByzantineSetup { faults, adversary, guard, aggregator: rule };
    let mut engine = fed.engine(fl, &setup);
    engine.run_to_completion().expect("federation runs");
    let run = engine.finish();
    let model = extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
    let report = CtflEstimator::new(model, CtflConfig::default())
        .estimate_with_participation(
            &fed.train,
            &fed.partition.client_of,
            &fed.test,
            &run.log.participation(),
        )
        .expect("federation inputs are valid");
    (report.micro_effective, run.log)
}

fn main() {
    let args = CommonArgs::parse();
    let mut cfg = FederationConfig::new(DatasetSpec::TicTacToe, 1.0, args.seed);
    cfg.n_clients = N_CLIENTS;
    cfg.skew = SkewMode::Label;
    let fed = Federation::build(cfg);
    let fl = FlConfig { rounds: 12, local_epochs: 3, parallel: true };
    let faults = FaultPlan::none(N_CLIENTS, fl.rounds);
    let guard = GuardConfig::default();

    // With 10 updates and f = 3 assumed Byzantine, Multi-Krum averages the
    // m = 7 best-scored updates — exactly the honest head-count.
    let rules: Vec<Box<dyn Aggregator>> = vec![
        Box::new(WeightedFedAvg),
        Box::new(CoordinateMedian),
        Box::new(TrimmedMean::new(0.3)),
        Box::new(MultiKrum::new(3, 7)),
    ];

    // Three adversarial clients (30%) per attack, sampled by seeded shuffle.
    let collusion = AdversaryPlan::generate(
        N_CLIENTS,
        0.3,
        AttackKind::Collude { leader: 0 },
        args.seed ^ 0xC011,
    );
    let free_riding = {
        let plan =
            AdversaryPlan::generate(N_CLIENTS, 0.3, AttackKind::FreeRideZero, args.seed ^ 0xF4EE);
        // One of the three echoes the previous global instead of the current.
        let stale = *plan.adversaries().last().expect("three free-riders sampled");
        plan.with_attacker(stale, AttackKind::FreeRideStale)
    };
    let attacks: Vec<(&str, AdversaryPlan)> = vec![
        (
            "sign-flip",
            AdversaryPlan::generate(
                N_CLIENTS,
                0.3,
                AttackKind::SignFlip { scale: 1.0 },
                args.seed ^ 0x51F1,
            ),
        ),
        (
            "scaled-gradient",
            AdversaryPlan::generate(
                N_CLIENTS,
                0.3,
                AttackKind::ScaleGradient { factor: 10.0 },
                args.seed ^ 0x5CA1,
            ),
        ),
        ("collusion", collusion.clone()),
        ("free-riding", free_riding.clone()),
        (
            "class-bias",
            AdversaryPlan::generate(
                N_CLIENTS,
                0.3,
                AttackKind::ClassBias { class: 0, boost: 2.0 },
                args.seed ^ 0xB1A5,
            ),
        ),
    ];

    println!(
        "attack sweep: {N_CLIENTS} clients on tic-tac-toe, 3 adversarial (30%), seed {}",
        args.seed
    );
    println!("cell = Spearman rho of honest clients' effective scores vs the same rule's attack-free run");
    println!();

    // Attack-free baseline per rule (the reference ranking), plus the
    // honest-run detector false-positive check on the FedAvg log.
    let honest_plan = AdversaryPlan::none(N_CLIENTS);
    let sig_cfg = SignatureConfig::default();
    let mut baselines: Vec<Vec<f64>> = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let (scores, log) = run_cell(&fed, &fl, &faults, &guard, &honest_plan, rule.as_ref());
        if i == 0 {
            let report = analyze_signatures(&log.update_signatures(), N_CLIENTS, &sig_cfg)
                .expect("signatures are well-formed");
            assert!(
                report.suspected_colluders.is_empty() && report.suspected_free_riders.is_empty(),
                "false positives on the honest baseline: colluders {:?}, free-riders {:?}",
                report.suspected_colluders,
                report.suspected_free_riders
            );
        }
        baselines.push(scores);
    }
    println!("honest baseline: update-signature detectors flag nobody (no false positives)");
    println!();

    let mut header = vec!["attack".to_string(), "adversaries".to_string()];
    header.extend(rules.iter().map(|r| r.name().to_string()));
    let mut table = Table::new(header);
    let mut json_out = Vec::new();
    let mut rho_of = vec![vec![0.0f64; rules.len()]; attacks.len()];
    let mut detector_logs: Vec<(usize, FederationLog)> = Vec::new();

    for (a, (attack_name, plan)) in attacks.iter().enumerate() {
        let adversaries = plan.adversaries();
        let mut row = vec![attack_name.to_string(), format!("{adversaries:?}")];
        for (r, rule) in rules.iter().enumerate() {
            let (scores, log) = run_cell(&fed, &fl, &faults, &guard, plan, rule.as_ref());
            let rho = spearman_honest(&baselines[r], &scores, &adversaries);
            rho_of[a][r] = rho;
            row.push(format!("{rho:+.3}"));
            json_out.push(json!({
                "experiment": "attack_sweep",
                "attack": *attack_name,
                "aggregator": rule.name(),
                "spearman_honest": rho,
            }));
            // The detectors read the FedAvg run's signatures (they are
            // aggregator-independent server-side observations).
            if r == 0 {
                detector_logs.push((a, log));
            }
        }
        table.row(row);
    }
    println!("{}", table.render());

    // --- Update-signature detectors --------------------------------------
    let mut dt = Table::new(vec![
        "attack".to_string(),
        "injected".to_string(),
        "suspected colluders".to_string(),
        "suspected free-riders".to_string(),
    ]);
    for (a, log) in &detector_logs {
        let (attack_name, plan) = &attacks[*a];
        let report = analyze_signatures(&log.update_signatures(), N_CLIENTS, &sig_cfg)
            .expect("signatures are well-formed");
        dt.row(vec![
            attack_name.to_string(),
            format!("{:?}", plan.adversaries()),
            format!("{:?}", report.suspected_colluders),
            format!("{:?}", report.suspected_free_riders),
        ]);
        if *attack_name == "collusion" {
            assert_eq!(
                report.suspected_colluders,
                plan.adversaries(),
                "collusion detector must name exactly the injected ring"
            );
            assert!(report.suspected_free_riders.is_empty(), "no free-ride false positives");
        }
        if *attack_name == "free-riding" {
            assert_eq!(
                report.suspected_free_riders,
                plan.adversaries(),
                "free-ride detector must name exactly the injected free-riders"
            );
            assert!(report.suspected_colluders.is_empty(), "no collusion false positives");
        }
    }
    println!("{}", dt.render());

    // --- Ranking-survival gates ------------------------------------------
    for gated in ["sign-flip", "collusion"] {
        let a = attacks.iter().position(|(n, _)| *n == gated).expect("gated attack is in the grid");
        let best = rho_of[a][1..].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= 0.9,
            "{gated}: no robust aggregator kept honest Spearman >= 0.9 (best {best:+.3})"
        );
        println!("{gated}: best robust-aggregator honest Spearman {best:+.3} (>= +0.900)");
    }

    if args.json {
        println!("{}", ctfl_testkit::json::Json::Array(json_out).pretty());
    }
    println!("ATTACK_SWEEP_OK");
}
