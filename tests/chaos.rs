//! Chaos acceptance test (issue acceptance criterion): a 5-client
//! federation under 30% per-round dropout plus one persistently
//! NaN-corrupting client must still converge, the guard must reject the
//! corrupted client every round it reports, its participation-weighted
//! contribution must be exactly zero, the honest clients' contribution
//! ranking must match the fault-free run, and two identical-seed runs must
//! produce byte-identical federation logs.

use ctfl::core::estimator::{ContributionReport, CtflConfig, CtflEstimator};
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::tictactoe_endgame;
use ctfl::fl::faults::{CorruptionKind, FaultPlan, FaultSpec};
use ctfl::fl::adversary::AdversaryPlan;
use ctfl::fl::aggregate::WeightedFedAvg;
use ctfl::fl::engine::FederationEngine;
use ctfl::fl::fedavg::{train_federated, ByzantineSetup, FederationRun, FlConfig};
use ctfl::fl::guard::{GuardConfig, Participation};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

const N_CLIENTS: usize = 5;
const CORRUPTED: usize = 2;

fn net_config() -> LogicalNetConfig {
    LogicalNetConfig {
        lr_logical: 0.1,
        lr_linear: 0.3,
        momentum: 0.0,
        seed: 3,
        ..LogicalNetConfig::default()
    }
}

fn fl_config() -> FlConfig {
    FlConfig { rounds: 20, local_epochs: 4, parallel: true }
}

struct Fixture {
    train: ctfl::core::data::Dataset,
    test: ctfl::core::data::Dataset,
    client_of: Vec<u32>,
    shards: Vec<ctfl::core::data::Dataset>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(1);
    let data = tictactoe_endgame();
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let partition = skew_label(train.labels(), 2, N_CLIENTS, 0.8, &mut rng);
    let shards =
        (0..N_CLIENTS).map(|c| train.subset(&partition.client_indices(c))).collect();
    Fixture { train, test, client_of: partition.client_of, shards }
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::generate(N_CLIENTS, fl_config().rounds, &FaultSpec::dropout_only(0.3), 0xC4A05)
        .with_persistent_corruption(CORRUPTED, CorruptionKind::NaN)
}

fn run_chaos(fx: &Fixture, fl: &FlConfig) -> FederationRun {
    let (plan, adversary, guard) =
        (chaos_plan(), AdversaryPlan::none(N_CLIENTS), GuardConfig::default());
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut engine =
        FederationEngine::from_datasets(&fx.shards, 2, &net_config(), fl, &setup).unwrap();
    engine.run_to_completion().unwrap();
    engine.finish()
}

fn score(fx: &Fixture, run: &FederationRun) -> ContributionReport {
    let model = extract_rules(&run.net, ExtractOptions::default()).unwrap();
    CtflEstimator::new(model, CtflConfig::default())
        .estimate_with_participation(&fx.train, &fx.client_of, &fx.test, &run.log.participation())
        .unwrap()
}

/// Descending rank order of `scores` restricted to the honest clients.
fn honest_ranking(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..N_CLIENTS).filter(|&c| c != CORRUPTED).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    order
}

#[test]
fn chaotic_federation_converges_and_quarantines_the_corrupted_client() {
    let fx = fixture();
    let run = run_chaos(&fx, &fl_config());

    // Convergence: the surviving federation still learns the task.
    let model = extract_rules(&run.net, ExtractOptions::default()).unwrap();
    let accuracy = model.accuracy(&fx.test).unwrap();
    assert!(accuracy > 0.75, "chaotic federation accuracy {accuracy}");

    // The corrupted client is rejected every single round it reports, and
    // never accepted; no round is fully lost to the faults.
    for round in &run.log.rounds {
        for entry in &round.entries {
            if entry.client == CORRUPTED {
                assert!(
                    matches!(entry.outcome, Participation::Rejected(_)),
                    "round {}: corrupted client outcome {:?}",
                    round.round,
                    entry.outcome
                );
            }
        }
    }
    let participation = run.log.participation();
    assert_eq!(participation[CORRUPTED].accepted, 0);
    assert!(participation[CORRUPTED].rejected > 0);
    assert_eq!(run.log.n_degraded(), 0, "quorum retries should absorb 30% dropout");
}

#[test]
fn corrupted_client_scores_zero_and_honest_ranking_is_stable() {
    let fx = fixture();

    // Fault-free reference run (back-compat wrapper).
    let clean_net = train_federated(&fx.shards, 2, &net_config(), &fl_config()).unwrap();
    let clean_model = extract_rules(&clean_net, ExtractOptions::default()).unwrap();
    let clean = CtflEstimator::new(clean_model, CtflConfig::default())
        .estimate(&fx.train, &fx.client_of, &fx.test)
        .unwrap();

    let run = run_chaos(&fx, &fl_config());
    let chaotic = score(&fx, &run);

    // Zero-element: every update rejected ⇒ effective contribution is
    // exactly 0.0, however plausible the client's local data looks.
    assert_eq!(chaotic.participation_rate[CORRUPTED], 0.0);
    assert_eq!(chaotic.micro_effective[CORRUPTED], 0.0);

    // Honest clients keep a meaningful effective score...
    for c in (0..N_CLIENTS).filter(|&c| c != CORRUPTED) {
        assert!(
            chaotic.micro_effective[c] > 0.0,
            "honest client {c} scored {}",
            chaotic.micro_effective[c]
        );
    }
    // ...and their relative ranking matches the fault-free run.
    assert_eq!(
        honest_ranking(&chaotic.micro),
        honest_ranking(&clean.micro),
        "honest ranking drifted: chaotic {:?} vs clean {:?}",
        chaotic.micro,
        clean.micro
    );
}

#[test]
fn identical_seeds_produce_byte_identical_logs_and_params() {
    let fx = fixture();
    let a = run_chaos(&fx, &fl_config());
    let b = run_chaos(&fx, &fl_config());
    assert_eq!(a.log, b.log);
    assert_eq!(a.log.render(), b.log.render());
    assert_eq!(a.net.params(), b.net.params());

    // The serial path replays the exact same federation.
    let serial = run_chaos(&fx, &FlConfig { parallel: false, ..fl_config() });
    assert_eq!(a.log.render(), serial.log.render());
    assert_eq!(a.net.params(), serial.net.params());
}
