//! **Chaos gate**: a fixed system-fault scenario whose full output — the
//! per-round federation log and the final participation-weighted scores —
//! must be byte-identical across identical-seed runs.
//!
//! Scenario: 5 clients on tic-tac-toe, 30% per-round dropout plus one
//! client that persistently reports NaN parameters. The server guard must
//! reject the corrupted client every round it shows up, quorum retries must
//! absorb the dropouts, and the corrupted client's effective contribution
//! must collapse to exactly zero.
//!
//! `run_experiments.sh --check` runs this binary twice with the same seed
//! and byte-diffs the outputs; it exercises the fault injector, the guard,
//! the retry/degradation loop, *and* the parallel aggregation path in one
//! shot.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{Federation, FederationConfig, SkewMode};
use ctfl_core::estimator::{CtflConfig, CtflEstimator};
use ctfl_fl::faults::{CorruptionKind, FaultPlan, FaultSpec};
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::GuardConfig;
use ctfl_fl::{AdversaryPlan, WeightedFedAvg};
use ctfl_nn::extract::{extract_rules, ExtractOptions};

fn main() {
    let mut args = CommonArgs::parse();
    // The scenario is fixed-shape: tic-tac-toe, 5 clients. Only the seed
    // (and scale) are taken from the CLI so the gate can vary them.
    args.clients = 5;
    let mut cfg = FederationConfig::new(DatasetSpec::TicTacToe, 1.0, args.seed);
    cfg.n_clients = args.clients;
    cfg.skew = SkewMode::Label;
    let fed = Federation::build(cfg);

    let fl = FlConfig { rounds: 15, local_epochs: 3, parallel: true };
    let corrupted = 2usize;
    let plan = FaultPlan::generate(
        args.clients,
        fl.rounds,
        &FaultSpec::dropout_only(0.3),
        args.seed ^ 0xC4A05,
    )
    .with_persistent_corruption(corrupted, CorruptionKind::NaN);
    let guard = GuardConfig::default();
    let adversary = AdversaryPlan::none(args.clients);
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };

    let mut engine = fed.engine(&fl, &setup);
    engine.run_to_completion().expect("federation runs");
    let run = engine.finish();
    let model = extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
    let log = run.log;
    println!("chaos scenario: 5 clients, 30% dropout, client {corrupted} persistently NaN");
    println!("seed {}  faults planned {}", args.seed, plan.events().len());
    println!();
    print!("{}", log.render());
    println!();

    let report = CtflEstimator::new(model, CtflConfig::default())
        .estimate_with_participation(
            &fed.train,
            &fed.partition.client_of,
            &fed.test,
            &log.participation(),
        )
        .expect("federation inputs are valid");
    println!("client  participation  micro      effective");
    for c in 0..args.clients {
        println!(
            "{:>6}  {:>13.4}  {:>9.4}  {:>9.4}{}",
            c,
            report.participation_rate[c],
            report.micro[c],
            report.micro_effective[c],
            if c == corrupted { "  <- corrupted" } else { "" },
        );
    }
    assert_eq!(
        report.micro_effective[corrupted], 0.0,
        "corrupted client must have zero effective contribution"
    );
    println!("CHAOS_SCENARIO_OK");
}
