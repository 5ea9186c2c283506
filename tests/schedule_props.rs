//! Properties of the pluggable round-scheduling and topology layer
//! (DESIGN.md §13): sampled, asynchronous, and gossip federations must be
//! seed-deterministic, serial == parallel, correctly accounted in the
//! participation record, and byte-identical whether executed in-process or
//! dispatched over the wire protocol.

use std::sync::Arc;

use ctfl_core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl_fl::engine::{EngineState, FederationEngine};
use ctfl_fl::faults::{FaultKind, FaultPlan};
use ctfl_fl::guard::Participation;
use ctfl_fl::server::FederationService;
use ctfl_fl::wire::{self, JobSpec, Message, RejectCode};
use ctfl_fl::{
    AdversaryPlan, ByzantineSetup, FlConfig, GuardConfig, Schedule, Topology, WeightedFedAvg,
};
use ctfl_nn::net::LogicalNetConfig;

fn shards(n: usize) -> Vec<Dataset> {
    let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
    (0..n)
        .map(|c| {
            let mut d = Dataset::empty(Arc::clone(&schema), 2);
            for i in 0..40 {
                let v = ((i * n + c) % 120) as f32 / 120.0;
                d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
            }
            d
        })
        .collect()
}

fn cfg(seed: u64) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 6,
        layer_sizes: vec![8],
        epochs: 5,
        batch_size: 16,
        seed,
        ..LogicalNetConfig::default()
    }
}

/// Builds an engine over `n` healthy clients with the given regime.
#[allow(clippy::too_many_arguments)]
fn engine<'a>(
    data: &[Dataset],
    plan: &'a FaultPlan,
    adversary: &'a AdversaryPlan,
    guard: &'a GuardConfig,
    fl: &FlConfig,
    seed: u64,
    schedule: Schedule,
    topology: Topology,
) -> FederationEngine<'a> {
    let setup = ByzantineSetup { faults: plan, adversary, guard, aggregator: &WeightedFedAvg };
    FederationEngine::from_datasets(data, 2, &cfg(seed), fl, &setup)
        .unwrap()
        .with_schedule(schedule)
        .unwrap()
        .with_topology(topology)
        .unwrap()
}

fn run(
    data: &[Dataset],
    rounds: usize,
    parallel: bool,
    seed: u64,
    schedule: Schedule,
    topology: Topology,
) -> (Vec<f32>, String) {
    let n = data.len();
    let fl = FlConfig { rounds, local_epochs: 1, parallel };
    let plan = FaultPlan::none(n, rounds);
    let adversary = AdversaryPlan::none(n);
    let guard = GuardConfig::default();
    let mut e = engine(data, &plan, &adversary, &guard, &fl, seed, schedule, topology);
    e.run_to_completion().unwrap();
    let out = e.finish();
    (out.net.params(), out.log.render())
}

#[test]
fn sampled_runs_are_deterministic_and_account_scheduled_out() {
    let data = shards(4);
    let sched = Schedule::UniformSample { frac: 0.5, seed: 17 };
    let (p1, l1) = run(&data, 6, false, 5, sched, Topology::Star);
    let (p2, l2) = run(&data, 6, false, 5, sched, Topology::Star);
    assert_eq!(p1, p2, "identical-seed sampled runs must produce identical parameters");
    assert_eq!(l1, l2, "identical-seed sampled runs must produce byte-identical logs");
    assert!(l1.contains("unscheduled"), "50% sampling must bench someone:\n{l1}");

    // Participation accounting: with no faults, every client either trained
    // and was accepted or sat out on the scheduler's orders; sampling never
    // drags its rate below 1.
    let fl = FlConfig { rounds: 6, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(4, 6);
    let adversary = AdversaryPlan::none(4);
    let guard = GuardConfig::default();
    let mut e = engine(&data, &plan, &adversary, &guard, &fl, 5, sched, Topology::Star);
    e.run_to_completion().unwrap();
    let part = e.log().participation();
    let mut total_unscheduled = 0;
    for (c, p) in part.iter().enumerate() {
        assert_eq!(
            p.accepted + p.scheduled_out,
            p.rounds,
            "client {c}: healthy sampled runs split rounds into accepted + scheduled-out"
        );
        assert!(p.scheduled_out > 0 || p.accepted == p.rounds);
        assert_eq!(p.rate(), 1.0, "client {c}: being sampled out must not tank the rate");
        total_unscheduled += p.scheduled_out;
    }
    // ceil(0.5 * 4) = 2 scheduled per round, so 2 * 6 unscheduled slots.
    assert_eq!(total_unscheduled, 12, "exactly half the client-rounds sit out");
}

#[test]
fn weighted_sampling_runs_deterministically() {
    let data = shards(5);
    let sched = Schedule::WeightedSample { frac: 0.4, seed: 23 };
    let (p1, l1) = run(&data, 5, false, 6, sched, Topology::Star);
    let (p2, l2) = run(&data, 5, false, 6, sched, Topology::Star);
    assert_eq!(p1, p2);
    assert_eq!(l1, l2);
    assert!(l1.contains("unscheduled"));
}

/// Installing `Schedule::Full` and `Topology::Star` explicitly reproduces
/// a session opened with the engine's defaults, bit for bit.
#[test]
fn explicit_full_star_matches_the_legacy_entry_point() {
    let data = shards(3);
    let fl = FlConfig { rounds: 3, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(3, 3);
    let adversary = AdversaryPlan::none(3);
    let guard = GuardConfig::default();
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut defaults = FederationEngine::from_datasets(&data, 2, &cfg(9), &fl, &setup).unwrap();
    assert_eq!((defaults.schedule(), defaults.topology()), (Schedule::Full, Topology::Star));
    defaults.run_to_completion().unwrap();
    let mut explicit =
        engine(&data, &plan, &adversary, &guard, &fl, 9, Schedule::Full, Topology::Star);
    explicit.run_to_completion().unwrap();
    let (defaults, explicit) = (defaults.finish(), explicit.finish());
    assert_eq!(explicit.net.params(), defaults.net.params());
    assert_eq!(explicit.log.render(), defaults.log.render());
}

#[test]
fn serial_matches_parallel_in_every_regime() {
    let data = shards(4);
    let regimes = [
        (Schedule::UniformSample { frac: 0.5, seed: 3 }, Topology::Star),
        (Schedule::Async { max_staleness: 2, staleness_decay: 0.5, seed: 3 }, Topology::Star),
        (Schedule::Full, Topology::Gossip { degree: 2, seed: 3 }),
        (
            Schedule::UniformSample { frac: 0.75, seed: 4 },
            Topology::Gossip { degree: 1, seed: 4 },
        ),
    ];
    for (schedule, topology) in regimes {
        let (ps, ls) = run(&data, 4, false, 11, schedule, topology);
        let (pp, lp) = run(&data, 4, true, 11, schedule, topology);
        assert_eq!(ps, pp, "parallel diverged from serial under {schedule:?}/{topology:?}");
        assert_eq!(ls, lp, "parallel log diverged under {schedule:?}/{topology:?}");
    }
}

#[test]
fn async_arrivals_respect_the_staleness_bound() {
    let data = shards(3);
    let rounds = 8;
    let max_staleness = 2;
    let fl = FlConfig { rounds, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(3, rounds);
    let adversary = AdversaryPlan::none(3);
    let guard = GuardConfig::default();
    let sched = Schedule::Async { max_staleness, staleness_decay: 0.5, seed: 31 };
    let mut e = engine(&data, &plan, &adversary, &guard, &fl, 13, sched, Topology::Star);
    e.run_to_completion().unwrap();
    let log = e.log().clone();

    let mut saw_delayed = false;
    for r in &log.rounds {
        for entry in r.entries.iter().filter(|e| e.outcome == Participation::Straggling) {
            // A delayed update must land (as a stale accepted/rejected
            // entry) within max_staleness rounds — or the run ended first.
            let landed = log.rounds.iter().any(|later| {
                later.round > r.round
                    && later.round <= r.round + max_staleness
                    && later.entries.iter().any(|le| le.client == entry.client && le.stale)
            });
            // A lag of up to max_staleness can point past the final round,
            // in which case the update is legitimately lost at shutdown.
            let must_land = r.round + max_staleness < rounds;
            assert!(
                landed || !must_land,
                "client {} delayed in round {} never landed within {} rounds:\n{}",
                entry.client,
                r.round,
                max_staleness,
                log.render()
            );
            saw_delayed = true;
        }
    }
    assert!(saw_delayed, "8 rounds of max_staleness=2 must delay something");
}

/// Satellite: a straggler's buffered update is delivered on schedule even
/// when the scheduler does NOT pick its sender that round. The schedule
/// governs who *trains*; the server drains its delay buffer regardless.
#[test]
fn straggler_delivery_ignores_the_next_rounds_schedule() {
    let data = shards(3);
    let rounds = 6;
    // Find a (seed, round) where client 0 is scheduled at r but not r+1.
    let weights = [40usize, 40, 40];
    let (seed, r) = (0..200u64)
        .find_map(|seed| {
            let s = Schedule::UniformSample { frac: 0.34, seed };
            (0..rounds - 1)
                .find(|&r| {
                    s.plan_round(r, &weights).scheduled[0]
                        && !s.plan_round(r + 1, &weights).scheduled[0]
                })
                .map(|r| (seed, r))
        })
        .expect("some seed schedules client 0 at r but not r+1");
    let sched = Schedule::UniformSample { frac: 0.34, seed };
    let fl = FlConfig { rounds, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(3, rounds).with_event(r, 0, FaultKind::Straggler);
    let adversary = AdversaryPlan::none(3);
    let guard = GuardConfig::default();
    let mut e = engine(&data, &plan, &adversary, &guard, &fl, 21, sched, Topology::Star);
    e.run_to_completion().unwrap();
    let log = e.log().clone();

    let origin = &log.rounds[r];
    assert!(
        origin
            .entries
            .iter()
            .any(|en| en.client == 0 && !en.stale && en.outcome == Participation::Straggling),
        "round {r} must record client 0 straggling:\n{}",
        log.render()
    );
    let delivery = &log.rounds[r + 1];
    assert!(
        delivery
            .entries
            .iter()
            .any(|en| en.client == 0 && !en.stale && en.outcome == Participation::Unscheduled),
        "round {} must record client 0 unscheduled:\n{}",
        r + 1,
        log.render()
    );
    assert!(
        delivery.entries.iter().any(|en| en.client == 0
            && en.stale
            && matches!(en.outcome, Participation::Accepted { .. })),
        "round {} must accept client 0's stale arrival despite it being unscheduled:\n{}",
        r + 1,
        log.render()
    );
}

#[test]
fn gossip_is_deterministic_and_diverges_from_star() {
    let data = shards(5);
    let topo = Topology::Gossip { degree: 1, seed: 7 };
    let (p1, l1) = run(&data, 5, false, 15, Schedule::Full, topo);
    let (p2, l2) = run(&data, 5, false, 15, Schedule::Full, topo);
    assert_eq!(p1, p2, "identical-seed gossip runs must produce identical consensus params");
    assert_eq!(l1, l2);

    let (star, _) = run(&data, 5, false, 15, Schedule::Full, Topology::Star);
    assert_ne!(p1, star, "degree-1 gossip must not collapse to the star aggregate");
}

#[test]
fn gossip_nodes_hold_divergent_models_mid_run() {
    let data = shards(4);
    let fl = FlConfig { rounds: 4, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(4, 4);
    let adversary = AdversaryPlan::none(4);
    let guard = GuardConfig::default();
    let mut e = engine(
        &data,
        &plan,
        &adversary,
        &guard,
        &fl,
        19,
        Schedule::Full,
        Topology::Gossip { degree: 1, seed: 2 },
    );
    assert!(e.node_models().is_empty(), "node replicas appear at the first gossip round");
    e.step_round().unwrap();
    e.step_round().unwrap();
    let nodes = e.node_models();
    assert_eq!(nodes.len(), 4, "one model per node");
    assert!(
        (1..4).any(|i| nodes[i] != nodes[0]),
        "neighborhood-local aggregation must leave nodes holding different models"
    );
    // Star engines never materialize per-node state.
    let mut star = engine(
        &data,
        &plan,
        &adversary,
        &guard,
        &fl,
        19,
        Schedule::Full,
        Topology::Star,
    );
    star.step_round().unwrap();
    assert!(star.node_models().is_empty());
}

#[test]
fn scheduled_jobs_match_in_process_execution_over_the_wire() {
    // One spec per new regime, plus the legacy baseline.
    let specs = vec![
        JobSpec::clean(41, 4, 3),
        JobSpec { schedule: 1, sample_frac: 0.5, ..JobSpec::clean(41, 4, 3) },
        JobSpec { schedule: 2, sample_frac: 0.5, ..JobSpec::clean(42, 5, 3) },
        JobSpec { schedule: 3, max_staleness: 2, stale_decay: 0.5, ..JobSpec::clean(43, 4, 4) },
        JobSpec { topology: 1, gossip_degree: 2, ..JobSpec::clean(44, 4, 3) },
        JobSpec {
            schedule: 1,
            sample_frac: 0.75,
            topology: 1,
            gossip_degree: 1,
            ..JobSpec::clean(45, 4, 3)
        },
    ];
    let jobs: Vec<(u32, JobSpec)> =
        specs.into_iter().enumerate().map(|(i, s)| (i as u32, s)).collect();
    let direct: Vec<_> = jobs
        .iter()
        .map(|(id, spec)| FederationService::execute_job(*id, spec).unwrap())
        .collect();

    let mut requests = Vec::new();
    for (id, spec) in &jobs {
        wire::write_frame(&mut requests, &Message::SubmitJob { job: *id, spec: spec.clone() })
            .unwrap();
    }
    wire::write_frame(&mut requests, &Message::Shutdown).unwrap();
    let mut service = FederationService::new(1);
    let mut replies = Vec::new();
    service.serve(&mut requests.as_slice(), &mut replies).unwrap();
    let mut r = replies.as_slice();
    for expect in &direct {
        let reply = wire::read_frame(&mut r).unwrap();
        let Message::JobDone { job, params_hash, log_hash, rounds, accuracy } = reply else {
            panic!("job {} rejected over the wire: {reply:?}", expect.job);
        };
        assert_eq!(
            (job, params_hash, log_hash, rounds),
            (expect.job, expect.params_hash, expect.log_hash, expect.rounds),
            "wire-dispatched scheduled job {} diverged from in-process execution",
            expect.job
        );
        assert_eq!(accuracy.to_bits(), expect.accuracy.to_bits());
    }
}

#[test]
fn invalid_schedule_and_topology_specs_are_typed_rejects() {
    for bad in [
        JobSpec { schedule: 9, ..JobSpec::clean(1, 3, 2) },
        JobSpec { schedule: 1, sample_frac: 0.0, ..JobSpec::clean(1, 3, 2) },
        JobSpec { schedule: 1, sample_frac: 1.5, ..JobSpec::clean(1, 3, 2) },
        JobSpec { schedule: 3, stale_decay: 0.0, ..JobSpec::clean(1, 3, 2) },
        JobSpec { topology: 7, ..JobSpec::clean(1, 3, 2) },
        JobSpec { topology: 1, gossip_degree: 0, ..JobSpec::clean(1, 3, 2) },
        JobSpec { topology: 1, gossip_degree: 2, ..JobSpec::clean(1, 1, 2) },
    ] {
        assert!(
            FederationService::execute_job(0, &bad).is_err(),
            "spec must be rejected: {bad:?}"
        );
        // Over the wire the same spec surfaces as a Reject, not a death.
        let mut requests = Vec::new();
        wire::write_frame(&mut requests, &Message::SubmitJob { job: 0, spec: bad }).unwrap();
        wire::write_frame(&mut requests, &Message::Shutdown).unwrap();
        let mut service = FederationService::new(1);
        let mut replies = Vec::new();
        service.serve(&mut requests.as_slice(), &mut replies).unwrap();
        let mut r = replies.as_slice();
        let reply = wire::read_frame(&mut r).unwrap();
        assert!(
            matches!(reply, Message::Reject { code: RejectCode::Invalid, .. }),
            "expected an Invalid reject, got {reply:?}"
        );
    }
}

/// Satellite: exhaustive match over every [`RejectCode`] — adding a variant
/// without deciding its retryability becomes a compile error here.
#[test]
fn reject_code_retryability_is_exhaustively_decided() {
    use RejectCode::*;
    let all = [
        Invalid,
        BadFrame,
        DuplicateJob,
        UnknownJob,
        Busy,
        Expired,
        DuplicateUpdate,
        UnknownSession,
        Protocol,
    ];
    for code in all {
        let expected = match code {
            // Transient conditions: re-sending the same request can succeed.
            Busy | BadFrame => true,
            // Permanent verdicts: retrying the same bytes cannot help.
            Invalid | DuplicateJob | UnknownJob | Expired | DuplicateUpdate | UnknownSession
            | Protocol => false,
        };
        assert_eq!(code.retryable(), expected, "retryability of {code:?}");
        // Codes survive their wire encoding.
        let msg = Message::Reject { code, detail: "x".into() };
        assert_eq!(wire::decode(&wire::encode(&msg)).unwrap(), msg);
    }
}

/// Satellite: exhaustive walk of the [`EngineState`] machine — every state
/// is matched without a wildcard, so a scheduler-introduced state cannot
/// silently default.
#[test]
fn engine_state_transitions_are_exhaustive() {
    let data = shards(2);
    let fl = FlConfig { rounds: 2, local_epochs: 1, parallel: false };
    let plan = FaultPlan::none(2, 2);
    let adversary = AdversaryPlan::none(2);
    let guard = GuardConfig::default();
    let mut e = engine(
        &data,
        &plan,
        &adversary,
        &guard,
        &fl,
        33,
        Schedule::Full,
        Topology::Star,
    );
    let mut seen = Vec::new();
    loop {
        match e.state() {
            EngineState::Running { next_round } => {
                assert_eq!(next_round, e.rounds_done(), "Running points at the next round");
                assert!(!e.is_finished());
                seen.push(next_round);
                e.step_round().unwrap();
            }
            EngineState::Finished => {
                assert!(e.is_finished());
                assert_eq!(e.rounds_done(), e.rounds_total());
                // Stepping a finished session is a no-op, not an error.
                assert!(e.step_round().unwrap().is_none());
                assert_eq!(e.state(), EngineState::Finished, "Finished is terminal");
                break;
            }
        }
    }
    assert_eq!(seen, vec![0, 1], "states advance one round at a time, in order");
}
