//! **Engine equivalence grid**: the [`FederationEngine`] must reproduce the
//! legacy round-loop drivers byte-for-byte.
//!
//! The grid crosses fault plans × adversary plans × aggregation rules ×
//! parallel/serial client execution. For every cell it runs the federation
//! two ways — one shot (`run_to_completion`) and through a manually stepped
//! engine session — and checks both against **golden hashes captured from
//! the pre-refactor drivers**, before the one-shot entry points were
//! rewritten as engine wrappers. That makes the test non-tautological: it
//! pins today's engine to yesterday's independent implementation, not to
//! itself.
//!
//! Two hashes per cell: FNV-1a over the trained global parameter bits, and
//! FNV-1a over the rendered federation log (so round-level decisions —
//! quorum retries, guard verdicts, straggler buffering — are pinned too).
//!
//! A second grid crosses every [`Schedule`] with both [`Topology`] kinds
//! under faults, an adversary plan and a retrying guard, pinned to goldens
//! printed by the separate star and gossip round loops before they were
//! merged into one phase sequence; it hashes the gossip node models too.

use ctfl::fl::adversary::{AdversaryPlan, AttackKind};
use ctfl::fl::aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
use ctfl::fl::engine::{EngineState, FederationEngine};
use ctfl::fl::faults::{CorruptionKind, FaultKind, FaultPlan, FaultSpec};
use ctfl::fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl::fl::guard::GuardConfig;
use ctfl::fl::schedule::Schedule;
use ctfl::fl::topology::Topology;
use ctfl::core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl::core::error::CoreError;
use ctfl::nn::LogicalNetConfig;
use std::sync::Arc;

fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fnv1a_bits(values: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

const N: usize = 4;
const ROUNDS: usize = 3;

fn shards() -> Vec<Dataset> {
    let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
    (0..N)
        .map(|c| {
            let mut d = Dataset::empty(Arc::clone(&schema), 2);
            for i in 0..40 {
                let v = ((i * N + c) % 120) as f32 / 120.0;
                d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
            }
            d
        })
        .collect()
}

fn net_config() -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 6,
        layer_sizes: vec![8],
        epochs: 5,
        batch_size: 16,
        seed: 21,
        ..LogicalNetConfig::default()
    }
}

fn fault_plan(id: usize) -> FaultPlan {
    match id {
        0 => FaultPlan::none(N, ROUNDS),
        1 => FaultPlan::none(N, ROUNDS)
            .with_event(0, 1, FaultKind::Dropout)
            .with_event(1, 2, FaultKind::Straggler)
            .with_event(2, 0, FaultKind::Corrupt(CorruptionKind::NaN)),
        2 => {
            let spec = FaultSpec {
                dropout: 0.3,
                straggler: 0.1,
                corrupt: 0.1,
                corruption: CorruptionKind::NaN,
                ..FaultSpec::default()
            };
            FaultPlan::generate(N, ROUNDS, &spec, 99)
        }
        _ => unreachable!(),
    }
}

fn adversary_plan(id: usize) -> AdversaryPlan {
    match id {
        0 => AdversaryPlan::none(N),
        1 => AdversaryPlan::none(N)
            .with_attacker(1, AttackKind::SignFlip { scale: 1.0 })
            .with_attacker(3, AttackKind::ScaleGradient { factor: 4.0 }),
        2 => AdversaryPlan::none(N)
            .with_colluding_ring(0, &[2])
            .with_attacker(3, AttackKind::FreeRideStale),
        _ => unreachable!(),
    }
}

fn rule(id: usize) -> Box<dyn Aggregator> {
    match id {
        0 => Box::new(WeightedFedAvg),
        1 => Box::new(CoordinateMedian),
        2 => Box::new(TrimmedMean::new(0.25)),
        3 => Box::new(MultiKrum::krum(0)),
        _ => unreachable!(),
    }
}

/// One grid cell: `(fault plan, adversary plan, aggregation rule)` paired
/// with its golden `(params hash, log hash)`.
type GoldenCell = ((usize, usize, usize), (u64, u64));

/// The hashes were printed by the legacy drivers (parallel and serial
/// agreed in every cell) at the commit before the engine refactor.
const GOLDEN: &[GoldenCell] = &[
    ((0, 0, 0), (0x849B_8E1F_0E90_F874, 0x06C8_B7D1_9F4A_274E)),
    ((1, 0, 0), (0x1695_1B32_29C1_9BC9, 0xE7FC_E8E2_8094_E40D)),
    ((2, 0, 0), (0x7E6D_346F_8094_B378, 0xE837_6E72_63B4_F50A)),
    ((0, 1, 0), (0x969A_E20F_C270_F65B, 0x309B_0717_A69B_1E25)),
    ((1, 2, 0), (0xC474_11CB_50CB_C4BB, 0xB6F8_F03C_B835_A92B)),
    ((0, 0, 1), (0x654B_42A3_85D2_12C6, 0x915C_D07F_32FF_DD10)),
    ((0, 1, 2), (0xB9B3_A31E_C250_0EED, 0x8CF3_5921_8607_12C2)),
    ((0, 2, 3), (0xEF2F_108C_B591_D8E0, 0x960A_06E5_9C11_30B2)),
    ((2, 1, 1), (0xC579_A4EC_DAB5_36E3, 0x381D_459F_F759_E391)),
];

#[test]
fn engine_matches_the_legacy_drivers_across_the_grid() {
    let shards = shards();
    let cfg = net_config();
    for &((f, a, r), (golden_params, golden_log)) in GOLDEN {
        for parallel in [false, true] {
            let fl = FlConfig { rounds: ROUNDS, local_epochs: 1, parallel };
            let plan = fault_plan(f);
            let adv = adversary_plan(a);
            let guard = GuardConfig::default();
            let agg = rule(r);
            let setup = ByzantineSetup {
                faults: &plan,
                adversary: &adv,
                guard: &guard,
                aggregator: &*agg,
            };
            let cell = format!("cell (fault {f}, adversary {a}, rule {r}, parallel {parallel})");

            // Path 1: one shot, every round driven by `run_to_completion`.
            let mut one_shot = FederationEngine::from_datasets(&shards, 2, &cfg, &fl, &setup)
                .unwrap_or_else(|e| panic!("{cell}: engine session failed to open: {e}"));
            one_shot
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{cell}: one-shot run failed: {e}"));
            let run = one_shot.finish();
            assert_eq!(
                fnv1a_bits(&run.net.params()),
                golden_params,
                "{cell}: one-shot params diverged from the legacy golden"
            );
            assert_eq!(
                fnv1a_bytes(run.log.render().as_bytes()),
                golden_log,
                "{cell}: one-shot log diverged from the legacy golden"
            );

            // Path 2: a manually stepped engine session, pausing and
            // inspecting between rounds.
            let mut engine = FederationEngine::from_datasets(&shards, 2, &cfg, &fl, &setup)
                .unwrap_or_else(|e| panic!("{cell}: engine session failed to open: {e}"));
            assert_eq!(engine.n_clients(), N);
            assert_eq!(engine.rounds_total(), ROUNDS);
            let mut committed = 0usize;
            while !engine.is_finished() {
                assert_eq!(
                    engine.state(),
                    EngineState::Running { next_round: committed },
                    "{cell}: state machine out of step"
                );
                let report = engine
                    .step_round()
                    .unwrap_or_else(|e| panic!("{cell}: round failed: {e}"))
                    .unwrap_or_else(|| panic!("{cell}: running session yielded no round"));
                assert_eq!(report.round, committed, "{cell}: report round mismatch");
                committed += 1;
            }
            assert!(
                engine.step_round().unwrap_or_else(|e| panic!("{cell}: {e}")).is_none(),
                "{cell}: stepping a finished session must be a no-op"
            );
            assert_eq!(committed, ROUNDS, "{cell}: engine committed a different round count");
            assert!(engine.is_finished());
            let stepped = engine.finish();
            assert_eq!(
                fnv1a_bits(&stepped.net.params()),
                golden_params,
                "{cell}: stepped params diverged from the legacy golden"
            );
            assert_eq!(
                fnv1a_bytes(stepped.log.render().as_bytes()),
                golden_log,
                "{cell}: stepped log diverged from the legacy golden"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Regime grid: every schedule × topology, pinned to goldens captured before
// the star and gossip round loops were merged into one phase sequence.
// ---------------------------------------------------------------------------

const REGIME_ROUNDS: usize = 5;

fn regime_schedule(id: usize) -> Schedule {
    match id {
        0 => Schedule::Full,
        1 => Schedule::UniformSample { frac: 0.6, seed: 17 },
        2 => Schedule::WeightedSample { frac: 0.6, seed: 23 },
        3 => Schedule::Async { max_staleness: 2, staleness_decay: 0.5, seed: 29 },
        _ => unreachable!(),
    }
}

fn regime_topology(id: usize) -> Topology {
    match id {
        0 => Topology::Star,
        1 => Topology::Gossip { degree: 1, seed: 8 },
        _ => unreachable!(),
    }
}

/// Straggling (twice), a transient dropout, a norm-exploding upload, a
/// contained panic and a permanent crash.
fn regime_faults() -> FaultPlan {
    FaultPlan::none(N, REGIME_ROUNDS)
        .with_event(0, 1, FaultKind::Straggler)
        .with_event(0, 2, FaultKind::Dropout)
        .with_event(1, 3, FaultKind::Corrupt(CorruptionKind::NormExplosion))
        .with_event(1, 0, FaultKind::Panic)
        .with_event(2, 2, FaultKind::Straggler)
        .with_event(3, 3, FaultKind::Crash)
}

fn regime_adversary() -> AdversaryPlan {
    AdversaryPlan::none(N)
        .with_attacker(1, AttackKind::SignFlip { scale: 1.0 })
        .with_attacker(2, AttackKind::FreeRideStale)
}

/// A guard whose quorum the first attempt of round 0 misses, so it retries.
fn retrying_guard() -> GuardConfig {
    GuardConfig { quorum_frac: 0.75, max_round_retries: 2, ..GuardConfig::default() }
}

fn regime_engine<'a>(
    shards: &[Dataset],
    setup: &ByzantineSetup<'a>,
    parallel: bool,
    schedule: Schedule,
    topology: Topology,
) -> ctfl::core::error::Result<FederationEngine<'a>> {
    let fl = FlConfig { rounds: REGIME_ROUNDS, local_epochs: 1, parallel };
    FederationEngine::from_datasets(shards, 2, &net_config(), &fl, setup)?
        .with_schedule(schedule)?
        .with_topology(topology)
}

/// `(params, rendered log, node models)` hashes of a finished session.
fn session_hashes(engine: FederationEngine<'_>) -> (u64, u64, u64) {
    let nodes: Vec<f32> = engine.node_models().concat();
    let run = engine.finish();
    (fnv1a_bits(&run.net.params()), fnv1a_bytes(run.log.render().as_bytes()), fnv1a_bits(&nodes))
}

/// One regime cell: `(schedule, topology)` paired with its golden
/// `(params hash, log hash, node-models hash)`.
type RegimeCell = ((usize, usize), (u64, u64, u64));

/// Printed by the separate star and gossip round loops (serial, parallel,
/// one-shot and stepped runs agreed in every cell).
const REGIME_GOLDEN: &[RegimeCell] = &[
    ((0, 0), (0xCF31_074C_11FE_B45A, 0xCD1B_E456_5EEF_0048, 0xCBF2_9CE4_8422_2325)),
    ((0, 1), (0xC1FF_19BF_9A88_750A, 0xDB3C_8E12_D0F7_0BE1, 0xA583_811F_6AB3_1197)),
    ((1, 0), (0xE600_E259_94C7_2B69, 0x4912_979D_E762_5737, 0xCBF2_9CE4_8422_2325)),
    ((1, 1), (0xAAFA_7FD2_E666_2F21, 0x95B6_EB90_7026_6BE6, 0xF155_E83C_DD3A_3680)),
    ((2, 0), (0x15D4_932E_5293_2898, 0xE13F_F7BA_F171_34F0, 0xCBF2_9CE4_8422_2325)),
    ((2, 1), (0xB467_926E_ED10_B85C, 0x375B_B152_3AF7_E4E3, 0xBCBB_CD4A_ACE2_8A9F)),
    ((3, 0), (0x73A3_BCC5_88FE_E499, 0x929B_7029_74CB_9C12, 0xCBF2_9CE4_8422_2325)),
    ((3, 1), (0xB3CC_2B48_F5F0_C9AA, 0x9700_2CBA_58BB_5AB6, 0x247E_1A53_23BB_22BC)),
];

#[test]
fn every_schedule_and_topology_matches_its_pre_merge_golden() {
    let shards = shards();
    let plan = regime_faults();
    let adversary = regime_adversary();
    let guard = retrying_guard();
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let mut actual: Vec<RegimeCell> = Vec::new();
    for s in 0..4 {
        for t in 0..2 {
            let (schedule, topology) = (regime_schedule(s), regime_topology(t));
            let mut seen = Vec::new();
            for parallel in [false, true] {
                let cell = format!("{schedule:?} / {topology:?} (parallel {parallel})");
                let mut one_shot = regime_engine(&shards, &setup, parallel, schedule, topology)
                    .unwrap_or_else(|e| panic!("{cell}: session failed to open: {e}"));
                one_shot.run_to_completion().unwrap_or_else(|e| panic!("{cell}: {e}"));
                seen.push(session_hashes(one_shot));

                let mut stepped = regime_engine(&shards, &setup, parallel, schedule, topology)
                    .unwrap_or_else(|e| panic!("{cell}: session failed to open: {e}"));
                while let Some(report) =
                    stepped.step_round().unwrap_or_else(|e| panic!("{cell}: {e}"))
                {
                    assert_eq!(report.round + 1, stepped.rounds_done(), "{cell}");
                }
                seen.push(session_hashes(stepped));
            }
            assert!(
                seen.windows(2).all(|w| w[0] == w[1]),
                "{schedule:?} / {topology:?}: serial/parallel or one-shot/stepped differ: {seen:x?}"
            );
            actual.push(((s, t), seen[0]));
        }
    }
    let table: String = actual
        .iter()
        .map(|((s, t), (p, l, n))| format!("(({s}, {t}), ({p:#018X}, {l:#018X}, {n:#018X})),\n"))
        .collect();
    assert_eq!(actual, REGIME_GOLDEN, "regime goldens diverged; this run printed:\n{table}");
}

/// A fail-fast guard aborts the session with the same typed error in each
/// topology: a quorum miss under the star, a client panic under gossip.
#[test]
fn fail_fast_cells_abort_with_their_pre_merge_errors() {
    let shards = shards();
    let adversary = AdversaryPlan::none(N);
    let guard = GuardConfig::strict();
    let cells = [
        (Topology::Star, FaultKind::Dropout, CoreError::InvalidParameter {
            name: "quorum",
            message: "round 1: 3/4 required updates accepted".into(),
        }),
        (Topology::Gossip { degree: 1, seed: 8 }, FaultKind::Panic, CoreError::ClientPanicked {
            client: 2,
        }),
    ];
    for (topology, fault, expected) in cells {
        let plan = FaultPlan::none(N, REGIME_ROUNDS).with_event(1, 2, fault);
        let setup = ByzantineSetup {
            faults: &plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &WeightedFedAvg,
        };
        for parallel in [false, true] {
            let mut engine =
                regime_engine(&shards, &setup, parallel, Schedule::Full, topology).unwrap();
            let err = engine.run_to_completion();
            assert_eq!(err, Err(expected.clone()), "{topology:?} (parallel {parallel})");
            assert_eq!(engine.rounds_done(), 1, "{topology:?}: round 0 committed, round 1 aborted");
        }
    }
}
