//! Property tests for the Byzantine-adversarial layer: permutation
//! invariance of the robust aggregation rules, identical-update agreement
//! with the weighted mean, bit-identity of the FedAvg `Aggregator` with the
//! pre-trait `server::aggregate`, and bit-level reproducibility of the
//! Byzantine runtime against a golden of the legacy fault-only path.

use std::sync::Arc;

use ctfl::core::data::{Dataset, FeatureKind, FeatureSchema};
use ctfl::fl::adversary::{AdversaryPlan, AttackKind};
use ctfl::fl::aggregate::{Aggregator, CoordinateMedian, MultiKrum, TrimmedMean, WeightedFedAvg};
use ctfl::fl::faults::{FaultKind, FaultPlan};
use ctfl::fl::engine::FederationEngine;
use ctfl::fl::fedavg::{ByzantineSetup, FederationRun, FlConfig};
use ctfl::fl::guard::GuardConfig;
use ctfl::fl::server::aggregate;
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::seq::SliceRandom;
use ctfl_testkit::prop::check;
use ctfl_testkit::{prop_assert, prop_assert_eq};

fn net_config(seed: u64) -> LogicalNetConfig {
    LogicalNetConfig {
        tau_d: 6,
        layer_sizes: vec![8],
        epochs: 2,
        batch_size: 16,
        seed,
        ..LogicalNetConfig::default()
    }
}

fn run(shards: &[Dataset], seed: u64, fl: &FlConfig, setup: &ByzantineSetup<'_>) -> FederationRun {
    let mut engine =
        FederationEngine::from_datasets(shards, 2, &net_config(seed), fl, setup).unwrap();
    engine.run_to_completion().unwrap();
    engine.finish()
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn shards(n: usize, rows: usize) -> Vec<Dataset> {
    let schema = FeatureSchema::new(vec![("x", FeatureKind::continuous(0.0, 1.0))]);
    (0..n)
        .map(|c| {
            let mut d = Dataset::empty(Arc::clone(&schema), 2);
            for i in 0..rows {
                let v = ((i * n + c) % 120) as f32 / 120.0;
                d.push_row(&[v.into()], (v > 0.5) as u32).unwrap();
            }
            d
        })
        .collect()
}

/// The robust rules are bitwise invariant under any permutation of the
/// incoming updates: median and trimmed mean sort each coordinate, and
/// (Multi-)Krum accumulates its selection in (score, index) order, so the
/// arrival order never leaks into the float arithmetic.
#[test]
fn robust_rules_are_permutation_invariant() {
    check(
        "robust-rule-permutation-invariance",
        64,
        |g| {
            let n = g.usize_in(4, 8);
            let dim = g.len_in(1, 16);
            let updates = g.vec(n, |g| g.vec(dim, |g| g.f64_in(-5.0, 5.0) as f32));
            let weights = g.vec(n, |g| g.usize_in(1, 100));
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(g.rng());
            (updates, weights, perm)
        },
        |(updates, weights, perm)| {
            let p_updates: Vec<Vec<f32>> = perm.iter().map(|&i| updates[i].clone()).collect();
            let p_weights: Vec<usize> = perm.iter().map(|&i| weights[i]).collect();
            let rules: Vec<Box<dyn Aggregator>> = vec![
                Box::new(CoordinateMedian),
                Box::new(TrimmedMean::new(0.2)),
                Box::new(MultiKrum::krum(1)),
                Box::new(MultiKrum::new(1, 2)),
            ];
            for rule in rules {
                let a = rule.aggregate(updates, weights).map_err(|e| e.to_string())?;
                let b = rule.aggregate(&p_updates, &p_weights).map_err(|e| e.to_string())?;
                prop_assert!(a == b, "{} is arrival-order sensitive: {a:?} vs {b:?}", rule.name());
            }
            Ok(())
        },
    );
}

/// When every client reports the same parameters, every rule — robust or
/// not — agrees with the weighted mean (which is an identity there).
#[test]
fn identical_updates_agree_with_weighted_mean() {
    check(
        "identical-updates-rule-agreement",
        64,
        |g| {
            let n = g.usize_in(4, 8);
            let dim = g.len_in(1, 16);
            let params = g.vec(dim, |g| g.f64_in(-10.0, 10.0) as f32);
            let weights = g.vec(n, |g| g.usize_in(1, 500));
            (params, weights)
        },
        |(params, weights)| {
            let updates: Vec<Vec<f32>> = vec![params.clone(); weights.len()];
            let mean = WeightedFedAvg.aggregate(&updates, weights).map_err(|e| e.to_string())?;
            let rules: Vec<Box<dyn Aggregator>> = vec![
                Box::new(CoordinateMedian),
                Box::new(TrimmedMean::new(0.25)),
                Box::new(MultiKrum::krum(1)),
                Box::new(MultiKrum::new(1, weights.len() - 1)),
            ];
            for rule in rules {
                let out = rule.aggregate(&updates, weights).map_err(|e| e.to_string())?;
                for ((o, m), p) in out.iter().zip(&mean).zip(params) {
                    prop_assert!(
                        (o - m).abs() <= 1e-5 * p.abs().max(1.0),
                        "{} diverges on identical updates: {o} vs {m}",
                        rule.name()
                    );
                }
            }
            Ok(())
        },
    );
}

/// The FedAvg `Aggregator` impl is the pre-trait `server::aggregate`, bit
/// for bit, on arbitrary (finite) inputs.
#[test]
fn fedavg_rule_is_bit_identical_through_the_trait() {
    check(
        "fedavg-trait-bit-identity",
        64,
        |g| {
            let n = g.usize_in(1, 8);
            let dim = g.len_in(1, 32);
            let updates = g.vec(n, |g| g.vec(dim, |g| g.f64_in(-100.0, 100.0) as f32));
            let weights = g.vec(n, |g| g.usize_in(1, 1000));
            (updates, weights)
        },
        |(updates, weights)| {
            let via_trait =
                WeightedFedAvg.aggregate(updates, weights).map_err(|e| e.to_string())?;
            let direct = aggregate(updates, weights).map_err(|e| e.to_string())?;
            prop_assert_eq!(via_trait, direct);
            Ok(())
        },
    );
}

/// A seeded training run through the Byzantine runtime with no adversaries
/// and the default FedAvg rule reproduces the legacy fault-only path byte
/// for byte — parameters and federation log alike, serial and parallel.
/// The hashes were printed by the fault-only entry point before it was
/// folded into the engine.
#[test]
fn byzantine_runtime_reproduces_the_legacy_path_bitwise() {
    const LEGACY_PARAMS: u64 = 0xAE42_254A_8A1A_551D;
    const LEGACY_LOG: u64 = 0x5063_9118_D3E0_F61A;
    let shards = shards(4, 40);
    let plan = FaultPlan::none(4, 3)
        .with_event(0, 1, FaultKind::Dropout)
        .with_event(1, 2, FaultKind::Straggler);
    let guard = GuardConfig::default();
    let adversary = AdversaryPlan::none(4);
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &adversary,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    for parallel in [true, false] {
        let byz = run(&shards, 11, &FlConfig { rounds: 3, local_epochs: 1, parallel }, &setup);
        let params = fnv1a(byz.net.params().iter().flat_map(|p| p.to_bits().to_le_bytes()));
        assert_eq!(params, LEGACY_PARAMS, "parameter divergence (parallel {parallel})");
        let log = fnv1a(byz.log.render().bytes());
        assert_eq!(log, LEGACY_LOG, "log divergence (parallel {parallel})");
    }
}

/// Parallel and serial execution stay bit-identical under active update
/// attacks and a robust aggregator — the determinism contract survives the
/// new layer.
#[test]
fn parallel_and_serial_are_bit_identical_under_attack() {
    let shards = shards(5, 40);
    let fl_plan = FaultPlan::none(5, 3);
    let adversary = AdversaryPlan::none(5)
        .with_colluding_ring(1, &[3])
        .with_attacker(4, AttackKind::SignFlip { scale: 1.0 });
    let guard = GuardConfig::default();
    let run = |parallel| {
        let fl = FlConfig { rounds: 3, local_epochs: 1, parallel };
        let setup = ByzantineSetup {
            faults: &fl_plan,
            adversary: &adversary,
            guard: &guard,
            aggregator: &CoordinateMedian,
        };
        run(&shards, 13, &fl, &setup)
    };
    let p = run(true);
    let s = run(false);
    assert_eq!(p.net.params(), s.net.params(), "parallel/serial divergence under attack");
    assert_eq!(p.log, s.log);
    assert_eq!(p.log.render(), s.log.render());
    // The signatures actually recorded the collusion: the ring's copies sit
    // at relative distance 0 every round.
    for round in &p.log.rounds {
        let copier = round.signatures.iter().find(|s| s.client == 3).unwrap();
        assert_eq!(copier.nearest_peer, Some(1));
        assert_eq!(copier.peer_dist, 0.0);
    }
}
