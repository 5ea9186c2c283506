//! Detecting adverse participants (paper Section IV-A).
//!
//! ```text
//! cargo run --release --example adverse_detection
//! ```
//!
//! An 6-client federation where client 4 replicates its data 3× and client
//! 5 flips 40% of its labels. CTFL's micro/macro divergence flags the
//! replicator; the loss-tracing allocation concentrates blame on the
//! flipper; honest clients stay clean.
//!
//! A second act re-runs the *honest* federation under system-level faults —
//! seeded dropout plus one client that persistently reports NaN parameters
//! — to show the server guard quarantining the corrupted client and the
//! participation-weighted scores collapsing its contribution to zero.
//!
//! A third act covers the remaining threat surface: *update-level* gaming.
//! Clients 1 and 4 collude (4 submits byte-identical copies of 1's update)
//! and client 2 free-rides (echoes the global parameters back untrained).
//! Their *data* is perfectly honest, so the data-level detectors have
//! nothing to attribute: compared with an honest control run their flags
//! merely wobble with model quality and never isolate the gaming trio.
//! Only the server-side update signatures name the ring and the free-rider
//! precisely — and they name nobody on the control.
//!
//! A fourth act thins the federation: the same gaming trio, but the
//! scheduler now samples only 50% of the clients each round. The copier can
//! only copy in rounds where the ring's source is also scheduled, so the
//! collusion evidence dilutes by exactly the co-scheduling probability —
//! scale the detector's round-fraction threshold by that factor and the
//! signatures still name the ring (and the free-rider, whose every signed
//! round is a free-ride regardless of sampling) with nobody flagged on the
//! sampled honest control.
//!
//! A fifth act moves the gaming from training to *scoring*: under the
//! privacy pipeline, contribution is computed from activation uploads, and
//! micro credit is proportional to claimed related-instance counts — so a
//! client can train honestly, submit honest updates, and still cheat by
//! inflating its claimed activations or padding its claimed rows. The
//! upload audit names the gamers from the uploads alone, the hardened
//! scorer quarantines them, and the honest control stays flag-free.

use ctfl::core::estimator::{CtflConfig, CtflEstimator};
use ctfl::core::robustness::{
    analyze_signatures, SignatureReport, UploadAuditConfig, COLLUDER_ROUND_FRAC,
};
use ctfl::fl::privacy::{ActivationUpload, PrivacyConfig, PrivateScoring};
use ctfl::fl::score_attack::{ScoreAttackInjector, ScoreAttackKind, ScoreAttackPlan};
use ctfl::data::adverse::{flip_labels, replicate};
use ctfl::data::partition::skew_label;
use ctfl::data::split::train_test_split;
use ctfl::data::synthetic::adult_like;
use ctfl::fl::adversary::{AdversaryPlan, AttackKind};
use ctfl::core::data::Dataset;
use ctfl::fl::aggregate::{CoordinateMedian, WeightedFedAvg};
use ctfl::fl::engine::FederationEngine;
use ctfl::fl::faults::{CorruptionKind, FaultPlan, FaultSpec};
use ctfl::fl::fedavg::{train_federated, ByzantineSetup, FederationRun, FlConfig};
use ctfl::fl::guard::GuardConfig;
use ctfl::fl::schedule::Schedule;
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::SeedableRng;

/// Opens a FedAvg session over `shards` under `setup` and `schedule`, and
/// drives every round to completion.
fn federate(
    shards: &[Dataset],
    net_config: &LogicalNetConfig,
    fl: &FlConfig,
    setup: &ByzantineSetup<'_>,
    schedule: Schedule,
) -> FederationRun {
    let mut engine = FederationEngine::from_datasets(shards, 2, net_config, fl, setup)
        .and_then(|engine| engine.with_schedule(schedule))
        .expect("the federation is well-formed");
    engine.run_to_completion().expect("training survives the injected behaviour");
    engine.finish()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(21);
    let (data, _) = adult_like(0.03, 5);
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let n_clients = 6;
    let partition = skew_label(train.labels(), 2, n_clients, 0.8, &mut rng);

    // Client 4 replicates aggressively; client 5 flips 40% of its labels.
    let (train, partition, rep) = replicate(&train, &partition, &[4], (1.0, 1.0), &mut rng);
    println!("client 4 replicated {} rows", rep.affected_rows[0]);
    let (train, partition, flip) = flip_labels(&train, &partition, &[5], (0.4, 0.4), &mut rng);
    println!("client 5 flipped {} labels\n", flip.affected_rows[0]);

    let shards: Vec<_> =
        (0..n_clients).map(|c| train.subset(&partition.client_indices(c))).collect();
    let net_config = LogicalNetConfig {
        lr_logical: 0.1,
        lr_linear: 0.3,
        momentum: 0.0,
        seed: 1,
        ..LogicalNetConfig::default()
    };
    let fl = FlConfig { rounds: 30, local_epochs: 5, parallel: true };
    let net = train_federated(&shards, 2, &net_config, &fl).expect("training succeeds");
    let model = extract_rules(&net, ExtractOptions::default()).expect("extraction succeeds");
    println!("global model accuracy: {:.3}\n", model.accuracy(&test).expect("non-empty"));

    let estimator = CtflEstimator::new(model, CtflConfig::default());
    let report =
        estimator.estimate(&train, &partition.client_of, &test).expect("valid inputs");

    println!("client  micro    macro    inflation  loss-share  useless%");
    for (c, signals) in report.robustness.clients.iter().enumerate() {
        println!(
            "{c:>6}  {:.4}  {:.4}  {:>9.2}  {:>10.4}  {:>7.1}",
            signals.micro,
            signals.macro_,
            signals.replication_inflation,
            signals.loss_share,
            signals.useless_ratio * 100.0
        );
    }
    println!();
    println!("suspected replicators:     {:?}", report.robustness.suspected_replicators);
    println!("suspected label flippers:  {:?}", report.robustness.suspected_label_flippers);
    println!("suspected low quality:     {:?}", report.robustness.suspected_low_quality);
    println!();
    println!(
        "note how the flipper's flipped records stop matching correctly classified\n\
         tests (micro score drops) while its matches on MISclassified tests (loss\n\
         share / useless ratio) rise — exactly the paper's detection signals."
    );

    // --- Act 2: system-level faults on an honest federation -------------
    // Adverse *data* is one threat model; adverse *runtime behaviour* is
    // another. Re-run the honest federation under 20% per-round dropout
    // with client 3 persistently reporting NaN parameters.
    println!("\n== system faults: 20% dropout + persistently NaN client 3 ==\n");
    let mut rng = StdRng::seed_from_u64(22);
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let partition = skew_label(train.labels(), 2, n_clients, 0.8, &mut rng);
    let shards: Vec<_> =
        (0..n_clients).map(|c| train.subset(&partition.client_indices(c))).collect();
    let plan = FaultPlan::generate(n_clients, fl.rounds, &FaultSpec::dropout_only(0.2), 42)
        .with_persistent_corruption(3, CorruptionKind::NaN);
    let (honest, guard) = (AdversaryPlan::none(n_clients), GuardConfig::default());
    let setup = ByzantineSetup {
        faults: &plan,
        adversary: &honest,
        guard: &guard,
        aggregator: &WeightedFedAvg,
    };
    let run = federate(&shards, &net_config, &fl, &setup, Schedule::Full);
    print!("{}", run.log.render());

    let model = extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
    println!("\nglobal model accuracy: {:.3}\n", model.accuracy(&test).expect("non-empty"));
    let report = CtflEstimator::new(model, CtflConfig::default())
        .estimate_with_participation(&train, &partition.client_of, &test, &run.log.participation())
        .expect("valid inputs");
    println!("client  participation  micro    effective");
    for c in 0..n_clients {
        println!(
            "{c:>6}  {:>13.4}  {:.4}  {:>9.4}{}",
            report.participation_rate[c],
            report.micro[c],
            report.micro_effective[c],
            if c == 3 { "  <- every update rejected by the guard" } else { "" },
        );
    }
    println!("suspected unreliable:      {:?}", report.robustness.suspected_unreliable);
    println!();
    println!(
        "the guard rejects the NaN client every round, quorum retries absorb the\n\
         dropouts, and the participation-weighted (effective) score zeroes the\n\
         corrupted client — however plausible its local data looks."
    );

    // --- Act 3: update-level gaming on honest data -----------------------
    // Colluding ring {1, 4} (client 4 replays client 1's update byte for
    // byte) and free-rider 2 (echoes the global back untrained). Their
    // shards are untouched, so data-level tracing has nothing to attribute;
    // the coordinate-wise median blunts the ring's doubled direction.
    println!("\n== update-level gaming: colluding ring {{1, 4}} + free-rider 2 ==\n");
    let adversary = AdversaryPlan::none(n_clients)
        .with_colluding_ring(1, &[4])
        .with_attacker(2, AttackKind::FreeRideZero);
    let faults = FaultPlan::none(n_clients, fl.rounds);
    let setup = ByzantineSetup {
        faults: &faults,
        adversary: &adversary,
        guard: &guard,
        aggregator: &CoordinateMedian,
    };
    let run = federate(&shards, &net_config, &fl, &setup, Schedule::Full);

    // Honest control: same shards, same aggregator, nobody gaming. The
    // data-level detectors see the *data*, which is identical in both runs,
    // so whatever they report here is baseline noise of this tiny demo
    // federation — not evidence about the gamers.
    let control_setup = ByzantineSetup { adversary: &honest, ..setup };
    let control = federate(&shards, &net_config, &fl, &control_setup, Schedule::Full);

    let report_of = |run: &FederationRun| {
        let model =
            extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
        CtflEstimator::new(model, CtflConfig::default())
            .estimate_with_participation(
                &train,
                &partition.client_of,
                &test,
                &run.log.participation(),
            )
            .expect("valid inputs")
    };
    let report = report_of(&run);
    let control_report = report_of(&control);

    println!("data-level detectors (gamed run vs honest control — same data both times):");
    for (name, gamed, ctrl) in [
        (
            "suspected replicators:    ",
            &report.robustness.suspected_replicators,
            &control_report.robustness.suspected_replicators,
        ),
        (
            "suspected label flippers: ",
            &report.robustness.suspected_label_flippers,
            &control_report.robustness.suspected_label_flippers,
        ),
        (
            "suspected low quality:    ",
            &report.robustness.suspected_low_quality,
            &control_report.robustness.suspected_low_quality,
        ),
        (
            "suspected unreliable:     ",
            &report.robustness.suspected_unreliable,
            &control_report.robustness.suspected_unreliable,
        ),
        // The data is identical in both runs, so any flag movement between
        // the two columns is model-quality noise, not evidence. Crucially,
        // no data-level category isolates the gaming trio {1, 2, 4}.
    ] {
        println!("  {name} {gamed:?}  control {ctrl:?}");
        assert_ne!(*gamed, vec![1, 2, 4], "data-level tracing must not attribute the gaming");
    }

    let control_sig = analyze_signatures(&control.log.update_signatures(), n_clients)
        .expect("signatures are well-formed");
    assert!(
        control_sig.suspected_colluders.is_empty() && control_sig.suspected_free_riders.is_empty(),
        "signature detectors must flag nobody on the honest control"
    );
    let sig = analyze_signatures(&run.log.update_signatures(), n_clients)
        .expect("signatures are well-formed");
    println!("\nupdate signatures (server-side, per submitted update):");
    println!("client  signed  copy-rounds  free-ride-rounds  copy-peers");
    for (c, stats) in sig.clients.iter().enumerate() {
        println!(
            "{c:>6}  {:>6}  {:>11}  {:>16}  {:?}",
            stats.signed_rounds, stats.copy_rounds, stats.free_ride_rounds, stats.copy_peers
        );
    }
    println!();
    println!("suspected colluders:       {:?}", sig.suspected_colluders);
    println!("suspected free-riders:     {:?}", sig.suspected_free_riders);
    assert_eq!(sig.suspected_colluders, vec![1, 4], "ring must be flagged, source and copier");
    assert_eq!(sig.suspected_free_riders, vec![2], "free-rider must be flagged");
    println!();
    println!(
        "the ring's copies sit at relative distance 0 on the wire and the\n\
         free-rider's delta norm is 0 against the round median — update-level\n\
         signatures catch exactly the gaming that data-level tracing cannot."
    );

    // --- Act 4: the same gaming ring under 50% client sampling -----------
    // The scheduler now picks ceil(0.5 * 6) = 3 of the 6 clients each
    // round. The copier only *can* copy when the ring's source is also
    // scheduled — conditioned on the copier signing, the source occupies 2
    // of the other 5 slots — so the expected copy fraction of its signed
    // rounds dilutes from ~1 to (k-1)/(n-1) = 0.4. Scale the collusion
    // threshold by that co-scheduling probability and the evidence that
    // remains is still unambiguous.
    println!("\n== the same gaming, but only 50% of clients scheduled per round ==\n");
    let sampled = Schedule::UniformSample { frac: 0.5, seed: 77 };
    let sampled_run = federate(&shards, &net_config, &fl, &setup, sampled);
    let sampled_control = federate(&shards, &net_config, &fl, &control_setup, sampled);

    let k = 3.0; // scheduled per round
    let co_scheduling = (k - 1.0) / (n_clients as f64 - 1.0);
    let colluder_frac = COLLUDER_ROUND_FRAC * co_scheduling;
    println!(
        "collusion threshold scaled by the co-scheduling probability: {:.2} -> {:.2}",
        COLLUDER_ROUND_FRAC, colluder_frac
    );
    // The detector's collusion rule at the scaled threshold, applied to
    // its per-client tallies.
    let colluders = |sig: &SignatureReport| -> Vec<usize> {
        (0..n_clients)
            .filter(|&c| {
                let s = &sig.clients[c];
                s.copy_rounds > 0 && s.copy_rounds as f64 >= colluder_frac * s.signed_rounds as f64
            })
            .collect()
    };
    let sampled_ctrl_sig = analyze_signatures(&sampled_control.log.update_signatures(), n_clients)
        .expect("signatures are well-formed");
    assert!(
        colluders(&sampled_ctrl_sig).is_empty()
            && sampled_ctrl_sig.suspected_free_riders.is_empty(),
        "the scaled threshold must not flag the sampled honest control"
    );
    let sampled_sig = analyze_signatures(&sampled_run.log.update_signatures(), n_clients)
        .expect("signatures are well-formed");
    let sampled_colluders = colluders(&sampled_sig);
    println!("\nupdate signatures under sampling (copier signs ~half the rounds):");
    println!("client  signed  copy-rounds  free-ride-rounds");
    for (c, stats) in sampled_sig.clients.iter().enumerate() {
        println!(
            "{c:>6}  {:>6}  {:>11}  {:>16}",
            stats.signed_rounds, stats.copy_rounds, stats.free_ride_rounds
        );
    }
    println!();
    println!("suspected colluders:       {:?}", sampled_colluders);
    println!("suspected free-riders:     {:?}", sampled_sig.suspected_free_riders);
    assert_eq!(
        sampled_colluders,
        vec![1, 4],
        "the ring survives 50% sampling once the threshold accounts for co-scheduling"
    );
    assert_eq!(
        sampled_sig.suspected_free_riders,
        vec![2],
        "free-riding is per signed round, so sampling does not dilute it at all"
    );
    println!();
    println!(
        "sampling halves how often the ring is co-scheduled, so collusion\n\
         evidence accrues at the co-scheduling rate — detection holds once the\n\
         round-fraction threshold is scaled by it, while free-riding (a\n\
         per-signed-round signal) needs no adjustment at all."
    );

    // --- Act 5: score gaming on activation uploads -----------------------
    // Honest data, honest updates — the cheating happens at scoring time.
    // Client 1 inflates its claimed activations (every row claims relation
    // to its whole class); client 4 pads its upload with duplicated rows.
    // Micro credit is proportional to claimed related counts, so both pay
    // off against a naive scorer; the upload audit sees it from the uploads
    // alone.
    println!("\n== score gaming: client 1 inflates activations, client 4 pads rows ==\n");
    let model =
        extract_rules(&control.net, ExtractOptions::default()).expect("extraction succeeds");
    let test_acts = model.activation_matrix(&test, false).expect("schema matches");
    let predictions: Vec<usize> =
        (0..test.len()).map(|i| model.classify_from_activations(&test_acts, i)).collect();
    let scoring = PrivateScoring::new(
        &model,
        &test_acts,
        test.labels(),
        &predictions,
        n_clients,
        ctfl::core::tracing::TraceConfig::default(),
    );
    let declared_rows: Vec<usize> = shards.iter().map(|s| s.len()).collect();
    let mut up_rng = StdRng::seed_from_u64(23);
    let honest_uploads: Vec<ActivationUpload> = shards
        .iter()
        .enumerate()
        .map(|(c, shard)| {
            ActivationUpload::compute(c, &model, shard, &PrivacyConfig::default(), &mut up_rng)
                .expect("upload succeeds")
        })
        .collect();
    let audit_cfg = UploadAuditConfig::default();

    // Honest control first: the audit must flag nobody and hardening must
    // change nothing.
    let naive_honest = scoring.score(&honest_uploads).expect("honest uploads are consistent");
    let hardened_honest = scoring
        .score_hardened(&honest_uploads, Some(&declared_rows), &audit_cfg)
        .expect("honest uploads are consistent");
    assert!(
        hardened_honest.audit.flagged.is_empty(),
        "upload audit must flag nobody on the honest control: {:?}",
        hardened_honest.audit.flagged
    );
    assert_eq!(naive_honest, hardened_honest.scores, "hardening an honest cohort is free");
    println!("honest control: audit flags nobody; hardened scores == naive scores exactly");

    let plan = ScoreAttackPlan::none(n_clients)
        .with_gamer(1, ScoreAttackKind::Inflate { all_classes: false })
        .with_gamer(4, ScoreAttackKind::PadRows { factor: 1.0 });
    let gamers = plan.gamers();
    let injector = ScoreAttackInjector::new(plan, 24);
    let mut gamed = honest_uploads.clone();
    injector.rewrite_uploads(&mut gamed, model.class_masks_all());

    let naive = scoring.score(&gamed).expect("gamed uploads are well-formed");
    let hardened = scoring
        .score_hardened(&gamed, Some(&declared_rows), &audit_cfg)
        .expect("gamed uploads are well-formed");
    println!("\nclient  honest   naive-gamed  hardened");
    for c in 0..n_clients {
        println!(
            "{c:>6}  {:.4}  {:>11.4}  {:>8.4}{}",
            naive_honest[c],
            naive[c],
            hardened.scores[c],
            match c {
                1 => "  <- inflated activations, quarantined",
                4 => "  <- padded rows, quarantined",
                _ => "",
            }
        );
    }
    let profit: f64 = gamers.iter().map(|&g| naive[g] - naive_honest[g]).sum();
    assert!(profit > 0.0, "gaming must pay against the naive scorer (profit {profit:+.4})");
    assert_eq!(
        hardened.audit.flagged, gamers,
        "the upload audit must name exactly the injected gamers"
    );
    assert!(gamers.iter().all(|&g| hardened.scores[g] == 0.0), "quarantined gamers earn zero");
    let excluded = scoring
        .score_excluding(&honest_uploads, &gamers)
        .expect("partial cohort is valid");
    assert_eq!(
        hardened.scores, excluded,
        "hardened scoring == honest scoring with the gamers excluded, bit for bit"
    );
    println!();
    println!("suspected inflators:       {:?}", hardened.audit.suspected_inflators);
    println!("suspected budget breaches: {:?}", hardened.audit.suspected_budget_violators);
    println!();
    println!(
        "naive micro credit pays for *claimed* related instances, so inflated\n\
         bits and padded rows collect {profit:+.4} of honest clients' credit; the\n\
         upload audit reads the same uploads and takes it all back — hardened\n\
         scoring is bit-identical to an honest federation with the gamers absent."
    );
}
