//! **E5 — Figure 6**: robustness to adverse behaviours. Two of the eight
//! clients replicate data / inject low-quality labels / flip labels (ratio
//! uniform in `[0.1, 0.5]`); each scheme's relative score change
//! `(φ(i') − φ(i)) / φ(i)` on the modified clients is reported, clipped to
//! `[-1, 1]` per the paper.
//!
//! Expected shapes (paper Section VI-B RQ3):
//! * replication — CTFL-macro and Individual ≈ 0; CTFL-micro may inflate.
//! * low-quality / label-flip — CTFL-micro and Individual show a stable
//!   proportional *drop*; LOO/Shapley/LeastCore fluctuate erratically.
//!
//! A second sweep goes beyond the paper to *system-level* adversity
//! (arXiv:2509.19921 shows contribution scores are fragile under exactly
//! these run-level perturbations): seeded client dropout and a persistently
//! NaN-corrupting client. CTFL re-scores from the single faulty training run
//! (rank correlation with the fault-free run stays high under ≤30% dropout,
//! and the corrupted client's participation-weighted score collapses to
//! zero), while every coalition-sampling baseline must re-run its full
//! retraining budget to re-score the perturbed federation.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{Federation, FederationConfig, SkewMode};
use ctfl_bench::report::Table;
use ctfl_bench::schemes::{run_baseline, run_ctfl, Scheme, SchemeResult};
use ctfl_core::estimator::{CtflConfig, CtflEstimator};
use ctfl_core::robustness::relative_change;
use ctfl_data::adverse::{flip_labels, inject_low_quality, replicate};
use ctfl_data::partition::Partition;
use ctfl_fl::faults::{CorruptionKind, FaultPlan, FaultSpec};
use ctfl_fl::fedavg::{ByzantineSetup, FlConfig};
use ctfl_fl::guard::GuardConfig;
use ctfl_fl::{AdversaryPlan, WeightedFedAvg};
use ctfl_nn::extract::{extract_rules, ExtractOptions};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::SeedableRng;
use ctfl_testkit::json;
use ctfl_valuation::spearman_rho;

#[derive(Clone, Copy, PartialEq)]
enum Behaviour {
    Replicate,
    LowQuality,
    FlipLabels,
}

impl Behaviour {
    fn name(&self) -> &'static str {
        match self {
            Behaviour::Replicate => "data replication",
            Behaviour::LowQuality => "low-quality data",
            Behaviour::FlipLabels => "label flipping",
        }
    }

    fn apply(
        &self,
        fed: &Federation,
        targets: &[usize],
        rng: &mut StdRng,
    ) -> (ctfl_core::data::Dataset, Partition) {
        let ratio = (0.1, 0.5);
        match self {
            Behaviour::Replicate => {
                let (d, p, _) = replicate(&fed.train, &fed.partition, targets, ratio, rng);
                (d, p)
            }
            Behaviour::LowQuality => {
                let (d, p, _) = inject_low_quality(&fed.train, &fed.partition, targets, ratio, rng);
                (d, p)
            }
            Behaviour::FlipLabels => {
                let (d, p, _) = flip_labels(&fed.train, &fed.partition, targets, ratio, rng);
                (d, p)
            }
        }
    }
}

fn schemes_for(spec: DatasetSpec) -> Vec<Scheme> {
    let mut v = vec![
        Scheme::CtflMicro,
        Scheme::CtflMacro,
        Scheme::Individual,
        Scheme::LeaveOneOut,
    ];
    if spec != DatasetSpec::Dota2Like {
        v.push(Scheme::ShapleyValue);
        v.push(Scheme::LeastCore);
    }
    v
}

fn run_all(fed: &Federation, schemes: &[Scheme], fl: &FlConfig, seed: u64) -> Vec<SchemeResult> {
    let mut out = Vec::new();
    if schemes.contains(&Scheme::CtflMicro) || schemes.contains(&Scheme::CtflMacro) {
        let (micro, macro_) = run_ctfl(fed, fl);
        out.push(micro);
        out.push(macro_);
    }
    for s in schemes {
        match s {
            Scheme::CtflMicro | Scheme::CtflMacro => {}
            other => out.push(run_baseline(*other, fed, seed)),
        }
    }
    out
}

fn main() {
    let args = CommonArgs::parse();
    let fl = ctfl_bench::federation::default_fl();
    let n_modified = 2usize.min(args.clients);
    let mut json_out = Vec::new();

    for spec in &args.datasets {
        let mut cfg = FederationConfig::new(*spec, args.scale, args.seed);
        cfg.n_clients = args.clients;
        cfg.skew = SkewMode::Label;
        let fed = Federation::build(cfg);
        let schemes = schemes_for(*spec);

        // Base scores once per dataset.
        let base = run_all(&fed, &schemes, &fl, args.seed);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xAD7E);
        let mut clients: Vec<usize> = (0..args.clients).collect();
        clients.shuffle(&mut rng);
        let targets: Vec<usize> = clients.into_iter().take(n_modified).collect();

        println!(
            "Figure 6 [{}]: relative score change of the {} modified clients {:?} (clipped to [-1,1])",
            spec.name(),
            n_modified,
            targets
        );
        let mut header = vec!["behaviour".to_string()];
        header.extend(base.iter().map(|r| r.scheme.name().to_string()));
        let mut t = Table::new(header);

        for behaviour in [Behaviour::Replicate, Behaviour::LowQuality, Behaviour::FlipLabels] {
            let (train2, part2) = behaviour.apply(&fed, &targets, &mut rng);
            let fed2 = fed.with_modified(train2, part2);
            let after = run_all(&fed2, &schemes, &fl, args.seed);
            let mut row = vec![behaviour.name().to_string()];
            for (b, a) in base.iter().zip(&after) {
                debug_assert_eq!(b.scheme, a.scheme);
                let mean_change: f64 = targets
                    .iter()
                    .map(|&c| relative_change(b.scores[c], a.scores[c]))
                    .sum::<f64>()
                    / targets.len() as f64;
                row.push(format!("{mean_change:+.3}"));
                json_out.push(json!({
                    "experiment": "fig6",
                    "dataset": spec.name(),
                    "behaviour": behaviour.name(),
                    "scheme": b.scheme.name(),
                    "mean_relative_change": mean_change,
                }));
            }
            t.row(row);
        }
        println!("{}", t.render());

        // --- System-level fault sweep (beyond the paper) -----------------
        // Dropout / corruption hit the *training run*, not the data. CTFL
        // re-scores from the single faulty run; every coalition-sampling
        // baseline would have to re-run its full retraining budget.
        let base_micro = &base
            .iter()
            .find(|r| r.scheme == Scheme::CtflMicro)
            .expect("CTFL-micro is always run")
            .scores;
        let fault_seed = args.seed ^ 0xFA17;
        let corrupt_target = targets[0];
        let scenarios: Vec<(&str, FaultPlan, Option<usize>)> = vec![
            (
                "10% dropout",
                FaultPlan::generate(args.clients, fl.rounds, &FaultSpec::dropout_only(0.1), fault_seed),
                None,
            ),
            (
                "30% dropout",
                FaultPlan::generate(args.clients, fl.rounds, &FaultSpec::dropout_only(0.3), fault_seed),
                None,
            ),
            (
                "30% dropout + NaN client",
                FaultPlan::generate(args.clients, fl.rounds, &FaultSpec::dropout_only(0.3), fault_seed)
                    .with_persistent_corruption(corrupt_target, CorruptionKind::NaN),
                Some(corrupt_target),
            ),
        ];

        println!(
            "Figure 6b [{}]: CTFL rank stability under system faults (vs fault-free CTFL-micro)",
            spec.name()
        );
        let mut ft = Table::new(vec![
            "fault scenario".to_string(),
            "spearman (honest)".to_string(),
            "degraded rounds".to_string(),
            "corrupted client eff. score".to_string(),
            "extra trainings".to_string(),
        ]);
        let adversary = AdversaryPlan::none(fed.partition.n_clients);
        let guard = GuardConfig::default();
        for (name, plan, corrupted) in &scenarios {
            let setup = ByzantineSetup {
                faults: plan,
                adversary: &adversary,
                guard: &guard,
                aggregator: &WeightedFedAvg,
            };
            let mut engine = fed.engine(&fl, &setup);
            engine.run_to_completion().expect("federation runs");
            let run = engine.finish();
            let model =
                extract_rules(&run.net, ExtractOptions::default()).expect("extraction succeeds");
            let log = run.log;
            let report = CtflEstimator::new(model, CtflConfig::default())
                .estimate_with_participation(
                    &fed.train,
                    &fed.partition.client_of,
                    &fed.test,
                    &log.participation(),
                )
                .expect("federation inputs are valid");
            let honest: Vec<usize> =
                (0..args.clients).filter(|c| Some(*c) != *corrupted).collect();
            let base_h: Vec<f64> = honest.iter().map(|&c| base_micro[c]).collect();
            let faulty_h: Vec<f64> =
                honest.iter().map(|&c| report.micro_effective[c]).collect();
            let rho = spearman_rho(&base_h, &faulty_h);
            let corrupted_score = corrupted.map(|c| report.micro_effective[c]);
            ft.row(vec![
                name.to_string(),
                format!("{rho:+.3}"),
                format!("{}", log.n_degraded()),
                corrupted_score.map_or("—".to_string(), |s| format!("{s:.4}")),
                "1 (re-score only)".to_string(),
            ]);
            json_out.push(json!({
                "experiment": "fig6_system_faults",
                "dataset": spec.name(),
                "scenario": *name,
                "spearman_honest": rho,
                "degraded_rounds": log.n_degraded() as f64,
                "corrupted_client": corrupted.map_or(-1.0, |c| c as f64),
                "corrupted_effective_score": corrupted_score.unwrap_or(-1.0),
            }));
        }
        println!("{}", ft.render());
        let burden: Vec<String> = base
            .iter()
            .filter(|r| {
                !matches!(r.scheme, Scheme::CtflMicro | Scheme::CtflMacro)
            })
            .map(|r| format!("{}: {} trainings", r.scheme.name(), r.model_trainings))
            .collect();
        println!(
            "Re-scoring the perturbed run costs each sampling baseline its full budget again ({}); CTFL re-traces the one faulty model.\n",
            burden.join(", ")
        );
    }

    if args.json {
        println!("{}", ctfl_testkit::json::Json::Array(json_out).pretty());
    }
}
