//! **E4 — Figure 5**: execution time of each contribution-estimation
//! scheme, end-to-end (every model training the scheme needs, plus its own
//! computation). The paper's headline: CTFL is 2–3 orders of magnitude
//! faster than ShapleyValue/LeastCore and comparable to Individual, because
//! it trains a *single* global model and traces contributions through rule
//! activations.
//!
//! Like the paper, ShapleyValue and LeastCore are skipped on `dota2`.

use ctfl_bench::args::CommonArgs;
use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{Federation, FederationConfig, SkewMode};
use ctfl_bench::report::{fmt_ratio, fmt_seconds, Table};
use ctfl_bench::schemes::{run_baseline, run_ctfl, Scheme};
use ctfl_testkit::json;

fn main() {
    let args = CommonArgs::parse();
    let fl = ctfl_bench::federation::default_fl();
    let mut json_out = Vec::new();

    for spec in &args.datasets {
        let mut cfg = FederationConfig::new(*spec, args.scale, args.seed);
        cfg.n_clients = args.clients;
        cfg.skew = SkewMode::Label;
        let fed = Federation::build(cfg);

        println!(
            "Figure 5 [{}]: execution time ({} train rows, {} clients)",
            spec.name(),
            fed.train.len(),
            args.clients
        );
        let mut t = Table::new(vec!["scheme", "time", "model trainings", "speedup vs Shapley"]);

        let (micro, _) = run_ctfl(&fed, &fl);
        let mut rows: Vec<(Scheme, f64, usize)> =
            vec![(Scheme::CtflMicro, micro.seconds, micro.model_trainings)];
        for scheme in [Scheme::Individual, Scheme::LeaveOneOut] {
            let r = run_baseline(scheme, &fed, args.seed);
            rows.push((scheme, r.seconds, r.model_trainings));
        }
        if *spec != DatasetSpec::Dota2Like {
            for scheme in [Scheme::ShapleyValue, Scheme::LeastCore] {
                let r = run_baseline(scheme, &fed, args.seed);
                rows.push((scheme, r.seconds, r.model_trainings));
            }
        }
        let shapley_time = rows
            .iter()
            .find(|(s, _, _)| *s == Scheme::ShapleyValue)
            .map(|(_, secs, _)| *secs);
        for (scheme, secs, trainings) in &rows {
            let speedup = match (scheme, shapley_time) {
                (Scheme::ShapleyValue, _) => "1x".to_string(),
                (_, Some(st)) => fmt_ratio(st / secs.max(1e-9)),
                (_, None) => "-".to_string(),
            };
            t.row(vec![
                scheme.name().to_string(),
                fmt_seconds(*secs),
                trainings.to_string(),
                speedup,
            ]);
            json_out.push(json!({
                "experiment": "fig5",
                "dataset": spec.name(),
                "scheme": scheme.name(),
                "seconds": secs,
                "model_trainings": trainings,
            }));
        }
        println!("{}", t.render());
    }

    if args.json {
        println!("{}", ctfl_testkit::json::Json::Array(json_out).pretty());
    }
}
