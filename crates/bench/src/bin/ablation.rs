//! Ablation of CTFL's two design knobs (paper Section III-C remarks):
//!
//! * **τ_w** — the rule-overlap tracing threshold. High τ_w acknowledges
//!   fewer, more precisely-related contributors; low τ_w spreads credit.
//! * **δ** — the macro scheme's minimum related-instance count. Small δ
//!   shares credit broadly; large δ concentrates it on data-rich clients.
//!
//! One global model is trained once; each configuration only re-traces, so
//! the sweep itself demonstrates that allocation is decoupled from
//! training (paper: "contribution allocation and rule tracing are
//! independent").

use ctfl_bench::datasets::DatasetSpec;
use ctfl_bench::federation::{default_fl, Federation, FederationConfig, SkewMode};
use ctfl_bench::report::Table;
use ctfl_core::allocation::{macro_scores_multi, micro_scores, CreditDirection};
use ctfl_core::tracing::{inputs_from_model, trace, TraceConfig, TraceParts};

fn main() {
    let args = ctfl_bench::args::CommonArgs::parse();
    let mut cfg = FederationConfig::new(DatasetSpec::TicTacToe, 1.0, args.seed);
    cfg.n_clients = args.clients.min(8);
    cfg.skew = SkewMode::Label;
    let fed = Federation::build(cfg);
    let (_, model) = fed.train_global(&default_fl());
    println!(
        "ablation on tic-tac-toe ({} clients, model accuracy {:.3})\n",
        fed.partition.n_clients,
        model.accuracy(&fed.test).expect("non-empty test")
    );

    // Shared single-pass artifacts.
    let train_acts = model.activation_matrix(&fed.train, false).expect("schema ok");
    let test_acts = model.activation_matrix(&fed.test, false).expect("schema ok");
    let predictions: Vec<usize> = (0..fed.test.len())
        .map(|i| model.classify_from_activations(&test_acts, i))
        .collect();
    let inputs = inputs_from_model(
        &model,
        TraceParts {
            train_acts: &train_acts,
            train_labels: fed.train.labels(),
            client_of: &fed.partition.client_of,
            n_clients: fed.partition.n_clients,
            test_acts: &test_acts,
            test_labels: fed.test.labels(),
            predictions: &predictions,
        },
    );

    // --- tau_w sweep (micro scores + matched-credit mass) ---
    println!("tau_w sweep (micro scores; 'allocated' = share of test credit traced to anyone)");
    let mut header = vec!["tau_w".to_string(), "allocated".to_string()];
    header.extend((0..fed.partition.n_clients).map(|c| format!("phi({c})")));
    let mut t = Table::new(header);
    for tau_w in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let outcome =
            trace(&inputs, &TraceConfig { tau_w, parallel: false, ..TraceConfig::default() })
                .expect("valid inputs");
        let micro = micro_scores(&outcome, CreditDirection::Gain);
        let allocated: f64 = micro.iter().sum::<f64>() / outcome.test_accuracy().max(1e-12);
        let mut row = vec![format!("{tau_w:.2}"), format!("{:.3}", allocated)];
        row.extend(micro.iter().map(|s| format!("{s:.4}")));
        t.row(row);
    }
    println!("{}", t.render());

    // --- delta sweep (macro scores from one trace) ---
    let outcome =
        trace(&inputs, &TraceConfig { tau_w: 0.9, parallel: false, ..TraceConfig::default() })
            .expect("valid inputs");
    let deltas = [1u32, 2, 4, 8, 16, 32];
    let multi = macro_scores_multi(&outcome, &deltas, CreditDirection::Gain).expect("deltas >= 1");
    println!("delta sweep (macro scores at tau_w = 0.9, computed progressively in one pass)");
    let mut header = vec!["delta".to_string()];
    header.extend((0..fed.partition.n_clients).map(|c| format!("phi({c})")));
    let mut t = Table::new(header);
    for (d, scores) in deltas.iter().zip(&multi) {
        let mut row = vec![format!("{d}")];
        row.extend(scores.iter().map(|s| format!("{s:.4}")));
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "observations: raising tau_w concentrates credit and lowers the allocated\n\
         share (unmatched correct tests keep their credit); raising delta drops\n\
         small-data clients out of macro credit sharing."
    );
}
