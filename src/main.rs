//! `ctfl` — command-line contribution estimation for federated learning.
//!
//! ```text
//! ctfl demo                       # end-to-end demo on tic-tac-toe
//! ctfl estimate --train data.csv --label outcome --client-column owner
//! ```
//!
//! `estimate` reads a CSV whose rows carry a class label and an owning
//! client id, trains the logical-neural-net rule model federated, and
//! prints CTFL's contribution report (micro/macro scores, robustness
//! flags, per-client rule interpretations).

use ctfl::core::estimator::{CtflConfig, CtflEstimator};
use ctfl::core::interpret::render_profile;
use ctfl::data::csv::load_csv;
use ctfl::data::partition::{skew_label, Partition};
use ctfl::data::split::train_test_split;
use ctfl::data::tictactoe_endgame;
use ctfl::fl::fedavg::{train_federated, FlConfig};
use ctfl::nn::extract::{extract_rules, ExtractOptions};
use ctfl::nn::net::LogicalNetConfig;
use ctfl_rng::rngs::StdRng;
use ctfl_rng::seq::SliceRandom;
use ctfl_rng::SeedableRng;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

const USAGE: &str = "\
ctfl — fast, robust, interpretable participant contribution estimation

USAGE:
  ctfl demo [--seed <n>]
  ctfl estimate --train <file.csv> --label <column> --client-column <column>
                [--test-fraction <f=0.2>] [--seed <n=7>] [--tau-w <f=0.9>]
                [--delta <n=2>] [--rounds <n=30>] [--local-epochs <n=5>]

`estimate` expects one CSV with a class-label column and a client-id column;
every other column is a feature (numeric columns become continuous features,
the rest categorical). A test split stratified by client is reserved
automatically: a --test-fraction share of each client's rows, never all of them.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => demo(&args[1..]),
        Some("estimate") => estimate(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {name}: {v}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn demo(args: &[String]) -> ExitCode {
    let seed: u64 = parse_flag(args, "--seed", 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let data = tictactoe_endgame();
    let (train, test) = train_test_split(&data, 0.2, true, &mut rng);
    let partition = skew_label(train.labels(), 2, 4, 0.7, &mut rng);
    println!("demo: tic-tac-toe, 4 clients, skew-label partition\n");
    run_estimation(&train, &partition, &test, seed, 0.9, 2, 30, 5)
}

#[allow(clippy::too_many_arguments)]
fn run_estimation(
    train: &ctfl::core::data::Dataset,
    partition: &Partition,
    test: &ctfl::core::data::Dataset,
    seed: u64,
    tau_w: f64,
    delta: u32,
    rounds: usize,
    local_epochs: usize,
) -> ExitCode {
    let shards: Vec<_> = (0..partition.n_clients)
        .map(|c| train.subset(&partition.client_indices(c)))
        .collect();
    for (c, s) in shards.iter().enumerate() {
        println!("client {c}: {} records", s.len());
    }
    let net_config = LogicalNetConfig {
        lr_logical: 0.1,
        lr_linear: 0.3,
        momentum: 0.0,
        seed,
        ..LogicalNetConfig::default()
    };
    let fl = FlConfig { rounds, local_epochs, parallel: true };
    let net = match train_federated(&shards, train.n_classes(), &net_config, &fl) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match extract_rules(&net, ExtractOptions::default()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("rule extraction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "\nglobal model: {} rules, test accuracy {:.3}\n",
        model.rules().len(),
        model.accuracy(test).unwrap_or(f64::NAN)
    );

    let config = CtflConfig { tau_w, delta, ..CtflConfig::default() };
    let estimator = CtflEstimator::new(model.clone(), config);
    let report = match estimator.estimate(train, &partition.client_of, test) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("estimation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("contribution scores:");
    println!("client   micro     macro     loss");
    for c in 0..partition.n_clients {
        println!(
            "{c:>6}   {:.4}    {:.4}    {:.4}",
            report.micro[c], report.macro_[c], report.loss[c]
        );
    }
    println!("\nranking (best first): {:?}", report.ranking());
    if !report.robustness.suspected_replicators.is_empty() {
        println!("suspected replicators:    {:?}", report.robustness.suspected_replicators);
    }
    if !report.robustness.suspected_label_flippers.is_empty() {
        println!("suspected label flippers: {:?}", report.robustness.suspected_label_flippers);
    }
    if !report.robustness.suspected_low_quality.is_empty() {
        println!("suspected low quality:    {:?}", report.robustness.suspected_low_quality);
    }
    println!("\nper-client characteristics:");
    for profile in &report.profiles {
        print!("{}", render_profile(profile, model.rules(), model.schema()));
    }
    ExitCode::SUCCESS
}

fn estimate(args: &[String]) -> ExitCode {
    let Some(path) = flag(args, "--train") else {
        eprintln!("--train <file.csv> is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(label) = flag(args, "--label") else {
        eprintln!("--label <column> is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(client_col) = flag(args, "--client-column") else {
        eprintln!("--client-column <column> is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let test_fraction: f64 = parse_flag(args, "--test-fraction", 0.2);
    // The same (0, 1) contract as `train_test_split`, the split `demo` uses.
    if !(test_fraction > 0.0 && test_fraction < 1.0) {
        eprintln!("invalid value for --test-fraction: {test_fraction}");
        return ExitCode::from(2);
    }
    let seed: u64 = parse_flag(args, "--seed", 7);
    let tau_w: f64 = parse_flag(args, "--tau-w", 0.9);
    let delta: u32 = parse_flag(args, "--delta", 2);
    // The estimator's own contracts (τ_w in (0, 1], δ ≥ 1), checked before
    // training rather than after it.
    if !(tau_w > 0.0 && tau_w <= 1.0) {
        eprintln!("invalid value for --tau-w: {tau_w}");
        return ExitCode::from(2);
    }
    if delta == 0 {
        eprintln!("invalid value for --delta: {delta}");
        return ExitCode::from(2);
    }
    let rounds: usize = parse_flag(args, "--rounds", 30);
    let local_epochs: usize = parse_flag(args, "--local-epochs", 5);

    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The client column loads as a feature; its values become the row
    // owners and the dataset is rebuilt without it.
    let loaded = match load_csv(BufReader::new(file), &label) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("csv error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Locate the client column among the features.
    let schema = loaded.data.schema();
    let Some(client_feature) = (0..schema.len()).find(|&i| schema.name_of(i) == client_col) else {
        eprintln!("client column '{client_col}' not found among features");
        return ExitCode::FAILURE;
    };

    // Rebuild a dataset without the client column.
    let keep: Vec<usize> = (0..schema.len()).filter(|&i| i != client_feature).collect();
    let new_schema = ctfl::core::data::FeatureSchema::new(
        keep.iter()
            .map(|&i| {
                let spec = schema.feature(i).expect("in range");
                (spec.name.clone(), spec.kind)
            })
            .collect(),
    );
    let mut train_all = ctfl::core::data::Dataset::empty(new_schema, loaded.data.n_classes());
    let mut owners: Vec<u32> = Vec::with_capacity(loaded.data.len());
    for i in 0..loaded.data.len() {
        let row = loaded.data.row(i);
        // A numeric client column loads as continuous: only a non-negative
        // integer below 2^32 is an id, so no two ids can merge in `as u32`.
        let owner = match row[client_feature] {
            ctfl::core::data::FeatureValue::Discrete(c) => c,
            ctfl::core::data::FeatureValue::Continuous(v)
                if (0.0..4_294_967_296.0).contains(&v) && v.fract() == 0.0 =>
            {
                v as u32
            }
            ctfl::core::data::FeatureValue::Continuous(v) => {
                eprintln!("row {i}: client id {v} is not a non-negative integer");
                return ExitCode::FAILURE;
            }
        };
        owners.push(owner);
        let kept: Vec<_> = keep.iter().map(|&k| row[k]).collect();
        if let Err(e) = train_all.push_row(&kept, loaded.data.label(i)) {
            eprintln!("row {i}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Compact client ids to 0..n.
    let mut ids: Vec<u32> = owners.clone();
    ids.sort_unstable();
    ids.dedup();
    let owners: Vec<u32> = owners
        .iter()
        .map(|o| ids.binary_search(o).expect("present") as u32)
        .collect();
    let n_clients = ids.len();
    println!("loaded {} rows, {} clients, classes {:?}", train_all.len(), n_clients, loaded.classes);

    // Hold out test rows per client; ownership follows the train rows.
    let mut rng = StdRng::seed_from_u64(seed);
    let split = split_per_client(&owners, n_clients, test_fraction, &mut rng);
    let (train_idx, test_idx) = match split {
        Ok(split) => split,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let test = train_all.subset(&test_idx);
    let train = train_all.subset(&train_idx);
    let client_of: Vec<u32> = train_idx.iter().map(|&i| owners[i]).collect();
    let partition = Partition::new(client_of, n_clients);

    run_estimation(&train, &partition, &test, seed, tau_w, delta, rounds, local_epochs)
}

/// Holds out `⌊fraction · n_c⌋` of each client's `n_c` rows for testing,
/// chosen by a seeded shuffle of that client's rows, but never all of them:
/// every client keeps at least one training row. When that holds out
/// nothing, one row of the first client with two or more is held out.
/// Returns the `(train, test)` row indices, each ascending.
fn split_per_client(
    owners: &[u32],
    n_clients: usize,
    fraction: f64,
    rng: &mut StdRng,
) -> Result<(Vec<usize>, Vec<usize>), String> {
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for (i, &c) in owners.iter().enumerate() {
        rows[c as usize].push(i);
    }
    let mut held: Vec<usize> = rows
        .iter()
        .map(|r| ((r.len() as f64 * fraction) as usize).min(r.len().saturating_sub(1)))
        .collect();
    if held.iter().all(|&h| h == 0) {
        match rows.iter().position(|r| r.len() > 1) {
            Some(c) => held[c] = 1,
            None => return Err("cannot hold out a test row: no client has two rows".into()),
        }
    }
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for (r, h) in rows.iter_mut().zip(held) {
        r.shuffle(rng);
        test.extend_from_slice(&r[..h]);
        train.extend_from_slice(&r[h..]);
    }
    train.sort_unstable();
    test.sort_unstable();
    Ok((train, test))
}
