//! `perfbench` — the CTFL stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--server-bin <path>] [--tiny]
//! ```
//!
//! Workloads: `federate_adult` (FedAvg training, rule extraction and the
//! CTFL estimator on adult-like data), `score_1k_clients` (private,
//! audited scoring of 1,000 clients' activation uploads) and `service_mix`
//! (the `ctfl_server` binary over loopback TCP). Inputs derive from
//! `--seed` alone. `--trace 0` times the untraced path and prints the
//! end-to-end metrics; `--trace 1` adds traced runs that time each layer's
//! public calls and prints the per-layer metrics. `--tiny` shrinks every
//! workload for the smoke test. See `perfbench/README.md`.

mod adapter;
mod federate;
mod report;
mod scoring;
mod service;

use report::{context_line, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: perfbench --workload <federate_adult|score_1k_clients|service_mix> --seed <n>
                 --seconds <s> --trace <0|1> [--server-bin <path>] [--tiny]";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Shrunken inputs for the smoke test.
    pub tiny: bool,
    /// The `ctfl_server` executable (`service_mix` only).
    pub server_bin: Option<PathBuf>,
}

impl Args {
    /// Set-up runs at least this many times and for at least this many
    /// seconds (at most 50 times); `setup_s` is the median.
    fn setup_budget(&self) -> (usize, f64) {
        if self.tiny {
            (1, 0.0)
        } else {
            (3, 1.0)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or(format!("{name} needs a value")),
        }
    };
    let required = |name: &str| -> Result<&String, String> {
        value(name)?.ok_or(format!("{name} is required"))
    };
    let number = |name: &str| -> Result<u64, String> {
        let v = required(name)?;
        v.parse()
            .map_err(|_| format!("{name}: not a whole number: {v}"))
    };
    let trace = match required("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: required("--workload")?.clone(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
        tiny: argv.iter().any(|a| a == "--tiny"),
        server_bin: value("--server-bin")?.map(PathBuf::from),
    })
}

/// Seed of the one adult-like task every workload draws from. Like the
/// paper's fixed `adult` table, the task stays put across `--seed`s.
const TASK_SEED: u64 = 0xAD01_7000;

/// Seed of every Dirichlet partition's draws, so each workload keeps one
/// federation shape (client sizes and label mixes) across `--seed`s.
pub const SHAPE_SEED: u64 = 0x5A4E_0008;

/// The first `n` rows of the fixed adult-like task.
pub fn task_rows(n: usize) -> Result<ctfl_core::data::Dataset, String> {
    let (data, _) = ctfl_data::synthetic::adult_like((n as f64 + 0.5) / 32_561.0, TASK_SEED);
    if data.len() != n {
        return Err(format!(
            "adult_like produced {} rows, wanted {n}",
            data.len()
        ));
    }
    Ok(data)
}

/// The logical network of the repository's experiment federations: one
/// hidden layer of 64, FL-tuned learning rates, momentum off.
pub fn net_config(seed: u64) -> ctfl_nn::net::LogicalNetConfig {
    ctfl_nn::net::LogicalNetConfig {
        tau_d: 10,
        layer_sizes: vec![64],
        batch_size: 64,
        seed,
        lr_logical: 0.1,
        lr_linear: 0.3,
        momentum: 0.0,
        ..Default::default()
    }
}

/// `n` of the indices `0..pool`, drawn by `seed`, in drawn order.
pub fn sample(pool: usize, n: usize, seed: u64) -> Vec<usize> {
    use ctfl_rng::seq::SliceRandom;
    use ctfl_rng::SeedableRng;
    let mut order: Vec<usize> = (0..pool).collect();
    order.shuffle(&mut ctfl_rng::rngs::StdRng::seed_from_u64(seed));
    order.truncate(n);
    order
}

/// Calls `run` until `seconds` have passed since the first call began, and
/// at least once.
pub fn for_seconds(seconds: f64, mut run: impl FnMut()) {
    let start = Instant::now();
    loop {
        run();
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Runs `setup` per [`Args::setup_budget`] and returns the last product
/// with the median set-up time in seconds. Cheap set-ups thus get many
/// samples.
pub fn timed_setup<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (min_repeats, min_seconds) = args.setup_budget();
    let mut times = Vec::new();
    let mut product = None;
    while times.len() < min_repeats || (times.iter().sum::<f64>() < min_seconds && times.len() < 50)
    {
        // Release the previous product first, so peak memory holds one copy.
        drop(product.take());
        let t = Instant::now();
        product = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        product.expect("set-up ran at least once"),
        report::median(&times),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "federate_adult" => federate::run(&args),
        "score_1k_clients" => scoring::run(&args),
        "service_mix" => service::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(out) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            println!(
                "{}",
                context_line(
                    &args.workload,
                    args.seed,
                    args.seconds as u64,
                    args.trace,
                    &out
                )
            );
            println!("{}", out.result_line(table));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
