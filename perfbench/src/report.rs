//! Metric names, summary statistics, and the result line.
//!
//! Every run prints two lines on stdout: a context line (core count,
//! commit, toolchain, seed, workload sizes, error rate) and, last, the
//! result object `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run reports every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric; a layer a workload never enters reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("model_accuracy", "fraction"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("fl.engine.open_ms", "ms"),
    ("fl.engine.round_ms", "ms"),
    ("fl.engine.rounds", "count"),
    ("nn.extract_ms", "ms"),
    ("core.model.fill_ms", "ms"),
    ("core.model.rows_filled", "count"),
    ("fl.privacy.upload_ms", "ms"),
    ("fl.privacy.assemble_ms", "ms"),
    ("core.tracing.trace_ms", "ms"),
    ("core.tracing.pairs", "count"),
    ("core.tracing.related_ratio", "fraction"),
    ("core.tracing.bytes", "bytes"),
    ("core.allocation_ms", "ms"),
    ("core.robustness.analyze_ms", "ms"),
    ("core.robustness.audit_ms", "ms"),
    ("core.robustness.flagged", "count"),
    ("core.robustness.audit_recall", "fraction"),
    ("core.robustness.false_flag_rate", "fraction"),
    ("core.interpret_ms", "ms"),
    ("fl.netclient.connect_wait_p50_ms", "ms"),
    ("fl.netclient.connect_wait_p99_ms", "ms"),
    ("fl.server.update_p50_ms", "ms"),
    ("fl.server.update_p99_ms", "ms"),
    ("fl.server.read_p50_ms", "ms"),
    ("fl.server.read_p99_ms", "ms"),
    ("fl.server.job_p50_ms", "ms"),
    ("fl.server.job_p99_ms", "ms"),
    ("fl.server.dispatch_us.open", "us"),
    ("fl.server.dispatch_us.update", "us"),
    ("fl.server.dispatch_us.read", "us"),
    ("fl.server.dispatch_us.submit_job", "us"),
    ("fl.server.dispatch_us.job_replay", "us"),
    ("fl.wire.codec_us.open", "us"),
    ("fl.wire.codec_us.update", "us"),
    ("fl.wire.codec_us.read", "us"),
    ("fl.wire.codec_us.submit_job", "us"),
    ("fl.wire.codec_us.job_replay", "us"),
    ("fl.wire.bytes", "bytes"),
    ("fl.netclient.retries", "count"),
    ("fl.netclient.connects", "count"),
    ("fl.server.rejects", "count"),
    ("bench.stage_coverage", "fraction"),
    ("trace_overhead_s", "s"),
];

/// What one workload run produced: correctness counts, metric values by
/// name, and the workload sizes recorded next to the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, or wire requests on `service_mix`).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload sizes, `(name, value)`, for the context line.
    pub sizes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one workload size.
    pub fn size(&mut self, name: &'static str, value: impl Into<f64>) {
        self.sizes.push((name, value.into()));
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The result line for the given metric table. A missing metric of the
    /// table reads 0; a non-finite value fails the run. Every workload
    /// attempts at least one operation, so `attempted` is never 0.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let mut correct = self.failed == 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                correct = false;
                value = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed,
        )
    }
}

/// The context line: everything needed to compare a result with another.
pub fn context_line(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let sizes: Vec<String> = out
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    format!(
        "{{\"context\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"error_rate\": {error_rate:?}, \"sizes\": {{{}}}}}}}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        sizes.join(", ")
    )
}

/// First line of a command's stdout, or `unknown` (a checkout without git
/// metadata, a missing tool).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().replace('"', "'")))
        .unwrap_or_else(|| "unknown".into())
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Request latency `(p50, p99)`. With at least 1,000 samples (ten beyond
/// the 99th percentile) these are the median and the 99th percentile. With
/// fewer — a handful of whole-pipeline runs — neither is measurable, and
/// both read the mean: on a VM whose two vCPUs run single-threaded code at
/// different speeds, run times split into two modes, and a median of a few
/// runs flips between them from one invocation to the next.
pub fn latency(values: &[f64]) -> (f64, f64) {
    if values.len() >= 1_000 {
        (percentile(values, 0.5), percentile(values, 0.99))
    } else {
        (mean(values), mean(values))
    }
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Turns any displayable error into the benchmark's `String` error with
/// the failing step named.
pub trait Context<T> {
    /// Prefixes the error with `what`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}
