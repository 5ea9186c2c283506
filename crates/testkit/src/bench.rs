//! Wall-clock benchmarking.
//!
//! Replaces `criterion` for the workspace's five bench binaries
//! (`harness = false`): warmup, N timed iterations, median/p95/min/mean
//! report, and one JSON line per benchmark (written with [`crate::json`](mod@crate::json),
//! no serde) so `run_experiments.sh` and future trend tooling can scrape
//! results mechanically.

use crate::json::Json;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Summary statistics over the timed iterations, in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark identifier (`group/name`).
    pub id: String,
    /// Timed iterations.
    pub samples: usize,
    /// Minimum observed iteration time.
    pub min_ns: u128,
    /// Arithmetic mean.
    pub mean_ns: u128,
    /// Median (p50).
    pub median_ns: u128,
    /// 95th percentile.
    pub p95_ns: u128,
}

impl BenchStats {
    /// The stats as one JSON object (for JSON-lines output).
    pub fn to_json(&self) -> Json {
        crate::json!({
            "bench": self.id.as_str(),
            "samples": self.samples,
            "min_ns": self.min_ns as f64,
            "mean_ns": self.mean_ns as f64,
            "median_ns": self.median_ns as f64,
            "p95_ns": self.p95_ns as f64,
        })
    }
}

fn fmt_duration(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A named group of benchmarks sharing warmup/iteration policy.
pub struct Bencher {
    group: String,
    warmup_iters: usize,
    sample_iters: usize,
    min_sample_time: Duration,
    json_lines: bool,
    results: Vec<BenchStats>,
}

impl Bencher {
    /// A group with the default policy: 3 warmup iterations, 20 samples,
    /// and JSON lines on stdout when `CTFL_BENCH_JSON` is set (the benches'
    /// human-readable table always prints).
    pub fn new(group: &str) -> Self {
        Bencher {
            group: group.to_string(),
            warmup_iters: 3,
            sample_iters: 20,
            min_sample_time: Duration::ZERO,
            json_lines: std::env::var_os("CTFL_BENCH_JSON").is_some(),
            results: Vec::new(),
        }
    }

    /// Sets the number of timed iterations (mirrors criterion's
    /// `sample_size`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_iters = n;
        self
    }

    /// Sets the number of untimed warmup iterations.
    pub fn warmup(&mut self, n: usize) -> &mut Self {
        self.warmup_iters = n;
        self
    }

    /// Keeps sampling until at least this much wall-clock time has been
    /// spent, even if `sample_size` iterations finish sooner.
    pub fn min_time(&mut self, d: Duration) -> &mut Self {
        self.min_sample_time = d;
        self
    }

    /// Runs one benchmark: warmup, timed samples, immediate report line.
    /// Wrap inputs/outputs in [`black_box`] inside `f` as with criterion.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchStats {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        let mut times: Vec<u128> = Vec::with_capacity(self.sample_iters);
        let started = Instant::now();
        while times.len() < self.sample_iters || started.elapsed() < self.min_sample_time {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_nanos());
        }
        times.sort_unstable();
        let n = times.len();
        let stats = BenchStats {
            id: format!("{}/{name}", self.group),
            samples: n,
            min_ns: times[0],
            mean_ns: times.iter().sum::<u128>() / n as u128,
            median_ns: times[n / 2],
            p95_ns: times[(n * 95 / 100).min(n - 1)],
        };
        println!(
            "{:<48} median {:>12}   p95 {:>12}   min {:>12}   ({} samples)",
            stats.id,
            fmt_duration(stats.median_ns),
            fmt_duration(stats.p95_ns),
            fmt_duration(stats.min_ns),
            stats.samples,
        );
        if self.json_lines {
            println!("{}", stats.to_json());
        }
        self.results.push(stats);
        self.results.last().expect("just pushed")
    }

    /// All stats recorded so far, in run order.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let mut b = Bencher::new("unit");
        b.warmup(1).sample_size(15);
        let stats = b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(stats.samples, 15);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn json_line_is_wellformed() {
        let stats = BenchStats {
            id: "g/n".into(),
            samples: 10,
            min_ns: 1,
            mean_ns: 2,
            median_ns: 2,
            p95_ns: 3,
        };
        let line = stats.to_json().to_string();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"bench\":\"g/n\""));
        assert!(line.contains("\"median_ns\":2"));
    }

    #[test]
    fn min_time_extends_sampling() {
        let mut b = Bencher::new("unit");
        b.warmup(0).sample_size(1).min_time(Duration::from_millis(5));
        let stats = b.bench("tiny", || black_box(1u64 + 1));
        assert!(stats.samples > 1, "5ms floor should force many samples");
    }
}
