//! Measurements shared by the experiment binaries: wall-clock medians and
//! rank agreement over the honest clients.

use ctfl_valuation::spearman_rho;
use std::time::Instant;

/// Median wall-clock nanoseconds of `samples` runs of `f` (one untimed
/// warmup). Callers keep timings off stdout so the determinism gates can
/// byte-diff it.
pub fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u128 {
    std::hint::black_box(f());
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Spearman rank correlation of two per-client score vectors over the
/// clients not in `excluded` — how far an attack, or the defence against
/// it, moved the honest clients' ranking.
pub fn spearman_honest(base: &[f64], other: &[f64], excluded: &[usize]) -> f64 {
    let honest: Vec<usize> = (0..base.len()).filter(|c| !excluded.contains(c)).collect();
    let b: Vec<f64> = honest.iter().map(|&c| base[c]).collect();
    let o: Vec<f64> = honest.iter().map(|&c| other[c]).collect();
    spearman_rho(&b, &o)
}
