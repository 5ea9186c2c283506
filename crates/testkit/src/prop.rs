//! Seeded property-based testing.
//!
//! The shape mirrors how the workspace used `proptest`: a generator
//! function builds a random case from a [`Gen`], a property function checks
//! it and reports failure as `Err(String)` (usually via
//! [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq)), and [`check`] drives N
//! cases.
//!
//! Differences from `proptest`, all deliberate:
//!
//! * **Determinism.** Case `i` of property `name` is derived from
//!   `FNV(name) ^ i` over the workspace's own [`StdRng`]; there is no
//!   entropy source anywhere, so CI and laptops see identical cases.
//! * **Shrinking by halving.** On failure the harness retries the same case
//!   seed with the generator's *size budget* repeatedly halved
//!   (`1, 1/2, 1/4, …`). Generators route collection lengths and magnitudes
//!   through the budget ([`Gen::len_in`]), so a halved budget regenerates a
//!   structurally smaller counterexample. The smallest budget that still
//!   fails is reported.
//! * **Replay.** The failure message names the case seed; setting
//!   `CTFL_PROP_SEED=<seed>` (and optionally `CTFL_PROP_SIZE=<f64>`) reruns
//!   exactly that case, alone.

use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use std::fmt::Debug;

/// Property verdict: `Ok(())` or a failure description.
pub type TestResult = Result<(), String>;

/// Environment variable replaying a single failing case seed.
pub const REPLAY_SEED_VAR: &str = "CTFL_PROP_SEED";
/// Environment variable fixing the size budget during replay.
pub const REPLAY_SIZE_VAR: &str = "CTFL_PROP_SIZE";

/// Randomness handed to case generators: a seeded [`StdRng`] plus a size
/// budget in `(0, 1]` that shrinking scales down.
pub struct Gen {
    rng: StdRng,
    size: f64,
}

impl Gen {
    fn new(seed: u64, size: f64) -> Self {
        Gen { rng: StdRng::seed_from_u64(seed), size }
    }

    /// The underlying generator, for direct `Rng` calls.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Current size budget in `(0, 1]`.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// A length in `lo..=hi` whose span scales with the size budget — the
    /// hook that makes shrinking-by-halving produce smaller cases. `lo` is
    /// always reachable so validity constraints ("at least one row") hold at
    /// every size.
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "len_in bounds inverted: {lo} > {hi}");
        let scaled_hi = lo + (((hi - lo) as f64) * self.size).floor() as usize;
        self.rng.gen_range(lo..=scaled_hi)
    }

    /// A uniform `usize` in `lo..=hi` (not size-scaled; use for indices and
    /// categorical choices where shrinking must not change the domain).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..=hi)
    }

    /// A uniform `u32` in `lo..=hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.gen_range(lo..=hi)
    }

    /// A uniform `f64` in `lo..=hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..=hi)
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.gen()
    }

    /// A vector of `len` elements drawn by `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }
}

/// FNV-1a over the property name, so distinct properties explore distinct
/// case streams even with the same index.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Smallest size budget shrinking descends to (2⁻¹⁰ of the original spans).
const MIN_SIZE: f64 = 1.0 / 1024.0;

/// Runs `cases` random cases of the property; panics with a replayable
/// report on the first failure (after shrinking).
///
/// `generate` builds a case from seeded randomness; `property` judges it.
/// Panics inside either are caught and treated as failures, matching
/// `proptest`'s behaviour with `prop_assert!`-free assertions.
pub fn check<T: Debug>(
    name: &str,
    cases: u64,
    generate: impl Fn(&mut Gen) -> T,
    property: impl Fn(&T) -> TestResult,
) {
    let base = fnv1a(name);
    if let Ok(seed_str) = std::env::var(REPLAY_SEED_VAR) {
        let seed: u64 = seed_str.parse().unwrap_or_else(|_| {
            panic!("{REPLAY_SEED_VAR} must be a u64 seed, got {seed_str:?}")
        });
        let size: f64 = std::env::var(REPLAY_SIZE_VAR)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        run_one(name, seed, size, &generate, &property);
        return;
    }
    for i in 0..cases {
        let seed = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if let Err((err, case_dbg)) = try_case(seed, 1.0, &generate, &property) {
            // Shrink: halve the size budget while the same seed still fails.
            let (mut best_size, mut best_err, mut best_dbg) = (1.0, err, case_dbg);
            let mut size = 0.5;
            while size >= MIN_SIZE {
                match try_case(seed, size, &generate, &property) {
                    Err((e, d)) => {
                        best_size = size;
                        best_err = e;
                        best_dbg = d;
                        size *= 0.5;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property `{name}` failed (case {i}/{cases}, seed {seed}, \
                 shrunk to size {best_size}):\n  {best_err}\n  \
                 counterexample: {best_dbg}\n  \
                 replay with: {REPLAY_SEED_VAR}={seed} {REPLAY_SIZE_VAR}={best_size}"
            );
        }
    }
}

/// Runs a single (seed, size) case, panicking on failure — the replay path.
fn run_one<T: Debug>(
    name: &str,
    seed: u64,
    size: f64,
    generate: &impl Fn(&mut Gen) -> T,
    property: &impl Fn(&T) -> TestResult,
) {
    if let Err((err, dbg)) = try_case(seed, size, generate, property) {
        panic!(
            "property `{name}` failed on replayed seed {seed} (size {size}):\n  \
             {err}\n  counterexample: {dbg}"
        );
    }
}

/// One case; failures come back with the counterexample's Debug rendering.
fn try_case<T: Debug>(
    seed: u64,
    size: f64,
    generate: &impl Fn(&mut Gen) -> T,
    property: &impl Fn(&T) -> TestResult,
) -> Result<(), (String, String)> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut g = Gen::new(seed, size);
        let case = generate(&mut g);
        let verdict = property(&case);
        (verdict, format!("{case:?}"))
    }));
    match outcome {
        Ok((Ok(()), _)) => Ok(()),
        Ok((Err(e), dbg)) => Err((e, dbg)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err((format!("panicked: {msg}"), "<panic before case rendered>".to_string()))
        }
    }
}

/// Asserts a condition inside a property, returning `Err` instead of
/// panicking so the harness can shrink and report the seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property (see
/// [`prop_assert!`](crate::prop_assert)).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0u64;
        check(
            "sum-commutes",
            64,
            |g| (g.usize_in(0, 100), g.usize_in(0, 100)),
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        // `check` takes Fn (not FnMut); count via a second pass with state in
        // a Cell to prove the generator is actually invoked per case.
        let counter = std::cell::Cell::new(0u64);
        check(
            "counted",
            64,
            |g| {
                counter.set(counter.get() + 1);
                g.bool()
            },
            |_| Ok(()),
        );
        ran += counter.get();
        assert_eq!(ran, 64);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            check(
                "det",
                16,
                |g| {
                    let v = g.usize_in(0, 1_000_000);
                    seen.borrow_mut().push(v);
                    v
                },
                |_| Ok(()),
            );
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check(
                "always-fails-on-long",
                16,
                |g| {
                    let n = g.len_in(1, 64);
                    g.vec(n, |g| g.usize_in(0, 9))
                },
                |v| {
                    prop_assert!(v.len() < 2, "vector of len {} >= 2", v.len());
                    Ok(())
                },
            );
        });
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().cloned().expect("string panic"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("seed "), "no seed in: {msg}");
        assert!(msg.contains("replay with"), "no replay hint in: {msg}");
        // Shrinking halves the span: with len_in(1, 64) a size of 1/64 or
        // smaller caps the length at 1..=2, so the reported counterexample
        // must be tiny even though most original failures are long.
        assert!(msg.contains("shrunk to size"), "no shrink report in: {msg}");
    }

    #[test]
    fn len_in_scales_with_size_budget() {
        let mut g = Gen::new(1, 1.0);
        for _ in 0..100 {
            let l = g.len_in(2, 50);
            assert!((2..=50).contains(&l));
        }
        let mut g = Gen::new(1, 1.0 / 64.0);
        for _ in 0..100 {
            let l = g.len_in(2, 50);
            assert!((2..=2).contains(&l), "size 1/64 should pin to lo, got {l}");
        }
    }

    #[test]
    fn generator_panics_are_reported_not_fatal() {
        let result = std::panic::catch_unwind(|| {
            check("panicky", 4, |_| -> usize { panic!("boom in generator") }, |_| Ok(()));
        });
        let msg = match result {
            Err(p) => p.downcast_ref::<String>().cloned().expect("string panic"),
            Ok(()) => panic!("should fail"),
        };
        assert!(msg.contains("boom in generator"), "got: {msg}");
    }
}
