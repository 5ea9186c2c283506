//! Hermetic, seedable randomness for the CTFL workspace.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the narrow slice of the `rand` 0.8 API the workspace
//! actually uses — `StdRng::seed_from_u64`, `gen`, `gen_range`, `gen_bool`,
//! `shuffle`, `choose` — plus the distribution samplers the experiment
//! pipeline needs (standard normal, `Gamma`, symmetric `Dirichlet`).
//!
//! Porting a file is a one-line change: a `rand` import becomes the same
//! import from `ctfl_rng`; every trait and module path below mirrors its
//! `rand` namesake.
//!
//! # Determinism contract
//!
//! The generator is [`rngs::StdRng`], an xoshiro256\*\* stream whose 256-bit
//! state is expanded from a `u64` seed with SplitMix64 (the seeding
//! procedure recommended by the xoshiro authors). Both algorithms are fully
//! specified here, in-tree: the same seed yields the same byte stream on
//! every platform, toolchain and build profile, forever. CTFL's scores are
//! deterministic functions of that stream, which is what lets
//! `tests/determinism.rs` demand *byte-identical* score vectors across
//! runs. Golden-value tests in this crate pin the first outputs of every
//! sampler so the stream can never drift silently.

pub mod dist;
pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed 64-bit words. Mirrors `rand::RngCore`
/// (minus the byte-filling methods the workspace never uses).
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of [`Self::next_u64`];
    /// xoshiro's high bits are its strongest).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction from a 64-bit seed. Mirrors `rand::SeedableRng` — the
/// workspace only ever calls `seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose full state is derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods over any [`RngCore`]. Mirrors `rand::Rng`.
///
/// Blanket-implemented, so any `R: RngCore` (and `&mut R`) is an `Rng`.
pub trait Rng: RngCore {
    /// A sample from the "standard" distribution of `T`: uniform in `[0, 1)`
    /// for floats, uniform over all values for integers and `bool`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`: one [`Bernoulli`] draw.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A coin of fixed bias, drawn as [`Rng::gen_bool`] draws it.
///
/// A draw is `true` when the uniform `f64` sample `k · 2⁻⁵³`, for
/// `k = next_u64() >> 11`, is below `p`. Both sides are exact in `f64`
/// (`k < 2⁵³`, and scaling by a power of two is exact), so for
/// `p ∈ [0, 1]` the test is the real `k < p · 2⁵³`, which for an integer
/// `k` is `k < ⌈p · 2⁵³⌉`. `Bernoulli` computes that cut once, so each
/// draw is one shift and one integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p · 2⁵³⌉`, in `0..=2⁵³`.
    cut: u64,
}

impl Bernoulli {
    /// The coin that lands `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability must be in [0, 1], got {p}");
        Bernoulli { cut: (p * (1u64 << 53) as f64).ceil() as u64 }
    }

    /// One draw; consumes one `next_u64`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.cut
    }
}

/// Types with a canonical "standard" distribution (the role of
/// `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// One standard-distributed sample.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform multiples of 2⁻⁵³ in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 high bits → uniform multiples of 2⁻²⁴ in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Highest bit of the word.
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a uniform value can be drawn from (the role of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// One uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, n)` by Lemire's widening-multiply rejection —
/// unbiased for every `n > 0` and branch-free on the accept path.
fn uniform_below<R: RngCore + ?Sized>(n: u64, rng: &mut R) -> u64 {
    debug_assert!(n > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(n);
    let mut lo = m as u64;
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            m = u128::from(rng.next_u64()) * u128::from(n);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                // Width as u64 is exact for every supported type; the
                // wrapping add maps the offset back into signed space.
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(span, rng) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    // Full 64-bit domain: every word is a valid sample.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_below(span + 1, rng) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let v = self.start + <$t as Standard>::sample(rng) * (self.end - self.start);
                // Guard the open upper bound against rounding.
                if v < self.end { v } else { <$t>::from_bits(self.end.to_bits() - 1) }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range");
                lo + <$t as Standard>::sample(rng) * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let a = rng.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(0.25f64..=0.75);
            assert!((0.25..=0.75).contains(&c));
            let d = rng.gen_range(1u32..2);
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!((f64::from(c) - expected).abs() < 0.05 * expected, "count {c}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    /// Yields one fixed word, so a test can pick the draw `k`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn bernoulli_cut_agrees_with_the_float_test_at_its_boundary() {
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let edges = [
            0.0,
            f64::from_bits(1), // the smallest subnormal
            1e-17,             // p · 2⁵³ ≈ 0.09: a cut of 1
            1.0 / (1u64 << 53) as f64,
            0.1,
            0.25, // p · 2⁵³ is an integer
            0.3,
            below_half,
            0.5,
            below_one,
            1.0,
        ];
        for p in edges {
            let cut = Bernoulli::new(p).cut;
            assert!(cut <= 1 << 53, "p {p}: cut {cut}");
            for k in [cut.wrapping_sub(1), cut, cut + 1] {
                if k >= 1 << 53 {
                    continue;
                }
                let float = f64::sample(&mut Fixed(k << 11)) < p;
                assert_eq!(Bernoulli::new(p).sample(&mut Fixed(k << 11)), float, "p {p}, k {k}");
                assert_eq!(float, k < cut, "p {p}, k {k}, cut {cut}");
            }
        }
        assert_eq!(Bernoulli::new(1e-17).cut, 1);
        assert_eq!(Bernoulli::new(0.25).cut, 1 << 51);
        assert_eq!(Bernoulli::new(1.0).cut, 1 << 53);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn gen_bool_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        rng.gen_bool(1.5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        rng.gen_range(5usize..5);
    }

    #[test]
    fn works_through_mut_references_and_generics() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let via_ref = draw(&mut rng);
        assert!((0.0..1.0).contains(&via_ref));
    }
}
