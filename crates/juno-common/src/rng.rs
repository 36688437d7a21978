//! Deterministic random-number helpers.
//!
//! Everything in the workspace that needs randomness (k-means initialisation,
//! synthetic dataset generation, sampling training points for the threshold
//! regressor) takes an explicit seed so that tests and benchmark figures are
//! reproducible run to run.
//!
//! The generator is implemented in-tree (xoshiro256** seeded through
//! SplitMix64) because this reproduction builds without any external crates;
//! the [`Rng`] trait mirrors the subset of the `rand` API the workspace uses
//! (`gen`, `gen_range`) so call sites read idiomatically.

/// A deterministic pseudo-random generator (xoshiro256**).
///
/// Named `StdRng` so call sites match the conventional `rand` spelling; the
/// stream is stable across platforms and releases, which the regression tests
/// rely on.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seeds the generator from a single `u64` via SplitMix64, guaranteeing a
    /// non-zero internal state for any seed.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// Types that can be drawn uniformly from an [`Rng`].
pub trait Sample: Sized {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] can draw from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift rejection-free mapping is fine for the spans
                // used here (all far below 2^32); bias is ≤ span / 2^64.
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + r as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end - start) as u64 + 1;
                let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start + r as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let v = self.start + <$t as Sample>::sample(rng) * (self.end - self.start);
                // `start + u * span` can round up to `end` for tiny spans;
                // keep the half-open contract.
                if v < self.end {
                    v
                } else {
                    self.end.next_down()
                }
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                start + <$t as Sample>::sample(rng) * (end - start)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// The uniform-sampling interface used across the workspace.
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws one uniform value of type `T`.
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws one uniform value from `range` (half-open or inclusive).
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

/// Creates a seeded standard RNG.
///
/// # Example
///
/// ```
/// use juno_common::rng::Rng;
/// let mut a = juno_common::rng::seeded(42);
/// let mut b = juno_common::rng::seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give independent-but-reproducible streams to e.g. each subspace's
/// k-means run without threading a single RNG through parallel code.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser — cheap, well-mixed, and stable across platforms.
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a standard normal value using the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        return r * theta.cos();
    }
}

/// Samples a normal value with the given mean and standard deviation.
pub fn normal<R: Rng>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// Draws `k` distinct indices uniformly from `0..n` (reservoir sampling).
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct indices from {n}");
    let mut reservoir: Vec<usize> = (0..k).collect();
    for i in k..n {
        let j = rng.gen_range(0..=i);
        if j < k {
            reservoir[j] = i;
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        let s2 = derive_seed(2, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // And are stable.
        assert_eq!(derive_seed(1, 0), s0);
    }

    #[test]
    fn uniform_floats_stay_in_unit_interval() {
        let mut rng = seeded(11);
        for _ in 0..10_000 {
            let f = rng.gen::<f32>();
            assert!((0.0..1.0).contains(&f));
            let d = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn ranges_cover_their_bounds() {
        let mut rng = seeded(13);
        let mut saw_zero = false;
        let mut saw_max = false;
        for _ in 0..2_000 {
            let v = rng.gen_range(0..4usize);
            assert!(v < 4);
            saw_zero |= v == 0;
            saw_max |= v == 3;
            let w = rng.gen_range(0..=3usize);
            assert!(w <= 3);
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
        assert!(saw_zero && saw_max);
    }

    #[test]
    fn half_open_float_range_excludes_upper_bound_even_for_tiny_spans() {
        let mut rng = seeded(77);
        // One-ulp span: naive `start + u * span` rounds to `end` about half
        // the time; the contract demands strictly below `end`.
        let (start, end) = (1.0f32, 1.0f32.next_up());
        for _ in 0..1_000 {
            let v = rng.gen_range(start..end);
            assert!(v >= start && v < end, "{v} escaped [{start}, {end})");
        }
    }

    #[test]
    fn normal_has_expected_moments() {
        let mut rng = seeded(123);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} too far from 2.0");
        assert!((var - 9.0).abs() < 0.5, "variance {var} too far from 9.0");
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = seeded(99);
        let picked = sample_indices(&mut rng, 100, 20);
        assert_eq!(picked.len(), 20);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(picked.iter().all(|&i| i < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        let mut rng = seeded(1);
        let _ = sample_indices(&mut rng, 3, 5);
    }
}
