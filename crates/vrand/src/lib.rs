//! A self-contained deterministic PRNG with the `rand`-crate API surface
//! this workspace uses.
//!
//! The build environment resolves dependencies offline, so the workspace
//! carries its own pseudo-random substrate instead of the `rand` crate.
//! The workspace `Cargo.toml` renames this package to `rand`, so call
//! sites (`use rand::rngs::SmallRng`, `rng.gen_range(..)`) compile
//! unchanged.
//!
//! [`rngs::SmallRng`] is xoshiro256++ seeded through SplitMix64 — the
//! same generator `rand 0.8` uses for its `SmallRng` on 64-bit targets —
//! and the range samplers reproduce `rand 0.8`'s uniform-sampling
//! algorithms bit for bit (upper-half 32-bit output, widening-multiply
//! with rejection zones, the `[1, 2)` mantissa method for floats). The
//! synthetic scenes, corpus model, and service arrivals therefore see the
//! exact sequences they were calibrated against. Sequences are
//! deterministic per seed and stable across platforms and releases of
//! this workspace.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Core pseudo-random source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic; the full
    /// state is derived via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive; integer or
    /// `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli trial: `true` with probability `p`, reproducing
    /// `rand 0.8`'s `gen_bool` exactly (probability quantized to a
    /// 64-bit fixed-point threshold against one raw draw; `p >= 1`
    /// returns `true` without consuming the stream).
    ///
    /// # Panics
    ///
    /// Panics if `p` is negative or NaN.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(p >= 0.0, "gen_bool probability must be in [0, 1], got {p}");
        if p >= 1.0 {
            return true;
        }
        // `rand 0.8` Bernoulli::new: p_int = p * 2^64, compared against
        // one full-width draw.
        let scale = 2.0 * (1u64 << 63) as f64;
        let p_int = (p * scale) as u64;
        self.next_u64() < p_int
    }
}

impl<T: RngCore> Rng for T {}

/// A range that can produce uniform samples of `T`.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// 32-bit output, taken from the upper half of the 64-bit stream like
/// `rand 0.8`'s xoshiro256++ does (the low bits have linear
/// dependencies).
fn next32<R: RngCore>(rng: &mut R) -> u32 {
    (rng.next_u64() >> 32) as u32
}

fn next64<R: RngCore>(rng: &mut R) -> u64 {
    rng.next_u64()
}

fn wmul32(a: u32, b: u32) -> (u32, u32) {
    let t = u64::from(a) * u64::from(b);
    ((t >> 32) as u32, t as u32)
}

fn wmul64(a: u64, b: u64) -> (u64, u64) {
    let t = u128::from(a) * u128::from(b);
    ((t >> 64) as u64, t as u64)
}

// Integer uniform sampling, matching `rand 0.8`'s
// `UniformInt::sample_single{,_inclusive}` exactly: widening multiply of
// a draw at the sampling width (`u32` for sub-32-bit and 32-bit types,
// `u64` for the rest) against the range, rejecting draws whose low half
// falls past the unbiased zone. The zone uses the modulus formula for
// 8/16-bit types and the leading-zeros approximation for wider ones,
// exactly as `rand 0.8` chooses.
macro_rules! impl_int_ranges {
    ($($t:ty => ($unsigned:ty, $u_large:ty, $gen:path, $wmul:path)),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let range =
                    (self.end as $unsigned).wrapping_sub(self.start as $unsigned) as $u_large;
                let zone = if (<$unsigned>::MAX as $u_large) <= (u16::MAX as $u_large) {
                    let ints_to_reject = (<$u_large>::MAX - range + 1) % range;
                    <$u_large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v: $u_large = $gen(rng);
                    let (hi, lo) = $wmul(v, range);
                    if lo <= zone {
                        return self.start.wrapping_add(hi as $t);
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo_b, hi_b) = (*self.start(), *self.end());
                assert!(lo_b <= hi_b, "empty range");
                let range = (hi_b as $unsigned)
                    .wrapping_sub(lo_b as $unsigned)
                    .wrapping_add(1) as $u_large;
                if range == 0 {
                    // The range covers the whole sampling width.
                    return $gen(rng) as $t;
                }
                let zone = if (<$unsigned>::MAX as $u_large) <= (u16::MAX as $u_large) {
                    let ints_to_reject = (<$u_large>::MAX - range + 1) % range;
                    <$u_large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v: $u_large = $gen(rng);
                    let (hi, lo) = $wmul(v, range);
                    if lo <= zone {
                        return lo_b.wrapping_add(hi as $t);
                    }
                }
            }
        }
    )*};
}

impl_int_ranges!(
    u8 => (u8, u32, next32, wmul32),
    u16 => (u16, u32, next32, wmul32),
    u32 => (u32, u32, next32, wmul32),
    u64 => (u64, u64, next64, wmul64),
    usize => (usize, u64, next64, wmul64),
    i8 => (u8, u32, next32, wmul32),
    i16 => (u16, u32, next32, wmul32),
    i32 => (u32, u32, next32, wmul32),
    i64 => (u64, u64, next64, wmul64),
    isize => (u64, u64, next64, wmul64),
);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        // `rand 0.8`'s `UniformFloat::sample_single`: 52 mantissa bits
        // give a uniform value in [1, 2), scaled and shifted into the
        // range; draws that round onto the open upper bound are
        // rejected.
        let scale = self.end - self.start;
        loop {
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = value1_2 * scale + (self.start - scale);
            if res < self.end {
                return res;
            }
        }
    }
}

/// The generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++: the small, fast, high-quality generator `rand 0.8`
    /// uses for `SmallRng` on 64-bit platforms.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            // SplitMix64 expansion of the seed into the full state, per
            // the xoshiro reference implementation's recommendation.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Shared base-process samplers for the workspace's arrival and corpus
/// models.
///
/// The service layer's arrival generator and the corpus model's
/// resolution draw build on the same three primitives — exponential
/// inter-arrival gaps, standard-normal draws, and deterministic per-index
/// substreams — and each used to carry a private copy. Centralizing them
/// here keeps the draw formulas (and therefore every calibrated
/// byte-exact replay) identical across layers: a gap sampled through
/// [`exp_gap`](process::exp_gap) consumes exactly one
/// `gen_range(0.0..1.0)` draw, [`standard_normal`](process::standard_normal)
/// exactly two, and [`substream_seed`](process::substream_seed) consumes
/// nothing.
pub mod process {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    /// One unit-rate exponential inter-arrival gap: `-ln(1 - U)` for a
    /// single uniform draw `U ∈ [0, 1)`. Scale by `1 / rate` for a
    /// Poisson process of the given rate. This is the exact draw formula
    /// the service arrival generator was calibrated with, so routing any
    /// layer through it preserves byte-exact replays.
    pub fn exp_gap<R: RngCore>(rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln()
    }

    /// One standard-normal draw via the Box–Muller transform. Always
    /// consumes exactly two uniform draws, so interleaved consumers stay
    /// aligned on the stream.
    pub fn standard_normal<R: RngCore>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The per-index substream seed used by every per-item attribute
    /// stream in the workspace: `seed ^ (index + 1) · φ64` (the 64-bit
    /// golden-ratio constant). Independent of how many draws other
    /// indices consumed, so per-item attributes replay bit-exactly at
    /// any worker count or evaluation order.
    pub fn substream_seed(seed: u64, index: u64) -> u64 {
        seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A fresh generator on the [`substream_seed`] for `index`.
    pub fn substream(seed: u64, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(substream_seed(seed, index))
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{process, Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..32).map(|_| a.gen_range(0.0..1.0)).collect();
        let ys: Vec<f64> = (0..32).map(|_| b.gen_range(0.0..1.0)).collect();
        let zs: Vec<f64> = (0..32).map(|_| c.gen_range(0.0..1.0)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: u8 = rng.gen_range(40..220);
            assert!((40..220).contains(&v));
            let w: i16 = rng.gen_range(-8i16..=8);
            assert!((-8..=8).contains(&w));
            let f: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(f > 0.0 && f < 1.0);
            let u: usize = rng.gen_range(0..3usize);
            assert!(u < 3);
        }
    }

    #[test]
    fn mean_is_roughly_centred() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn full_u64_range_does_not_panic() {
        let mut rng = SmallRng::seed_from_u64(5);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.2)).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
        // Degenerate probabilities are exact; p = 1 draws nothing.
        let before = rng.clone().next_u64();
        assert!(rng.gen_bool(1.0));
        assert_eq!(rng.next_u64(), before, "p >= 1 must not consume the stream");
        assert!(!SmallRng::seed_from_u64(1).gen_bool(0.0));
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn gen_bool_rejects_negative_probability() {
        SmallRng::seed_from_u64(1).gen_bool(-0.1);
    }

    #[test]
    fn exp_gap_matches_inline_formula_and_mean() {
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        for _ in 0..64 {
            let u: f64 = b.gen_range(0.0..1.0);
            assert_eq!(process::exp_gap(&mut a).to_bits(), (-(1.0 - u).ln()).to_bits());
        }
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| process::exp_gap(&mut a)).sum::<f64>() / f64::from(n);
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| process::standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn substreams_are_independent_of_sibling_consumption() {
        // The substream for index 5 is a pure function of (seed, 5) —
        // it cannot depend on draws taken from other substreams.
        let mut direct = process::substream(42, 5);
        let mut other = process::substream(42, 4);
        let _ = other.gen_range(0.0..1.0);
        let mut again = process::substream(42, 5);
        for _ in 0..16 {
            assert_eq!(direct.next_u64(), again.next_u64());
        }
        assert_eq!(process::substream_seed(42, 5), 42 ^ 6u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
