//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access, so this workspace vendors the
//! small slice of the `rand` 0.8 API the netshed crates actually use:
//! [`rngs::StdRng`], the [`Rng`] and [`SeedableRng`] traits, `gen`,
//! `gen_range`, `gen_bool` and `fill`. The generator is xoshiro256++ seeded
//! through SplitMix64 — not the ChaCha12 stream of upstream `StdRng`, but the
//! netshed test-suite only relies on determinism for a given seed, never on a
//! particular stream.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Random number generators.
pub mod rngs {
    /// A deterministic, seedable generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: [u64; 4],
    }

    impl StdRng {
        /// The raw generator state, for checkpointing a stream mid-run.
        pub fn state(&self) -> [u64; 4] {
            self.state
        }

        /// Rebuilds a generator from a state captured by [`StdRng::state`].
        /// The restored generator continues the exact same stream.
        pub fn from_state(state: [u64; 4]) -> Self {
            StdRng { state }
        }
    }
}

pub use rngs::StdRng;

/// Seeding support for deterministic generators.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the standard way to seed xoshiro state.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng { state: [next(), next(), next(), next()] }
    }
}

/// Types that can be sampled uniformly from the generator's output stream
/// (the role of `rand::distributions::Standard`).
pub trait Standard {
    /// Draws one value.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a value can be drawn from (the role of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_range<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_range<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_range<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_range<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_range<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        start + (end - start) * rng.gen::<f64>()
    }
}

/// The user-facing generator trait.
pub trait Rng {
    /// Produces the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_range(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fills `dest` with uniformly distributed bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl Rng for StdRng {
    // Inlined across crates: a sampler's per-packet draw is this body, and a
    // call per packet costs more than the generator step itself.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ by Blackman & Vigna (public domain).
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_f64_stays_in_range_and_covers_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
        assert!(samples.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(1024..=65535u16);
            assert!((1024..=65535).contains(&y));
            let z = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&z));
        }
    }

    #[test]
    fn fill_fills_every_byte_eventually() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }
}
