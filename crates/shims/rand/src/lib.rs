//! Minimal offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace vendors
//! the tiny subset of the `rand` API the benchmark harness uses: a seedable
//! small PRNG ([`rngs::SmallRng`], here an xoshiro256++ generator) and
//! [`Rng::gen_range`] over half-open integer ranges. It is *not* a general
//! replacement for the real crate; swap the path dependency for the
//! crates.io `rand` when the build environment gains network access.

use std::ops::Range;

/// Seedable random number generators.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface. Blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open integer range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Core source of randomness.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Ranges that can be sampled from (the `rand` crate's `SampleRange`).
pub trait SampleRange<T> {
    /// Samples one value uniformly from `self`.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling (Lemire); the slight
                // modulo bias of the plain variant is irrelevant for
                // benchmark key draws.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Pre-packaged generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic PRNG: xoshiro256++ seeded through
    /// SplitMix64, matching the role (not the stream) of `rand::rngs::SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            SmallRng {
                s: [
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1_000_000u64), b.gen_range(0..1_000_000u64));
        }
    }

    #[test]
    fn stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20u32);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn covers_small_ranges() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
