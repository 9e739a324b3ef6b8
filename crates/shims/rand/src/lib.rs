//! Offline shim for the `rand` crate (0.8 API subset).
//!
//! The workspace only uses seeded, reproducible generation — `StdRng::
//! seed_from_u64`, `gen_range`, `gen_bool`, `gen`, and the
//! `Distribution` trait — so this shim implements exactly that over a
//! splitmix64 core. Not cryptographically secure; deterministic per
//! seed, which is all the benches and the chaos harness require.

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill a byte slice with random data.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing convenience methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }

    /// Sample a value of a [`StandardSample`] type.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable by [`Rng::gen`].
pub trait StandardSample {
    /// Draw one standard sample.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng.next_u64())
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn unit_f64(bits: u64) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let u = unit_f64(rng.next_u64());
        let v = self.start + (self.end - self.start) * u;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty inclusive range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_sample_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: splitmix64 (deterministic per seed).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Distribution sampling (the `rand::distributions` module subset).
pub mod distributions {
    use super::Rng;

    /// A distribution over `T` values.
    pub trait Distribution<T> {
        /// Draw one sample.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }
}

/// A process-global convenience generator (fresh arbitrary seed per
/// call site use; not reproducible, mirrors `rand::thread_rng`).
pub fn thread_rng() -> rngs::StdRng {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    <rngs::StdRng as SeedableRng>::seed_from_u64(nanos ^ std::process::id() as u64)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(2.0..4.0);
            assert!((2.0..4.0).contains(&f), "{f}");
            let i = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&i), "{i}");
            let u = rng.gen_range(1usize..=3);
            assert!((1..=3).contains(&u), "{u}");
        }
    }

    #[test]
    fn gen_bool_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
