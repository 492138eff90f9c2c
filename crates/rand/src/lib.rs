//! Minimal, dependency-free RNG shim exposing the subset of the `rand`
//! 0.10 API that troll-rs uses (`StdRng::seed_from_u64`,
//! `random_range`, `random_bool`). The workspace builds hermetically —
//! no registry is reachable — so the real crate cannot be resolved.
//!
//! `StdRng` here is SplitMix64: deterministic, seedable, and plenty for
//! scenario generation in tests. It is NOT cryptographically
//! secure (the real `StdRng` is ChaCha-based); nothing in this
//! workspace needs that property.

use std::ops::Range;

pub mod rngs {
    /// Deterministic SplitMix64 generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }

    impl StdRng {
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng { state: seed }
    }
}

/// Types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: Copy {
    fn sample(range: &Range<Self>, rng: &mut rngs::StdRng) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample(range: &Range<$t>, rng: &mut rngs::StdRng) -> $t {
                assert!(range.start < range.end, "cannot sample empty range");
                let lo = range.start as i128;
                let span = (range.end as i128 - lo) as u128;
                (lo + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// The convenience methods the workspace calls on `StdRng`.
pub trait RngExt {
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T;
    fn random_bool(&mut self, p: f64) -> bool;
}

impl RngExt for rngs::StdRng {
    fn random_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(&range, self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        // 53 high bits → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_and_bool_are_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut heads = 0;
        for _ in 0..1000 {
            let v = rng.random_range(0usize..13);
            assert!(v < 13);
            let w = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&w));
            if rng.random_bool(0.5) {
                heads += 1;
            }
        }
        assert!((300..700).contains(&heads), "biased coin: {heads}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }
}
