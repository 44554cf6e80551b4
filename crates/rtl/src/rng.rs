//! A tiny deterministic pseudo-random number generator.
//!
//! The workspace builds without any external dependencies, so the randomized
//! property tests, the co-simulation fuzzers and the fault-injection plans
//! all draw from this generator instead of the `rand` crate. It is a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! implementation: tiny, fast, statistically solid for test-case generation
//! and — most importantly here — *reproducible*: a seed fully determines the
//! sequence on every platform.
//!
//! This is **not** a cryptographic generator and must never be used for
//! anything security-sensitive.

/// Deterministic SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use rtl::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same sequence
///
/// let roll = a.gen_range(1..=6);
/// assert!((1..=6).contains(&roll));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in a range (inclusive or exclusive), like
    /// `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R>(&mut self, range: R) -> i64
    where
        R: std::ops::RangeBounds<i64>,
    {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&x) => x,
            std::ops::Bound::Excluded(&x) => x + 1,
            std::ops::Bound::Unbounded => i64::MIN,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&x) => x,
            std::ops::Bound::Excluded(&x) => x - 1,
            std::ops::Bound::Unbounded => i64::MAX,
        };
        assert!(lo <= hi, "gen_range called with an empty range");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let value = (u128::from(self.next_u64()) % span) as i128 + i128::from(lo);
        value as i64
    }

    /// Uniform `u64` below `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_u64_below(0)");
        self.next_u64() % bound
    }

    /// Uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let w = rng.gen_range(3..=3);
            assert_eq!(w, 3);
        }
    }

    #[test]
    fn output_is_roughly_uniform() {
        // Sanity: all 8 buckets of the low bits get hit over 800 draws.
        let mut rng = SplitMix64::new(99);
        let mut buckets = [0u32; 8];
        for _ in 0..800 {
            buckets[(rng.next_u64() % 8) as usize] += 1;
        }
        assert!(buckets.iter().all(|&b| b > 40), "buckets: {buckets:?}");
    }
}
