//! Seeded, reproducible randomness.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator for simulations.
///
/// Thin wrapper over [`rand::rngs::SmallRng`] that is always explicitly
/// seeded, so a simulation can never accidentally pick up OS entropy.
///
/// # Examples
///
/// ```
/// use spindle_sim::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(123);
        let mut b = DetRng::seed(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = DetRng::seed(0);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        DetRng::seed(0).below(0);
    }
}
