//! Deterministic random-number generation for simulations.
//!
//! Every simulation run is parameterised by a single `u64` seed; repetitions
//! of an experiment are seed sweeps. The wrapper also provides the handful of
//! distributions the workload generators need, so callers do not depend on
//! `rand` directly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG with simulation-oriented helpers.
///
/// # Examples
///
/// ```
/// use wifiq_sim::rng::SimRng;
///
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.gen_range_u64(0, 100), b.gen_range_u64(0, 100));
/// ```
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates an RNG from an explicit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG; `salt` distinguishes siblings.
    ///
    /// Used to give each traffic source / station its own stream so that
    /// adding one source does not perturb the randomness of the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base: u64 = self.inner.gen();
        SimRng::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a named side stream directly from a master seed without
    /// constructing (or advancing) the master's RNG: subsystems that
    /// must never perturb the main simulation stream — fault injection,
    /// shard splitting — fork their draws from here. The same
    /// `(seed, salt)` pair always yields the same stream.
    pub fn stream(seed: u64, salt: u64) -> SimRng {
        SimRng::new(seed).fork(salt)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n]` — the contention-window backoff draw.
    ///
    /// Inlined across crates: a contention round makes one of these per
    /// contender, back to back.
    #[inline]
    pub fn backoff_slots(&mut self, cw: u32) -> u32 {
        self.inner.gen_range(0..=cw)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean {mean}");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from empty slice");
        self.inner.gen_range(0..len)
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range_u64(0, 1_000_000), b.gen_range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.gen_range_u64(0, u64::MAX - 1) == b.gen_range_u64(0, u64::MAX - 1))
            .count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.gen_range_u64(0, 1000), fb.gen_range_u64(0, 1000));

        let mut c = SimRng::new(42);
        let mut f1 = c.fork(1);
        let mut d = SimRng::new(42);
        let mut f2 = d.fork(2);
        // Different salts should (overwhelmingly) produce different streams.
        let matches = (0..32)
            .filter(|_| f1.gen_range_u64(0, u64::MAX - 1) == f2.gen_range_u64(0, u64::MAX - 1))
            .count();
        assert!(matches < 2);
    }

    #[test]
    fn backoff_within_cw() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(rng.backoff_slots(15) <= 15);
        }
        assert_eq!(rng.backoff_slots(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean = 10.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.5,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).gen_range_u64(5, 5);
    }

    #[test]
    #[should_panic(expected = "cannot pick from empty slice")]
    fn empty_index_panics() {
        SimRng::new(0).index(0);
    }
}
