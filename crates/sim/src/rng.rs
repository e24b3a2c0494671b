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
    #[inline]
    pub fn backoff_slots(&mut self, cw: u32) -> u32 {
        self.inner.gen_range(0..=cw)
    }

    /// The smallest of `m` independent [`backoff_slots`](Self::backoff_slots)
    /// draws from `[0, cw]`, drawn at once, if it is at most `at_most`, and
    /// `None` otherwise — for `m = 1`, `backoff_slots` itself.
    ///
    /// By inverse CDF, from one `V` uniform on `(0, 1]`: the minimum is the
    /// first `j` with `V > P(min > j) = ((cw − j)/(cw + 1))^m`. That is
    /// `⌊(cw + 1)(1 − V^(1/m))⌋` — the minimum of `m` continuous uniforms
    /// on `[0, cw + 1)`, whose floor is the minimum of their floors. One
    /// integer power first tells whether the minimum is within the bound
    /// at all; only a minimum that is costs a logarithm and an exponential.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `m` is 0.
    #[inline]
    pub fn backoff_min(&mut self, cw: u32, m: usize, at_most: u32) -> Option<u32> {
        debug_assert!(m > 0, "the minimum of no draws");
        if m == 1 {
            let k = self.backoff_slots(cw);
            return (k <= at_most).then_some(k);
        }
        let n = cw as f64 + 1.0;
        let v = 1.0 - self.gen_f64();
        let powers = i32::try_from(m).unwrap_or(i32::MAX);
        if at_most < cw && v <= powi((cw - at_most) as f64 / n, powers) {
            return None;
        }
        // Rounding can reach cw + 1, or cross the bound, by a hair.
        let k = (n * (1.0 - (v.ln() / m as f64).exp())) as u32;
        Some(k.min(cw)).filter(|&k| k <= at_most)
    }

    /// How many of `m` independent [`backoff_slots`](Self::backoff_slots)
    /// draws from `[0, cw]` equal `k`, given that `k` is their minimum —
    /// the other half of [`backoff_min`](Self::backoff_min). Given that
    /// minimum, the draws are independent and uniform on `[k, cw]`,
    /// conditioned on at least one being `k`: each is `k` with
    /// p = 1/(cw + 1 − k), and the count is Binomial(m, p) conditioned on
    /// ≥ 1. It is drawn by inverse CDF, from P(t = 1) = m p q^(m−1)/(1 − q^m)
    /// with q = 1 − p and the ratio P(t + 1)/P(t) = (m − t)/(t + 1) · p/q:
    /// no logarithm. When over 16 are expected, it counts `m` trials
    /// instead, until one hits. Returns `None`, and draws nothing, when
    /// all `m` are `k` for certain: `m = 1`, or `k = cw`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `m` is 0 or `k` is above `cw`.
    #[inline]
    pub fn backoff_ties(&mut self, cw: u32, m: usize, k: u32) -> Option<usize> {
        debug_assert!(m > 0 && k <= cw, "{m} draws tied at {k} of [0, {cw}]");
        if m == 1 || k == cw {
            return None;
        }
        let p = 1.0 / (cw - k + 1) as f64;
        if m as f64 * p > 16.0 {
            // All miss with probability q^m < e^−16 per pass.
            loop {
                let t = (0..m).filter(|_| self.gen_f64() < p).count();
                if t > 0 {
                    return Some(t);
                }
            }
        }
        // Over 16 expected is the branch above, so q^(m−1) > e^−23:
        // nothing here underflows.
        let q = 1.0 - p;
        let q_m1 = powi(q, m as i32 - 1);
        let mut pmf = m as f64 * p * q_m1 / (1.0 - q_m1 * q);
        let (mut u, mut t) = (self.gen_f64(), 1);
        while u >= pmf && t < m {
            u -= pmf;
            pmf *= (m - t) as f64 / (t + 1) as f64 * (p / q);
            t += 1;
        }
        Some(t)
    }

    /// Runs `draws` on a copy of this generator held in a local, then
    /// continues from where the copy stopped: the same stream as running
    /// `draws` on `self`. A loop of draws through `&mut self` loads and
    /// stores the generator's state around every draw; through the local
    /// copy the state stays in registers for the whole loop.
    #[inline(always)]
    pub fn in_registers<R>(&mut self, draws: impl FnOnce(&mut SimRng) -> R) -> R {
        let mut local = SimRng {
            inner: self.inner.clone(),
        };
        let out = draws(&mut local);
        self.inner = local.inner;
        out
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

/// `base^exp` by square-and-multiply, in the operation order of
/// compiler-builtins' `__powidf2`, the routine a variable-exponent
/// `f64::powi` calls on x86-64. Rust documents `f64::powi`'s precision as
/// unspecified — it may differ by platform, by compiler version, even
/// between calls — and every contention draw, so every contention
/// golden, rests on these bits; this routine pins them.
/// `powi_matches_the_builtin` checks them against `f64::powi`.
#[inline]
fn powi(mut base: f64, exp: i32) -> f64 {
    let mut n = exp.unsigned_abs();
    let mut acc = 1.0;
    loop {
        if n & 1 != 0 {
            acc *= base;
        }
        n >>= 1;
        if n == 0 {
            break;
        }
        base *= base;
    }
    if exp < 0 {
        1.0 / acc
    } else {
        acc
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
    fn backoff_min_is_the_minimum_of_m_draws() {
        // One draw of the minimum against the minimum of m plain draws:
        // their distributions over [0, cw] agree bin by bin, within five
        // standard errors of a 40,000-draw frequency.
        let (mut a, mut b) = (SimRng::new(8), SimRng::new(9));
        for (cw, m) in [(15, 7), (31, 2), (1023, 114), (3, 40)] {
            let n = 40_000;
            let (mut once, mut plain) = (vec![0u32; cw + 1], vec![0u32; cw + 1]);
            for _ in 0..n {
                once[a.backoff_min(cw as u32, m, u32::MAX).unwrap() as usize] += 1;
                let min = (0..m).map(|_| b.backoff_slots(cw as u32)).min();
                plain[min.unwrap() as usize] += 1;
            }
            for (k, (&x, &y)) in once.iter().zip(&plain).enumerate() {
                let p = (x + y) as f64 / (2 * n) as f64;
                let se = (2.0 * p * (1.0 - p) / n as f64).sqrt();
                let gap = (x as f64 - y as f64).abs() / n as f64;
                assert!(gap <= 5.0 * se + 1e-9, "cw {cw}, m {m}, k {k}: {x} vs {y}");
            }
        }
        assert_eq!(a.backoff_min(0, 5, 0), Some(0));
        // A bound cuts the distribution off and leaves what is under it
        // alone — the same V gives the same minimum, bounded or not:
        // P(min ≤ 2) = 1 − (13/16)^7 ≈ 0.766 for seven draws from [0, 15].
        let (mut c, mut d) = (SimRng::new(11), SimRng::new(11));
        let mut under = 0;
        for _ in 0..40_000 {
            let bounded = c.backoff_min(15, 7, 2);
            let full = d.backoff_min(15, 7, u32::MAX).unwrap();
            assert_eq!(bounded, Some(full).filter(|&k| k <= 2));
            under += bounded.is_some() as u32;
        }
        let p = 1.0 - (13.0f64 / 16.0).powi(7);
        assert!((under as f64 / 40_000.0 - p).abs() < 0.01, "{under}");
        let (mut c, mut d) = (SimRng::new(12), SimRng::new(12));
        assert!((0..1000).all(|_| c.backoff_min(2, 9, 3) == d.backoff_min(2, 9, 9)));
        // A class of one is the plain draw, draw for draw.
        let (mut c, mut d) = (SimRng::new(10), SimRng::new(10));
        assert!((0..100).all(|_| c.backoff_min(31, 1, 31) == Some(d.backoff_slots(31))));
    }

    #[test]
    fn backoff_ties_count_the_draws_at_the_minimum() {
        // (minimum, ties) drawn as backoff_min then backoff_ties, against
        // the minimum of m plain draws and how many of them equal it: the
        // joint distributions agree bin by bin, within five standard
        // errors of a 20,000-draw frequency. (7, 200) expects 25 ties at
        // a minimum of 0, past the inverse-CDF count's range.
        let (mut a, mut b) = (SimRng::new(13), SimRng::new(14));
        for (cw, m) in [(15, 7), (3, 40), (7, 200), (1023, 114)] {
            let n = 20_000;
            let mut bins = std::collections::BTreeMap::<(u32, usize), [u32; 2]>::new();
            for _ in 0..n {
                let k = a.backoff_min(cw, m, u32::MAX).unwrap();
                let ties = a.backoff_ties(cw, m, k).unwrap_or(m);
                bins.entry((k, ties)).or_default()[0] += 1;
                let draws: Vec<u32> = (0..m).map(|_| b.backoff_slots(cw)).collect();
                let k = *draws.iter().min().unwrap();
                let ties = draws.iter().filter(|&&d| d == k).count();
                bins.entry((k, ties)).or_default()[1] += 1;
            }
            for ((k, ties), [x, y]) in bins {
                let p = (x + y) as f64 / (2 * n) as f64;
                let se = (2.0 * p * (1.0 - p) / n as f64).sqrt();
                let gap = (x as f64 - y as f64).abs() / n as f64;
                assert!(
                    gap <= 5.0 * se + 1e-9,
                    "cw {cw}, m {m}, min {k}, {ties} ties: {x} vs {y}"
                );
            }
        }
        // A class of one, and a minimum at the top of the window, draw
        // nothing: all of them tie.
        let (mut c, mut d) = (SimRng::new(15), SimRng::new(15));
        assert_eq!(
            (c.backoff_ties(15, 1, 4), c.backoff_ties(15, 9, 15)),
            (None, None)
        );
        assert_eq!(c.gen_f64(), d.gen_f64());
    }

    #[test]
    fn powi_matches_the_builtin() {
        // Random bases in [0, 1), and every base the two draws take at
        // cw = 2^j − 1 ≤ 1023: (cw − k)/(cw + 1) for `backoff_min`,
        // 1 − 1/(cw − k + 1) for `backoff_ties`.
        let mut rng = SimRng::new(21);
        let mut bases: Vec<f64> = (0..1000).map(|_| rng.gen_f64()).collect();
        for cw in (0..=10).map(|j| (1u32 << j) - 1) {
            let n = cw as f64 + 1.0;
            bases.extend((0..=cw).map(|k| (cw - k) as f64 / n));
            bases.extend((0..=cw).map(|k| 1.0 - 1.0 / (cw - k + 1) as f64));
        }
        for &b in &bases {
            for e in 0..=2048 {
                let (ours, builtin) = (powi(b, e), b.powi(e));
                assert_eq!(ours.to_bits(), builtin.to_bits(), "{b:e}^{e}");
            }
        }
        for e in [-3, -1, i32::MAX, i32::MIN] {
            assert_eq!(
                powi(0.75, e).to_bits(),
                0.75f64.powi(e).to_bits(),
                "0.75^{e}"
            );
        }
    }

    #[test]
    fn in_registers_continues_the_stream() {
        let (mut a, mut b) = (SimRng::new(6), SimRng::new(6));
        let inside: Vec<u32> =
            a.in_registers(|rng| (0..100).map(|_| rng.backoff_slots(31)).collect());
        let outside: Vec<u32> = (0..100).map(|_| b.backoff_slots(31)).collect();
        assert_eq!(inside, outside);
        assert_eq!(a.gen_range_u64(0, 1 << 40), b.gen_range_u64(0, 1 << 40));
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
