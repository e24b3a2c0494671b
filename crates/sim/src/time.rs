//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is kept in integer nanoseconds behind the [`Nanos`]
//! newtype. 802.11 timing constants are microsecond-scale, but rates such as
//! 144.4 Mbps produce sub-microsecond per-byte durations, so nanosecond
//! resolution keeps the arithmetic exact enough for airtime accounting while
//! `u64` still covers ~584 years of simulated time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Nanos` is used both as an instant (time since simulation start) and as a
/// duration; the simulator never needs wall-clock anchoring, so a single
/// monotonic scalar type keeps the arithmetic honest and cheap.
///
/// # Examples
///
/// ```
/// use wifiq_sim::time::Nanos;
///
/// let t = Nanos::from_millis(34) + Nanos::from_micros(16_000);
/// assert_eq!(t.as_millis(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant (simulation start) / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time value from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time value from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large for `u64` nanoseconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite() && s < u64::MAX as f64 / 1e9,
            "invalid duration: {s}"
        );
        Nanos((s * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the time in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the time in fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    #[inline]
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is the zero instant / empty duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration of transmitting `bits` at `rate_bps` bits per second,
    /// rounded up to the next nanosecond.
    ///
    /// This is the workhorse of all airtime math; rounding up matches how
    /// real hardware pads transmissions to symbol boundaries (a separate,
    /// coarser symbol-rounding is applied by the PHY layer where relevant).
    #[inline]
    pub fn for_bits(bits: u64, rate_bps: u64) -> Nanos {
        assert!(rate_bps > 0, "rate must be positive");
        // bits * 1e9 fits u64 below 2.3 GB — every packet and aggregate —
        // so the common case is one 64-bit division, not `__udivti3`.
        match bits.checked_mul(1_000_000_000) {
            Some(scaled) => Nanos(scaled.div_ceil(rate_bps)),
            None => Nanos::for_bits_wide(bits, rate_bps),
        }
    }

    /// [`for_bits`](Self::for_bits) in 128-bit arithmetic: the overflow
    /// fallback, and the definition the fast path is tested against.
    #[cold]
    fn for_bits_wide(bits: u64, rate_bps: u64) -> Nanos {
        Nanos((bits as u128 * 1_000_000_000).div_ceil(rate_bps as u128) as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Nanos> for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Nanos::from_micros(2));
    }

    #[test]
    fn saturating_and_checked() {
        let a = Nanos::from_micros(1);
        let b = Nanos::from_micros(2);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::from_micros(1));
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(Nanos::MAX.checked_add(Nanos(1)), None);
    }

    #[test]
    fn for_bits_rounds_up() {
        // 1500 bytes at 1 Mbps = 12 ms exactly.
        assert_eq!(Nanos::for_bits(1500 * 8, 1_000_000), Nanos::from_millis(12));
        // 1 bit at 3 bps = 333333333.33... ns, rounded up.
        assert_eq!(Nanos::for_bits(1, 3), Nanos(333_333_334));
        // Large aggregate at a high rate does not overflow.
        let d = Nanos::for_bits(65535 * 8, 144_400_000);
        assert!(d > Nanos::from_micros(3_600) && d < Nanos::from_micros(3_700));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]
        /// The 64-bit fast path and the 128-bit definition agree on every
        /// input: small packets, anything at all, and both sides of the
        /// point where `bits * 10⁹` stops fitting `u64`.
        #[test]
        fn for_bits_matches_the_wide_definition(
            bits in proptest::prop_oneof![
                0u64..=100_000,
                0u64..,
                u64::MAX / 1_000_000_000 - 1_000..=u64::MAX / 1_000_000_000 + 1_000,
            ],
            rate_bps in proptest::prop_oneof![
                proptest::Just(1u64),
                1u64..,
                1_000_000u64..=1_000_000_000,
            ],
        ) {
            proptest::prop_assert_eq!(
                Nanos::for_bits(bits, rate_bps),
                Nanos::for_bits_wide(bits, rate_bps),
                "bits {}, rate {}", bits, rate_bps
            );
        }
    }

    #[test]
    fn for_bits_overflow_boundary_is_exact() {
        let edge = u64::MAX / 1_000_000_000;
        for bits in [edge - 1, edge, edge + 1] {
            for rate_bps in [1, 3, 1_000_000_000, u64::MAX] {
                assert_eq!(
                    Nanos::for_bits(bits, rate_bps),
                    Nanos::for_bits_wide(bits, rate_bps),
                    "bits {bits}, rate {rate_bps}"
                );
            }
        }
        // The last product that fits: exactly u64::MAX / 1 rounded down.
        assert_eq!(Nanos::for_bits(edge, 1), Nanos(edge * 1_000_000_000));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(34)), "34.000us");
        assert_eq!(format!("{}", Nanos::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = Nanos::from_secs_f64(-1.0);
    }

    #[test]
    fn min_max() {
        let a = Nanos(1);
        let b = Nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
