//! Integer-nanosecond virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// `x.round() as u64` without the call: on the baseline x86-64 target
/// `f64::round` is a soft-float routine in `compiler_builtins`, and the
/// request path rounds three times per request. Truncate, then round the
/// fraction half away from zero. Below 2⁵² the fraction `x - t` is exact;
/// from there up `x` is integral and it is zero; `as` saturates at both
/// ends and maps NaN to 0, as it does after `round`. Equal to
/// `x.round() as u64` for every `f64`.
///
/// # Examples
///
/// ```
/// use netrs_simcore::round_to_u64;
///
/// assert_eq!(round_to_u64(2.5), 3);
/// assert_eq!(round_to_u64(0.49999999999999994), 0);
/// assert_eq!(round_to_u64(-1.0), 0);
/// ```
#[inline]
#[must_use]
pub fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// A point in simulated time, measured in integer nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered and supports arithmetic with
/// [`SimDuration`]. Using integers avoids the accumulation of floating-point
/// error over the hundreds of millions of events in a full experiment.
///
/// # Examples
///
/// ```
/// use netrs_simcore::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(4);
/// assert_eq!(t.as_nanos(), 4_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(4));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in integer nanoseconds.
///
/// # Examples
///
/// ```
/// use netrs_simcore::SimDuration;
///
/// let d = SimDuration::from_micros(30) * 4;
/// assert_eq!(d.as_micros_f64(), 120.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far away"
    /// sentinel for run-until bounds.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this instant expressed in (fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier` is
    /// later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs are clamped to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in (fractional) microseconds.
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in (fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration(round_to_u64(self.0 as f64 * factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
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
    fn round_to_u64_is_round_then_cast() {
        let two52 = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            0.49999999999999994,
            0.5,
            0.9999999999999999,
            1.0,
            two52 - 0.5,
            two52 - 1.0,
            two52,
            two52 + 1.0,
            two52 * 2.0,
            two52 * 2.0 + 2.0,
            u64::MAX as f64,
            (u64::MAX as f64) * 2.0,
            1e30,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -0.5,
            -3.7,
            f64::NEG_INFINITY,
        ];
        for k in [0u64, 1, 2, 3, 1_000, 123_456_789, (1 << 51) - 1] {
            let half = k as f64 + 0.5;
            cases.extend([half, f64::from_bits(half.to_bits() - 1), half + 0.25]);
        }
        for x in cases {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(30);
        assert_eq!(late.saturating_since(early).as_nanos(), 20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(4), SimDuration::from_micros(4_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.0000025),
            SimDuration::from_nanos(2_500)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_div_scale() {
        let d = SimDuration::from_micros(30);
        assert_eq!(d * 4, SimDuration::from_micros(120));
        assert_eq!(d / 3, SimDuration::from_micros(10));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(15));
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(4).to_string(), "4.000ms");
        assert_eq!(SimTime::from_nanos(1_000_000_000).to_string(), "1.000000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = SimDuration::from_micros(1).mul_f64(-0.5);
    }
}
