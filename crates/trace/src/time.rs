//! Nanosecond-precision timestamps and durations.
//!
//! Kineto traces store microseconds with fractional parts; we use
//! integer nanoseconds internally so that arithmetic is exact, `Ord`
//! and `Hash` are well-defined, and simulated replays are
//! bit-reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute timestamp in nanoseconds since the start of the trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Ts(pub u64);

/// A span of time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Dur(pub u64);

impl Ts {
    /// The zero timestamp (trace origin).
    pub const ZERO: Ts = Ts(0);
    /// The maximum representable timestamp.
    pub const MAX: Ts = Ts(u64::MAX);

    /// Creates a timestamp from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        Ts(us * 1_000)
    }

    /// Creates a timestamp from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Ts(ms * 1_000_000)
    }

    /// Raw nanosecond value.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This timestamp expressed in (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This timestamp expressed in (possibly fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: Ts) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two timestamps.
    pub fn max(self, other: Ts) -> Ts {
        Ts(self.0.max(other.0))
    }

    /// Returns the earlier of two timestamps.
    pub fn min(self, other: Ts) -> Ts {
        Ts(self.0.min(other.0))
    }
}

impl Dur {
    /// The zero duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the
    /// nearest nanosecond and saturating at zero for negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return Dur::ZERO;
        }
        Dur((secs * 1e9).round() as u64)
    }

    /// Raw nanosecond value.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This duration in (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in (possibly fractional) milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales this duration by a non-negative factor, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite. Library callers
    /// handling untrusted factors should use [`Dur::try_scale`].
    pub fn scale(self, factor: f64) -> Dur {
        match self.try_scale(factor) {
            Ok(d) => d,
            Err(e) => panic!("duration {e}"),
        }
    }

    /// Fallible [`Dur::scale`]: rejects negative, NaN, and infinite
    /// factors instead of panicking, for factors that come from user
    /// input rather than library constants.
    ///
    /// # Errors
    ///
    /// Returns [`ScaleError`] when `factor` is negative or not finite.
    pub fn try_scale(self, factor: f64) -> Result<Dur, ScaleError> {
        if !(factor >= 0.0 && factor.is_finite()) {
            return Err(ScaleError { factor });
        }
        Ok(Dur((self.0 as f64 * factor).round() as u64))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Relative difference `|self - other| / other`, used for replay
    /// error reporting. Returns 0 when both are zero.
    pub fn relative_error(self, reference: Dur) -> f64 {
        if reference.0 == 0 {
            if self.0 == 0 {
                return 0.0;
            }
            return f64::INFINITY;
        }
        (self.0 as f64 - reference.0 as f64).abs() / reference.0 as f64
    }
}

/// A rejected duration-scale factor (negative, NaN, or infinite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleError {
    /// The offending factor.
    pub factor: f64,
}

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scale factor must be finite and non-negative, got {}",
            self.factor
        )
    }
}

impl std::error::Error for ScaleError {}

impl Add<Dur> for Ts {
    type Output = Ts;
    fn add(self, rhs: Dur) -> Ts {
        Ts(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Ts {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Ts {
    type Output = Ts;
    fn sub(self, rhs: Dur) -> Ts {
        Ts(self.0 - rhs.0)
    }
}

impl Sub<Ts> for Ts {
    type Output = Dur;
    fn sub(self, rhs: Ts) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A half-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TimeSpan {
    /// Inclusive start.
    pub start: Ts,
    /// Exclusive end.
    pub end: Ts,
}

impl TimeSpan {
    /// Creates a span. `end` must not precede `start`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Ts, end: Ts) -> Self {
        assert!(end >= start, "TimeSpan end {end} precedes start {start}");
        TimeSpan { start, end }
    }

    /// Creates a span from a start time and a duration.
    pub fn from_start_dur(start: Ts, dur: Dur) -> Self {
        TimeSpan {
            start,
            end: start + dur,
        }
    }

    /// Length of the span.
    pub fn duration(&self) -> Dur {
        self.end - self.start
    }

    /// Returns `true` when the span is empty (`start == end`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns `true` when `ts` falls within `[start, end)`.
    pub fn contains(&self, ts: Ts) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Intersection with another span, if non-empty.
    pub fn intersect(&self, other: &TimeSpan) -> Option<TimeSpan> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeSpan { start, end })
        } else {
            None
        }
    }

    /// Returns `true` when the two spans overlap in a region of
    /// positive length.
    pub fn overlaps(&self, other: &TimeSpan) -> bool {
        self.intersect(other).is_some()
    }

    /// Smallest span covering both inputs.
    pub fn hull(&self, other: &TimeSpan) -> TimeSpan {
        TimeSpan {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_arithmetic_roundtrips() {
        let t = Ts::from_us(5);
        let d = Dur::from_us(3);
        assert_eq!(t + d, Ts(8_000));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn dur_conversions() {
        assert_eq!(Dur::from_ms(2).as_ns(), 2_000_000);
        assert!((Dur::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-12);
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn dur_scale_rounds() {
        assert_eq!(Dur(100).scale(1.5), Dur(150));
        assert_eq!(Dur(3).scale(0.5), Dur(2)); // 1.5 rounds to 2
        assert_eq!(Dur(0).scale(10.0), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn dur_scale_rejects_negative() {
        let _ = Dur(1).scale(-1.0);
    }

    #[test]
    fn dur_try_scale_rejects_bad_factors_without_panicking() {
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Dur(100).try_scale(bad).unwrap_err();
            assert_eq!(err.factor.to_bits(), bad.to_bits());
            assert!(err.to_string().contains("non-negative"));
        }
        assert_eq!(Dur(100).try_scale(1.5), Ok(Dur(150)));
        assert_eq!(Dur(100).try_scale(0.0), Ok(Dur::ZERO));
    }

    #[test]
    fn relative_error_cases() {
        assert_eq!(Dur(110).relative_error(Dur(100)), 0.1);
        assert_eq!(Dur(90).relative_error(Dur(100)), 0.1);
        assert_eq!(Dur(0).relative_error(Dur(0)), 0.0);
        assert!(Dur(1).relative_error(Dur(0)).is_infinite());
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Ts(5).saturating_since(Ts(10)), Dur::ZERO);
        assert_eq!(Ts(10).saturating_since(Ts(4)), Dur(6));
    }

    #[test]
    fn span_intersection() {
        let a = TimeSpan::new(Ts(0), Ts(10));
        let b = TimeSpan::new(Ts(5), Ts(15));
        assert_eq!(a.intersect(&b), Some(TimeSpan::new(Ts(5), Ts(10))));
        let c = TimeSpan::new(Ts(10), Ts(20));
        assert_eq!(a.intersect(&c), None); // half-open: touching is empty
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn span_hull_and_contains() {
        let a = TimeSpan::new(Ts(2), Ts(4));
        let b = TimeSpan::new(Ts(8), Ts(9));
        let h = a.hull(&b);
        assert_eq!(h, TimeSpan::new(Ts(2), Ts(9)));
        assert!(h.contains(Ts(2)));
        assert!(!h.contains(Ts(9)));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn span_rejects_inverted() {
        let _ = TimeSpan::new(Ts(5), Ts(1));
    }

    #[test]
    fn dur_sum_and_ops() {
        let total: Dur = [Dur(1), Dur(2), Dur(3)].into_iter().sum();
        assert_eq!(total, Dur(6));
        assert_eq!(Dur(6) / 2, Dur(3));
        assert_eq!(Dur(6) * 2, Dur(12));
        assert_eq!(Dur(6).saturating_sub(Dur(10)), Dur::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dur(500).to_string(), "500ns");
        assert_eq!(Dur::from_us(2).to_string(), "2.000us");
        assert_eq!(Dur::from_ms(3).to_string(), "3.000ms");
        assert_eq!(Ts::from_us(1).to_string(), "1.000us");
    }
}
