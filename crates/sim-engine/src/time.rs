//! Integer-nanosecond simulation time.
//!
//! Simulation time is a `u64` count of nanoseconds since the start of the
//! run. Using integers (rather than `f64` seconds) makes event ordering
//! exact: two events scheduled at "the same" instant compare equal instead
//! of differing by rounding noise, and the stable FIFO tie-break of
//! [`EventQueue`](crate::EventQueue) then applies. At nanosecond resolution
//! a `u64` covers ~584 years of simulated time — far beyond the paper's
//! 500-second runs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulation time (nanoseconds since run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_SEC: f64 = 1e9;

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates an instant from (non-negative, finite) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or overflows the range.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        Self(secs_to_nanos(secs))
    }

    /// Raw nanoseconds since run start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start (lossy above 2^53 ns, i.e. ~104 days).
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "duration_since: {earlier} > {self}");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Creates a duration from (non-negative, finite) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or overflows the range.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        Self(secs_to_nanos(secs))
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Whether this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "invalid time in seconds: {secs}"
    );
    let nanos = secs * NANOS_PER_SEC;
    assert!(
        nanos <= u64::MAX as f64,
        "time overflows u64 nanoseconds: {secs} s"
    );
    nanos.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
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
        write!(f, "{:.9}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_secs(), 1.5);
        let d = SimDuration::from_millis(26);
        assert_eq!(d.as_nanos(), 26_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(2.5);
        assert_eq!((t + d).as_secs(), 12.5);
        assert_eq!((t - d).as_secs(), 7.5);
        assert_eq!((t + d) - t, d);
        assert_eq!((d + d).as_secs(), 5.0);
        assert_eq!((d - d), SimDuration::ZERO);
        assert_eq!((d * 4).as_secs(), 10.0);
        assert_eq!((d / 5).as_secs(), 0.5);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(SimTime::from_secs(1.0), SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(3.0);
        assert_eq!(t.as_secs(), 3.0);
        let mut d = SimDuration::from_secs(5.0);
        d -= SimDuration::from_secs(1.0);
        assert_eq!(d.as_secs(), 4.0);
        d += SimDuration::from_secs(0.5);
        assert_eq!(d.as_secs(), 4.5);
    }

    #[test]
    fn saturating_add_caps() {
        let t = SimTime::MAX;
        assert_eq!(t.saturating_add(SimDuration::from_secs(1.0)), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn time_overflow_panics() {
        let _ = SimTime::MAX + SimDuration::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::ZERO - SimDuration::from_nanos(1);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(1.25).to_string(), "1.250000000s");
        assert_eq!(SimDuration::from_millis(10).to_string(), "0.010000000s");
    }

    #[test]
    fn is_zero() {
        assert!(SimDuration::ZERO.is_zero());
        assert!(!SimDuration::from_nanos(1).is_zero());
    }
}
