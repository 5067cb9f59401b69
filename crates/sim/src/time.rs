//! Simulated time.
//!
//! Time is measured in integer **picoseconds** so that all latency and
//! bandwidth arithmetic in the simulator is exact. A picosecond resolution
//! comfortably expresses both sub-nanosecond bus phases and multi-second
//! runs (`u64` picoseconds covers ~213 days).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the run.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_ns(3);
/// assert_eq!(t.as_picos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use shrimp_sim::SimDuration;
///
/// let d = SimDuration::from_us(2);
/// assert_eq!(d.as_nanos_f64(), 2_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for idle components.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count since the start of the run.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since called with a later instant"),
        )
    }

    /// Saturating duration since another instant (zero if `other` is later).
    pub fn saturating_since(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// The time one item of `bytes` takes to move through a channel of
    /// `bytes_per_sec` bandwidth, rounded up to a whole picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn from_bytes_at_rate(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // ps = bytes * 1e12 / rate, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ps as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
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
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
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
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
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
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_nanos_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_picos(10_000);
        let d = SimDuration::from_ns(5);
        assert_eq!((t + d).as_picos(), 15_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_constructors_scale_correctly() {
        assert_eq!(SimDuration::from_ns(1).as_picos(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_picos(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_picos(), 1_000_000_000);
    }

    #[test]
    fn bytes_at_rate_matches_hand_computation() {
        // 33 MB/s EISA burst: 4096 bytes should take ~124.1 us.
        let d = SimDuration::from_bytes_at_rate(4096, 33_000_000);
        let us = d.as_micros_f64();
        assert!((us - 124.12).abs() < 0.01, "got {us}");
    }

    #[test]
    fn bytes_at_rate_rounds_up() {
        // 1 byte at 3 bytes/sec: 1e12/3 is not integral; must round up.
        let d = SimDuration::from_bytes_at_rate(1, 3);
        assert_eq!(d.as_picos(), 333_333_333_334);
    }

    #[test]
    fn saturating_ops_clamp_at_zero() {
        let a = SimDuration::from_ns(1);
        let b = SimDuration::from_ns(2);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        let t = SimTime::from_picos(5);
        assert_eq!(t.saturating_since(SimTime::from_picos(9)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_panics_on_negative_span() {
        SimTime::ZERO.since(SimTime::from_picos(1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_ns(250)), "250.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(2)), "2.000us");
    }

    #[test]
    fn min_max_behave() {
        let a = SimTime::from_picos(1);
        let b = SimTime::from_picos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_ns(1).max(SimDuration::from_ns(2)),
            SimDuration::from_ns(2)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }
}
