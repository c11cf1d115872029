//! Virtual-time types.
//!
//! Simulation time is a non-negative, finite `f64`. The newtypes below make
//! instants and durations statically distinct (C-NEWTYPE) and give them the
//! total order that `f64` lacks; constructors validate finiteness so ordering
//! never observes a NaN.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the virtual time axis.
///
/// Throughout the OAQ workspace instants are measured in **minutes** from the
/// start of the scenario, matching the paper's parameterization (τ, Tc, Tr
/// are all quoted in minutes); the kernel itself does not care about units.
///
/// # Examples
///
/// ```
/// use oaq_sim::{SimTime, SimDuration};
/// let t = SimTime::new(3.0) + SimDuration::new(1.5);
/// assert_eq!(t, SimTime::new(4.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

/// A span between two [`SimTime`] instants; always finite, may be zero.
///
/// Negative durations are rejected by [`SimDuration::new`]; subtraction of
/// instants via [`SimTime::duration_since`] saturates at zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `minutes` after the origin.
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is negative, NaN or infinite.
    #[must_use]
    #[inline]
    pub fn new(minutes: f64) -> Self {
        assert!(
            minutes.is_finite() && minutes >= 0.0,
            "SimTime must be finite and non-negative, got {minutes}"
        );
        SimTime(minutes)
    }

    /// Returns the instant as minutes since the origin.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is actually later than `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `minutes`.
    ///
    /// # Panics
    ///
    /// Panics if `minutes` is negative, NaN or infinite.
    #[must_use]
    #[inline]
    pub fn new(minutes: f64) -> Self {
        assert!(
            minutes.is_finite() && minutes >= 0.0,
            "SimDuration must be finite and non-negative, got {minutes}"
        );
        SimDuration(minutes)
    }

    /// Returns the span in minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0
    }

    /// `true` when the span has zero length.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Finiteness is a constructor invariant, so partial_cmp cannot fail.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::new(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::new(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}min", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}min", self.0)
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Default for SimDuration {
    fn default() -> Self {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn duration_since_saturates() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::new(1.0));
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += SimDuration::new(2.5);
        assert_eq!(t.as_minutes(), 2.5);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::new(4.0);
        assert_eq!((d / 2.0).as_minutes(), 2.0);
        assert_eq!((d * 0.5).as_minutes(), 2.0);
        assert_eq!((d - SimDuration::new(5.0)), SimDuration::ZERO);
        assert!(!d.is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_duration_rejected() {
        let _ = SimDuration::new(f64::NAN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::new(1.5)), "t=1.500000min");
        assert_eq!(format!("{}", SimDuration::new(0.25)), "0.250000min");
    }
}
