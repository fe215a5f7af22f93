//! Simulation time: a `u64` count of nanoseconds since simulation start.
//!
//! Virtual time is exact integer arithmetic — no floating-point drift — so
//! every run is bit-reproducible. Durations are a separate newtype ([`Dur`])
//! to keep points and spans from being confused at compile time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

pub const NS_PER_US: u64 = 1_000;
pub const NS_PER_MS: u64 = 1_000_000;
pub const NS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s >= 0.0 && s.is_finite(), "invalid time {s}");
        SimTime((s * NS_PER_SEC as f64).round() as u64)
    }

    /// Elapsed span since `earlier`. Saturates to zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * NS_PER_US)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * NS_PER_MS)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * NS_PER_SEC)
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        Dur((s * NS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// Scale a duration by a non-negative factor, rounding to nearest ns.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Dur {
        assert!(k >= 0.0 && k.is_finite(), "invalid scale {k}");
        Dur((self.0 as f64 * k).round() as u64)
    }

    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: SimTime) -> Dur {
        self.since(rhs)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Dur(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= NS_PER_SEC {
            write!(f, "{:.3}s", ns as f64 / NS_PER_SEC as f64)
        } else if ns >= NS_PER_MS {
            write!(f, "{:.3}ms", ns as f64 / NS_PER_MS as f64)
        } else if ns >= NS_PER_US {
            write!(f, "{:.3}us", ns as f64 / NS_PER_US as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_plus_span() {
        let t = SimTime(100) + Dur::from_nanos(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn span_between_points() {
        assert_eq!(SimTime(500) - SimTime(200), Dur(300));
        // saturating: never negative
        assert_eq!(SimTime(200) - SimTime(500), Dur(0));
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(Dur::from_secs(2).nanos(), 2 * NS_PER_SEC);
        assert_eq!(Dur::from_millis(3).nanos(), 3 * NS_PER_MS);
        assert_eq!(Dur::from_micros(7).nanos(), 7 * NS_PER_US);
    }

    #[test]
    fn float_roundtrip() {
        let d = Dur::from_secs_f64(1.5);
        assert_eq!(d.nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        let t = SimTime::from_secs_f64(0.25);
        assert_eq!(t.nanos(), 250_000_000);
    }

    #[test]
    fn scaling() {
        assert_eq!(Dur::from_secs(1).mul_f64(0.5), Dur::from_millis(500));
        assert_eq!(Dur::from_secs(1) * 3, Dur::from_secs(3));
        assert_eq!(Dur::from_secs(3) / 3, Dur::from_secs(1));
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + Dur::from_secs(1), SimTime::MAX);
        assert_eq!(Dur(u64::MAX) * 2, Dur(u64::MAX));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Dur::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Dur::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", Dur::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        let _ = Dur::from_secs_f64(-1.0);
    }
}
