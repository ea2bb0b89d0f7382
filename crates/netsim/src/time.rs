//! Simulated time, in microseconds (the unit the Intel MPI Benchmarks
//! report iteration times in).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in (or span of) simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    pub fn micros(us: f64) -> Self {
        SimTime(us)
    }

    pub fn seconds(s: f64) -> Self {
        SimTime(s * 1_000_000.0)
    }

    pub fn as_micros(&self) -> f64 {
        self.0
    }

    pub fn as_nanos(&self) -> f64 {
        self.0 * 1_000.0
    }

    pub fn as_seconds(&self) -> f64 {
        self.0 / 1_000_000.0
    }

    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000.0 {
            write!(f, "{:.3}s", self.as_seconds())
        } else if self.0 >= 1_000.0 {
            write!(f, "{:.3}ms", self.0 / 1_000.0)
        } else {
            write!(f, "{:.3}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(SimTime::seconds(1.0).as_micros(), 1e6);
        assert_eq!(SimTime::micros(3.0).as_nanos(), 3000.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::micros(10.0) + SimTime::micros(5.0);
        assert_eq!(t.as_micros(), 15.0);
        assert_eq!((t - SimTime::micros(5.0)).as_micros(), 10.0);
        assert_eq!((t * 2.0).as_micros(), 30.0);
        assert_eq!((t / 3.0).as_micros(), 5.0);
        let total: SimTime = [SimTime::micros(1.0); 4].into_iter().sum();
        assert_eq!(total.as_micros(), 4.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::micros(1.5).to_string(), "1.500us");
        assert_eq!(SimTime::micros(1500.0).to_string(), "1.500ms");
        assert_eq!(SimTime::seconds(2.0).to_string(), "2.000s");
    }
}
