//! Simulated time in processor clock cycles.
//!
//! Cycles are carried as `f64` because several machine gaps in the
//! paper are fractional (0.35 cycles/byte on the Paragon, 1.6 on the
//! T3E). The newtype enforces non-NaN totals so it can participate in
//! ordered collections such as the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cycles(pub f64);

impl Cycles {
    /// Time zero.
    pub const ZERO: Cycles = Cycles(0.0);

    /// Construct, rejecting NaN (infinities are rejected too: a
    /// simulation that produces them has already gone wrong).
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite(), "non-finite cycle count: {v}");
        Cycles(v)
    }

    /// The later of two instants.
    pub fn max(self, other: Cycles) -> Cycles {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Cycles) -> Cycles {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Raw cycle count.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Convert to microseconds at a given clock rate (Hz).
    pub fn to_micros(self, clock_hz: f64) -> f64 {
        self.0 / clock_hz * 1e6
    }
}

impl Eq for Cycles {}

impl PartialOrd for Cycles {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cycles {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so this total order is safe.
        self.0.partial_cmp(&other.0).expect("NaN cycle count escaped construction")
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: f64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<f64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: f64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            write!(f, "{} cyc", self.0 as i64)
        } else {
            write!(f, "{:.1} cyc", self.0)
        }
    }
}

impl From<f64> for Cycles {
    fn from(v: f64) -> Self {
        Cycles::new(v)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = Cycles::new(10.0);
        let b = Cycles::new(2.5);
        assert_eq!((a + b).get(), 12.5);
        assert_eq!((a - b).get(), 7.5);
        assert_eq!((a * 2.0).get(), 20.0);
        assert_eq!((a / 4.0).get(), 2.5);
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Cycles::new(1.0);
        let b = Cycles::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let mut v = vec![b, a, Cycles::ZERO];
        v.sort();
        assert_eq!(v, vec![Cycles::ZERO, a, b]);
    }

    #[test]
    fn unit_conversion() {
        // 400 cycles at 400 MHz is exactly 1 microsecond (the paper's
        // "o = 400 cycles (1 us)" row).
        let c = Cycles::new(400.0);
        assert!((c.to_micros(400e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_integral_and_fractional() {
        assert_eq!(Cycles::new(1600.0).to_string(), "1600 cyc");
        assert_eq!(Cycles::new(1.25).to_string(), "1.2 cyc");
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycles = [1.0, 2.0, 3.0].into_iter().map(Cycles::new).sum();
        assert_eq!(total.get(), 6.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = Cycles::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn infinity_rejected() {
        let _ = Cycles::new(f64::INFINITY);
    }
}
