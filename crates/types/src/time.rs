//! Simulated time.
//!
//! The whole machine runs off one monotonically increasing cycle counter.
//! The simulated core is clocked at [`CPU_FREQ_GHZ`] (3 GHz, matching the
//! paper's gem5 configuration), so conversions between wall-clock units and
//! cycles are exact integer multiplications.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Simulated core frequency in GHz (cycles per nanosecond).
pub const CPU_FREQ_GHZ: u64 = 3;

/// A duration or instant measured in CPU cycles at [`CPU_FREQ_GHZ`].
///
/// # Examples
///
/// ```
/// use kindle_types::Cycles;
///
/// let lat = Cycles::from_nanos(150);
/// assert_eq!(lat.as_u64(), 450);
/// assert_eq!(lat.as_nanos(), 150);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Wraps a raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Converts nanoseconds to cycles.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Cycles(ns * CPU_FREQ_GHZ)
    }

    /// Converts microseconds to cycles.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Self::from_nanos(us * 1_000)
    }

    /// Converts milliseconds to cycles.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self::from_nanos(ms * 1_000_000)
    }

    /// Converts seconds to cycles.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self::from_nanos(s * 1_000_000_000)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Cycle count rounded down to whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0 / CPU_FREQ_GHZ
    }

    /// Cycle count as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / (CPU_FREQ_GHZ as f64 * 1_000.0)
    }

    /// Cycle count as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / (CPU_FREQ_GHZ as f64 * 1_000_000.0)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycles({})", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= CPU_FREQ_GHZ * 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}cy", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Cycles::from_millis(10).as_nanos(), 10_000_000);
        assert_eq!(Cycles::from_secs(1), Cycles::from_millis(1000));
        assert_eq!(Cycles::from_micros(5), Cycles::from_nanos(5000));
    }

    #[test]
    fn arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(4);
        assert_eq!((a + b).as_u64(), 14);
        assert_eq!((a - b).as_u64(), 6);
        assert_eq!((a * 3).as_u64(), 30);
        assert_eq!((a / 2).as_u64(), 5);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(vec![a, b].into_iter().sum::<Cycles>().as_u64(), 14);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Cycles::new(7)), "7cy");
        assert_eq!(format!("{}", Cycles::from_millis(2)), "2.000ms");
    }
}
