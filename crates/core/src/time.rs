//! Simulation time types.
//!
//! All schedulers in this crate are driven by an external substrate (a
//! discrete-event simulator or a userspace thread runtime). Both express
//! time as nanoseconds since the start of the experiment. Newtypes keep
//! instants and durations from being mixed up and give us saturating
//! arithmetic in one place.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant, in nanoseconds since the start of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The experiment origin.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration; used as an "unbounded" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Constructs a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Constructs a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Constructs a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Converts to a [`std::time::Duration`] for interop with the host OS.
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Converts from a [`std::time::Duration`], saturating at `u64::MAX` ns.
    pub fn from_std(d: std::time::Duration) -> Duration {
        Duration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// The units of an exact duration literal, largest first.
const UNITS: [(&str, u64); 4] = [
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
    ("us", 1_000),
    ("ns", 1),
];

impl Duration {
    /// Parses an exact duration literal — an unsigned integer followed
    /// by `ns`, `us`, `ms` or `s` (`5ms`, `300us`, `2s`) — the one
    /// grammar policy specs and fault plans share. `None` for anything
    /// else, including a value past `u64` nanoseconds; each caller
    /// attaches its own typed error.
    pub(crate) fn parse_literal(v: &str) -> Option<Duration> {
        let split = v.find(|c: char| !c.is_ascii_digit()).filter(|&i| i > 0)?;
        let (digits, unit) = v.split_at(split);
        let (_, scale) = UNITS.iter().find(|(u, _)| *u == unit)?;
        let n: u64 = digits.parse().ok()?;
        n.checked_mul(*scale).map(Duration)
    }
}

/// Displays a duration as the literal [`Duration::parse_literal`] reads
/// back exactly: the largest unit that divides it, zero as `0s`.
pub(crate) struct Literal(pub Duration);

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0.as_nanos();
        let (unit, scale) = UNITS
            .iter()
            .find(|(_, scale)| ns.is_multiple_of(*scale))
            .expect("one nanosecond divides every duration");
        write!(f, "{}{unit}", ns / scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Time::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Time::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_millis(200).as_nanos(), 200_000_000);
        assert_eq!(Duration::from_secs(1), Duration::from_micros(1_000_000));
    }

    #[test]
    fn since_saturates() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(b.since(a), Duration::from_secs(1));
        assert_eq!(a.since(b), Duration::ZERO);
        assert_eq!(b - a, Duration::from_secs(1));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        let d = Duration::from_millis(7) + Duration::from_millis(3);
        assert_eq!(d, Duration::from_millis(10));
        assert_eq!(d - Duration::from_millis(4), Duration::from_millis(6));
        assert_eq!(d * 3, Duration::from_millis(30));
        assert_eq!(d / 2, Duration::from_millis(5));
        assert_eq!(Duration::from_millis(10) / Duration::from_millis(3), 3);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Duration::ZERO - Duration::from_secs(1), Duration::ZERO);
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Duration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Duration::from_secs(5)), "5.000s");
    }

    #[test]
    fn std_interop() {
        let d = Duration::from_millis(123);
        assert_eq!(Duration::from_std(d.to_std()), d);
    }

    #[test]
    fn literals_round_trip_exactly() {
        for (text, ns) in [
            ("0s", 0),
            ("7ns", 7),
            ("300us", 300_000),
            ("5ms", 5_000_000),
            ("2s", 2_000_000_000),
            ("1500ms", 1_500_000_000),
            ("18446744073709551615ns", u64::MAX),
        ] {
            assert_eq!(Duration::parse_literal(text), Some(Duration(ns)), "{text}");
            assert_eq!(Literal(Duration(ns)).to_string(), text);
        }
        // Zero is accepted in any unit and printed one way.
        assert_eq!(Duration::parse_literal("0ns"), Some(Duration::ZERO));
        for bad in [
            "",
            "5",
            "ms",
            "+5ms",
            "-5ms",
            "5 ms",
            "5m",
            "1.5s",
            "5msx",
            "18446744073709551616ns", // past u64
            "18446744073709551615us", // past u64 after scaling
        ] {
            assert_eq!(Duration::parse_literal(bad), None, "{bad:?}");
        }
    }
}
