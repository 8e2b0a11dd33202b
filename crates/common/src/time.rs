//! Virtual time for the discrete-event simulation and protocol timers.
//!
//! All simulated clocks count microseconds from the start of the experiment.
//! Microsecond resolution is fine-grained enough for sub-millisecond VPC
//! round trips and coarse enough that a 50-hour trace replay (1.8 × 10^11 µs)
//! fits comfortably in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock (microseconds since experiment start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The experiment origin.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "never fires" timer sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the origin as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whole hours since the origin (truncating); used to bucket hourly cost
    /// and fault-tolerance timelines.
    pub const fn hour(self) -> u64 {
        self.0 / 3_600_000_000
    }

    /// Whole minutes since the origin (truncating).
    pub const fn minute(self) -> u64 {
        self.0 / 60_000_000
    }

    /// The span from `earlier` to `self`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One AWS Lambda billing cycle: 100 ms (§3.3).
    pub const BILLING_CYCLE: SimDuration = SimDuration::from_millis(100);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a span of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be non-negative"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds as a float (for latency reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Rounds *up* to the nearest 100 ms — the paper's `ceil100(.)` used by
    /// the AWS billing meter (Eq 4).
    ///
    /// A zero duration still bills one full cycle, matching AWS's minimum of
    /// one billing cycle per invocation at the time of the paper.
    pub fn ceil_to_billing_cycle(self) -> SimDuration {
        let cycle = SimDuration::BILLING_CYCLE.0;
        if self.0 == 0 {
            return SimDuration(cycle);
        }
        SimDuration(self.0.div_ceil(cycle) * cycle)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
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
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}µs)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}µs)", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 2_500);
        assert_eq!(t - SimTime::from_secs(2), SimDuration::from_millis(500));
        assert_eq!(t.minute(), 0);
        assert_eq!(SimTime::from_secs(3_601).hour(), 1);
        assert_eq!(SimTime::from_secs(61).minute(), 1);
    }

    #[test]
    fn ceil100_matches_paper_billing_semantics() {
        // 1 ms bills a full 100 ms cycle.
        assert_eq!(
            SimDuration::from_millis(1).ceil_to_billing_cycle(),
            SimDuration::from_millis(100)
        );
        // Exactly one cycle bills one cycle.
        assert_eq!(
            SimDuration::from_millis(100).ceil_to_billing_cycle(),
            SimDuration::from_millis(100)
        );
        // 101 ms bills two cycles.
        assert_eq!(
            SimDuration::from_millis(101).ceil_to_billing_cycle(),
            SimDuration::from_millis(200)
        );
        // Zero-duration invocations bill the minimum cycle.
        assert_eq!(
            SimDuration::ZERO.ceil_to_billing_cycle(),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12µs");
        assert_eq!(SimDuration::from_millis(13).to_string(), "13.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.0000015),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_duration_sub_panics_on_underflow() {
        let _ = SimDuration::from_micros(1) - SimDuration::from_micros(2);
    }
}
