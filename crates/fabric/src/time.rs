//! Virtual time. All fabric clocks are expressed in nanoseconds since the
//! start of the run, in both sim and live modes.

/// A point in (virtual or wall) time, nanoseconds since run start.
pub type SimTime = u64;

/// One microsecond in [`SimTime`] units.
pub const MICROS: u64 = 1_000;
/// One millisecond in [`SimTime`] units.
pub const MILLIS: u64 = 1_000_000;
/// One second in [`SimTime`] units.
pub const SECS: u64 = 1_000_000_000;

/// Convert seconds (fractional) to nanoseconds, saturating.
#[inline]
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * SECS as f64).round().min(u64::MAX as f64) as u64
    }
}

/// Convert nanoseconds to fractional seconds.
#[inline]
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / SECS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_ns_round_trip() {
        assert_eq!(secs_to_ns(1.0), SECS);
        assert_eq!(secs_to_ns(0.5), 500 * MILLIS);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(-3.0), 0);
        let x = 123.456_789;
        assert!((ns_to_secs(secs_to_ns(x)) - x).abs() < 1e-9);
    }
}
