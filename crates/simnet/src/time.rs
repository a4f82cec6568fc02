//! Simulated time, in nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in nanoseconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the start of the simulation.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Converts to microseconds (truncating).
    pub fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Converts to milliseconds (truncating).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Converts to seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be non-negative");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The transmission time of `bytes` over a link of `bits_per_second` capacity.
    ///
    /// An unlimited link (`bits_per_second == 0`, by convention) transmits instantly.
    /// The quotient is taken in `u64` whenever `bytes · 8 · 10⁹` fits (below about
    /// 2.3 GB, so for every message a run sends) and in `u128` otherwise: the same
    /// value either way, without a 128-bit division per copy.
    pub fn transmission(bytes: usize, bits_per_second: u64) -> Self {
        if bits_per_second == 0 {
            return SimDuration::ZERO;
        }
        let nanos = match (bytes as u64).checked_mul(8_000_000_000) {
            Some(scaled) => scaled / bits_per_second,
            None => (bytes as u128 * 8_000_000_000 / u128::from(bits_per_second)) as u64,
        };
        SimDuration(nanos)
    }

    /// Duration in nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Duration in microseconds (truncating).
    pub fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Duration in milliseconds (truncating).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration in seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the duration by an integer factor.
    pub fn saturating_mul(&self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::Strategy;

    #[test]
    fn conversions() {
        let t = SimTime(1_500_000_000);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_millis(), 1_500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);

        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis(), 250);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
        assert_eq!(SimTime(10) - SimTime(100), SimDuration(0));
        assert_eq!(SimTime(150).saturating_since(SimTime(100)), SimDuration(50));
        assert_eq!(SimDuration(5) + SimDuration(7), SimDuration(12));
        assert_eq!(SimDuration(5).saturating_mul(3), SimDuration(15));
    }

    #[test]
    fn transmission_time_matches_bandwidth() {
        // 1250 bytes = 10_000 bits over 10 Mbps = 1 ms.
        let d = SimDuration::transmission(1250, 10_000_000);
        assert_eq!(d.as_micros(), 1_000);
        // Unlimited link.
        assert_eq!(SimDuration::transmission(1_000_000, 0), SimDuration::ZERO);
        // 9.8 Gbps, 128 bytes: about 104 ns.
        let d = SimDuration::transmission(128, 9_800_000_000);
        assert!(d.as_nanos() >= 100 && d.as_nanos() <= 110, "{d:?}");
    }

    proptest::proptest! {
        /// The u64 quotient is the u128 formula's, on the unlimited link, on sizes
        /// whose scaled product overflows u64 and on everything in between.
        #[test]
        fn transmission_matches_the_u128_formula(
            case in (0u8..4, 0u64..1 << 20, 0u8..3, 1_000_000u64..20_000_000_000).prop_map(
                |(size_class, small, rate_class, link)| {
                    // Message sizes, any size, the top of usize, and the edge where
                    // bytes · 8 · 10⁹ leaves u64 (2,305,843,009.2 bytes).
                    let bytes = match size_class {
                        0 => small as usize,
                        1 => (small.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ link) as usize,
                        2 => usize::MAX - small as usize,
                        _ => 2_305_843_009 - 512 + small as usize % 1024,
                    };
                    // An unlimited link, a tiny one, a real one.
                    let rate = [0, small % 4, link][usize::from(rate_class)];
                    (bytes, rate)
                },
            ),
        ) {
            let (bytes, bits_per_second) = case;
            let expected = if bits_per_second == 0 {
                0
            } else {
                (bytes as u128 * 8 * 1_000_000_000 / u128::from(bits_per_second)) as u64
            };
            let nanos = SimDuration::transmission(bytes, bits_per_second).as_nanos();
            proptest::prop_assert_eq!(nanos, expected);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
