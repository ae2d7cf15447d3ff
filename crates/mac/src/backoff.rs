//! Contention backoff for broadcast CSMA/CA.
//!
//! Broadcast frames in 802.11 carry no acknowledgment and no RTS/CTS; the
//! only collision avoidance is carrier sensing plus a random delay before
//! each transmission attempt. The delay ranges below are sized for the
//! 19.2 kbps Mica2 radio so that the empirical channel-access time matches
//! the paper's observed `L1 ≈ 1.5 s` (Table 1 notes `L1` "is based on
//! empirical data observed in our simulations").

use pbbf_des::{SimDuration, SimTime};
use rand::RngCore;

/// Backoff ranges for the two contention phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    atim_min: SimDuration,
    atim_max: SimDuration,
    data_min: SimDuration,
    data_max: SimDuration,
}

impl BackoffPolicy {
    /// Creates a policy from the two `[min, max)` uniform ranges.
    ///
    /// # Panics
    ///
    /// Panics if a range is empty.
    #[must_use]
    pub fn new(
        atim_min: SimDuration,
        atim_max: SimDuration,
        data_min: SimDuration,
        data_max: SimDuration,
    ) -> Self {
        assert!(atim_min < atim_max, "empty ATIM backoff range");
        assert!(data_min < data_max, "empty data backoff range");
        Self {
            atim_min,
            atim_max,
            data_min,
            data_max,
        }
    }

    /// The paper-calibrated defaults: ATIM backoff uniform in
    /// `[10 ms, 300 ms)` (fits several contenders into the 1 s window),
    /// data backoff uniform in `[100 ms, 2.8 s)` (mean ≈ 1.45 s ≈ `L1`).
    #[must_use]
    pub fn mica2() -> Self {
        Self::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(300),
            SimDuration::from_millis(100),
            SimDuration::from_millis(2_800),
        )
    }

    /// Draws an ATIM backoff delay.
    pub fn atim_backoff(&self, rng: &mut impl RngCore) -> SimDuration {
        draw(self.atim_min, self.atim_max, rng)
    }

    /// Draws a data backoff delay.
    pub fn data_backoff(&self, rng: &mut impl RngCore) -> SimDuration {
        draw(self.data_min, self.data_max, rng)
    }

    /// The instant of the next ATIM attempt from `now`.
    pub fn next_atim_attempt(&self, now: SimTime, rng: &mut impl RngCore) -> SimTime {
        now + self.atim_backoff(rng)
    }

    /// The instant of the next data attempt from `now`.
    pub fn next_data_attempt(&self, now: SimTime, rng: &mut impl RngCore) -> SimTime {
        now + self.data_backoff(rng)
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self::mica2()
    }
}

fn draw(min: SimDuration, max: SimDuration, rng: &mut impl RngCore) -> SimDuration {
    let span = max.as_nanos() - min.as_nanos();
    let r = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
    SimDuration::from_nanos(min.as_nanos() + r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_des::SimRng;

    #[test]
    fn draws_stay_in_range() {
        let p = BackoffPolicy::mica2();
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let a = p.atim_backoff(&mut rng);
            assert!(a >= SimDuration::from_millis(10) && a < SimDuration::from_millis(300));
            let d = p.data_backoff(&mut rng);
            assert!(d >= SimDuration::from_millis(100) && d < SimDuration::from_millis(2_800));
        }
    }

    #[test]
    fn expected_access_close_to_l1() {
        // Uniform in [100 ms, 2.8 s): mean 1.45 s, the analytical `L1`.
        let p = BackoffPolicy::mica2();
        let mut rng = SimRng::new(2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| p.data_backoff(&mut rng).as_secs()).sum();
        assert!((total / n as f64 - 1.45).abs() < 0.02);
    }

    #[test]
    fn attempts_offset_from_now() {
        let p = BackoffPolicy::mica2();
        let mut rng = SimRng::new(3);
        let now = SimTime::from_secs(5.0);
        assert!(p.next_atim_attempt(now, &mut rng) > now);
        assert!(p.next_data_attempt(now, &mut rng) > now);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = BackoffPolicy::mica2();
        let a: Vec<u64> = {
            let mut rng = SimRng::new(9);
            (0..10)
                .map(|_| p.data_backoff(&mut rng).as_nanos())
                .collect()
        };
        let b: Vec<u64> = {
            let mut rng = SimRng::new(9);
            (0..10)
                .map(|_| p.data_backoff(&mut rng).as_nanos())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty data backoff")]
    fn empty_range_panics() {
        let _ = BackoffPolicy::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(5),
            SimDuration::from_millis(5),
        );
    }
}
