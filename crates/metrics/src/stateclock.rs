//! Time-weighted state accounting.
//!
//! The radio energy model of the paper charges a node `P_TX`, `P_I` or
//! `P_S` watts depending on which state its radio is in (transmit,
//! receive/idle, sleep — Table 1). [`StateClock`] tracks how long an entity
//! spent in each of a small set of states so that total energy is simply
//! `Σ state_duration × state_power`.

use serde::{Deserialize, Serialize};

/// Accumulates the total time spent in each of `N` states.
///
/// The clock starts in state `0` at time `0.0`. Transitions are reported
/// with [`StateClock::transition`]; time must be non-decreasing.
/// [`StateClock::durations_at`] accounts for the trailing interval.
///
/// # Examples
///
/// ```
/// use pbbf_metrics::StateClock;
///
/// // Two states: 0 = awake, 1 = asleep.
/// let mut clock = StateClock::<2>::new();
/// clock.transition(1.0, 1); // awake during [0, 1), then sleeps
/// clock.transition(4.0, 0); // asleep during [1, 4), then wakes
/// let d = clock.durations_at(5.0);
/// assert_eq!(d, [2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateClock<const N: usize> {
    durations: [f64; N],
    state: usize,
    since: f64,
}

// The serde derive does not support const generics; implement the traits
// by hand, serializing the duration array as a plain JSON array.
impl<const N: usize> Serialize for StateClock<N> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Json::Obj(vec![
            (
                "durations".to_string(),
                serde::to_value(self.durations.as_slice()),
            ),
            ("state".to_string(), serde::to_value(&self.state)),
            ("since".to_string(), serde::to_value(&self.since)),
        ]))
    }
}

impl<'de, const N: usize> Deserialize<'de> for StateClock<N> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut obj = serde::ObjAccess::new(deserializer.take_value()?, "StateClock")
            .map_err(D::Error::custom)?;
        let durations: Vec<f64> = obj.field("durations").map_err(D::Error::custom)?;
        let durations: [f64; N] = durations.try_into().map_err(|v: Vec<f64>| {
            D::Error::custom(format!("expected {N} states, got {}", v.len()))
        })?;
        Ok(Self {
            durations,
            state: obj.field("state").map_err(D::Error::custom)?,
            since: obj.field("since").map_err(D::Error::custom)?,
        })
    }
}

impl<const N: usize> StateClock<N> {
    /// Creates a clock in state `0` at time `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `N == 0`.
    #[must_use]
    pub fn new() -> Self {
        assert!(N > 0, "StateClock needs at least one state");
        Self {
            durations: [0.0; N],
            state: 0,
            since: 0.0,
        }
    }

    /// Current state index.
    #[must_use]
    pub fn state(&self) -> usize {
        self.state
    }

    /// Records that the entity switched to `next` at time `now`.
    ///
    /// Transitions to the current state are permitted and simply extend it.
    ///
    /// # Panics
    ///
    /// Panics if `next >= N` or if `now` precedes the previous transition.
    #[inline]
    pub fn transition(&mut self, now: f64, next: usize) {
        assert!(next < N, "state {next} out of range (N = {N})");
        assert!(
            now >= self.since,
            "time went backwards: {now} < {}",
            self.since
        );
        self.durations[self.state] += now - self.since;
        self.state = next;
        self.since = now;
    }

    /// Credits `k` detached intervals of `per_boundary_secs` each to
    /// `state`, without moving the clock or changing the current state.
    ///
    /// This is the closed-form half of batched settling: a caller that
    /// knows an entity alternated through a long, regular stretch (say
    /// `k` beacon boundaries of an idle radio) adds each state's total
    /// residency in O(1) instead of replaying `2k` transitions, then
    /// relocates the clock once with [`StateClock::jump_to`]. The caller
    /// is responsible for the credited intervals summing to the span the
    /// jump skips — [`StateClock::durations_at`] keeps no record of
    /// *where* time was spent, only how much.
    ///
    /// # Panics
    ///
    /// Panics if `state >= N` or `per_boundary_secs` is negative.
    #[inline]
    pub fn accrue_batch(&mut self, state: usize, k: u64, per_boundary_secs: f64) {
        assert!(state < N, "state {state} out of range (N = {N})");
        assert!(
            per_boundary_secs >= 0.0,
            "negative boundary length {per_boundary_secs}"
        );
        self.durations[state] += k as f64 * per_boundary_secs;
    }

    /// Moves the clock to `now` in `state` **without** charging the
    /// elapsed interval to any state — the elapsed time must already
    /// have been credited via [`StateClock::accrue_batch`]. The
    /// batched-settling counterpart of [`StateClock::transition`].
    ///
    /// # Panics
    ///
    /// Panics if `state >= N` or `now` precedes the previous transition.
    #[inline]
    pub fn jump_to(&mut self, now: f64, state: usize) {
        assert!(state < N, "state {state} out of range (N = {N})");
        assert!(
            now >= self.since,
            "time went backwards: {now} < {}",
            self.since
        );
        self.state = state;
        self.since = now;
    }

    /// Returns per-state durations as of `now` without mutating the clock.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous transition.
    #[must_use]
    pub fn durations_at(&self, now: f64) -> [f64; N] {
        assert!(
            now >= self.since,
            "time went backwards: {now} < {}",
            self.since
        );
        let mut d = self.durations;
        d[self.state] += now - self.since;
        d
    }

    /// Total energy in joules as of `now`, given per-state power in watts.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous transition.
    #[must_use]
    pub fn energy_at(&self, now: f64, power_watts: [f64; N]) -> f64 {
        self.durations_at(now)
            .iter()
            .zip(power_watts.iter())
            .map(|(d, p)| d * p)
            .sum()
    }
}

impl<const N: usize> Default for StateClock<N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_durations() {
        let mut c = StateClock::<3>::new();
        c.transition(2.0, 1);
        c.transition(5.0, 2);
        c.transition(6.0, 0);
        let d = c.durations_at(10.0);
        assert_eq!(d, [2.0 + 4.0, 3.0, 1.0]);
    }

    #[test]
    fn durations_sum_to_elapsed_time() {
        let mut c = StateClock::<2>::new();
        c.transition(1.5, 1);
        c.transition(7.25, 0);
        let d = c.durations_at(9.0);
        assert!((d.iter().sum::<f64>() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn self_transition_extends_state() {
        let mut c = StateClock::<2>::new();
        c.transition(3.0, 0);
        c.transition(5.0, 1);
        let d = c.durations_at(5.0);
        assert_eq!(d, [5.0, 0.0]);
    }

    #[test]
    fn energy_weighted_by_power() {
        // Mica2-like: idle 30 mW, sleep 3 uW.
        let mut c = StateClock::<2>::new();
        c.transition(1.0, 1); // 1 s idle
        let e = c.energy_at(10.0, [0.030, 0.000_003]); // then 9 s sleep
        let expected = 1.0 * 0.030 + 9.0 * 0.000_003;
        assert!((e - expected).abs() < 1e-12);
    }

    #[test]
    fn batched_accrual_matches_dense_transitions() {
        // Dense: an entity alternating 1 s in state 0 / 9 s in state 1
        // for 50 periods, transition by transition. Batched: the same
        // stretch as two accruals and one jump.
        let mut dense = StateClock::<2>::new();
        for f in 0..50 {
            let start = f64::from(f) * 10.0;
            dense.transition(start, 0);
            dense.transition(start + 1.0, 1);
        }
        let mut batched = StateClock::<2>::new();
        batched.accrue_batch(0, 50, 1.0);
        batched.accrue_batch(1, 49, 9.0);
        batched.jump_to(491.0, 1);
        let at = 500.0;
        let d_dense = dense.durations_at(at);
        let d_batched = batched.durations_at(at);
        for (a, b) in d_dense.iter().zip(&d_batched) {
            assert!((a - b).abs() < 1e-9, "dense {d_dense:?} vs {d_batched:?}");
        }
    }

    #[test]
    fn jump_does_not_charge_the_gap() {
        let mut c = StateClock::<2>::new();
        c.transition(2.0, 1);
        // Jump over [2, 10] without charging it anywhere.
        c.jump_to(10.0, 0);
        let d = c.durations_at(12.0);
        assert_eq!(d, [2.0 + 2.0, 0.0]);
        // Sum is NOT elapsed time: the skipped gap was never credited.
        assert!((d.iter().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn accrue_batch_zero_boundaries_is_noop() {
        let mut c = StateClock::<3>::new();
        c.accrue_batch(2, 0, 123.0);
        c.accrue_batch(1, 5, 0.0);
        assert_eq!(c.durations_at(0.0), [0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn accrue_batch_bad_state_panics() {
        let mut c = StateClock::<2>::new();
        c.accrue_batch(2, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "negative boundary length")]
    fn accrue_batch_negative_secs_panics() {
        let mut c = StateClock::<2>::new();
        c.accrue_batch(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn jump_backwards_panics() {
        let mut c = StateClock::<2>::new();
        c.transition(5.0, 1);
        c.jump_to(4.0, 0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn backwards_time_panics() {
        let mut c = StateClock::<2>::new();
        c.transition(5.0, 1);
        c.transition(4.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_state_panics() {
        let mut c = StateClock::<2>::new();
        c.transition(1.0, 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut c = StateClock::<3>::new();
        c.transition(1.0, 2);
        let json = serde_json::to_string(&c).unwrap();
        let back: StateClock<3> = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
