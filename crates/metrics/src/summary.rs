//! Streaming scalar summaries (Welford's online algorithm).

use serde::{Deserialize, Serialize};

/// A streaming summary of a scalar sample: count, mean, variance, extrema.
///
/// Uses Welford's online algorithm so that values can be recorded one at a
/// time with O(1) memory and good numerical stability. Two summaries can be
/// [merged](Summary::merge) (Chan et al. parallel variant), which the
/// experiment drivers use to combine per-run statistics.
///
/// # Examples
///
/// ```
/// use pbbf_metrics::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(9.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the current mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one observation.
    ///
    /// Non-finite values are recorded into the count and extrema but will
    /// poison the mean; simulators in this workspace only produce finite
    /// observations, and debug builds assert this.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "non-finite observation: {value}");
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another summary into this one.
    ///
    /// The result is identical (up to floating-point rounding) to having
    /// recorded all observations of both summaries into one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty (a convenient neutral value for
    /// figure series where an empty cell plots as zero, matching the paper's
    /// treatment of "no nodes received the update").
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n − 1` denominator); `0.0` for fewer than
    /// two observations.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); `0.0` when empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_stddev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.record(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn known_mean_and_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!(close(s.mean(), 5.0));
        assert!(close(s.population_variance(), 4.0));
        assert!(close(s.sample_variance(), 32.0 / 7.0));
        assert!(close(s.sum(), 40.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [1.0, 2.5, -3.0, 7.0, 0.25];
        let ys = [10.0, -2.0, 4.5];
        let mut merged: Summary = xs.into_iter().collect();
        let other: Summary = ys.into_iter().collect();
        merged.merge(&other);
        let all: Summary = xs.into_iter().chain(ys).collect();
        assert_eq!(merged.count(), all.count());
        assert!(close(merged.mean(), all.mean()));
        assert!(close(merged.sample_variance(), all.sample_variance()));
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert!(close(s.mean(), 2.0));
    }

    #[test]
    fn serde_round_trip() {
        let s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let json = serde_json::to_string(&s).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
