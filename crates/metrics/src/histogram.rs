//! Fixed-width binned histograms with quantile estimation.

use serde::{Deserialize, Serialize};

/// A histogram over a fixed range with uniform bin widths.
///
/// Values below the range are clamped into the first bin, values above into
/// the last bin; the clamped counts are tracked separately so experiments
/// can detect mis-sized ranges. Used by the simulators for latency and
/// hop-count distributions.
///
/// # Examples
///
/// ```
/// use pbbf_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.6, 9.9] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.iter().nth(1), Some((1.0, 2.0, 2)));
/// assert!((h.quantile(0.5) - 1.5).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, if the range is empty, or if either bound is
    /// non-finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "empty histogram range [{lo}, {hi})");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "non-finite observation: {value}");
        self.count += 1;
        let idx = if value < self.lo {
            self.underflow += 1;
            0
        } else if value >= self.hi {
            self.overflow += 1;
            self.bins.len() - 1
        } else {
            let frac = (value - self.lo) / (self.hi - self.lo);
            ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1)
        };
        self.bins[idx] += 1;
    }

    /// Total number of observations (including clamped ones).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations recorded below the range (clamped into bin 0).
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations recorded at or above the upper bound (clamped into the
    /// last bin).
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Inclusive lower bound of bin `idx`.
    #[must_use]
    pub fn bin_lo(&self, idx: usize) -> f64 {
        self.lo + (self.hi - self.lo) * idx as f64 / self.bins.len() as f64
    }

    /// Exclusive upper bound of bin `idx`.
    #[must_use]
    pub fn bin_hi(&self, idx: usize) -> f64 {
        self.bin_lo(idx + 1)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the containing bin. Returns the range midpoint when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return (self.lo + self.hi) / 2.0;
        }
        let target = q * self.count as f64;
        let mut cum = 0.0;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let within = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return self.bin_lo(i) + within * (self.bin_hi(i) - self.bin_lo(i));
            }
            cum = next;
        }
        self.hi
    }

    /// Iterates over `(bin_lo, bin_hi, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(|i| (self.bin_lo(i), self.bin_hi(i), self.bins[i]))
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms do not have identical bounds and bin
    /// counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lower bounds differ");
        assert_eq!(self.hi, other.hi, "histogram upper bounds differ");
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram bin counts differ"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(h: &Histogram) -> Vec<u64> {
        h.iter().map(|(_, _, c)| c).collect()
    }

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.999);
        h.record(1.0);
        h.record(9.999);
        assert_eq!(counts(&h), [2, 1, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(2.0);
        h.record(1.0); // at the exclusive upper bound -> overflow
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(counts(&h), [1, 0, 0, 2]);
    }

    #[test]
    fn bin_bounds_partition_range() {
        let h = Histogram::new(2.0, 12.0, 5);
        assert_eq!(h.bin_lo(0), 2.0);
        assert_eq!(h.bin_hi(4), 12.0);
        for i in 0..4 {
            assert_eq!(h.bin_hi(i), h.bin_lo(i + 1));
        }
    }

    #[test]
    fn median_of_uniform_data() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5);
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn quantile_empty_returns_midpoint() {
        let h = Histogram::new(0.0, 10.0, 10);
        assert_eq!(h.quantile(0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_panics() {
        let h = Histogram::new(0.0, 1.0, 1);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.record(1.0);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(counts(&a), [0, 2, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn merge_mismatched_geometry_panics() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 10.0, 5);
        a.merge(&b);
    }

    #[test]
    fn iter_covers_all_bins() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.record(0.5);
        h.record(3.5);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], (0.0, 1.0, 1));
        assert_eq!(v[3], (3.0, 4.0, 1));
    }
}
