//! The distribution surface of the `rand`/`rand_distr` split that this
//! workspace uses: the [`Distribution`] trait, [`Geometric`] and
//! [`Binomial`].
//!
//! Both are batched forms of identical Bernoulli coins. A geometric
//! variate — `Geometric(p)` is the number of failures before the first
//! success — lets a simulator that would otherwise flip one `chance(p)`
//! per time step draw the index of the next success directly and skip
//! the run in O(1). That is exactly how the net simulator's boundary
//! engine settles idle nodes (see `pbbf_core::PbbfEngine::sleep_run`).
//! A binomial variate counts the successes of `n` coins in one draw,
//! which is how the ideal simulator bills an update's duty cycle.

use crate::RngCore;

/// Types that can be sampled from a distribution (mirrors
/// `rand::distributions::Distribution`).
pub trait Distribution<T> {
    /// Draws one value using `rng` as the entropy source.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)` using the
/// top 53 bits (the same mapping as `SimRng::uniform01`, so a
/// distribution sampled here consumes entropy identically to the
/// simulators' own uniform draws).
#[inline]
#[must_use]
pub fn unit_f64_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The error returned by [`Geometric::new`] for a probability outside
/// `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidProbability;

impl std::fmt::Display for InvalidProbability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("geometric success probability must lie in (0, 1]")
    }
}

impl std::error::Error for InvalidProbability {}

/// The geometric distribution on `{0, 1, 2, ...}`: the number of
/// *failures* before the first success of a Bernoulli(`p`) coin,
/// `P(X = k) = (1 − p)^k · p`.
///
/// Every sample consumes exactly one `next_u64` from the generator,
/// regardless of the value drawn — a run of a thousand failures costs
/// the same entropy as none, which is the point of sampling runs instead
/// of coins.
///
/// Two equivalent samplers are chosen at construction time (so the
/// choice never depends on the sampled value):
///
/// * `p ≤ 1/2`: **inversion** — `⌊ln(1 − u) / ln(1 − p)⌋` with a cached
///   `ln(1 − p)`, one `ln` per draw, any run length in O(1);
/// * `p > 1/2`: an **exact inverse-CDF walk** — successive tail
///   multiplications until the CDF passes `u`. Expected iterations are
///   `1/p < 2` and the walk involves no logarithms at all, exact for the
///   short runs where the inversion's `ln`s would dominate.
///
/// # Examples
///
/// ```
/// use pbbf_rand::distributions::{Distribution, Geometric};
///
/// let g = Geometric::new(1.0).unwrap();
/// // p = 1 succeeds immediately: zero failures, always.
/// # struct Zero;
/// # impl pbbf_rand::RngCore for Zero {
/// #     fn next_u32(&mut self) -> u32 { 0 }
/// #     fn next_u64(&mut self) -> u64 { 0 }
/// #     fn fill_bytes(&mut self, dest: &mut [u8]) { dest.fill(0) }
/// # }
/// assert_eq!(g.sample(&mut Zero), 0);
/// assert!(Geometric::new(0.0).is_err());
/// assert!(Geometric::new(1.5).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// Cached `ln(1 − p)` for the inversion path; `0.0` (unused) on the
    /// walk path, where `1 − p` itself drives the tail product.
    ln_one_minus_p: f64,
}

impl Geometric {
    /// The success-probability threshold above which the inverse-CDF
    /// walk replaces inversion (expected walk length `1/p < 2`).
    const WALK_THRESHOLD: f64 = 0.5;

    /// Creates the distribution for success probability `p ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbability`] when `p` is not a finite value in
    /// `(0, 1]` (a zero success probability has no finite runs to
    /// sample).
    pub fn new(p: f64) -> Result<Self, InvalidProbability> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(InvalidProbability);
        }
        let ln_one_minus_p = if p <= Self::WALK_THRESHOLD {
            let direct = (1.0 - p).ln();
            if direct == 0.0 {
                // p below one f64 ulp of 1.0: `1.0 - p` rounds to exactly
                // 1.0 and the cached log underflows to zero, which would
                // turn every sample into a 0/0 or x/0. `ln_1p` keeps the
                // full precision of −p there. (Draw streams for all
                // larger p are untouched: this branch only replaces the
                // degenerate zero.)
                (-p).ln_1p()
            } else {
                direct
            }
        } else {
            0.0
        };
        Ok(Self { p, ln_one_minus_p })
    }

    /// The success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distribution<u64> for Geometric {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = unit_f64_from_bits(rng.next_u64());
        if self.p <= Self::WALK_THRESHOLD {
            // Inversion: smallest k with CDF(k) > u. `1 − u` is in
            // (0, 1], so the ln is finite; the f64→u64 cast saturates
            // for the astronomically long runs of tiny p.
            ((1.0 - u).ln() / self.ln_one_minus_p) as u64
        } else {
            // Inverse-CDF walk: advance the tail (1 − p)^(k + 1) until
            // the CDF 1 − tail exceeds u. For p = 1 the tail is 0 and
            // the answer is 0 immediately; u < 1 bounds the walk.
            let q = 1.0 - self.p;
            let mut k = 0u64;
            let mut tail = q;
            while 1.0 - tail <= u {
                tail *= q;
                k += 1;
            }
            k
        }
    }
}

/// The error returned by [`Binomial::new`] (mirrors `rand_distr`'s
/// `binomial::Error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinomialError {
    /// `p < 0`, or `p` is NaN.
    ProbabilityTooSmall,
    /// `p > 1`.
    ProbabilityTooLarge,
}

impl std::fmt::Display for BinomialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::ProbabilityTooSmall => "binomial probability is below 0 or NaN",
            Self::ProbabilityTooLarge => "binomial probability is above 1",
        })
    }
}

impl std::error::Error for BinomialError {}

/// The binomial distribution: the number of successes in `n` independent
/// Bernoulli(`p`) trials, `P(X = k) = C(n, k) · p^k · (1 − p)^(n − k)`.
///
/// Sampling is Kemp's modal search ("A modal method for generating
/// binomial variables", Communications in Statistics 1986): one uniform
/// `u`, then the pmf is subtracted from `u` outward from the mode, one
/// step down and one step up in turn, until `u` falls inside a term. The
/// draw is exact up to f64 rounding of the pmf, and it takes about
/// `1.6·σ` steps, `σ = √(n·p·(1 − p))`, however large `n·p` is: some 100
/// steps at `n = 56,250`, `p = 1/2`. The mode's probability comes from
/// Loader's saddle-point form ("Fast and accurate computation of binomial
/// probabilities", 2000), which has no cancellation between log
/// factorials, and each step multiplies by the pmf's ratio. In the
/// vanishing case that rounding leaves `u` past the whole computed mass,
/// the search draws again.
///
/// `n = 0`, `p = 0` and `p = 1` fix the value at 0, 0 and `n`, and
/// sampling them draws nothing.
///
/// # Examples
///
/// ```
/// use pbbf_rand::distributions::{Binomial, Distribution};
///
/// # struct Zero;
/// # impl pbbf_rand::RngCore for Zero {
/// #     fn next_u32(&mut self) -> u32 { 0 }
/// #     fn next_u64(&mut self) -> u64 { 0 }
/// #     fn fill_bytes(&mut self, dest: &mut [u8]) { dest.fill(0) }
/// # }
/// // Every one of ten certain trials succeeds.
/// assert_eq!(Binomial::new(10, 1.0).unwrap().sample(&mut Zero), 10);
/// assert!(Binomial::new(10, 1.5).is_err());
/// assert!(Binomial::new(10, f64::NAN).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
    /// The mode, `⌊(n + 1)·p⌋` capped at `n`.
    mode: u64,
    /// `P(X = mode)`.
    pmf_mode: f64,
    /// `p / (1 − p)`, the constant factor of the pmf's step ratios.
    odds: f64,
}

impl Binomial {
    /// Creates the distribution of successes in `n` trials of success
    /// probability `p ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// [`BinomialError::ProbabilityTooSmall`] when `p < 0` or `p` is NaN,
    /// [`BinomialError::ProbabilityTooLarge`] when `p > 1`.
    pub fn new(n: u64, p: f64) -> Result<Self, BinomialError> {
        if p.is_nan() || p < 0.0 {
            return Err(BinomialError::ProbabilityTooSmall);
        }
        if p > 1.0 {
            return Err(BinomialError::ProbabilityTooLarge);
        }
        let (mode, pmf_mode, odds) = if n == 0 || p == 0.0 || p == 1.0 {
            (0, 1.0, 1.0) // fixed: `sample` draws nothing
        } else {
            let mode = (((n as f64) + 1.0) * p).floor().min(n as f64) as u64;
            (mode, pmf(n, mode, p), p / (1.0 - p))
        };
        Ok(Self {
            n,
            p,
            mode,
            pmf_mode,
            odds,
        })
    }
}

impl Distribution<u64> for Binomial {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 0 || self.p == 0.0 {
            return 0;
        }
        if self.p == 1.0 {
            return self.n;
        }
        let n = self.n;
        loop {
            let mut u = unit_f64_from_bits(rng.next_u64());
            if u < self.pmf_mode {
                return self.mode;
            }
            u -= self.pmf_mode;
            let (mut lo, mut hi) = (self.mode, self.mode);
            let (mut f_lo, mut f_hi) = (self.pmf_mode, self.pmf_mode);
            // The pmf falls away from the mode, so a side whose term has
            // underflowed to 0 holds nothing more.
            while (lo > 0 && f_lo > 0.0) || (hi < n && f_hi > 0.0) {
                if lo > 0 && f_lo > 0.0 {
                    // P(lo − 1) / P(lo) = lo / ((n − lo + 1)·odds).
                    f_lo *= lo as f64 / ((n - lo + 1) as f64 * self.odds);
                    lo -= 1;
                    if u < f_lo {
                        return lo;
                    }
                    u -= f_lo;
                }
                if hi < n && f_hi > 0.0 {
                    // P(hi + 1) / P(hi) = (n − hi)·odds / (hi + 1).
                    f_hi *= (n - hi) as f64 * self.odds / (hi + 1) as f64;
                    hi += 1;
                    if u < f_hi {
                        return hi;
                    }
                    u -= f_hi;
                }
            }
        }
    }
}

/// `P(X = k)` for `X ~ Binomial(n, p)`, `0 < p < 1`, `k ≤ n`, after
/// Loader (2000): the Stirling-series errors and the deviance terms
/// [`bd0`] carry the value, so no two large log factorials cancel.
fn pmf(n: u64, k: u64, p: f64) -> f64 {
    let q = 1.0 - p;
    let nf = n as f64;
    if k == 0 {
        return (nf * (-p).ln_1p()).exp();
    }
    if k == n {
        return (nf * p.ln()).exp();
    }
    let kf = k as f64;
    let lc =
        stirlerr(nf) - stirlerr(kf) - stirlerr(nf - kf) - bd0(kf, nf * p) - bd0(nf - kf, nf * q);
    // ln(2π·k·(n − k)/n)
    let lf = (2.0 * std::f64::consts::PI).ln() + kf.ln() + (-kf / nf).ln_1p();
    (lc - 0.5 * lf).exp()
}

/// `ln k! − ((k + ½)·ln k − k + ½·ln 2π)`, the error of Stirling's
/// formula at a positive integer `k`: tabulated up to 15, and from the
/// series `1/12k − 1/360k³ + 1/1260k⁵ − 1/1680k⁷ + 1/1188k⁹` above, whose
/// first omitted term is below 2e-16 there.
fn stirlerr(k: f64) -> f64 {
    /// `stirlerr(k)` for `k = 0..=15`, entry 0 unused.
    const TABLE: [f64; 16] = [
        0.0,
        0.08106146679532726,
        0.0413406959554093,
        0.02767792568499834,
        0.020790672103765093,
        0.016644691189821193,
        0.013876128823070748,
        0.01189670994589177,
        0.010411265261972096,
        0.009255462182712733,
        0.00833056343336287,
        0.007573675487951841,
        0.00694284010720953,
        0.006408994188004207,
        0.0059513701127588475,
        0.005554733551962801,
    ];
    if k < 16.0 {
        return TABLE[k as usize];
    }
    let kk = k * k;
    (1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / 1188.0 / kk) / kk) / kk) / kk)
        / k
}

/// The deviance term `x·ln(x/m) + m − x`, by its series in
/// `v = (x − m)/(x + m)` where `x` is near `m` and the closed form
/// would cancel.
fn bd0(x: f64, m: f64) -> f64 {
    if (x - m).abs() < 0.1 * (x + m) {
        let mut v = (x - m) / (x + m);
        let mut s = (x - m) * v;
        let mut term = 2.0 * x * v;
        v *= v;
        for j in 1..1000 {
            term *= v;
            let next = s + term / f64::from(2 * j + 1);
            if next == s {
                break;
            }
            s = next;
        }
        s
    } else {
        x * (x / m).ln() + m - x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local splitmix64 (the compat crates cannot depend on
    /// `pbbf-des` without a cycle).
    struct Splitmix(u64);

    impl RngCore for Splitmix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    #[test]
    fn rejects_bad_probabilities() {
        for p in [0.0, -0.2, 1.0001, f64::NAN, f64::INFINITY] {
            assert_eq!(Geometric::new(p).unwrap_err(), InvalidProbability);
        }
        for p in [1e-12, 0.05, 0.5, 0.9999, 1.0] {
            assert!(Geometric::new(p).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn pinned_draws_inversion_path() {
        // Golden draws: any change to the bit→f64 mapping, the inversion
        // formula, or the path-selection threshold shows up here.
        let g = Geometric::new(0.05).unwrap();
        let mut rng = Splitmix(42);
        let draws: Vec<u64> = (0..8).map(|_| g.sample(&mut rng)).collect();
        assert_eq!(draws, vec![26, 3, 6, 8, 0, 39, 4, 31]);

        let g = Geometric::new(0.5).unwrap();
        let mut rng = Splitmix(7);
        let draws: Vec<u64> = (0..8).map(|_| g.sample(&mut rng)).collect();
        assert_eq!(draws, vec![0, 0, 3, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn pinned_draws_walk_path() {
        let g = Geometric::new(0.75).unwrap();
        let mut rng = Splitmix(42);
        let draws: Vec<u64> = (0..8).map(|_| g.sample(&mut rng)).collect();
        assert_eq!(draws, vec![0, 0, 0, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn one_draw_per_sample_on_both_paths() {
        // Identical generators must stay in lockstep however long the
        // sampled runs are — one u64 per sample is the whole point.
        for p in [0.01, 0.3, 0.5, 0.8, 1.0] {
            let g = Geometric::new(p).unwrap();
            let mut a = Splitmix(9);
            let mut b = Splitmix(9);
            for _ in 0..100 {
                let _ = g.sample(&mut a);
                let _ = b.next_u64();
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p = {p}");
        }
    }

    #[test]
    fn p_one_is_always_zero() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = Splitmix(3);
        for _ in 0..1000 {
            assert_eq!(g.sample(&mut rng), 0);
        }
    }

    #[test]
    fn near_zero_p_keeps_ln_precision() {
        // p = 1e-12 still has ~4 significant digits in `1 - p`, so the
        // cached ln must be finite, negative, and within rounding of the
        // exact −p − p²/2 − …; a run-length sample then lands around
        // 1/p, not at 0 or u64::MAX.
        let g = Geometric::new(1e-12).unwrap();
        assert!(g.ln_one_minus_p < 0.0 && g.ln_one_minus_p.is_finite());
        assert!(
            (g.ln_one_minus_p / -1e-12 - 1.0).abs() < 1e-3,
            "ln(1 - p) = {} drifted from -p",
            g.ln_one_minus_p
        );
        let mut rng = Splitmix(17);
        for _ in 0..64 {
            let k = g.sample(&mut rng);
            assert!(
                (10_000_000..u64::MAX).contains(&k),
                "run {k} is not geometric-of-tiny-p sized"
            );
        }
    }

    #[test]
    fn subnormal_p_saturates_instead_of_dividing_by_zero() {
        // Below one ulp of 1.0, `1.0 - p` rounds to 1.0 exactly; without
        // the ln_1p fallback the cached log would be 0.0 and every
        // sample would be 0/0 (NaN → 0) or x/0. With it, runs saturate
        // at astronomically large values, as the distribution demands.
        for p in [1e-17, 1e-100, 1e-300, f64::MIN_POSITIVE] {
            let g = Geometric::new(p).unwrap();
            assert!(
                g.ln_one_minus_p < 0.0 && g.ln_one_minus_p.is_finite(),
                "p = {p}: cached ln {} must stay finite and negative",
                g.ln_one_minus_p
            );
            let mut rng = Splitmix(23);
            for _ in 0..64 {
                assert!(g.sample(&mut rng) > 1u64 << 50, "p = {p}");
            }
        }
    }

    #[test]
    fn mean_matches_closed_form() {
        // E[X] = (1 − p) / p on both sampler paths.
        for (p, seed) in [(0.05, 1u64), (0.3, 2), (0.5, 3), (0.7, 4), (0.9, 5)] {
            let g = Geometric::new(p).unwrap();
            let mut rng = Splitmix(seed);
            let n = 200_000;
            let mean = (0..n).map(|_| g.sample(&mut rng) as f64).sum::<f64>() / f64::from(n);
            let expected = (1.0 - p) / p;
            let tol = 4.0 * ((1.0 - p).sqrt() / p) / f64::from(n).sqrt();
            assert!(
                (mean - expected).abs() < tol.max(1e-3),
                "p = {p}: mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn frequencies_match_pmf() {
        // Chi-square-style check of the first few cells on both paths.
        for (p, seed) in [(0.25, 11u64), (0.8, 13)] {
            let g = Geometric::new(p).unwrap();
            let mut rng = Splitmix(seed);
            let n = 100_000usize;
            let mut counts = [0u32; 6];
            for _ in 0..n {
                let k = g.sample(&mut rng) as usize;
                if k < counts.len() {
                    counts[k] += 1;
                }
            }
            for (k, &c) in counts.iter().enumerate() {
                let expect = (1.0 - p).powi(k as i32) * p;
                let freq = f64::from(c) / n as f64;
                assert!(
                    (freq - expect).abs() < 0.01,
                    "p = {p}, k = {k}: freq {freq} vs pmf {expect}"
                );
            }
        }
    }

    #[test]
    fn unit_f64_mapping() {
        assert_eq!(unit_f64_from_bits(0), 0.0);
        let max = unit_f64_from_bits(u64::MAX);
        assert!((0.0..1.0).contains(&max));
        assert!(max > 0.999_999_999);
        // Only the top 53 bits matter (matches SimRng::uniform01).
        assert_eq!(unit_f64_from_bits(0x7FF), 0.0);
    }

    /// A generator that fails the test if anything draws from it.
    struct NoDraws;

    impl RngCore for NoDraws {
        fn next_u32(&mut self) -> u32 {
            panic!("drew from a fixed distribution")
        }
        fn next_u64(&mut self) -> u64 {
            panic!("drew from a fixed distribution")
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            panic!("drew from a fixed distribution")
        }
    }

    /// The pmf of Binomial(`n`, `p`) by a log-space recurrence up from
    /// `k = 0`, independent of the sampler's saddle point and ratio walk.
    fn exact_pmf(n: u64, p: f64) -> Vec<f64> {
        let log_odds = p.ln() - (-p).ln_1p();
        let mut ln_pmf = n as f64 * (-p).ln_1p();
        (0..=n)
            .map(|k| {
                let pmf = ln_pmf.exp();
                ln_pmf += ((n - k) as f64 / (k + 1) as f64).ln() + log_odds;
                pmf
            })
            .collect()
    }

    #[test]
    fn binomial_rejects_probabilities_outside_the_unit_interval() {
        for p in [-0.1, -1e-300, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(
                Binomial::new(10, p).unwrap_err(),
                BinomialError::ProbabilityTooSmall,
                "p = {p}"
            );
        }
        for p in [1.0 + f64::EPSILON, 2.0, f64::INFINITY] {
            assert_eq!(
                Binomial::new(10, p).unwrap_err(),
                BinomialError::ProbabilityTooLarge,
                "p = {p}"
            );
        }
        for p in [0.0, -0.0, 1e-300, 0.5, 1.0 - f64::EPSILON, 1.0] {
            assert!(Binomial::new(10, p).is_ok(), "p = {p}");
        }
    }

    #[test]
    fn binomial_endpoints_draw_nothing() {
        for n in [0, 1, 56_250, u64::MAX] {
            assert_eq!(Binomial::new(n, 0.0).unwrap().sample(&mut NoDraws), 0);
            assert_eq!(Binomial::new(n, 1.0).unwrap().sample(&mut NoDraws), n);
        }
        for p in [1e-9, 0.5, 0.999] {
            assert_eq!(Binomial::new(0, p).unwrap().sample(&mut NoDraws), 0);
        }
    }

    #[test]
    fn binomial_mode_pmf_and_ratios_sum_to_one() {
        // The sampler's pmf is `pmf_mode` stepped by ratios both ways.
        // Its total mass is 1 up to rounding, which pins the saddle-point
        // `pmf_mode` to the same relative tolerance.
        for (n, p, tol) in [
            (1, 0.5, 1e-15),
            (10, 0.05, 1e-14),
            (90, 0.3, 1e-14),
            (56_250, 0.1, 1e-12),
            (56_250, 0.5, 1e-12),
            (56_250, 0.9, 1e-12),
            (10 << 20, 0.5, 1e-11),
            (1 << 40, 1e-9, 1e-11),
        ] {
            let b = Binomial::new(n, p).unwrap();
            let mut total = b.pmf_mode;
            let (mut f, mut k) = (b.pmf_mode, b.mode);
            while k > 0 && f > 0.0 {
                f *= k as f64 / ((n - k + 1) as f64 * b.odds);
                k -= 1;
                total += f;
            }
            let (mut f, mut k) = (b.pmf_mode, b.mode);
            while k < n && f > 0.0 {
                f *= (n - k) as f64 * b.odds / (k + 1) as f64;
                k += 1;
                total += f;
            }
            assert!((total - 1.0).abs() < tol, "n = {n}, p = {p}: mass {total}");
        }
    }

    #[test]
    fn binomial_frequencies_fit_the_pmf() {
        // Pearson's chi-square over cells of adjacent values pooled to an
        // expected count of at least 20, tails included, against
        // Wilson–Hilferty's upper 4-sigma point of chi-square (a
        // one-sided level of about 3e-5).
        let draws = 100_000u32;
        for (n, p, seed) in [
            (10, 0.05, 31u64),
            (90, 0.3, 32),
            (56_250, 0.1, 33),
            (56_250, 0.5, 34),
            (56_250, 0.9, 35),
        ] {
            let b = Binomial::new(n, p).unwrap();
            let mut counts = vec![0u32; n as usize + 1];
            let mut rng = Splitmix(seed);
            for _ in 0..draws {
                counts[b.sample(&mut rng) as usize] += 1;
            }
            let mut cells: Vec<(f64, u32)> = Vec::new();
            let (mut expected, mut seen) = (0.0, 0);
            for (pmf, count) in exact_pmf(n, p).into_iter().zip(counts) {
                expected += pmf * f64::from(draws);
                seen += count;
                if expected >= 20.0 {
                    cells.push((expected, seen));
                    (expected, seen) = (0.0, 0);
                }
            }
            let last = cells.last_mut().expect("at least one cell");
            last.0 += expected;
            last.1 += seen;
            let chi2: f64 = cells
                .iter()
                .map(|&(e, c)| (f64::from(c) - e).powi(2) / e)
                .sum();
            let df = (cells.len() - 1) as f64;
            let h = 2.0 / (9.0 * df);
            let limit = df * (1.0 - h + 4.0 * h.sqrt()).powi(3);
            assert!(
                chi2 < limit,
                "n = {n}, p = {p}: chi-square {chi2:.1} over {df} df, limit {limit:.1}"
            );
        }
    }

    #[test]
    fn binomial_mean_and_variance_at_ten_billed_frames_of_a_full_grid() {
        // n = 10 · 2^20: ten billed frames of the largest grid.
        let (n, p) = (10u64 << 20, 0.5);
        let b = Binomial::new(n, p).unwrap();
        let mut rng = Splitmix(36);
        let m = 20_000u32;
        let draws: Vec<f64> = (0..m).map(|_| b.sample(&mut rng) as f64).collect();
        let mf = f64::from(m);
        let mean = draws.iter().sum::<f64>() / mf;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (mf - 1.0);
        let (mu, sigma2) = (n as f64 * p, n as f64 * p * (1.0 - p));
        let z_mean = (mean - mu) / (sigma2 / mf).sqrt();
        // The sample variance's spread, binomial excess kurtosis included.
        let kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / sigma2;
        let z_var = (var - sigma2) / (sigma2 * (2.0 / (mf - 1.0) + kurtosis / mf).sqrt());
        assert!(z_mean.abs() < 4.0, "mean {mean} vs {mu}: z = {z_mean:.2}");
        assert!(
            z_var.abs() < 4.0,
            "variance {var} vs {sigma2}: z = {z_var:.2}"
        );
    }

    #[test]
    fn binomial_draws_one_uniform_per_sample() {
        // Rounding can only force a second uniform with probability near
        // 1e-13, so lockstep with a plain stream holds here.
        let b = Binomial::new(56_250, 0.5).unwrap();
        let (mut a, mut plain) = (Splitmix(37), Splitmix(37));
        for _ in 0..1_000 {
            let _ = b.sample(&mut a);
            let _ = plain.next_u64();
        }
        assert_eq!(a.next_u64(), plain.next_u64());
    }
}
