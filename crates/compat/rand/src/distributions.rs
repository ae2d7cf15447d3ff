//! The distribution surface of the `rand`/`rand_distr` split that this
//! workspace uses: the [`Distribution`] trait and [`Geometric`].
//!
//! A geometric variate is the batched form of a run of identical
//! Bernoulli coins — `Geometric(p)` is the number of failures before the
//! first success — so a simulator that would otherwise flip one
//! `chance(p)` per time step can draw the index of the next success
//! directly and skip the run in O(1). That is exactly how the net
//! simulator's boundary engine settles idle nodes (see
//! `pbbf_core::PbbfEngine::sleep_run`).

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
}
