//! Seeded, splittable simulation randomness.
//!
//! Reproducibility demands that one `u64` seed fully determines a run, and
//! that adding a random draw in one protocol component does not perturb the
//! streams seen by others. [`SimRng`] therefore implements xoshiro256**
//! (public-domain, by Blackman & Vigna) directly — independent of any
//! external crate's generator choices — and derives *substreams* by mixing
//! a stream identifier into the seed with splitmix64. Every simulated node
//! gets `rng.substream(node_id)`.

use rand::distributions::{Binomial, Distribution};
use rand::RngCore;

/// A deterministic xoshiro256** generator with splitmix64 seeding.
///
/// Implements [`rand::RngCore`], so all `rand` distribution adapters work,
/// and adds the handful of draws the simulators actually use
/// ([`chance`](SimRng::chance), [`uniform01`](SimRng::uniform01),
/// [`below`](SimRng::below), [`binomial`](SimRng::binomial)).
///
/// # Examples
///
/// ```
/// use pbbf_des::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Substreams are independent of draw order on the parent.
/// let c = SimRng::new(7).substream(3);
/// let mut parent = SimRng::new(7);
/// let _ = parent.next_u64();
/// let d = parent.substream(3);
/// assert_eq!(c, d);
/// use rand::RngCore;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

/// SplitMix64's increment, the odd part of the golden ratio (Steele, Lea
/// and Flood, "Fast splittable pseudorandom number generators", OOPSLA
/// 2014).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function (Stafford's Mix13 variant): a bijective
/// finalizer of 64 bits. SplitMix64's `k`-th output from state `s` is
/// `mix64(s + k·GOLDEN_GAMMA)`, counting from `k = 1`.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

impl SimRng {
    /// Creates a generator from a seed via splitmix64 expansion.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s, seed }
    }

    /// Derives an independent substream for `stream_id`.
    ///
    /// The substream depends only on the *original seed* and `stream_id`,
    /// not on how many values have been drawn from `self`, so components
    /// can be seeded in any order without perturbing each other.
    #[must_use]
    pub fn substream(&self, stream_id: u64) -> SimRng {
        // Mix the id into the seed through two splitmix64 rounds so that
        // consecutive ids land far apart in seed space.
        let mut sm = self.seed ^ 0xA076_1D64_78BD_642F;
        let a = splitmix64(&mut sm);
        let mut sm2 = a ^ stream_id.wrapping_mul(GOLDEN_GAMMA);
        SimRng::new(splitmix64(&mut sm2))
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// `p <= 0` always yields `false`; `p >= 1` always yields `true` — the
    /// PBBF edge cases `p = 0`/`p = 1` (pure PSM / always-forward) must be
    /// exact, not "with probability 1 − 2⁻⁵³".
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform01() < p
    }

    /// Binomial draw: the successes in `n` trials of probability `p`,
    /// from one uniform by [`Binomial`]'s modal search, in about
    /// `1.6·√(n·p·(1 − p))` steps however large `n·p` is.
    ///
    /// `p <= 0` always yields 0 and `p >= 1` always yields `n`, with no
    /// draw, as in [`chance`](SimRng::chance).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        Binomial::new(n, p.clamp(0.0, 1.0))
            .expect("a probability clamped to [0, 1] is valid unless NaN")
            .sample(self)
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `0..n` (Lemire's unbiased method).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Rejection-free path for powers of two.
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256** step.
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_order_independent() {
        let parent = SimRng::new(99);
        let s1 = parent.substream(5);
        let mut drained = SimRng::new(99);
        for _ in 0..1000 {
            let _ = drained.next_u64();
        }
        let s2 = drained.substream(5);
        assert_eq!(s1, s2);
    }

    #[test]
    fn substreams_differ_from_each_other_and_parent() {
        let parent = SimRng::new(7);
        let mut streams: Vec<SimRng> = (0..50).map(|i| parent.substream(i)).collect();
        streams.push(parent);
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert_ne!(a.s, b.s, "state collision across substreams");
            }
        }
    }

    #[test]
    fn chance_edge_cases_exact() {
        let mut rng = SimRng::new(0);
        for _ in 0..1000 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
            assert!(!rng.chance(-0.5));
            assert!(rng.chance(1.5));
        }
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut rng = SimRng::new(42);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn binomial_edge_cases_exact_and_drawless() {
        let mut rng = SimRng::new(0);
        let untouched = rng.clone();
        for n in [0, 1, 56_250] {
            assert_eq!(rng.binomial(n, 0.0), 0);
            assert_eq!(rng.binomial(n, -0.5), 0);
            assert_eq!(rng.binomial(n, 1.0), n);
            assert_eq!(rng.binomial(n, 1.5), n);
        }
        assert_eq!(rng.binomial(0, 0.5), 0);
        assert_eq!(rng, untouched, "fixed draws consume nothing");
        let k = rng.binomial(56_250, 0.5);
        assert_ne!(rng, untouched);
        // 4 sigma of n·p = 28,125 is 474.
        assert!(k.abs_diff(28_125) < 474, "{k}");
    }

    #[test]
    fn uniform01_in_range_and_well_spread() {
        let mut rng = SimRng::new(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_range() {
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(5) as usize] += 1;
        }
        for c in counts {
            let freq = c as f64 / n as f64;
            assert!((freq - 0.2).abs() < 0.01, "freq = {freq}");
        }
    }

    #[test]
    fn below_power_of_two() {
        let mut rng = SimRng::new(13);
        for _ in 0..10_000 {
            assert!(rng.below(8) < 8);
        }
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = SimRng::new(31);
        let mut b = SimRng::new(31);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }
}
