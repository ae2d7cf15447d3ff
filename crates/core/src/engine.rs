//! The Figure-3 decision engine.
//!
//! The paper specifies PBBF as two small changes to any sleep-scheduling
//! protocol (its Figure 3):
//!
//! ```text
//! Sleep-Decision-Handler()            — at the end of active time
//!     if DataToSend or DataToRecv: stay on
//!     else if Uniform-Rand(0,1) < q:  stay on
//!     else:                           sleep
//!
//! Receive-Broadcast(pkt)              — on broadcast reception
//!     if Uniform-Rand(0,1) < p: Send(pkt)           (immediate)
//!     else: Enqueue(nextPktQueue, pkt)              (announce next window)
//! ```
//!
//! [`PbbfEngine`] encapsulates exactly those coin flips so that both
//! simulators (and any real MAC integration) share one implementation.

use rand::distributions::{Distribution, Geometric};
use rand::RngCore;

use crate::PbbfParams;

/// The outcome of `Receive-Broadcast`: what to do with a freshly received
/// (non-duplicate) broadcast packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Rebroadcast now, without announcing; only awake neighbors receive.
    SendImmediately,
    /// Queue for the next active window, announce (e.g. via ATIM), and send
    /// with every neighbor guaranteed awake.
    EnqueueForNextActiveWindow,
}

/// PBBF's probabilistic decisions, bound to a parameter pair and an RNG.
///
/// Generic over [`rand::RngCore`] so simulators can hand every node its own
/// deterministic substream.
///
/// # Examples
///
/// ```
/// use pbbf_core::{ForwardDecision, PbbfEngine, PbbfParams};
/// use pbbf_des::SimRng;
///
/// // Pure PSM: never immediate, never stays awake.
/// let mut psm = PbbfEngine::new(PbbfParams::PSM, SimRng::new(1));
/// assert_eq!(psm.on_receive_broadcast(), ForwardDecision::EnqueueForNextActiveWindow);
/// assert!(!psm.stay_on_after_active(false, false));
///
/// // Pending traffic always wins over the q coin.
/// assert!(psm.stay_on_after_active(true, false));
/// assert!(psm.stay_on_after_active(false, true));
/// ```
#[derive(Debug, Clone)]
pub struct PbbfEngine<R> {
    params: PbbfParams,
    /// Cached run-length sampler for the `q` coin, used by
    /// [`PbbfEngine::sleep_run`]. `None` at the exact `q = 0` / `q = 1`
    /// endpoints, where the decision is deterministic and draw-free.
    sleep_geo: Option<Geometric>,
    rng: R,
}

fn sleep_sampler(params: PbbfParams) -> Option<Geometric> {
    let q = params.q();
    (q > 0.0 && q < 1.0).then(|| Geometric::new(q).expect("q in (0, 1) is a valid probability"))
}

impl<R: RngCore> PbbfEngine<R> {
    /// Creates an engine with the given parameters and RNG.
    #[must_use]
    pub fn new(params: PbbfParams, rng: R) -> Self {
        Self {
            params,
            sleep_geo: sleep_sampler(params),
            rng,
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> PbbfParams {
        self.params
    }

    /// Replaces the parameters (e.g. for the adaptive extensions sketched
    /// in the paper's future work).
    pub fn set_params(&mut self, params: PbbfParams) {
        self.params = params;
        self.sleep_geo = sleep_sampler(params);
    }

    /// `Receive-Broadcast` (Fig. 3): decide the fate of a fresh broadcast.
    pub fn on_receive_broadcast(&mut self) -> ForwardDecision {
        if self.chance(self.params.p()) {
            ForwardDecision::SendImmediately
        } else {
            ForwardDecision::EnqueueForNextActiveWindow
        }
    }

    /// `Sleep-Decision-Handler` (Fig. 3): called at the end of the active
    /// window; returns `true` if the node should stay on through the data
    /// phase.
    ///
    /// Pending traffic (`data_to_send` — e.g. a queued or announced packet;
    /// `data_to_recv` — e.g. an ATIM received in the window) forces the
    /// radio on deterministically; only otherwise is the `q` coin tossed.
    #[inline]
    pub fn stay_on_after_active(&mut self, data_to_send: bool, data_to_recv: bool) -> bool {
        if data_to_send || data_to_recv {
            return true;
        }
        self.chance(self.params.q())
    }

    /// Batched `Sleep-Decision-Handler` for an idle stretch: samples the
    /// length of the next run of "sleep" outcomes of the `q` coin,
    /// capped at `max` trials.
    ///
    /// Returns `r ≤ max`: trials `0..r` sleep, and — when `r < max` —
    /// trial `r` stays awake. A return of exactly `max` means every
    /// trial in the window slept; nothing is implied about trial `max`,
    /// which was never sampled, and because Bernoulli trials are
    /// memoryless the next call resumes the sequence with the correct
    /// conditional distribution.
    ///
    /// Distributionally identical to `max` independent
    /// [`PbbfEngine::stay_on_after_active`]`(false, false)` calls, but
    /// consumes one RNG draw per *run* instead of one per trial — the
    /// relaxed stream-layout contract of the geometric-skip boundary
    /// engine in `pbbf-net-sim`. The `q = 0` / `q = 1` endpoints stay
    /// exact and draw-free, mirroring `PbbfEngine::chance`'s edge
    /// cases (pure PSM must sleep with certainty, not almost surely).
    #[inline]
    pub fn sleep_run(&mut self, max: u32) -> u32 {
        match &self.sleep_geo {
            None => {
                if self.params.q() >= 1.0 {
                    0
                } else {
                    max
                }
            }
            Some(geo) => {
                if max == 0 {
                    return 0;
                }
                let run = geo.sample(&mut self.rng);
                u32::try_from(run).map_or(max, |r| r.min(max))
            }
        }
    }

    /// Bernoulli draw with exact 0/1 edge cases (PSM and always-on must be
    /// deterministic, not "almost surely").
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_des::SimRng;

    fn engine(p: f64, q: f64, seed: u64) -> PbbfEngine<SimRng> {
        PbbfEngine::new(PbbfParams::new(p, q).unwrap(), SimRng::new(seed))
    }

    #[test]
    fn psm_is_deterministic() {
        let mut e = engine(0.0, 0.0, 1);
        for _ in 0..1000 {
            assert_eq!(
                e.on_receive_broadcast(),
                ForwardDecision::EnqueueForNextActiveWindow
            );
            assert!(!e.stay_on_after_active(false, false));
        }
    }

    #[test]
    fn always_on_is_deterministic() {
        let mut e = engine(1.0, 1.0, 2);
        for _ in 0..1000 {
            assert_eq!(e.on_receive_broadcast(), ForwardDecision::SendImmediately);
            assert!(e.stay_on_after_active(false, false));
        }
    }

    #[test]
    fn pending_traffic_overrides_q() {
        let mut e = engine(0.5, 0.0, 3);
        for _ in 0..100 {
            assert!(e.stay_on_after_active(true, false));
            assert!(e.stay_on_after_active(false, true));
            assert!(e.stay_on_after_active(true, true));
            assert!(!e.stay_on_after_active(false, false), "q = 0 must sleep");
        }
    }

    #[test]
    fn immediate_frequency_tracks_p() {
        let mut e = engine(0.25, 0.0, 4);
        let n = 100_000;
        let imm = (0..n)
            .filter(|_| e.on_receive_broadcast() == ForwardDecision::SendImmediately)
            .count();
        let freq = imm as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn stay_on_frequency_tracks_q() {
        let mut e = engine(0.0, 0.7, 5);
        let n = 100_000;
        let on = (0..n)
            .filter(|_| e.stay_on_after_active(false, false))
            .count();
        let freq = on as f64 / n as f64;
        assert!((freq - 0.7).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = engine(0.5, 0.5, 42);
        let mut b = engine(0.5, 0.5, 42);
        for _ in 0..1000 {
            assert_eq!(a.on_receive_broadcast(), b.on_receive_broadcast());
            assert_eq!(
                a.stay_on_after_active(false, false),
                b.stay_on_after_active(false, false)
            );
        }
    }

    #[test]
    fn sleep_run_endpoints_are_exact_and_draw_free() {
        // q = 0 sleeps forever; q = 1 never sleeps — and neither touches
        // the RNG, exactly like the dense path's `chance` edge cases.
        let mut never = engine(0.5, 0.0, 7);
        let mut always = engine(0.5, 1.0, 7);
        for _ in 0..100 {
            assert_eq!(never.sleep_run(60), 60);
            assert_eq!(always.sleep_run(60), 0);
        }
        // The p stream was not perturbed: both engines still agree with a
        // fresh engine that made no sleep_run calls at all.
        let mut fresh = engine(0.5, 0.0, 7);
        for _ in 0..100 {
            assert_eq!(never.on_receive_broadcast(), fresh.on_receive_broadcast());
        }
        let mut fresh = engine(0.5, 1.0, 7);
        for _ in 0..100 {
            assert_eq!(always.on_receive_broadcast(), fresh.on_receive_broadcast());
        }
    }

    #[test]
    fn sleep_run_respects_cap_and_zero_window() {
        let mut e = engine(0.0, 0.05, 8);
        for _ in 0..1000 {
            assert!(e.sleep_run(10) <= 10);
        }
        // An empty window samples nothing (and consumes nothing).
        let mut a = engine(0.0, 0.5, 9);
        let mut b = engine(0.0, 0.5, 9);
        for _ in 0..50 {
            assert_eq!(a.sleep_run(0), 0);
        }
        for _ in 0..50 {
            assert_eq!(a.sleep_run(4), b.sleep_run(4));
        }
    }

    #[test]
    fn sleep_run_matches_bernoulli_distribution() {
        // The run-length frequencies must match the dense coin's: compare
        // empirical "stay awake within w trials" probabilities against
        // 1 - (1-q)^w, and the mean run length against (1-q)/q (censored
        // at the cap).
        for (q, seed) in [(0.05, 10u64), (0.5, 11), (0.9, 12)] {
            let mut e = engine(0.0, q, seed);
            let n = 100_000u32;
            let cap = 64;
            let mut sum = 0.0;
            let mut hit_cap = 0u32;
            for _ in 0..n {
                let r = e.sleep_run(cap);
                sum += f64::from(r);
                if r == cap {
                    hit_cap += 1;
                }
            }
            let censored_mean = {
                // E[min(X, cap)] = sum_{j=1..cap} (1-q)^j
                let mut m = 0.0;
                let mut t = 1.0;
                for _ in 0..cap {
                    t *= 1.0 - q;
                    m += t;
                }
                m
            };
            let mean = sum / f64::from(n);
            assert!(
                (mean - censored_mean).abs() < 0.05 * censored_mean.max(0.2),
                "q = {q}: mean {mean} vs {censored_mean}"
            );
            let p_cap = f64::from(hit_cap) / f64::from(n);
            let expect_cap = (1.0 - q).powi(64);
            assert!(
                (p_cap - expect_cap).abs() < 0.01,
                "q = {q}: cap rate {p_cap} vs {expect_cap}"
            );
        }
    }

    #[test]
    fn set_params_refreshes_sleep_sampler() {
        let mut e = engine(0.0, 0.5, 13);
        assert!(e.sleep_run(1000) < 1000, "q = 0.5 stays awake quickly");
        e.set_params(PbbfParams::new(0.0, 0.0).unwrap());
        assert_eq!(e.sleep_run(1000), 1000, "q = 0 never stays awake");
        e.set_params(PbbfParams::new(0.0, 1.0).unwrap());
        assert_eq!(e.sleep_run(1000), 0, "q = 1 always stays awake");
    }

    #[test]
    fn set_params_switches_behavior() {
        let mut e = engine(0.0, 0.0, 6);
        assert_eq!(
            e.on_receive_broadcast(),
            ForwardDecision::EnqueueForNextActiveWindow
        );
        e.set_params(PbbfParams::ALWAYS_ON);
        assert_eq!(e.on_receive_broadcast(), ForwardDecision::SendImmediately);
        assert_eq!(e.params(), PbbfParams::ALWAYS_ON);
    }
}
