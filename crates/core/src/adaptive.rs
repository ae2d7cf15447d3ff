//! Adaptive PBBF — the paper's future-work heuristics (Section 6).
//!
//! > "the p and q parameters could be adjusted dynamically by nodes. For
//! > example, when a node overhears more nodes involved in communication,
//! > p could be increased since more nodes will be active to receive the
//! > broadcast. Additionally, the q parameter could be increased in
//! > response to a node detecting a large fraction of broadcast packets
//! > are not being received."
//!
//! [`AdaptiveController`] implements exactly those two feedback loops with
//! additive-increase/additive-decrease steps over an observation window:
//!
//! * **`p` from overheard activity** — the more transmissions a node heard
//!   in the window, the likelier its neighbors are awake, so immediate
//!   forwarding gets more aggressive; silence decays `p` back down.
//! * **`q` from detected losses** — the code-distribution workload numbers
//!   its updates sequentially, so holes in the received-id sequence reveal
//!   missed broadcasts; a miss fraction above the target raises `q`,
//!   sustained full delivery decays `q` to save energy.

use serde::{Deserialize, Serialize};

use crate::PbbfParams;

/// Tuning of the two feedback loops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Starting parameters.
    pub initial: PbbfParams,
    /// Tolerated miss fraction before `q` is raised (e.g. `0.01` for the
    /// paper's 99% reliability goal).
    pub target_miss_fraction: f64,
    /// Overheard transmissions per window at or above which `p` rises.
    pub activity_threshold: u32,
    /// Additive step applied to `p` each window.
    pub p_step: f64,
    /// Additive step applied to `q` each window.
    pub q_step: f64,
    /// Lower bound kept on `q` so a quiet node can still catch immediate
    /// broadcasts (and losses remain observable).
    pub q_floor: f64,
}

impl AdaptiveConfig {
    /// Reasonable defaults for the Table-2 workload: start at PSM-like
    /// conservatism, aim for 99% delivery, step by 0.05.
    #[must_use]
    pub fn default_for(initial: PbbfParams) -> Self {
        Self {
            initial,
            target_miss_fraction: 0.01,
            activity_threshold: 3,
            p_step: 0.05,
            q_step: 0.05,
            q_floor: 0.05,
        }
    }
}

/// Per-node adaptive state: accumulates one window of observations, then
/// [`AdaptiveController::end_window`] folds them into new parameters.
///
/// # Examples
///
/// ```
/// use pbbf_core::adaptive::{AdaptiveConfig, AdaptiveController};
/// use pbbf_core::PbbfParams;
///
/// let cfg = AdaptiveConfig::default_for(PbbfParams::new(0.2, 0.2).unwrap());
/// let mut ctl = AdaptiveController::new(cfg);
///
/// // A window with heavy overheard traffic and no losses: p rises.
/// for _ in 0..10 { ctl.observe_transmission(); }
/// ctl.observe_updates(5, 0);
/// let before = ctl.params();
/// let after = ctl.end_window();
/// assert!(after.p() > before.p());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    current: PbbfParams,
    overheard: u32,
    received: u64,
    missed: u64,
}

impl AdaptiveController {
    /// Creates a controller at the configured initial parameters.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        Self {
            config,
            current: config.initial,
            overheard: 0,
            received: 0,
            missed: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The parameters currently in force.
    #[must_use]
    pub fn params(&self) -> PbbfParams {
        self.current
    }

    /// Records one overheard transmission (any frame audible to this node
    /// this window).
    pub fn observe_transmission(&mut self) {
        self.overheard = self.overheard.saturating_add(1);
    }

    /// Records delivery bookkeeping for this window: `received` fresh
    /// updates and `missed` newly detected sequence holes.
    pub fn observe_updates(&mut self, received: u64, missed: u64) {
        self.received += received;
        self.missed += missed;
    }

    /// Ends the observation window: applies the two Section-6 rules,
    /// resets counters, and returns the new parameters.
    pub fn end_window(&mut self) -> PbbfParams {
        let mut p = self.current.p();
        let mut q = self.current.q();

        // Rule 1: overheard activity drives p.
        if self.overheard >= self.config.activity_threshold {
            p += self.config.p_step;
        } else {
            p -= self.config.p_step;
        }

        // Rule 2: detected losses drive q (only when there was anything to
        // observe this window).
        let observed = self.received + self.missed;
        if observed > 0 {
            let miss_fraction = self.missed as f64 / observed as f64;
            if miss_fraction > self.config.target_miss_fraction {
                q += self.config.q_step;
            } else {
                q -= self.config.q_step;
            }
        }

        p = p.clamp(0.0, 1.0);
        q = q.clamp(self.config.q_floor.clamp(0.0, 1.0), 1.0);
        self.current = PbbfParams::new(p, q).expect("clamped to [0, 1]");

        self.overheard = 0;
        self.received = 0;
        self.missed = 0;
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(p: f64, q: f64) -> AdaptiveController {
        AdaptiveController::new(AdaptiveConfig::default_for(PbbfParams::new(p, q).unwrap()))
    }

    #[test]
    fn busy_channel_raises_p_quiet_lowers_it() {
        let mut c = controller(0.5, 0.5);
        for _ in 0..5 {
            c.observe_transmission();
        }
        assert!(c.end_window().p() > 0.5);

        let mut d = controller(0.5, 0.5);
        assert!(d.end_window().p() < 0.5);
    }

    #[test]
    fn losses_raise_q_clean_delivery_lowers_it() {
        let mut c = controller(0.2, 0.5);
        c.observe_updates(3, 2); // 40% missed
        assert!(c.end_window().q() > 0.5);

        let mut d = controller(0.2, 0.5);
        d.observe_updates(5, 0);
        assert!(d.end_window().q() < 0.5);
    }

    #[test]
    fn no_observations_leave_q_unchanged() {
        let mut c = controller(0.2, 0.5);
        let q = c.end_window().q();
        assert!((q - 0.5).abs() < 1e-12, "no delivery data, no q move: {q}");
    }

    #[test]
    fn parameters_stay_clamped() {
        let mut c = controller(1.0, 1.0);
        for _ in 0..50 {
            for _ in 0..10 {
                c.observe_transmission();
            }
            c.observe_updates(0, 10);
            let p = c.end_window();
            assert!(p.p() <= 1.0 && p.q() <= 1.0);
        }
        let mut d = controller(0.0, 0.0);
        for _ in 0..50 {
            d.observe_updates(10, 0);
            let p = d.end_window();
            assert!(p.p() >= 0.0);
            assert!(p.q() >= d.config().q_floor, "q floor respected");
        }
    }

    #[test]
    fn steady_conditions_converge() {
        // Persistent losses + busy channel push both knobs to their caps.
        let mut c = controller(0.3, 0.3);
        for _ in 0..40 {
            for _ in 0..10 {
                c.observe_transmission();
            }
            c.observe_updates(5, 5);
            c.end_window();
        }
        assert_eq!(c.params().p(), 1.0);
        assert_eq!(c.params().q(), 1.0);
    }
}
