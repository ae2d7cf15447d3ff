//! Configuration of the realistic simulator (Table 2).

use pbbf_core::adaptive::AdaptiveConfig;
use pbbf_core::{PbbfParams, PowerProfile};
use pbbf_des::SimTime;
use pbbf_radio::Phy;
use serde::{Deserialize, Serialize};

/// Which protocol the network runs (mirrors the idealized simulator's
/// mode, but for the full stack).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetMode {
    /// Radios always on, no beacon structure, pure CSMA flooding: the
    /// paper's `NO PSM` baseline.
    AlwaysOn,
    /// IEEE 802.11 PSM with PBBF parameters (PSM itself is
    /// `PbbfParams::PSM`).
    SleepScheduled(PbbfParams),
    /// PSM with per-node *adaptive* PBBF — the Section-6 future-work
    /// heuristics: each node tunes its own `p` from overheard activity
    /// and its own `q` from detected sequence holes, once per beacon
    /// interval.
    Adaptive(AdaptiveConfig),
}

impl NetMode {
    /// The paper's legend label (`NO PSM`, `PSM`, `PBBF-<p>`,
    /// `PBBF-ADAPT`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            NetMode::AlwaysOn => "NO PSM".to_string(),
            NetMode::SleepScheduled(p) if *p == PbbfParams::PSM => "PSM".to_string(),
            NetMode::SleepScheduled(p) => format!("PBBF-{}", p.p()),
            NetMode::Adaptive(_) => "PBBF-ADAPT".to_string(),
        }
    }
}

/// Scenario parameters for one realistic-simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Number of nodes (Table 2: 50).
    pub nodes: usize,
    /// Target node density Δ = πR²N/A (Table 2 default: 10).
    pub delta: f64,
    /// Radio range in meters (sets the deployment area via Δ).
    pub range_m: f64,
    /// Source update rate λ (Table 1: 0.01 updates/s, deterministic).
    pub lambda: f64,
    /// Updates carried per data packet (Table 2: k = 1).
    pub k: usize,
    /// Beacon interval (s) — `T_frame` of Table 1.
    pub beacon_interval_secs: f64,
    /// ATIM window (s) — `T_active` of Table 1.
    pub atim_window_secs: f64,
    /// Simulated duration (Section 5.1: 500 s).
    pub duration_secs: f64,
    /// Physical layer (bit rate and frame sizes).
    pub phy: Phy,
    /// Radio power draw.
    pub power: PowerProfile,
}

impl NetConfig {
    /// The Table-2 scenario: 50 nodes, Δ = 10, 64-byte packets at
    /// 19.2 kbps, 500 s runs, Table-1 timing and power.
    #[must_use]
    pub fn table2() -> Self {
        Self {
            nodes: 50,
            delta: 10.0,
            range_m: 30.0,
            lambda: 0.01,
            k: 1,
            beacon_interval_secs: 10.0,
            atim_window_secs: 1.0,
            duration_secs: 500.0,
            phy: Phy::mica2(),
            power: PowerProfile::MICA2,
        }
    }

    /// Most node-updates one run may record (`nodes ×`
    /// [`Self::expected_updates`]): 2^20. Each holds a 16-byte
    /// first-reception slot in [`crate::NetRunStats`], and the run
    /// pre-sizes its per-update buffers from the expected count.
    pub const MAX_NODE_UPDATES: u64 = 1 << 20;

    /// Checks a configuration from outside before [`crate::NetSim::new`]:
    /// a duration that is finite, above zero and within the simulator
    /// clock's range (u64 nanoseconds, ~584 years), so it can never
    /// panic [`SimTime`], long enough to generate an update (the first
    /// arrives half an ATIM window in), so a run measures something,
    /// and at most [`Self::MAX_NODE_UPDATES`] node-updates. An
    /// allocation that fails aborts the process, and no caller can catch
    /// that. The one rule behind `pbbf net --duration` and every sweep
    /// shard's effort.
    ///
    /// # Errors
    ///
    /// Says which bound the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        let secs = self.duration_secs;
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("must be a positive finite number, got `{secs}`"));
        }
        let max_secs = SimTime::MAX.as_secs();
        if secs > max_secs {
            return Err(format!(
                "{secs:e} s is past the simulator's {max_secs:.3e} s time range"
            ));
        }
        let updates = self.expected_updates();
        if updates == 0 {
            return Err(format!(
                "{secs} s ends before the first update at {} s, so a run measures nothing",
                0.5 * self.atim_window_secs
            ));
        }
        let node_updates = (self.nodes as u64).saturating_mul(u64::from(updates));
        if node_updates > Self::MAX_NODE_UPDATES {
            return Err(format!(
                "{secs:e} s is {updates} updates to {} nodes, {node_updates} node-updates, \
                 past the budget of {}",
                self.nodes,
                Self::MAX_NODE_UPDATES
            ));
        }
        Ok(())
    }

    /// Expected number of updates generated in `duration_secs` (the first
    /// arrives mid-window of the first beacon interval, then every `1/λ`).
    #[must_use]
    pub fn expected_updates(&self) -> u32 {
        let first = 0.5 * self.atim_window_secs;
        if self.duration_secs <= first {
            return 0;
        }
        1 + ((self.duration_secs - first) * self.lambda).floor() as u32
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = NetConfig::table2();
        assert_eq!(c.nodes, 50);
        assert_eq!(c.delta, 10.0);
        assert_eq!(c.k, 1);
        assert_eq!(c.phy.data_bytes, 64);
        assert_eq!(c.expected_updates(), 5);
    }

    #[test]
    fn expected_updates_scales_with_duration() {
        let mut c = NetConfig::table2();
        c.duration_secs = 1000.0;
        assert_eq!(c.expected_updates(), 10);
        c.duration_secs = 0.1;
        assert_eq!(c.expected_updates(), 0);
    }

    #[test]
    fn validate_admits_every_preset_and_bounds_the_work() {
        let with = |duration_secs: f64| NetConfig {
            duration_secs,
            ..NetConfig::table2()
        };
        for ok in [500.0, 200.0, 7200.0, 0.6] {
            assert_eq!(with(ok).validate(), Ok(()), "{ok}");
        }
        // The first update arrives at 0.5 s: a shorter run generates none.
        for empty in [0.1, 0.5] {
            let err = with(empty).validate().unwrap_err();
            assert!(err.contains("before the first update"), "{empty}: {err}");
        }
        // 50 nodes × 20971 updates fits 2^20; one more update does not.
        assert_eq!(with(2_097_050.0).expected_updates(), 20_971);
        assert_eq!(with(2_097_050.0).validate(), Ok(()));
        let err = with(2_097_150.0).validate().unwrap_err();
        assert!(err.contains("1048600 node-updates"), "{err}");
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY, 1e300] {
            let err = with(bad).validate().unwrap_err();
            assert!(!err.contains("node-updates"), "{bad}: {err}");
        }
        for huge in [1e10, 1.8e10] {
            let err = with(huge).validate().unwrap_err();
            assert!(err.contains("past the budget"), "{huge}: {err}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(NetMode::AlwaysOn.label(), "NO PSM");
        assert_eq!(NetMode::SleepScheduled(PbbfParams::PSM).label(), "PSM");
        assert_eq!(
            NetMode::SleepScheduled(PbbfParams::new(0.1, 0.0).unwrap()).label(),
            "PBBF-0.1"
        );
        let adapt = NetMode::Adaptive(AdaptiveConfig::default_for(PbbfParams::PSM));
        assert_eq!(adapt.label(), "PBBF-ADAPT");
    }
}
