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

/// How the runner settles the beacon boundaries of *idle* nodes — the
/// per-beacon wake/`begin_frame`/sleep-coin steps of everyone with no
/// pending traffic.
///
/// Both engines simulate the same protocol and agree in distribution;
/// they differ in RNG stream layout (and therefore in the exact values a
/// fixed seed produces) and in cost:
///
/// * [`Lazy`](BoundaryEngine::Lazy) — the default. Per-node closed-form
///   settling: the index of a node's next "stay awake" boundary is drawn
///   from a geometric distribution (one RNG draw per run of sleeps
///   instead of one Bernoulli per boundary) and the energy of the whole
///   run is credited in O(1). On top of that, whenever the network is
///   *globally* quiescent (no flood in flight, no pending ATIM/data
///   events) the event loop jumps straight to the frame of the next
///   traffic arrival. Cost is O(traffic) rather than
///   O(sim-time × nodes) in the λ → 0 regime.
/// * [`Dense`](BoundaryEngine::Dense) — the reference oracle: every
///   boundary is replayed individually, consuming one coin per boundary,
///   bit-for-bit identical to the original per-node walk (and to the
///   committed pre-geometric goldens). Kept for equivalence tests and
///   benches.
///
/// The q ∈ {0, 1} endpoints draw no sleep coins, so they are bitwise
/// identical across both engines.
///
/// The environment variable `PBBF_DENSE_BOUNDARIES=1` (read once per
/// process) forces [`Dense`](BoundaryEngine::Dense) regardless of
/// configuration — the escape hatch for golden regeneration and
/// triage. Set it to `0` (or unset it) for the configured engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BoundaryEngine {
    /// Closed-form geometric settling of idle boundaries plus whole-frame
    /// jumps across globally quiescent stretches (default).
    #[default]
    Lazy,
    /// Exact per-boundary replay (the pre-geometric stream layout).
    Dense,
}

impl BoundaryEngine {
    /// The engine a run actually uses: `self`, unless
    /// `PBBF_DENSE_BOUNDARIES` overrides it process-wide.
    #[must_use]
    pub fn effective(self) -> Self {
        static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let forced = *FORCED.get_or_init(|| {
            std::env::var("PBBF_DENSE_BOUNDARIES").is_ok_and(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
        });
        if forced {
            BoundaryEngine::Dense
        } else {
            self
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
    /// Attempts to draw a connected deployment before giving up.
    pub max_deploy_attempts: u32,
    /// How idle nodes' beacon boundaries are settled (see
    /// [`BoundaryEngine`]). Not part of the deployment identity — both
    /// engines run on the same cached scenarios.
    pub boundary_engine: BoundaryEngine,
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
            max_deploy_attempts: 1000,
            boundary_engine: BoundaryEngine::Lazy,
        }
    }

    /// Checks a simulated duration in seconds: finite, above zero, and
    /// within the simulator clock's range (u64 nanoseconds, ~584
    /// years), so it can never panic [`SimTime`]. The one rule behind
    /// `pbbf net --duration` and every sweep shard's effort.
    ///
    /// # Errors
    ///
    /// Says which condition `secs` breaks.
    pub fn check_duration_secs(secs: f64) -> Result<(), String> {
        if !secs.is_finite() || secs <= 0.0 {
            return Err(format!("must be a positive finite number, got `{secs}`"));
        }
        let max_secs = SimTime::MAX.as_secs();
        if secs > max_secs {
            return Err(format!(
                "{secs:e} s is past the simulator's {max_secs:.3e} s time range"
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
    fn boundary_engine_defaults_to_lazy() {
        assert_eq!(NetConfig::table2().boundary_engine, BoundaryEngine::Lazy);
        assert_eq!(BoundaryEngine::default(), BoundaryEngine::Lazy);
        // Without the env override in this process, `effective` is the
        // identity (CI sets PBBF_DENSE_BOUNDARIES only in dedicated
        // steps, never for the unit-test run).
        if std::env::var("PBBF_DENSE_BOUNDARIES").is_err() {
            for e in [BoundaryEngine::Lazy, BoundaryEngine::Dense] {
                assert_eq!(e.effective(), e);
            }
        }
    }

    #[test]
    fn env_override_forces_dense() {
        // Gives the PBBF_DENSE_BOUNDARIES=1 CI step its signal; a no-op
        // in the ordinary test run (the variable is read once per
        // process, so it cannot be toggled in-process here).
        let forced = std::env::var("PBBF_DENSE_BOUNDARIES")
            .is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0");
        if forced {
            for e in [BoundaryEngine::Lazy, BoundaryEngine::Dense] {
                assert_eq!(e.effective(), BoundaryEngine::Dense);
            }
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
