//! Configuration of the idealized simulator.

use std::fmt;

use pbbf_core::{AnalysisParams, PbbfParams};
use serde::{Deserialize, Serialize};

/// Which protocol the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Mode {
    /// No power saving: radios always on, pure flooding, every reception
    /// forwarded immediately. The paper's `NO PSM` baseline.
    AlwaysOn,
    /// A sleep-scheduled MAC (802.11 PSM-style frames) running PBBF with
    /// the given parameters; `PbbfParams::PSM` is the plain-PSM baseline.
    SleepScheduled(PbbfParams),
    /// Gossip-based flooding (the paper's \[5\], its Section-2 contrast):
    /// radios always on, every node *forwards* a received broadcast with
    /// the given probability — a **site** percolation process, versus
    /// PBBF's bond percolation.
    Gossip {
        /// Probability that a node rebroadcasts at all.
        forward_probability: f64,
    },
}

impl Mode {
    /// The paper's legend label for this mode (`NO PSM`, `PSM`,
    /// `PBBF-<p>`, `GOSSIP-<g>`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Mode::AlwaysOn => "NO PSM".to_string(),
            Mode::SleepScheduled(p) if *p == PbbfParams::PSM => "PSM".to_string(),
            Mode::SleepScheduled(p) => format!("PBBF-{}", p.p()),
            Mode::Gossip {
                forward_probability,
            } => format!("GOSSIP-{forward_probability}"),
        }
    }
}

/// Full configuration of one idealized-simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealConfig {
    /// Grid side (Table 1: 75, i.e. N = 5625).
    pub grid_side: u32,
    /// Power, traffic and schedule parameters (Table 1).
    pub analysis: AnalysisParams,
    /// Number of source updates to disseminate per run.
    pub updates: u32,
    /// Data-packet airtime in seconds (64 bytes at 19.2 kbps ≈ 26.7 ms).
    pub t_packet: f64,
    /// Safety cap on frames simulated per update.
    pub max_frames_per_update: u32,
}

impl IdealConfig {
    /// The Table-1 configuration: 75×75 grid, Mica2 power, λ = 0.01/s,
    /// `L1` ≈ 1.5 s, 10 s frames with 1 s active windows.
    #[must_use]
    pub fn table1() -> Self {
        let analysis = AnalysisParams::table1();
        Self {
            grid_side: analysis.grid_side,
            analysis,
            updates: 5,
            t_packet: 64.0 * 8.0 / 19_200.0,
            max_frames_per_update: 10_000,
        }
    }

    /// Most nodes a grid may have: 2^20, a 1024×1024 grid. A node costs
    /// about 100 bytes of topology and frame-loop state.
    pub const MAX_NODES: u64 = 1 << 20;

    /// Most node-updates one run may record (`grid_side² × updates`):
    /// 2^24. Each holds a 16-byte reception record in [`crate::RunStats`].
    pub const MAX_NODE_UPDATES: u64 = 1 << 24;

    /// Number of nodes in the configured grid.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.grid_side * self.grid_side
    }

    /// Checks that a run of this configuration measures something and
    /// fits the work budget ([`Self::MAX_NODES`],
    /// [`Self::MAX_NODE_UPDATES`]). Call it before [`crate::IdealSim::new`]
    /// on input from outside: an allocation that fails aborts the
    /// process, and no caller can catch that.
    ///
    /// # Errors
    ///
    /// The first violated bound, as an [`IdealConfigError`].
    pub fn validate(&self) -> Result<(), IdealConfigError> {
        if self.grid_side == 0 {
            return Err(IdealConfigError::EmptyGrid);
        }
        if self.updates == 0 {
            return Err(IdealConfigError::NoUpdates);
        }
        let nodes = u64::from(self.grid_side).pow(2);
        if nodes > Self::MAX_NODES {
            return Err(IdealConfigError::TooManyNodes { nodes });
        }
        let node_updates = nodes * u64::from(self.updates);
        if node_updates > Self::MAX_NODE_UPDATES {
            return Err(IdealConfigError::TooMuchWork { node_updates });
        }
        Ok(())
    }
}

/// Why [`IdealConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdealConfigError {
    /// `grid_side` is zero, so there is no source.
    EmptyGrid,
    /// `updates` is zero, so a run measures nothing.
    NoUpdates,
    /// `grid_side²` exceeds [`IdealConfig::MAX_NODES`].
    TooManyNodes {
        /// The configured node count.
        nodes: u64,
    },
    /// `grid_side² × updates` exceeds [`IdealConfig::MAX_NODE_UPDATES`].
    TooMuchWork {
        /// The configured node-update count.
        node_updates: u64,
    },
}

impl fmt::Display for IdealConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyGrid => write!(f, "the grid has no nodes"),
            Self::NoUpdates => write!(f, "a run of zero updates measures nothing"),
            Self::TooManyNodes { nodes } => write!(
                f,
                "{nodes} nodes exceed the budget of {} (a 1024x1024 grid)",
                IdealConfig::MAX_NODES
            ),
            Self::TooMuchWork { node_updates } => write!(
                f,
                "{node_updates} node-updates (grid side squared times updates) exceed \
                 the budget of {}",
                IdealConfig::MAX_NODE_UPDATES
            ),
        }
    }
}

impl std::error::Error for IdealConfigError {}

impl Default for IdealConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = IdealConfig::table1();
        assert_eq!(c.grid_side, 75);
        assert_eq!(c.node_count(), 5625);
        assert_eq!(c.updates, 5);
        assert!((c.t_packet - 0.026_666).abs() < 1e-4);
    }

    #[test]
    fn validate_admits_the_paper_and_bounds_the_work() {
        let paper = IdealConfig::table1();
        assert_eq!(paper.validate(), Ok(()));
        let with = |grid_side: u32, updates: u32| IdealConfig {
            grid_side,
            updates,
            ..paper
        };
        assert_eq!(with(0, 5).validate(), Err(IdealConfigError::EmptyGrid));
        assert_eq!(with(75, 0).validate(), Err(IdealConfigError::NoUpdates));
        // The largest grid and the largest node-update count pass.
        assert_eq!(with(1024, 16).validate(), Ok(()));
        assert_eq!(
            with(1025, 1).validate(),
            Err(IdealConfigError::TooManyNodes { nodes: 1025 * 1025 })
        );
        assert_eq!(
            with(1024, 17).validate(),
            Err(IdealConfigError::TooMuchWork {
                node_updates: 1024 * 1024 * 17
            })
        );
        // u32 extremes are counted in u64, never wrapped.
        assert_eq!(
            with(u32::MAX, 5).validate(),
            Err(IdealConfigError::TooManyNodes {
                nodes: u64::from(u32::MAX).pow(2)
            })
        );
        assert_eq!(
            with(3, u32::MAX).validate(),
            Err(IdealConfigError::TooMuchWork {
                node_updates: 9 * u64::from(u32::MAX)
            })
        );
    }

    #[test]
    fn mode_labels_match_paper_legends() {
        assert_eq!(Mode::AlwaysOn.label(), "NO PSM");
        assert_eq!(Mode::SleepScheduled(PbbfParams::PSM).label(), "PSM");
        let pbbf = Mode::SleepScheduled(PbbfParams::new(0.5, 0.25).unwrap());
        assert_eq!(pbbf.label(), "PBBF-0.5");
        assert_eq!(
            Mode::Gossip {
                forward_probability: 0.7
            }
            .label(),
            "GOSSIP-0.7"
        );
    }
}
