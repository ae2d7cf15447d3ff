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

    /// The frame loop's time unit (s): it times transmissions in whole
    /// nanoseconds from the start of their frame.
    pub const TIME_UNIT: f64 = 1e-9;

    /// The longest frame (s): 2^20 s, about 12 days. Below it an f64
    /// holds a time within the frame to 2^-33 s (0.12 ns), so the few
    /// roundings between one chain level of immediate forwards and the
    /// next, at least [`Self::TIME_UNIT`] later, cannot land both on
    /// the same nanosecond.
    pub const MAX_T_FRAME: f64 = 1_048_576.0;

    /// Number of nodes in the configured grid.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.grid_side * self.grid_side
    }

    /// Frames of baseline duty cycle billed to each update, its
    /// steady-state share: the update interval `1/λ` in frames, rounded,
    /// and at least one.
    pub(crate) fn billing_frames(&self) -> f64 {
        let a = &self.analysis;
        (1.0 / (a.lambda * a.schedule.t_frame())).round().max(1.0)
    }

    /// Checks that a run of this configuration measures something, fits
    /// the work budget ([`Self::MAX_NODES`], [`Self::MAX_NODE_UPDATES`])
    /// and has the timing the frame loop relies on: a finite `t_packet`
    /// and active window of at least [`Self::TIME_UNIT`], a finite
    /// non-negative `L1`, a frame no longer than [`Self::MAX_T_FRAME`]
    /// in which the source's immediate forward ends
    /// (`t_active + l1 + t_packet ≤ t_frame`), and a positive update
    /// rate λ whose update interval, the `1/(λ·t_frame)` frames of duty
    /// cycle billed to each update, is at most `u32::MAX` frames. Call it
    /// before [`crate::IdealSim::new`] on input
    /// from outside: an allocation that fails aborts the process, and no
    /// caller can catch that.
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
        let t_packet = self.t_packet;
        if !(t_packet.is_finite() && t_packet >= Self::TIME_UNIT) {
            return Err(IdealConfigError::PacketTime { t_packet });
        }
        let a = &self.analysis;
        let l1 = a.l1;
        if !(l1.is_finite() && l1 >= 0.0) {
            return Err(IdealConfigError::ChannelAccessTime { l1 });
        }
        let (t_active, t_frame) = (a.schedule.t_active(), a.schedule.t_frame());
        if !(t_active.is_finite() && t_active >= Self::TIME_UNIT) {
            return Err(IdealConfigError::ActiveWindow { t_active });
        }
        if !(t_frame.is_finite() && t_frame <= Self::MAX_T_FRAME) {
            return Err(IdealConfigError::FrameTooLong { t_frame });
        }
        let source_forward_end = t_active + l1 + t_packet;
        if source_forward_end > t_frame {
            return Err(IdealConfigError::FrameTooShort {
                t_frame,
                source_forward_end,
            });
        }
        let lambda = a.lambda;
        if !(lambda.is_finite() && lambda > 0.0 && self.billing_frames() <= f64::from(u32::MAX)) {
            return Err(IdealConfigError::UpdateRate { lambda });
        }
        Ok(())
    }
}

/// Why [`IdealConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// `t_packet` is not finite or is under [`IdealConfig::TIME_UNIT`].
    PacketTime {
        /// The configured packet airtime (s).
        t_packet: f64,
    },
    /// `analysis.l1` is not finite or is negative.
    ChannelAccessTime {
        /// The configured channel-access time (s).
        l1: f64,
    },
    /// `analysis.schedule`'s active window is under
    /// [`IdealConfig::TIME_UNIT`], so the source's immediate forward
    /// could start at time 0 of its frame.
    ActiveWindow {
        /// The configured active window (s).
        t_active: f64,
    },
    /// `analysis.schedule`'s frame exceeds [`IdealConfig::MAX_T_FRAME`].
    FrameTooLong {
        /// The configured frame length (s).
        t_frame: f64,
    },
    /// `analysis.schedule`'s frame ends before the source's immediate
    /// forward does (`t_active + l1 + t_packet > t_frame`).
    FrameTooShort {
        /// The configured frame length (s).
        t_frame: f64,
        /// When the source's immediate forward ends (s into the frame).
        source_forward_end: f64,
    },
    /// `analysis.lambda` is not finite, or is too small for the update
    /// interval billed to each update, `1/(λ·t_frame)` frames, to be a
    /// count of at most `u32::MAX` frames (at λ = 0 it is infinite).
    UpdateRate {
        /// The configured update rate (1/s).
        lambda: f64,
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
            Self::PacketTime { t_packet } => write!(
                f,
                "t_packet: {t_packet} s is not a finite time of at least 1 ns"
            ),
            Self::ChannelAccessTime { l1 } => {
                write!(f, "analysis.l1: {l1} s is not a finite, non-negative time")
            }
            Self::ActiveWindow { t_active } => write!(
                f,
                "analysis.schedule: an active window of {t_active} s is under 1 ns"
            ),
            Self::FrameTooLong { t_frame } => write!(
                f,
                "analysis.schedule: a frame of {t_frame} s exceeds {} s, past which \
                 f64 seconds cannot resolve 1 ns",
                IdealConfig::MAX_T_FRAME
            ),
            Self::FrameTooShort {
                t_frame,
                source_forward_end,
            } => write!(
                f,
                "analysis.schedule: a frame of {t_frame} s ends before the source's \
                 immediate forward does (t_active + l1 + t_packet = {source_forward_end} s)"
            ),
            Self::UpdateRate { lambda } => write!(
                f,
                "analysis.lambda: {lambda} updates/s is not a finite, positive rate \
                 whose update interval spans at most {} frames",
                u32::MAX
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
    use pbbf_core::SleepSchedule;

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

        // The timing the frame loop relies on.
        let timed = |t_packet: f64, l1: f64, (t_active, t_frame): (f64, f64), lambda: f64| {
            let mut c = paper;
            c.t_packet = t_packet;
            c.analysis.l1 = l1;
            c.analysis.schedule = SleepSchedule::new(t_active, t_frame).expect("valid schedule");
            c.analysis.lambda = lambda;
            c.validate()
        };
        let table1 = (1.0, 10.0);
        let t_packet = paper.t_packet;
        // The extremes each bound admits: the smallest packet time and
        // active window, no channel-access time, the longest frame, a
        // frame the source's immediate forward exactly fills, and update
        // intervals of 4e9 frames and of one.
        for ok in [
            timed(t_packet, 1.5, table1, 2.5e-11),
            timed(1e-9, 1.5, table1, 0.01),
            timed(t_packet, 0.0, table1, 0.01),
            timed(t_packet, 1.5, (1e-9, 10.0), 0.01),
            timed(t_packet, 1.5, (1.0, IdealConfig::MAX_T_FRAME), 1e-9),
            timed(0.5, 1.5, (1.0, 3.0), 0.01),
            timed(t_packet, 1.5, table1, f64::MAX),
        ] {
            assert_eq!(ok, Ok(()));
        }
        for t_packet in [0.0, 0.9e-9, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                timed(t_packet, 1.5, table1, 0.01),
                Err(IdealConfigError::PacketTime { .. })
            ));
        }
        for l1 in [-1e-9, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                timed(t_packet, l1, table1, 0.01),
                Err(IdealConfigError::ChannelAccessTime { .. })
            ));
        }
        assert_eq!(
            timed(t_packet, 1.5, (0.9e-9, 10.0), 0.01),
            Err(IdealConfigError::ActiveWindow { t_active: 0.9e-9 })
        );
        let too_long = IdealConfig::MAX_T_FRAME * (1.0 + f64::EPSILON);
        assert_eq!(
            timed(t_packet, 1.5, (1.0, too_long), 0.01),
            Err(IdealConfigError::FrameTooLong { t_frame: too_long })
        );
        assert_eq!(
            timed(0.5, 1.5, (1.0, 2.9), 0.01),
            Err(IdealConfigError::FrameTooShort {
                t_frame: 2.9,
                source_forward_end: 3.0
            })
        );
        // At 10 s frames, 1e-11 updates/s bills 1e10 frames an update.
        for lambda in [
            0.0,
            -0.01,
            1e-11,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert!(matches!(
                timed(t_packet, 1.5, table1, lambda),
                Err(IdealConfigError::UpdateRate { .. })
            ));
        }
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
