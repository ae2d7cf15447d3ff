//! Protocol, schedule and analysis parameters (Tables 1 of the paper).

use serde::{Deserialize, Serialize};

use crate::error::{check_duration, check_probability};
use crate::ParamError;

/// The two PBBF knobs.
///
/// `p` trades latency against reliability (immediate rebroadcasts skip the
/// sleep-induced wait but reach only awake neighbors); `q` trades energy
/// against reliability (staying awake catches immediate broadcasts but
/// burns idle power). The underlying sleep-scheduling protocol is the
/// special case [`PbbfParams::PSM`], and always-on operation is
/// approximated by [`PbbfParams::ALWAYS_ON`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PbbfParams {
    p: f64,
    q: f64,
}

impl PbbfParams {
    /// Plain sleep scheduling: never forward immediately, never stay awake
    /// (`p = 0, q = 0`).
    pub const PSM: PbbfParams = PbbfParams { p: 0.0, q: 0.0 };

    /// Approximation of no power saving (`p = 1, q = 1`). Still pays the
    /// active-window and beacon overhead of the underlying protocol, as the
    /// paper notes in Section 3.
    pub const ALWAYS_ON: PbbfParams = PbbfParams { p: 1.0, q: 1.0 };

    /// Validates and creates a parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::ProbabilityOutOfRange`] if either probability
    /// is outside `[0, 1]` or NaN.
    pub fn new(p: f64, q: f64) -> Result<Self, ParamError> {
        Ok(Self {
            p: check_probability("p", p)?,
            q: check_probability("q", q)?,
        })
    }

    /// Probability of forwarding a received broadcast immediately.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of staying awake through a data phase with no announced
    /// traffic.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The link-open probability `p_edge = 1 − p·(1 − q)` of Remark 1.
    #[must_use]
    pub fn edge_probability(&self) -> f64 {
        1.0 - self.p * (1.0 - self.q)
    }
}

/// An active/sleep frame schedule: `T_active` seconds awake at the start of
/// every `T_frame`-second frame (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepSchedule {
    t_active: f64,
    t_frame: f64,
}

impl SleepSchedule {
    /// Validates and creates a schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if either duration is non-positive/non-finite or
    /// the active window exceeds the frame.
    pub fn new(t_active: f64, t_frame: f64) -> Result<Self, ParamError> {
        let t_active = check_duration("t_active", t_active)?;
        let t_frame = check_duration("t_frame", t_frame)?;
        if t_active > t_frame {
            return Err(ParamError::ActiveExceedsFrame { t_active, t_frame });
        }
        Ok(Self { t_active, t_frame })
    }

    /// Active-window length `T_active` (s).
    #[must_use]
    pub fn t_active(&self) -> f64 {
        self.t_active
    }

    /// Frame length `T_frame` (s).
    #[must_use]
    pub fn t_frame(&self) -> f64 {
        self.t_frame
    }

    /// Sleep-phase length `T_sleep = T_frame − T_active` (Eq. 4).
    #[must_use]
    pub fn t_sleep(&self) -> f64 {
        self.t_frame - self.t_active
    }

    /// The fraction of time a plain-PSM node is awake, `T_active/T_frame`
    /// (Eq. 3).
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.t_active / self.t_frame
    }
}

/// Radio power draw in each state, in watts (Table 1; Mica2 Motes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    /// Transmit power draw `P_TX` (W).
    pub tx: f64,
    /// Receive/idle power draw `P_I` (W).
    pub idle: f64,
    /// Sleep power draw `P_S` (W).
    pub sleep: f64,
}

impl PowerProfile {
    /// The Mica2 Mote numbers of Table 1: 81 mW transmit, 30 mW
    /// receive/idle, 3 µW sleep.
    pub const MICA2: PowerProfile = PowerProfile {
        tx: 0.081,
        idle: 0.030,
        sleep: 0.000_003,
    };
}

impl Default for PowerProfile {
    fn default() -> Self {
        Self::MICA2
    }
}

/// The full Table-1 parameter set driving the Section-4 analysis and the
/// idealized simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisParams {
    /// Grid side; the network is `grid_side × grid_side` nodes (75 ⇒ 5625).
    pub grid_side: u32,
    /// Radio power profile.
    pub power: PowerProfile,
    /// Source update rate λ (updates per second).
    pub lambda: f64,
    /// Time to transmit a data packet immediately, `L1` (s). The paper uses
    /// ≈1.5 s based on empirical channel-access times in its ns-2 runs.
    pub l1: f64,
    /// The active/sleep schedule (`T_active = 1 s`, `T_frame = 10 s`).
    pub schedule: SleepSchedule,
}

impl AnalysisParams {
    /// The exact Table-1 values.
    #[must_use]
    pub fn table1() -> Self {
        Self {
            grid_side: 75,
            power: PowerProfile::MICA2,
            lambda: 0.01,
            l1: 1.5,
            schedule: SleepSchedule::new(1.0, 10.0).expect("Table 1 schedule is valid"),
        }
    }

    /// Number of nodes `N = grid_side²`.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.grid_side * self.grid_side
    }

    /// The wake-all latency `L2`: the expected extra time a *normal*
    /// broadcast waits so that every neighbor is awake to receive it.
    ///
    /// A packet that finished arriving at a uniformly random instant of the
    /// frame waits for the start of the next frame (on average
    /// `T_frame / 2`) plus the next active window in which it is announced
    /// (`T_active`), after which the data is sent. The paper treats `L2` as
    /// "determined by how the sleep scheduling mechanism handles broadcast";
    /// for IEEE 802.11 PSM this expectation is `T_frame/2 + T_active`.
    #[must_use]
    pub fn l2(&self) -> f64 {
        self.schedule.t_frame() / 2.0 + self.schedule.t_active()
    }
}

impl Default for AnalysisParams {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbbf_params_validate() {
        assert!(PbbfParams::new(0.5, 0.25).is_ok());
        assert!(PbbfParams::new(-0.1, 0.5).is_err());
        assert!(PbbfParams::new(0.5, 1.5).is_err());
        assert!(PbbfParams::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn special_points() {
        assert_eq!(PbbfParams::PSM.p(), 0.0);
        assert_eq!(PbbfParams::PSM.q(), 0.0);
        assert_eq!(PbbfParams::ALWAYS_ON.p(), 1.0);
        assert_eq!(PbbfParams::ALWAYS_ON.q(), 1.0);
        // PSM never loses an edge; always-on never loses an edge.
        assert_eq!(PbbfParams::PSM.edge_probability(), 1.0);
        assert_eq!(PbbfParams::ALWAYS_ON.edge_probability(), 1.0);
    }

    #[test]
    fn edge_probability_matches_formula() {
        let params = PbbfParams::new(0.5, 0.25).unwrap();
        assert!((params.edge_probability() - (1.0 - 0.5 * 0.75)).abs() < 1e-15);
    }

    #[test]
    fn schedule_derives_sleep_and_duty_cycle() {
        let s = SleepSchedule::new(1.0, 10.0).unwrap();
        assert_eq!(s.t_sleep(), 9.0);
        assert_eq!(s.duty_cycle(), 0.1);
    }

    #[test]
    fn schedule_rejects_bad_durations() {
        assert!(SleepSchedule::new(0.0, 10.0).is_err());
        assert!(SleepSchedule::new(1.0, 0.0).is_err());
        assert!(SleepSchedule::new(11.0, 10.0).is_err());
        // Active == frame is legal: a degenerate always-active schedule.
        assert!(SleepSchedule::new(10.0, 10.0).is_ok());
    }

    #[test]
    fn table1_values() {
        let a = AnalysisParams::table1();
        assert_eq!(a.node_count(), 5625);
        assert_eq!(a.power.tx, 0.081);
        assert_eq!(a.power.idle, 0.030);
        assert_eq!(a.power.sleep, 3e-6);
        assert_eq!(a.lambda, 0.01);
        assert_eq!(a.l1, 1.5);
        assert_eq!(a.schedule.t_active(), 1.0);
        assert_eq!(a.schedule.t_frame(), 10.0);
        // L2 = Tframe/2 + Tactive = 6 s for Table 1.
        assert_eq!(a.l2(), 6.0);
    }

    #[test]
    fn serde_round_trip() {
        let a = AnalysisParams::table1();
        let json = serde_json::to_string(&a).unwrap();
        let back: AnalysisParams = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
