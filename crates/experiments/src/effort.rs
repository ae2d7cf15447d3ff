//! Effort presets: paper-scale vs quick.

use serde::{Deserialize, Serialize};

use pbbf_ideal_sim::{IdealConfig, IdealConfigError};
use pbbf_net_sim::NetConfig;

/// The most q values an x-axis sweep may visit: a step of 0.001. The
/// presets use 6 and 11.
const MAX_Q_POINTS: u32 = 1001;

/// How much work each experiment spends.
///
/// [`Effort::paper`] matches the paper's methodology (75×75 grids, 500 s
/// ns-2-style runs, ten runs per point); [`Effort::quick`] shrinks every
/// dimension so the full suite regenerates in seconds — the *shapes* of
/// all figures survive the shrink, which is what the test suite asserts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Effort {
    /// Independent runs averaged per data point (paper: 10).
    pub runs: u32,
    /// Grid side for the idealized simulations (paper: 75).
    pub ideal_grid_side: u32,
    /// Updates disseminated per idealized run (paper: 5 in 500 s).
    pub ideal_updates: u32,
    /// Newman–Ziff sweeps per percolation estimate.
    pub nz_runs: u32,
    /// Realistic-simulation duration in seconds (paper: 500).
    pub net_duration_secs: f64,
    /// Number of q values on the x-axis (0..=1 inclusive).
    pub q_points: u32,
    /// Shortest distance probed by the "near" hop-count figure
    /// (paper Fig. 9: 20).
    pub hop_probe_near: u32,
    /// Shortest distance probed by the "far" hop-count figure
    /// (paper Fig. 10: 60).
    pub hop_probe_far: u32,
}

impl Effort {
    /// The paper's methodology.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            runs: 10,
            ideal_grid_side: 75,
            ideal_updates: 5,
            nz_runs: 200,
            net_duration_secs: 500.0,
            q_points: 11,
            hop_probe_near: 20,
            hop_probe_far: 60,
        }
    }

    /// A seconds-scale preset preserving every figure's shape.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            runs: 3,
            ideal_grid_side: 25,
            ideal_updates: 3,
            nz_runs: 40,
            net_duration_secs: 200.0,
            q_points: 6,
            hop_probe_near: 8,
            hop_probe_far: 16,
        }
    }

    /// The Section-4 scenario every ideal-table point runs: Table 1 with
    /// this effort's grid and update count.
    pub(crate) fn ideal_config(&self) -> IdealConfig {
        IdealConfig {
            grid_side: self.ideal_grid_side,
            updates: self.ideal_updates,
            ..IdealConfig::table1()
        }
    }

    /// Checks the fields a sweep shard reads before it allocates
    /// anything: a q axis of 2 to 1001 points, at least one run per
    /// point, an idealized grid and update count within the ideal-sim
    /// work budget ([`IdealConfig::validate`]), and a
    /// realistic-simulation duration the simulator can run within its
    /// work budget ([`NetConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Names the offending field and why it was refused.
    pub fn validate(&self) -> Result<(), String> {
        if self.q_points < 2 {
            return Err(format!(
                "q_points: {} is too few (a q axis needs q = 0 and q = 1)",
                self.q_points
            ));
        }
        if self.q_points > MAX_Q_POINTS {
            return Err(format!(
                "q_points: {} is past the limit of {MAX_Q_POINTS}",
                self.q_points
            ));
        }
        if self.runs == 0 {
            return Err("runs: need at least one run per point".into());
        }
        self.ideal_config().validate().map_err(|e| match e {
            IdealConfigError::EmptyGrid | IdealConfigError::TooManyNodes { .. } => {
                format!("ideal_grid_side: {e}")
            }
            IdealConfigError::NoUpdates | IdealConfigError::TooMuchWork { .. } => {
                format!("ideal_updates: {e}")
            }
            // Table 1's timing, which no effort field sets.
            _ => e.to_string(),
        })?;
        // Every Section-5 scenario is Table 2 at this duration, with
        // only Δ varied, and the budget does not read Δ.
        let net = NetConfig {
            duration_secs: self.net_duration_secs,
            ..NetConfig::table2()
        };
        net.validate()
            .map_err(|e| format!("net_duration_secs: {e}"))
    }

    /// The q values an x-axis sweep visits: `q_points` evenly spaced
    /// values over `[0, 1]`.
    #[must_use]
    pub fn q_values(&self) -> Vec<f64> {
        assert!(self.q_points >= 2, "need at least q = 0 and q = 1");
        (0..self.q_points)
            .map(|i| f64::from(i) / f64::from(self.q_points - 1))
            .collect()
    }
}

impl Default for Effort {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_methodology() {
        let e = Effort::paper();
        assert_eq!(e.runs, 10);
        assert_eq!(e.ideal_grid_side, 75);
        assert_eq!(e.net_duration_secs, 500.0);
        assert_eq!(e.hop_probe_near, 20);
        assert_eq!(e.hop_probe_far, 60);
    }

    #[test]
    fn q_values_span_unit_interval() {
        let e = Effort::quick();
        let qs = e.q_values();
        assert_eq!(qs.len(), 6);
        assert_eq!(qs[0], 0.0);
        assert_eq!(*qs.last().unwrap(), 1.0);
        for w in qs.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn presets_validate_and_bad_fields_are_named() {
        let quick = Effort::quick();
        let finest = Effort {
            q_points: MAX_Q_POINTS,
            ..quick
        };
        for ok in [Effort::paper(), quick, finest] {
            assert_eq!(ok.validate(), Ok(()));
        }
        let refused = |e: Effort, field: &str| {
            let err = e.validate().unwrap_err();
            assert!(err.starts_with(field), "{field}: {err}");
        };
        for q_points in [0, 1, MAX_Q_POINTS + 1, u32::MAX] {
            refused(Effort { q_points, ..quick }, "q_points");
        }
        refused(Effort { runs: 0, ..quick }, "runs");
        for (ideal_grid_side, ideal_updates, field) in [
            (0, 3, "ideal_grid_side"),
            (1025, 1, "ideal_grid_side"),
            (25, 0, "ideal_updates"),
            (1024, 17, "ideal_updates"),
        ] {
            let e = Effort {
                ideal_grid_side,
                ideal_updates,
                ..quick
            };
            refused(e, field);
        }
        let at_the_budget = Effort {
            ideal_grid_side: 1024,
            ideal_updates: 16,
            ..quick
        };
        assert_eq!(at_the_budget.validate(), Ok(()));
        for net_duration_secs in [f64::NAN, 1e10, 0.1] {
            refused(
                Effort {
                    net_duration_secs,
                    ..quick
                },
                "net_duration_secs",
            );
        }
    }

    #[test]
    fn quick_is_smaller_everywhere() {
        let p = Effort::paper();
        let q = Effort::quick();
        assert!(q.runs < p.runs);
        assert!(q.ideal_grid_side < p.ideal_grid_side);
        assert!(q.nz_runs < p.nz_runs);
        assert!(q.net_duration_secs < p.net_duration_secs);
    }
}
