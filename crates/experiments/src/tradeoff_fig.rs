//! Figure 12 — the energy-latency trade-off frontier at 99% reliability.

use pbbf_core::analysis::tradeoff_frontier;
use pbbf_core::AnalysisParams;
use pbbf_des::SimRng;
use pbbf_metrics::{Figure, Series};
use pbbf_percolation::critical_bond_ratio;
use pbbf_topology::Grid;

use crate::Effort;

/// Figure 12: energy vs latency with 99% reliability.
///
/// For each `p`, the minimum reliable `q` comes from the percolation
/// threshold (the paper reads it off Figure 5); Eq. 9 gives the expected
/// link latency at `(p, q_min)` and Eq. 7/8 the energy. Tracing `p`
/// sweeps out the inverse energy–latency frontier.
///
/// The Newman–Ziff threshold sweeps fan out across threads with per-sweep
/// substreams (same caveat as fig06/fig07: the stream layout differs from
/// the old shared sequential RNG, so values for a fixed seed moved when
/// the fan-out landed; thread-count invariance is the guarantee).
#[must_use]
pub fn fig12(effort: &Effort, seed: u64) -> Figure {
    let params = AnalysisParams::table1();
    let grid = Grid::square(30);
    let base = SimRng::new(seed);
    let critical = critical_bond_ratio(grid.topology(), grid.center(), 0.99, effort.nz_runs, &base);

    // p below (1 - critical) needs no q and pins latency at its p-specific
    // value; the interesting frontier is p from just below the threshold
    // up to 1.
    let p_values: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
    let frontier = tradeoff_frontier(&params, critical, &p_values);

    let mut s = Series::new("99% reliability frontier");
    let mut pts: Vec<(f64, f64)> = frontier
        .iter()
        .map(|t| (t.link_latency, t.joules_per_update))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
    for (lat, joules) in pts {
        s.push(lat, joules);
    }
    Figure::new(
        "Figure 12: Energy-latency trade-off for 99% reliability",
        "Average per-hop update latency (s)",
        "Joules consumed / total updates sent at source",
        vec![s],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_is_inverse_and_bounded() {
        let mut e = Effort::quick();
        e.nz_runs = 30;
        let f = fig12(&e, 1);
        let s = &f.series[0];
        assert!(s.len() >= 5, "frontier has several points");
        // Energy falls as latency rises: the inverse trade-off.
        assert!(s.is_non_increasing(1e-9));
        // Latencies live in [L1, L1 + L2]; energies in (PSM, NO-PSM].
        let params = AnalysisParams::table1();
        for pt in &s.points {
            assert!(pt.x >= params.l1 - 1e-9 && pt.x <= params.l1 + params.l2() + 1e-9);
            assert!(pt.y > 0.29 && pt.y <= 3.01, "joules {}", pt.y);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut e = Effort::quick();
        e.nz_runs = 20;
        assert_eq!(fig12(&e, 7), fig12(&e, 7));
    }
}
