//! Figures 6 and 7 — the percolation analysis.

use pbbf_des::SimRng;
use pbbf_metrics::{Figure, Series};
use pbbf_percolation::{critical_bond_ratio, pq_boundary};
use pbbf_topology::Grid;

use crate::Effort;

/// The reliability levels of the paper's percolation figures.
pub(crate) const RELIABILITY_LEVELS: [f64; 4] = [0.80, 0.90, 0.99, 1.00];

/// The grid sizes of Figure 6.
pub(crate) const FIG6_GRID_SIDES: [u32; 4] = [10, 20, 30, 40];

/// Figure 6: critical bond ratio `p_c^bond` for 10×10 … 40×40 grids at
/// 80/90/99/100% reliability, estimated by Newman–Ziff sweeps.
#[must_use]
pub fn fig06(effort: &Effort, seed: u64) -> Figure {
    let mut series: Vec<Series> = RELIABILITY_LEVELS
        .iter()
        .map(|r| Series::new(format!("{:.0}% Reliability", r * 100.0)))
        .collect();
    for &side in &FIG6_GRID_SIDES {
        let grid = Grid::square(side);
        for (si, &rel) in RELIABILITY_LEVELS.iter().enumerate() {
            // Newman–Ziff sweeps fan out across threads; each sweep draws
            // an independent substream of this per-cell base stream.
            let base = SimRng::new(seed).substream(u64::from(side) << 8 | si as u64);
            let c = critical_bond_ratio(grid.topology(), grid.center(), rel, effort.nz_runs, &base);
            series[si].push(f64::from(side), c);
        }
    }
    Figure::new(
        "Figure 6: Critical bond ratio for various grid sizes",
        "Grid side (NxN)",
        "Fraction of occupied bonds",
        series,
    )
}

/// Figure 7: the minimum `q` for each `p` achieving a reliability level on
/// a 30×30 grid (Remark 1 applied to the Figure-6 thresholds).
#[must_use]
pub fn fig07(effort: &Effort, seed: u64) -> Figure {
    let grid = Grid::square(30);
    let p_values: Vec<f64> = (0..=20).map(|i| f64::from(i) / 20.0).collect();
    let series = RELIABILITY_LEVELS
        .iter()
        .enumerate()
        .map(|(si, &rel)| {
            let base = SimRng::new(seed).substream(si as u64);
            let (_, boundary) = pq_boundary(
                grid.topology(),
                grid.center(),
                rel,
                &p_values,
                effort.nz_runs,
                &base,
            );
            let mut s = Series::new(format!("{:.0}% Reliability", rel * 100.0));
            for (p, q) in boundary {
                s.push(p, q);
            }
            s
        })
        .collect();
    Figure::new(
        "Figure 7: Relationship between p and q for a given reliability level in a 30x30 grid",
        "p",
        "q",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_thresholds_ordered_by_reliability() {
        let mut e = Effort::quick();
        e.nz_runs = 25;
        let f = fig06(&e, 1);
        assert_eq!(f.series.len(), 4);
        assert_eq!(f.x_values(), vec![10.0, 20.0, 30.0, 40.0]);
        for x in f.x_values() {
            let c80 = f.series_named("80% Reliability").unwrap().y_at(x).unwrap();
            let c99 = f.series_named("99% Reliability").unwrap().y_at(x).unwrap();
            let c100 = f.series_named("100% Reliability").unwrap().y_at(x).unwrap();
            assert!(c80 < c99 && c99 < c100, "ordering at grid {x}");
            assert!((0.4..1.0).contains(&c80), "c80 {c80} plausible");
        }
    }

    #[test]
    fn fig07_boundary_shape() {
        let mut e = Effort::quick();
        e.nz_runs = 25;
        let f = fig07(&e, 2);
        for s in &f.series {
            // q_min grows with p.
            assert!(s.is_non_decreasing(1e-9), "{}", s.label);
            // p = 0 never needs q.
            assert_eq!(s.y_at(0.0), Some(0.0));
        }
        // Stricter reliability needs at least as much q everywhere.
        let s80 = f.series_named("80% Reliability").unwrap();
        let s100 = f.series_named("100% Reliability").unwrap();
        for (a, b) in s80.points.iter().zip(&s100.points) {
            assert!(b.y >= a.y - 1e-9);
        }
    }
}
