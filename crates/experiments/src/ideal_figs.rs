//! Figures 4, 5, 8, 9, 10, 11 — the Section-4 idealized-simulation sweeps.

use pbbf_core::PbbfParams;
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode, RunStats};
use pbbf_metrics::{Figure, Series};

use crate::net_figs::{fold_point_values, RUN_CHUNK};
use crate::{mix, Effort};

/// The `p` values of the paper's idealized-simulation legends.
pub(crate) const IDEAL_P_VALUES: [f64; 5] = [0.05, 0.25, 0.375, 0.5, 0.75];

/// The baseline modes appended after the PBBF points; their behavior
/// does not depend on q.
const BASELINES: [(&str, Mode); 2] = [
    ("PSM", Mode::SleepScheduled(PbbfParams::PSM)),
    ("NO PSM", Mode::AlwaysOn),
];

fn ideal_config(effort: &Effort) -> IdealConfig {
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = effort.ideal_grid_side;
    cfg.updates = effort.ideal_updates;
    cfg
}

/// Sweeps the metric over q for every PBBF line, plus flat PSM and NO-PSM
/// baselines.
///
/// Every `(point, run-chunk)` pair of the sweep is one job of a flat
/// list ([`pbbf_parallel::par_run_grouped_chunked`]), so no core idles
/// at a point's last runs. A job builds one simulator and folds each run
/// to its metric before the next, so it holds one `RunStats` at a time.
/// Run `r` of a point always draws from `mix(point seed, r)` and each
/// point folds in run order, so the figure is bitwise identical for any
/// thread count.
fn sweep(
    effort: &Effort,
    seed: u64,
    metric: impl Fn(&RunStats) -> Option<f64> + Sync,
) -> Vec<Series> {
    let qs = effort.q_values();
    let mut points: Vec<(Mode, u64)> = Vec::new();
    for (pi, &p) in IDEAL_P_VALUES.iter().enumerate() {
        for (qi, &q) in qs.iter().enumerate() {
            let params = PbbfParams::new(p, q).expect("sweep p, q valid");
            let point_seed = mix(seed, (pi as u64) << 32 | qi as u64);
            points.push((Mode::SleepScheduled(params), point_seed));
        }
    }
    for (label, mode) in BASELINES {
        points.push((mode, mix(seed, label.len() as u64)));
    }

    let cfg = ideal_config(effort);
    let values = pbbf_parallel::par_run_grouped_chunked(
        points.len(),
        effort.runs as usize,
        RUN_CHUNK,
        |pt, runs| {
            let (mode, point_seed) = points[pt];
            let sim = IdealSim::new(cfg, mode);
            runs.map(|r| metric(&sim.run(mix(point_seed, r as u64))))
                .collect()
        },
    );
    let mut intervals = fold_point_values(values).into_iter();

    let mut series = Vec::new();
    for p in IDEAL_P_VALUES {
        let mut s = Series::new(format!("PBBF-{p}"));
        for &q in &qs {
            if let Some(ci) = intervals.next().expect("one interval per point") {
                s.push_with_err(q, ci.mean, ci.half_width);
            }
        }
        series.push(s);
    }
    for (label, _) in BASELINES {
        let mut s = Series::new(label);
        if let Some(ci) = intervals.next().expect("one interval per point") {
            for &q in &qs {
                s.push_with_err(q, ci.mean, ci.half_width);
            }
        }
        series.push(s);
    }
    series
}

fn threshold_figure(effort: &Effort, seed: u64, reliability: f64, number: u32) -> Figure {
    let series = sweep(effort, seed, |r| {
        Some(r.fraction_of_updates_with_reliability(reliability))
    });
    Figure::new(
        format!(
            "Figure {number}: Threshold behavior for {:.0}% reliability",
            reliability * 100.0
        ),
        "q",
        format!(
            "Fraction of updates received by {:.0}% of nodes",
            reliability * 100.0
        ),
        series,
    )
}

/// Figure 4: fraction of updates received by ≥90% of nodes vs `q`.
#[must_use]
pub fn fig04(effort: &Effort, seed: u64) -> Figure {
    threshold_figure(effort, seed, 0.9, 4)
}

/// Figure 5: fraction of updates received by ≥99% of nodes vs `q`.
#[must_use]
pub fn fig05(effort: &Effort, seed: u64) -> Figure {
    threshold_figure(effort, seed, 0.99, 5)
}

/// Figure 8: average per-node energy per update (J) vs `q`.
#[must_use]
pub fn fig08(effort: &Effort, seed: u64) -> Figure {
    let series = sweep(effort, seed, |r| Some(r.mean_energy_per_update()));
    Figure::new(
        "Figure 8: Average energy consumption",
        "q",
        "Joules consumed / total updates sent at source",
        series,
    )
}

fn hops_figure(effort: &Effort, seed: u64, distance: u32, number: u32) -> Figure {
    let series = sweep(effort, seed, |r| r.mean_hops_at_distance(distance));
    Figure::new(
        format!("Figure {number}: Average hops traveled to reach a node {distance} hops from the source"),
        "q",
        format!("Average {distance}-hop flooding hop count"),
        series,
    )
}

/// Figure 9: hops traveled by delivered copies to "near" probe nodes
/// (shortest distance 20 at paper scale) vs `q`.
#[must_use]
pub fn fig09(effort: &Effort, seed: u64) -> Figure {
    hops_figure(effort, seed, effort.hop_probe_near, 9)
}

/// Figure 10: hops traveled to "far" probe nodes (shortest distance 60 at
/// paper scale) vs `q`.
#[must_use]
pub fn fig10(effort: &Effort, seed: u64) -> Figure {
    hops_figure(effort, seed, effort.hop_probe_far, 10)
}

/// Figure 11: average per-hop update latency (s) vs `q`.
#[must_use]
pub fn fig11(effort: &Effort, seed: u64) -> Figure {
    let series = sweep(effort, seed, RunStats::mean_per_hop_latency);
    Figure::new(
        "Figure 11: Average per-hop update latency",
        "q",
        "Average per-hop update latency (s)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effort() -> Effort {
        let mut e = Effort::quick();
        e.runs = 2;
        e.ideal_grid_side = 15;
        e.ideal_updates = 2;
        e.q_points = 3;
        e.hop_probe_near = 4;
        e.hop_probe_far = 8;
        e
    }

    #[test]
    fn fig04_has_paper_legends_and_threshold_shape() {
        let f = fig04(&effort(), 1);
        assert_eq!(f.series.len(), 7);
        assert!(f.series_named("PBBF-0.5").is_some());
        assert!(f.series_named("PSM").is_some());
        assert!(f.series_named("NO PSM").is_some());
        // PSM and NO PSM always deliver everything.
        for label in ["PSM", "NO PSM"] {
            let s = f.series_named(label).unwrap();
            assert!(s.points.iter().all(|pt| pt.y > 0.99), "{label}");
        }
        // High p at q=0 fails, at q=1 succeeds: the threshold shape.
        let s = f.series_named("PBBF-0.75").unwrap();
        assert!(s.y_at(0.0).unwrap() < 0.5);
        assert!(s.y_at(1.0).unwrap() > 0.99);
    }

    #[test]
    fn fig05_is_stricter_than_fig04() {
        let e = effort();
        let f4 = fig04(&e, 2);
        let f5 = fig05(&e, 2);
        for (a, b) in f4.series.iter().zip(&f5.series) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert!(pb.y <= pa.y + 1e-9, "{}: 99% cannot beat 90%", a.label);
            }
        }
    }

    #[test]
    fn fig08_energy_shape() {
        let f = fig08(&effort(), 3);
        // Energy rises with q for every PBBF line.
        for p in IDEAL_P_VALUES {
            let s = f.series_named(&format!("PBBF-{p}")).unwrap();
            assert!(s.is_non_decreasing(0.05), "PBBF-{p} energy not rising");
        }
        // PSM is the floor, NO PSM the ceiling.
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        assert!(nopsm > psm * 5.0, "PSM {psm} vs NO PSM {nopsm}");
    }

    #[test]
    fn fig09_hops_decrease_toward_shortest_path() {
        let e = effort();
        let f = fig09(&e, 4);
        let d = f64::from(e.hop_probe_near);
        // PSM and NO PSM travel shortest paths exactly.
        for label in ["PSM", "NO PSM"] {
            let s = f.series_named(label).unwrap();
            assert!(s.points.iter().all(|pt| (pt.y - d).abs() < 1e-9), "{label}");
        }
        // PBBF at q=1 is close to shortest-path too (p_edge = 1).
        let s = f.series_named("PBBF-0.5").unwrap();
        let stretched = s.y_at(1.0).unwrap();
        assert!(stretched < d * 1.6, "hops {stretched} vs d {d}");
    }

    #[test]
    fn fig11_latency_ordering() {
        let f = fig11(&effort(), 5);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        assert!(nopsm < psm / 3.0, "flooding beats PSM per hop");
        // High p, q=1: far below PSM.
        let s = f.series_named("PBBF-0.75").unwrap();
        assert!(s.y_at(1.0).unwrap() < psm);
    }
}
