//! The Section-4 idealized-simulation table that Figures 4, 5 and 8–11
//! read.
//!
//! The table is the paper's (p, q) grid: one PBBF point per
//! [`IDEAL_P_VALUES`] entry and q value, then the PSM and NO PSM
//! baselines. A run of a point folds to one [`WIDTH`]-wide row holding
//! every metric the six figures read, so each figure is one column of
//! the table (`crate::sweep` holds the catalogue, the shards and the
//! layout).

use std::ops::Range;

use pbbf_core::PbbfParams;
use pbbf_ideal_sim::{IdealSim, Mode, RunStats};
use pbbf_metrics::Summary;

use crate::{mix, Effort};

/// The `p` values of the paper's idealized-simulation legends.
pub(crate) const IDEAL_P_VALUES: [f64; 5] = [0.05, 0.25, 0.375, 0.5, 0.75];

/// The baseline modes appended after the PBBF points; their behavior
/// does not depend on q.
const BASELINES: [(&str, Mode); 2] = [
    ("PSM", Mode::SleepScheduled(PbbfParams::PSM)),
    ("NO PSM", Mode::AlwaysOn),
];

/// Values per row: one per metric of figs 4, 5, 8, 9, 10 and 11.
pub(crate) const WIDTH: usize = 6;

/// The nodes at the two hop-probe distances, in index order: the only
/// records figs 9 and 10 read. A chunk lists them once, from its first
/// run.
struct Probes {
    near: Vec<usize>,
    far: Vec<usize>,
}

impl Probes {
    fn new(effort: &Effort, shortest: &[u32]) -> Self {
        let at = |d: u32| (0..shortest.len()).filter(|&i| shortest[i] == d).collect();
        Self {
            near: at(effort.hop_probe_near),
            far: at(effort.hop_probe_far),
        }
    }
}

/// Reads every column of one run in one pass over its records, in row
/// order: the fraction of updates that reached 90% (fig 4) and 99%
/// (fig 5) of the nodes, per-node energy per update (fig 8), hops to the
/// near (fig 9) and far (fig 10) probe distance, and per-hop latency
/// (fig 11). `None` where the run has no sample (no node reached at that
/// distance, no hop at all). Each value equals the [`RunStats`] method
/// that defines it bit for bit: the same sums and Welford means, fed in
/// the same update-then-node order.
fn row(probes: &Probes, r: &RunStats) -> [Option<f64>; WIDTH] {
    let mut reliable = [0usize; 2];
    let mut energy = Summary::new();
    let mut hops = [Summary::new(), Summary::new()];
    let (mut per_hop_sum, mut per_hop_count) = (0.0, 0u64);
    for u in &r.updates {
        let mut delivered = 0usize;
        for &(latency, h) in u.received.iter().flatten() {
            delivered += 1;
            if h > 0 {
                per_hop_sum += latency / f64::from(h);
                per_hop_count += 1;
            }
        }
        let fraction = delivered as f64 / u.received.len() as f64;
        for (hits, reliability) in reliable.iter_mut().zip([0.9, 0.99]) {
            *hits += usize::from(fraction >= reliability - 1e-12);
        }
        energy.record(u.energy_joules_per_node);
        for (s, nodes) in hops.iter_mut().zip([&probes.near, &probes.far]) {
            for &i in nodes {
                if let Some((_, h)) = u.received[i] {
                    s.record(f64::from(h));
                }
            }
        }
    }
    let updates = r.updates.len() as f64;
    let mean = |s: &Summary| (!s.is_empty()).then(|| s.mean());
    [
        Some(reliable[0] as f64 / updates),
        Some(reliable[1] as f64 / updates),
        Some(energy.mean()),
        mean(&hops[0]),
        mean(&hops[1]),
        (per_hop_count > 0).then(|| per_hop_sum / per_hop_count as f64),
    ]
}

/// The table's points in point order, each a mode and its seed: the
/// PBBF points p-major (seeded `mix(seed, pi << 32 | qi)`), then PSM and
/// NO PSM (seeded `mix(seed, label length)`).
pub(crate) fn points(effort: &Effort, seed: u64) -> Vec<(Mode, u64)> {
    let qs = effort.q_values();
    let mut points = Vec::new();
    for (pi, &p) in IDEAL_P_VALUES.iter().enumerate() {
        for (qi, &q) in qs.iter().enumerate() {
            let params = PbbfParams::new(p, q).expect("sweep p, q valid");
            points.push((
                Mode::SleepScheduled(params),
                mix(seed, (pi as u64) << 32 | qi as u64),
            ));
        }
    }
    for (label, mode) in BASELINES {
        points.push((mode, mix(seed, label.len() as u64)));
    }
    points
}

/// Executes runs `runs` of one point on one simulator, returning one row
/// per run, row-major. Run `r` draws from `mix(point seed, r)`, and each
/// run refills one `RunStats` and folds to its row before the next
/// starts, so a chunk allocates its reception records once.
pub(crate) fn run_chunk(
    effort: &Effort,
    (mode, seed): (Mode, u64),
    runs: Range<usize>,
) -> Vec<Option<f64>> {
    let sim = IdealSim::new(effort.ideal_config(), mode);
    let mut stats = RunStats::default();
    let mut probes = None;
    runs.flat_map(|r| {
        sim.run_into(mix(seed, r as u64), &mut stats);
        let probes = probes.get_or_insert_with(|| Probes::new(effort, &stats.shortest));
        row(probes, &stats)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;

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
    fn row_equals_the_run_stats_methods_bitwise() {
        let e = effort();
        let bits = |v: [Option<f64>; WIDTH]| v.map(|x| x.map(f64::to_bits));
        for (mode, seed) in points(&e, 7) {
            let sim = IdealSim::new(e.ideal_config(), mode);
            for r in 0..3 {
                let stats = sim.run(mix(seed, r));
                let probes = Probes::new(&e, &stats.shortest);
                let expected = [
                    Some(stats.fraction_of_updates_with_reliability(0.9)),
                    Some(stats.fraction_of_updates_with_reliability(0.99)),
                    Some(stats.mean_energy_per_update()),
                    stats.mean_hops_at_distance(e.hop_probe_near),
                    stats.mean_hops_at_distance(e.hop_probe_far),
                    stats.mean_per_hop_latency(),
                ];
                assert_eq!(
                    bits(row(&probes, &stats)),
                    bits(expected),
                    "{mode:?}, run {r}"
                );
            }
        }
    }

    #[test]
    fn fig04_has_paper_legends_and_threshold_shape() {
        let f = Experiment::Fig04.figure(&effort(), 1);
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
        let f4 = Experiment::Fig04.figure(&e, 2);
        let f5 = Experiment::Fig05.figure(&e, 2);
        for (a, b) in f4.series.iter().zip(&f5.series) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert!(pb.y <= pa.y + 1e-9, "{}: 99% cannot beat 90%", a.label);
            }
        }
    }

    #[test]
    fn fig08_energy_shape() {
        let f = Experiment::Fig08.figure(&effort(), 3);
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
        let f = Experiment::Fig09.figure(&e, 4);
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
        let f = Experiment::Fig11.figure(&effort(), 5);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        assert!(nopsm < psm / 3.0, "flooding beats PSM per hop");
        // High p, q=1: far below PSM.
        let s = f.series_named("PBBF-0.75").unwrap();
        assert!(s.y_at(1.0).unwrap() < psm);
    }
}
