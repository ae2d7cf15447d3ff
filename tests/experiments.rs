//! Integration coverage of every exhibit driver: each regenerates, renders,
//! and shows the paper's qualitative shape at quick effort.

use pbbf::prelude::*;

fn tiny() -> Effort {
    let mut e = Effort::quick();
    e.runs = 2;
    e.ideal_grid_side = 13;
    e.ideal_updates = 2;
    e.nz_runs = 20;
    e.net_duration_secs = 120.0;
    e.q_points = 3;
    e.hop_probe_near = 4;
    e.hop_probe_far = 8;
    e
}

#[test]
fn every_exhibit_regenerates_and_renders() {
    let e = tiny();
    for exp in Experiment::all() {
        let out = exp.run(&e, 99);
        let text = out.render_text();
        assert!(!text.trim().is_empty(), "{} rendered empty", exp.id());
        let csv = out.to_csv();
        assert!(csv.lines().count() >= 2, "{} CSV too small", exp.id());
        match out {
            Output::Table(t) => assert!(!t.is_empty()),
            Output::Figure(f) => {
                assert!(!f.series.is_empty(), "{} has no series", exp.id());
                assert!(
                    f.series.iter().any(|s| !s.is_empty()),
                    "{} has only empty series",
                    exp.id()
                );
            }
        }
    }
}

#[test]
fn exhibits_are_deterministic_per_seed() {
    let e = tiny();
    for exp in [Experiment::Fig06, Experiment::Fig07, Experiment::Fig12] {
        assert_eq!(
            exp.run(&e, 5),
            exp.run(&e, 5),
            "{} not deterministic",
            exp.id()
        );
    }
}

/// Figure 4 vs Figure 7 cross-check: the simulated threshold q for a given
/// p lands near the percolation-predicted boundary.
#[test]
fn simulated_threshold_brackets_percolation_prediction() {
    // On a 21x21 grid at p = 0.75: predicted q_min from the Newman-Ziff
    // critical ratio, then verify by simulation on both sides.
    let grid = Grid::square(21);
    let critical = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 60, &SimRng::new(3));
    let q_min = min_q_for_reliability(0.75, critical).unwrap();
    assert!(q_min > 0.1 && q_min < 0.9, "nontrivial boundary: {q_min}");

    let mut cfg = IdealConfig::table1();
    cfg.grid_side = 21;
    cfg.updates = 3;
    let frac = |q: f64, seed: u64| {
        let params = PbbfParams::new(0.75, q).unwrap();
        IdealSim::new(cfg, IdealMode::SleepScheduled(params))
            .run(seed)
            .fraction_of_updates_with_reliability(0.9)
    };
    let mut below = Summary::new();
    let mut above = Summary::new();
    for seed in 0..4 {
        below.record(frac((q_min - 0.25).max(0.0), seed));
        above.record(frac((q_min + 0.2).min(1.0), seed));
    }
    assert!(
        above.mean() > below.mean(),
        "reliability must jump across the boundary: {} !> {}",
        above.mean(),
        below.mean()
    );
    assert!(
        above.mean() > 0.6,
        "above boundary mostly reliable: {}",
        above.mean()
    );
}

/// Figures 14/15 shape: the PBBF-vs-PSM cross-over happens at lower q for
/// farther nodes (Section 5.2's observation), checked in aggregate form —
/// at a mid q, PBBF's advantage over PSM is larger at 5 hops than 2 hops.
#[test]
fn crossover_earlier_for_distant_nodes() {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 400.0;
    let mean = |mode: NetMode, hops: u32| {
        let mut s = Summary::new();
        for seed in 0..4 {
            if let Some(l) = NetSim::new(cfg, mode).run(seed).mean_latency_at_hops(hops) {
                s.record(l);
            }
        }
        s.mean()
    };
    let psm = NetMode::SleepScheduled(PbbfParams::PSM);
    let pbbf = NetMode::SleepScheduled(PbbfParams::new(0.5, 0.9).unwrap());
    let gain2 = mean(psm, 2) - mean(pbbf, 2);
    let gain5 = mean(psm, 5) - mean(pbbf, 5);
    assert!(
        gain5 > gain2,
        "per-hop savings compound: {gain5} !> {gain2}"
    );
}

/// Figure 17/18 shape: density helps latency and reliability.
#[test]
fn density_improves_latency_and_reliability() {
    // Full 500 s duration: shorter runs truncate the last updates'
    // dissemination and add noise that can mask the density effect.
    let mut sparse = NetConfig::table2();
    sparse.delta = 8.0;
    let mut dense = sparse;
    dense.delta = 18.0;
    let mode = NetMode::SleepScheduled(PbbfParams::new(0.25, 0.25).unwrap());

    let mut lat_sparse = Summary::new();
    let mut lat_dense = Summary::new();
    let mut rel_sparse = Summary::new();
    let mut rel_dense = Summary::new();
    for seed in 0..6 {
        let s = NetSim::new(sparse, mode).run(seed);
        let d = NetSim::new(dense, mode).run(seed);
        if let Some(l) = s.mean_latency() {
            lat_sparse.record(l);
        }
        if let Some(l) = d.mean_latency() {
            lat_dense.record(l);
        }
        rel_sparse.record(s.mean_delivery_ratio());
        rel_dense.record(d.mean_delivery_ratio());
    }
    assert!(
        lat_dense.mean() < lat_sparse.mean(),
        "denser => fewer hops => lower latency: {} !< {}",
        lat_dense.mean(),
        lat_sparse.mean()
    );
    assert!(
        rel_dense.mean() >= rel_sparse.mean() - 0.05,
        "denser => more redundancy: {} vs {}",
        rel_dense.mean(),
        rel_sparse.mean()
    );
}
