//! Determinism under parallelism: every figure must be bitwise identical
//! whether the run fan-out executes on one thread or many.
//!
//! This works because each Monte Carlo run derives its RNG stream from
//! `(seed, run index)` alone and results are folded in index order — the
//! thread count only changes *when* runs execute, never which stream they
//! see or the order they are reduced in.
//!
//! This file holds a single test: it manipulates the process-global
//! `PBBF_THREADS` variable, and integration-test files run as their own
//! process, so nothing else can race on it.

use pbbf::prelude::*;
use pbbf_experiments::{ext_gossip_vs_pbbf, ext_latency_tail, fig06, fig12};

fn tiny_effort() -> Effort {
    let mut e = Effort::quick();
    e.runs = 2;
    e.ideal_grid_side = 9;
    e.ideal_updates = 1;
    e.nz_runs = 8;
    e.net_duration_secs = 100.0;
    e.q_points = 3;
    e.hop_probe_near = 3;
    e.hop_probe_far = 5;
    e
}

/// A Monte Carlo figure, run in-process through its table's shards.
fn sweep_figure(exp: Experiment, effort: &Effort, seed: u64) -> Figure {
    match exp.run(effort, seed) {
        Output::Figure(f) => f,
        Output::Table(_) => unreachable!("{} is a figure", exp.id()),
    }
}

fn all_figures(effort: &Effort, seed: u64) -> Vec<Figure> {
    // fig04 / fig13 / fig17 cover the shard fan-out of the ideal, q
    // and Δ tables, ext_latency_tail the point-level fan-out, fig12 the
    // parallel Newman–Ziff threshold, fig06 / ext_gossip_vs_pbbf the
    // per-run fan-outs.
    vec![
        sweep_figure(Experiment::Fig04, effort, seed),
        fig06(effort, seed),
        fig12(effort, seed),
        sweep_figure(Experiment::Fig13, effort, seed),
        sweep_figure(Experiment::Fig17, effort, seed),
        ext_gossip_vs_pbbf(effort, seed),
        ext_latency_tail(effort, seed),
    ]
}

#[test]
fn figures_identical_across_thread_counts() {
    let effort = tiny_effort();
    let seed = 2005;
    // `pbbf boundary`'s Newman–Ziff sweeps fan out across threads too.
    let (grid, base) = (Grid::square(12), SimRng::new(seed));
    let boundary = || pq_boundary(grid.topology(), grid.center(), 0.9, &[0.5, 1.0], 16, &base);

    std::env::set_var("PBBF_THREADS", "1");
    let serial = all_figures(&effort, seed);
    let serial_boundary = boundary();

    std::env::set_var("PBBF_THREADS", "4");
    let parallel = all_figures(&effort, seed);
    assert_eq!(boundary(), serial_boundary, "pq_boundary, 4 threads");

    std::env::remove_var("PBBF_THREADS");
    let auto = all_figures(&effort, seed);

    for ((s, p), a) in serial.iter().zip(&parallel).zip(&auto) {
        assert_eq!(s, p, "1 thread vs 4 threads: {}", s.title);
        assert_eq!(s, a, "1 thread vs auto threads: {}", s.title);
    }
    // Bitwise equality of every series value, stated explicitly: the
    // Figure PartialEq above already compares f64s exactly, so any
    // reduction-order difference would have failed it.
    for (s, p) in serial.iter().zip(&parallel) {
        for (ss, ps) in s.series.iter().zip(&p.series) {
            for (a, b) in ss.points.iter().zip(&ps.points) {
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.err.to_bits(), b.err.to_bits());
            }
        }
    }
}
