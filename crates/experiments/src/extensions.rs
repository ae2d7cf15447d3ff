//! Extension experiments beyond the paper's figures.
//!
//! Four studies the paper motivates but does not plot:
//!
//! * [`ext_gossip_vs_pbbf`] — Section 2 contrasts gossip (site
//!   percolation, [5]) with PBBF (bond percolation); this exhibit plots
//!   both reliability curves on one axis.
//! * [`ext_adaptive_convergence`] — Section 6 sketches dynamic `p`/`q`
//!   adjustment; this exhibit traces the adaptive controller's mean
//!   parameters over time in the realistic simulator.
//! * [`ext_latency_tail`] — the figures plot mean latencies; deployments
//!   care about tails. This exhibit reports p50/p90/p99 delivery latency
//!   vs `q`.
//! * [`ext_k_tradeoff`] — Section 5.1's `k` most-recent-updates
//!   trade-off, omitted from the paper for space.
//!
//! Each fans its runs out with [`pbbf_parallel::par_run`] (a swept
//! exhibit runs every `(point, run)` pair as one job) and folds each
//! point's runs in run order, so its figure is bitwise identical for any
//! thread count. The swept ones panic on an effort [`Effort::validate`]
//! refuses.

use pbbf_core::adaptive::AdaptiveConfig;
use pbbf_core::PbbfParams;
use pbbf_des::SimRng;
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode};
use pbbf_metrics::{Figure, Histogram, Series};
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetSim};
use pbbf_percolation::NewmanZiff;
use pbbf_topology::Grid;

use crate::{mix, Effort};

/// The effort's runs per point (a point of no runs has no mean), or a
/// panic with `"{exhibit}: {message}"`, as [`crate::Experiment::run`]'s.
fn validated_runs(exhibit: &str, effort: &Effort) -> usize {
    if let Err(e) = effort.validate() {
        panic!("{exhibit}: {e}");
    }
    effort.runs as usize
}

/// Gossip (site percolation) vs PBBF (bond percolation) reliability on one
/// grid: delivered fraction vs the forwarding knob (`g` for gossip, `q`
/// at fixed `p = 0.75` for PBBF), plus the Newman–Ziff site-sweep
/// prediction for gossip.
#[must_use]
pub fn ext_gossip_vs_pbbf(effort: &Effort, seed: u64) -> Figure {
    let runs = validated_runs("ext_gossip_vs_pbbf", effort);
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = effort.ideal_grid_side;
    cfg.updates = effort.ideal_updates;
    let xs = effort.q_values();

    let mut gossip = Series::new("Gossip (simulated)");
    let mut pbbf = Series::new("PBBF-0.75 (simulated)");
    // Every (x value, run) pair of both simulators is one job. Per-job
    // streams depend only on (seed, x index, run index).
    let fractions = pbbf_parallel::par_run(xs.len() * runs, |job| {
        let (xi, r) = (job / runs, job % runs);
        let x = xs[xi];
        let s = mix(seed, (xi as u64) << 32 | r as u64);
        let g = IdealSim::new(
            cfg,
            Mode::Gossip {
                forward_probability: x,
            },
        )
        .run(s)
        .mean_delivered_fraction();
        let params = PbbfParams::new(0.75, x).expect("valid");
        let p = IdealSim::new(cfg, Mode::SleepScheduled(params))
            .run(s)
            .mean_delivered_fraction();
        (g, p)
    });
    for (&x, point) in xs.iter().zip(fractions.chunks_exact(runs)) {
        let (mut g_frac, mut p_frac) = (0.0, 0.0);
        for &(g, p) in point {
            g_frac += g;
            p_frac += p;
        }
        gossip.push(x, g_frac / f64::from(effort.runs));
        pbbf.push(x, p_frac / f64::from(effort.runs));
    }

    // Newman–Ziff site-percolation prediction: mean source-cluster
    // fraction when a fraction x of the other sites forward. Each sweep
    // draws an independent substream so the fan-out stays deterministic.
    let grid = Grid::square(effort.ideal_grid_side);
    let nz = NewmanZiff::new(grid.topology(), grid.center());
    let base = SimRng::new(mix(seed, 0xFACE));
    let sweeps: Vec<Vec<f64>> = pbbf_parallel::par_run(effort.nz_runs.max(1) as usize, |i| {
        let mut rng = base.substream(i as u64);
        nz.site_sweep(&mut rng)
    });
    let mut predicted = Series::new("Gossip (site percolation)");
    let n = grid.topology().len();
    for &x in &xs {
        let k = ((x * (n - 1) as f64).round() as usize).min(n - 1);
        let mean: f64 = sweeps.iter().map(|s| s[k]).sum::<f64>() / sweeps.len() as f64;
        predicted.push(x, mean);
    }

    Figure::new(
        "Extension A: gossip (site percolation) vs PBBF (bond percolation)",
        "forwarding knob (g for gossip, q at p = 0.75 for PBBF)",
        "Delivered fraction",
        vec![gossip, predicted, pbbf],
    )
}

/// The adaptive controller's trajectory: mean `p` and `q` across nodes at
/// every beacon interval, averaged over runs, plus the resulting delivery
/// ratio in the legend-free final row.
#[must_use]
pub fn ext_adaptive_convergence(effort: &Effort, seed: u64) -> Figure {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = effort.net_duration_secs;
    let initial = PbbfParams::new(0.1, 0.3).expect("valid");
    let mode = NetMode::Adaptive(AdaptiveConfig::default_for(initial));
    let sim = NetSim::new(cfg, mode);

    // Runs fan out; traces are folded sequentially in run order below, so
    // the accumulated means match the sequential loop exactly.
    let traces = pbbf_parallel::par_run(effort.runs as usize, |r| {
        sim.run(mix(seed, r as u64)).adaptive_trace
    });
    let mut p_acc: Vec<f64> = Vec::new();
    let mut q_acc: Vec<f64> = Vec::new();
    let mut runs_done = 0u32;
    for trace in traces {
        if p_acc.is_empty() {
            p_acc = vec![0.0; trace.len()];
            q_acc = vec![0.0; trace.len()];
        }
        for (i, &(p, q)) in trace.iter().enumerate() {
            if i < p_acc.len() {
                p_acc[i] += p;
                q_acc[i] += q;
            }
        }
        runs_done += 1;
    }
    let mut p_series = Series::new("mean p");
    let mut q_series = Series::new("mean q");
    for (i, (p, q)) in p_acc.iter().zip(&q_acc).enumerate() {
        let t = i as f64 * cfg.beacon_interval_secs;
        p_series.push(t, p / f64::from(runs_done));
        q_series.push(t, q / f64::from(runs_done));
    }
    Figure::new(
        "Extension B: adaptive PBBF parameter convergence (Section 6 heuristics)",
        "time (s)",
        "mean parameter value across nodes",
        vec![p_series, q_series],
    )
}

/// Delivery-latency tail percentiles vs `q` for PBBF-0.5 in the realistic
/// simulator.
#[must_use]
pub fn ext_latency_tail(effort: &Effort, seed: u64) -> Figure {
    let runs = validated_runs("ext_latency_tail", effort);
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = effort.net_duration_secs;
    let qs = effort.q_values();
    let mut p50 = Series::new("p50");
    let mut p90 = Series::new("p90");
    let mut p99 = Series::new("p99");
    // Every (q, run) pair is one job. Run r's deployment resolves through
    // the process-wide registry and is shared across the q points (the q
    // sweep compares operating points on identical scenarios) and with
    // the fig13–16 sweeps, which use the same geometry and
    // deployment-seed stream.
    let deploy_seed = mix(seed, crate::net_figs::DEPLOY_SALT);
    let all_stats = pbbf_parallel::par_run(qs.len() * runs, |job| {
        let (qi, r) = (job / runs, job % runs);
        let mode = NetMode::SleepScheduled(PbbfParams::new(0.5, qs[qi]).expect("valid"));
        let deployment = DeploymentCache::global().get_or_draw(&cfg, mix(deploy_seed, r as u64));
        NetSim::new(cfg, mode).run_on(mix(seed, (qi as u64) << 32 | r as u64), &deployment)
    });
    for (&q, point_stats) in qs.iter().zip(all_stats.chunks_exact(runs)) {
        let mut hist = Histogram::new(0.0, 120.0, 240);
        for s in point_stats {
            for (u, gen) in s.gen_times.iter().enumerate() {
                for (node, t) in s.receptions[u].iter().enumerate() {
                    if node == s.source.index() {
                        continue;
                    }
                    if let Some(t) = t {
                        hist.record(t.duration_since(*gen).as_secs());
                    }
                }
            }
        }
        if hist.count() > 0 {
            p50.push(q, hist.quantile(0.5));
            p90.push(q, hist.quantile(0.9));
            p99.push(q, hist.quantile(0.99));
        }
    }
    Figure::new(
        "Extension C: delivery-latency tail vs q (PBBF-0.5, realistic sim)",
        "q",
        "delivery latency (s)",
        vec![p50, p90, p99],
    )
}

/// The `k` trade-off the paper describes but omits "for space
/// considerations" (Section 5.1): each packet carries the `k` most recent
/// updates, so a node only needs ~1/k of the packets — delivery ratio
/// rises with `k` at the cost of per-packet byte overhead.
///
/// Plotted: delivery ratio vs `k` for PBBF-0.5 at a lossy operating point
/// (`q = 0.25`), where redundancy across packets matters most.
#[must_use]
pub fn ext_k_tradeoff(effort: &Effort, seed: u64) -> Figure {
    let runs = validated_runs("ext_k_tradeoff", effort);
    let ks = [1usize, 2, 4, 8];
    let mut ratio = Series::new("delivery ratio");
    let mut payload = Series::new("update payloads per packet");
    // Every (k, run) pair is one job. `k` does not enter the deployment
    // geometry, so run r's scenario resolves, through the process-wide
    // registry, to the same entry across the whole k sweep and across the
    // other Table-2-geometry sweeps of the process.
    let deploy_seed = mix(seed, crate::net_figs::DEPLOY_SALT);
    let ratios = pbbf_parallel::par_run(ks.len() * runs, |job| {
        let (ki, r) = (job / runs, job % runs);
        let mut cfg = NetConfig::table2();
        cfg.duration_secs = effort.net_duration_secs;
        cfg.k = ks[ki];
        let mode = NetMode::SleepScheduled(PbbfParams::new(0.5, 0.25).expect("valid"));
        let deployment = DeploymentCache::global().get_or_draw(&cfg, mix(deploy_seed, r as u64));
        NetSim::new(cfg, mode)
            .run_on(mix(seed, (ki as u64) << 32 | r as u64), &deployment)
            .mean_delivery_ratio()
    });
    for (&k, point_ratios) in ks.iter().zip(ratios.chunks_exact(runs)) {
        let acc: f64 = point_ratios.iter().sum();
        ratio.push(k as f64, acc / f64::from(effort.runs));
        payload.push(k as f64, k as f64);
    }
    Figure::new(
        "Extension D: the k most-recent-updates trade-off (Section 5.1)",
        "k (updates per packet)",
        "updates received / total updates sent at source",
        vec![ratio, payload],
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
        e.nz_runs = 15;
        e.net_duration_secs = 200.0;
        e.q_points = 4;
        e
    }

    #[test]
    fn gossip_vs_pbbf_shapes() {
        let f = ext_gossip_vs_pbbf(&effort(), 1);
        assert_eq!(f.series.len(), 3);
        let g = f.series_named("Gossip (simulated)").unwrap();
        // Bimodal: near zero at g = 0, near one at g = 1.
        assert!(g.points.first().unwrap().y < 0.2);
        assert!(g.points.last().unwrap().y > 0.9);
        // Prediction tracks simulation within coarse tolerance at the
        // endpoints.
        let pred = f.series_named("Gossip (site percolation)").unwrap();
        assert!((pred.points.last().unwrap().y - 1.0).abs() < 0.05);
        // PBBF at q = 1 is fully reliable too (p_edge = 1).
        let pbbf = f.series_named("PBBF-0.75 (simulated)").unwrap();
        assert!(pbbf.points.last().unwrap().y > 0.95);
    }

    #[test]
    fn adaptive_convergence_trace_exists() {
        let f = ext_adaptive_convergence(&effort(), 2);
        let p = f.series_named("mean p").unwrap();
        let q = f.series_named("mean q").unwrap();
        assert!(p.len() > 10, "one point per beacon interval");
        assert_eq!(p.len(), q.len());
        // Parameters stay in range.
        for pt in p.points.iter().chain(&q.points) {
            assert!((0.0..=1.0).contains(&pt.y));
        }
    }

    #[test]
    fn k_improves_delivery_under_losses() {
        let mut e = effort();
        e.net_duration_secs = 300.0;
        let f = ext_k_tradeoff(&e, 4);
        let r = f.series_named("delivery ratio").unwrap();
        assert_eq!(r.len(), 4);
        let k1 = r.y_at(1.0).unwrap();
        let k8 = r.y_at(8.0).unwrap();
        assert!(
            k8 >= k1 - 0.02,
            "larger k cannot hurt delivery: k=1 {k1} vs k=8 {k8}"
        );
    }

    #[test]
    fn latency_tail_ordering() {
        let f = ext_latency_tail(&effort(), 3);
        let p50 = f.series_named("p50").unwrap();
        let p99 = f.series_named("p99").unwrap();
        for (a, b) in p50.points.iter().zip(&p99.points) {
            assert!(b.y >= a.y, "p99 dominates p50");
        }
    }
}
