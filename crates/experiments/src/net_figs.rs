//! The two Section-5 realistic-simulation tables that Figures 13–18
//! read.
//!
//! Figs 13–16 read the q table: q over `effort.q_values()` at the
//! Table-2 density, one PBBF point per [`NET_P_VALUES`] entry and q
//! value, then the PSM and NO PSM baselines once. Figs 17–18 read the Δ
//! table: density over [`DELTA_VALUES`] at `q =` [`FIXED_Q`], one point
//! per [`DELTA_P_VALUES`] entry or baseline and density. A run of either
//! table folds to one [`WIDTH`]-wide row holding every metric the six
//! figures read, so each figure is one column of its table
//! (`crate::sweep` holds the catalogue, the shards and the layout).

use std::ops::Range;

use pbbf_core::PbbfParams;
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim};

use crate::{mix, Effort};

/// Salt of the deployment-seed stream. Every protocol mode of a sweep
/// shares run `r`'s deployment `mix(mix(seed, DEPLOY_SALT), r)` — drawn
/// once via the [`DeploymentCache`] and reused, and a paired comparison
/// methodologically: modes are measured on identical scenarios.
pub(crate) const DEPLOY_SALT: u64 = 0x00DE_F10E_0D5A_17E5;

/// The `p` values of the paper's Section-5 legends (Figs 13–16).
pub(crate) const NET_P_VALUES: [f64; 4] = [0.05, 0.1, 0.25, 0.5];

/// The `p` values of the density sweeps (the paper drops `p = 0.5`
/// from Figs 17–18).
pub(crate) const DELTA_P_VALUES: [f64; 3] = [0.05, 0.1, 0.25];

/// The density values of Figs 17–18.
pub(crate) const DELTA_VALUES: [f64; 6] = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0];

/// The fixed `q` of the density sweeps (Table 2).
const FIXED_Q: f64 = 0.25;

/// The baseline modes appended after the PBBF points of every sweep.
const BASELINES: [(&str, NetMode); 2] = [
    ("PSM", NetMode::SleepScheduled(PbbfParams::PSM)),
    ("NO PSM", NetMode::AlwaysOn),
];

fn net_config(effort: &Effort, delta: f64) -> NetConfig {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = effort.net_duration_secs;
    cfg.delta = delta;
    cfg
}

/// One sweep point: a scenario, a protocol mode, the point's seed, and
/// the sweep-wide deployment-seed base it shares with the other modes.
pub(crate) struct NetPoint {
    cfg: NetConfig,
    mode: NetMode,
    seed: u64,
    deploy_seed: u64,
}

/// Values per row, in both tables: mean per-node joules per generated
/// update (fig 13), mean latency of the nodes 2 (fig 14) and 5 (fig 15)
/// hops from the source, mean fraction of updates each node received
/// (figs 16, 18), and mean latency over every reception (fig 17).
pub(crate) const WIDTH: usize = 5;

/// Reads every column of one run, in row order. `None` where the run has
/// no sample (no node at that hop distance, no reception at all).
fn row(r: &NetRunStats) -> [Option<f64>; WIDTH] {
    [
        Some(r.energy_per_update()),
        r.mean_latency_at_hops(2),
        r.mean_latency_at_hops(5),
        Some(r.mean_delivery_ratio()),
        r.mean_latency(),
    ]
}

/// The q table's points in point order: the PBBF points p-major, then
/// the baselines, all at the Table-2 density. A pure function of
/// `(effort, seed)` — the distributed fabric relies on every process
/// rebuilding the identical grid from a shard's job.
pub(crate) fn q_table(effort: &Effort, seed: u64) -> Vec<NetPoint> {
    let deploy_seed = mix(seed, DEPLOY_SALT);
    let cfg = net_config(effort, NetConfig::table2().delta);
    let qs = effort.q_values();
    let mut points = Vec::new();
    for (pi, &p) in NET_P_VALUES.iter().enumerate() {
        for (qi, &q) in qs.iter().enumerate() {
            points.push(NetPoint {
                cfg,
                mode: NetMode::SleepScheduled(PbbfParams::new(p, q).expect("valid sweep")),
                seed: mix(seed, (pi as u64) << 32 | qi as u64),
                deploy_seed,
            });
        }
    }
    for (label, mode) in BASELINES {
        // Shifted past the (pi << 32 | qi) PBBF salts (like the Δ
        // table) so baseline runs never reuse a PBBF point's per-run
        // seeds.
        points.push(NetPoint {
            cfg,
            mode,
            seed: mix(seed, (label.len() as u64) << 40),
            deploy_seed,
        });
    }
    points
}

/// The Δ table's points in point order: every PBBF series, then every
/// baseline, each over [`DELTA_VALUES`]. A pure function of
/// `(effort, seed)`, like [`q_table`].
pub(crate) fn delta_table(effort: &Effort, seed: u64) -> Vec<NetPoint> {
    let deploy_seed = mix(seed, DEPLOY_SALT);
    let mut points = Vec::new();
    for (pi, &p) in DELTA_P_VALUES.iter().enumerate() {
        for (di, &delta) in DELTA_VALUES.iter().enumerate() {
            points.push(NetPoint {
                cfg: net_config(effort, delta),
                mode: NetMode::SleepScheduled(PbbfParams::new(p, FIXED_Q).expect("valid")),
                seed: mix(seed, (pi as u64) << 32 | di as u64),
                deploy_seed,
            });
        }
    }
    for (label, mode) in BASELINES {
        for (di, &delta) in DELTA_VALUES.iter().enumerate() {
            points.push(NetPoint {
                cfg: net_config(effort, delta),
                mode,
                seed: mix(seed, (label.len() as u64) << 40 | di as u64),
                deploy_seed,
            });
        }
    }
    points
}

/// Executes runs `runs` of one point, returning one row per run,
/// row-major.
///
/// Each run's RNG stream depends only on `(point seed, run index)`.
/// Deployments resolve through the process-wide registry
/// ([`DeploymentCache::global`]) — the single resolution path, inside
/// the chunk: every point with the same geometry reuses run `r`'s
/// connected deployment instead of redrawing it per protocol mode, and
/// sweeps in *other* exhibits with the same geometry and
/// deployment-seed stream (the q table vs the latency-tail and
/// k-trade-off extensions) resolve to the same entries. Each run shares
/// the cached topology by `Arc` straight into its channel — no per-run
/// copy. The cached draw is a pure function of `(deployment seed,
/// geometry)`, so all of this sharing preserves thread-count (and
/// process-count) invariance.
pub(crate) fn run_chunk(pt: &NetPoint, runs: Range<usize>) -> Vec<Option<f64>> {
    let sim = NetSim::new(pt.cfg, pt.mode);
    runs.flat_map(|r| {
        let deployment =
            DeploymentCache::global().get_or_draw(&pt.cfg, mix(pt.deploy_seed, r as u64));
        row(&sim.run_on(mix(pt.seed, r as u64), &deployment))
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
        e.net_duration_secs = 150.0;
        e.q_points = 3;
        e
    }

    #[test]
    fn fig13_energy_shape() {
        let f = Experiment::Fig13.figure(&effort(), 1);
        assert_eq!(f.series.len(), 6);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        let nopsm = f.series_named("NO PSM").unwrap().y_at(0.0).unwrap();
        // At the full 500 s duration the gap reaches the paper's ~2 J; the
        // quick 150 s preset shrinks the NO-PSM ceiling proportionally.
        assert!(nopsm > psm + 1.2, "PSM saves energy: {psm} vs {nopsm}");
        for p in NET_P_VALUES {
            let s = f.series_named(&format!("PBBF-{p}")).unwrap();
            assert!(s.is_non_decreasing(0.3), "PBBF-{p} energy rises with q");
            // PBBF at q=0 is near PSM; at q=1 near NO PSM.
            assert!(s.y_at(0.0).unwrap() < psm + 1.0);
            assert!(s.y_at(1.0).unwrap() > nopsm - 1.0);
        }
    }

    #[test]
    fn fig16_reliability_shape() {
        let f = Experiment::Fig16.figure(&effort(), 2);
        let psm = f.series_named("PSM").unwrap().y_at(0.0).unwrap();
        assert!(psm > 0.75, "PSM reliable: {psm}");
        // Large p suffers at q = 0 and recovers by q = 1.
        let s = f.series_named("PBBF-0.5").unwrap();
        assert!(s.y_at(0.0).unwrap() < psm);
        assert!(s.y_at(1.0).unwrap() > s.y_at(0.0).unwrap());
    }

    #[test]
    fn fig17_latency_falls_with_density() {
        let mut e = effort();
        e.runs = 2;
        let f = Experiment::Fig17.figure(&e, 3);
        let psm = f.series_named("PSM").unwrap();
        let lo = psm.y_at(8.0).unwrap();
        let hi = psm.y_at(18.0).unwrap();
        assert!(
            hi < lo * 1.2,
            "denser networks have fewer hops: {lo} -> {hi}"
        );
        let nopsm = f.series_named("NO PSM").unwrap();
        assert!(nopsm.y_at(10.0).unwrap() < psm.y_at(10.0).unwrap());
    }
}
