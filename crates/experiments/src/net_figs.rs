//! Figures 13–18 — the Section-5 realistic-simulation sweeps.
//!
//! The six figures are columns of two tables. A table is one
//! [`SweepAxis`]: its parameter grid ([`SweepAxis::points`]) and a
//! Monte Carlo slice of it ([`SweepAxis::run_chunk`]) that returns one
//! fixed-width [`Row`] per run, holding every metric the axis's figures
//! read ([`Column`]). Figs 13–16 read the [`SweepAxis::Q`] table, figs
//! 17–18 the [`SweepAxis::Delta`] table. A figure ([`NetSweep`]) is a
//! catalogue id, its axis, the column it reads and its dressing:
//! [`NetSweep::assemble`] folds the column run by run into per-point
//! confidence intervals ([`fold_point_values`]) and lays them out as
//! series.
//!
//! Every figure runs as shards of its table (`crate::sweep`): in-process
//! ([`NetSweep::run`], what `pbbf reproduce` calls) the shards fan
//! across threads; under `pbbf sweep` they run on `pbbf worker`
//! processes, each table once for every figure that reads it. A shard's
//! rows depend only on `(axis, effort, seed, point, run range)`, and
//! the fold consumes them in manifest order, so *where* a shard ran —
//! this thread pool, another process, a retried worker — cannot change
//! a figure's bytes.

use pbbf_core::PbbfParams;
use pbbf_metrics::{ConfidenceInterval, Figure, Series, Summary};
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim};

use crate::sweep::{assemble_sweep, run_sweep_shard, sweep_manifest};
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
pub(crate) const FIXED_Q: f64 = 0.25;

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

/// The scheduling granularity of a sweep's Monte Carlo fan-out: runs per
/// `(point, run-chunk)` shard ([`crate::sweep::sweep_manifest`]). One
/// shard amortizes its point lookup and simulator construction over
/// several runs, while the paper-scale sweeps (points × runs/chunk
/// shards) still oversubscribe every thread budget the CI matrix uses.
/// Threads and worker processes run the same shards, so changing the
/// value reshapes both.
pub(crate) const RUN_CHUNK: usize = 8;

/// The metrics a table row holds, one per column, in row order. Each
/// Section-5 figure reads one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Column {
    /// Mean per-node joules per generated update (Fig. 13).
    Energy,
    /// Mean latency of the nodes 2 hops from the source (Fig. 14).
    Latency2Hop,
    /// Mean latency of the nodes 5 hops from the source (Fig. 15).
    Latency5Hop,
    /// Mean fraction of updates each node received (Figs 16, 18).
    Delivery,
    /// Mean latency over every reception (Fig. 17).
    Latency,
}

/// Values per table row: one per [`Column`]. Both axes share it.
pub(crate) const WIDTH: usize = 5;

/// One run's metrics, indexed by [`Column`]. `None` where the run has
/// no sample (no node at that hop distance, no reception at all).
pub(crate) type Row = [Option<f64>; WIDTH];

/// Reads every column of one run.
fn row(r: &NetRunStats) -> Row {
    [
        Some(r.energy_per_update()),
        r.mean_latency_at_hops(2),
        r.mean_latency_at_hops(5),
        Some(r.mean_delivery_ratio()),
        r.mean_latency(),
    ]
}

/// A Section-5 table: the x-axis a sweep walks. Its points and rows
/// depend only on `(axis, effort, seed)`, so every figure that reads
/// the same axis reads the same table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepAxis {
    /// `q` over `effort.q_values()` at the Table-2 density, one PBBF
    /// series per [`NET_P_VALUES`] entry plus single-point baselines.
    Q,
    /// Δ over [`DELTA_VALUES`] at fixed `q = 0.25`, one PBBF series per
    /// [`DELTA_P_VALUES`] entry plus per-density baselines.
    Delta,
}

impl SweepAxis {
    /// The table's name on the wire (`ShardJob::sweep`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Q => "q",
            Self::Delta => "delta",
        }
    }

    /// The table a wire name denotes, if any.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        [Self::Q, Self::Delta]
            .into_iter()
            .find(|a| a.name() == name)
    }

    /// The table's parameter grid, in point order: the PBBF points of
    /// every series, then the baselines. A pure function of
    /// `(axis, effort, seed)` — the distributed fabric relies on every
    /// process rebuilding the identical grid from the manifest header.
    pub(crate) fn points(self, effort: &Effort, seed: u64) -> Vec<NetPoint> {
        let deploy_seed = mix(seed, DEPLOY_SALT);
        let mut points = Vec::new();
        match self {
            Self::Q => {
                let qs = effort.q_values();
                let cfg = net_config(effort, NetConfig::table2().delta);
                for (pi, &p) in NET_P_VALUES.iter().enumerate() {
                    for (qi, &q) in qs.iter().enumerate() {
                        points.push(NetPoint {
                            cfg,
                            mode: NetMode::SleepScheduled(
                                PbbfParams::new(p, q).expect("valid sweep"),
                            ),
                            seed: mix(seed, (pi as u64) << 32 | qi as u64),
                            deploy_seed,
                        });
                    }
                }
                for (label, mode) in BASELINES {
                    // Shifted past the (pi << 32 | qi) PBBF salts (like
                    // the Δ sweep) so baseline runs never reuse a PBBF
                    // point's per-run seeds.
                    points.push(NetPoint {
                        cfg,
                        mode,
                        seed: mix(seed, (label.len() as u64) << 40),
                        deploy_seed,
                    });
                }
            }
            Self::Delta => {
                for (pi, &p) in DELTA_P_VALUES.iter().enumerate() {
                    for (di, &delta) in DELTA_VALUES.iter().enumerate() {
                        points.push(NetPoint {
                            cfg: net_config(effort, delta),
                            mode: NetMode::SleepScheduled(
                                PbbfParams::new(p, FIXED_Q).expect("valid"),
                            ),
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
            }
        }
        points
    }

    /// Executes runs `rs` of one point, returning one [`Row`] per run in
    /// run order: the body of every shard, on a thread or in a worker
    /// process — one code path, so a shard re-executed anywhere is
    /// bitwise identical.
    ///
    /// Each run's RNG stream depends only on `(point seed, run index)`.
    /// Deployments resolve through the process-wide registry
    /// ([`DeploymentCache::global`]) — the single resolution path,
    /// inside the chunk job: every point with the same geometry reuses
    /// run `r`'s connected deployment instead of redrawing it per
    /// protocol mode, and sweeps in *other* exhibits with the same
    /// geometry and deployment-seed stream (the Q table vs the
    /// latency-tail and k-trade-off extensions) resolve to the same
    /// entries. Each run shares the cached topology by `Arc` straight
    /// into its channel — no per-run copy. The cached draw is a pure
    /// function of `(deployment seed, geometry)`, so all of this
    /// sharing preserves thread-count (and process-count) invariance.
    pub(crate) fn run_chunk(pt: &NetPoint, rs: std::ops::Range<usize>) -> Vec<Row> {
        let sim = NetSim::new(pt.cfg, pt.mode);
        rs.map(|r| {
            let deployment =
                DeploymentCache::global().get_or_draw(&pt.cfg, mix(pt.deploy_seed, r as u64));
            row(&sim.run_on(mix(pt.seed, r as u64), &deployment))
        })
        .collect()
    }
}

/// One Section-5 figure: catalogue identity, the table it reads, the
/// column it plots, and figure dressing.
pub(crate) struct NetSweep {
    /// The exhibit's catalogue id, e.g. `"fig13"`.
    pub(crate) id: &'static str,
    /// The table (x-axis) this figure reads.
    pub(crate) axis: SweepAxis,
    /// The column of each row this figure plots.
    pub(crate) column: Column,
    title: &'static str,
    x_label: &'static str,
    y_label: &'static str,
}

/// Every shardable Section-5 figure, in catalogue order.
pub(crate) const NET_SWEEPS: [NetSweep; 6] = [
    NetSweep {
        id: "fig13",
        axis: SweepAxis::Q,
        column: Column::Energy,
        title: "Figure 13: Average energy consumption",
        x_label: "q",
        y_label: "Joules consumed / total updates sent at source",
    },
    NetSweep {
        id: "fig14",
        axis: SweepAxis::Q,
        column: Column::Latency2Hop,
        title: "Figure 14: 2-hop average update latency",
        x_label: "q",
        y_label: "Average 2-hop latency (s)",
    },
    NetSweep {
        id: "fig15",
        axis: SweepAxis::Q,
        column: Column::Latency5Hop,
        title: "Figure 15: 5-hop average update latency",
        x_label: "q",
        y_label: "Average 5-hop latency (s)",
    },
    NetSweep {
        id: "fig16",
        axis: SweepAxis::Q,
        column: Column::Delivery,
        title: "Figure 16: Average updates received",
        x_label: "q",
        y_label: "Updates received / total updates sent at source",
    },
    NetSweep {
        id: "fig17",
        axis: SweepAxis::Delta,
        column: Column::Latency,
        title: "Figure 17: Average update latency",
        x_label: "Delta",
        y_label: "Average update latency (s)",
    },
    NetSweep {
        id: "fig18",
        axis: SweepAxis::Delta,
        column: Column::Delivery,
        title: "Figure 18: Average updates received",
        x_label: "Delta",
        y_label: "Updates received / total updates sent at source",
    },
];

/// Looks a shardable figure up by catalogue id.
pub(crate) fn net_sweep(id: &str) -> Option<&'static NetSweep> {
    NET_SWEEPS.iter().find(|s| s.id == id)
}

impl NetSweep {
    /// Folds each point's run-ordered values of this figure's column
    /// into a confidence interval ([`fold_point_values`]), lays the
    /// intervals out as the figure's series and dresses them with title
    /// and axis labels.
    pub(crate) fn assemble(&self, effort: &Effort, column: Vec<Vec<Option<f64>>>) -> Figure {
        let cis = fold_point_values(column);
        let mut series = Vec::new();
        let mut cursor = cis.iter();
        match self.axis {
            SweepAxis::Q => {
                let qs = effort.q_values();
                for &p in &NET_P_VALUES {
                    let mut s = Series::new(format!("PBBF-{p}"));
                    for &q in &qs {
                        if let Some(ci) = cursor.next().expect("one interval per point") {
                            s.push_with_err(q, ci.mean, ci.half_width);
                        }
                    }
                    series.push(s);
                }
                for (label, _) in BASELINES {
                    let mut s = Series::new(label);
                    if let Some(ci) = cursor.next().expect("one interval per point") {
                        for &q in &qs {
                            s.push_with_err(q, ci.mean, ci.half_width);
                        }
                    }
                    series.push(s);
                }
            }
            SweepAxis::Delta => {
                let labels = DELTA_P_VALUES
                    .iter()
                    .map(|p| format!("PBBF-{p}"))
                    .chain(BASELINES.iter().map(|(l, _)| (*l).to_string()));
                for label in labels {
                    let mut s = Series::new(label);
                    for &delta in &DELTA_VALUES {
                        if let Some(ci) = cursor.next().expect("one interval per point") {
                            s.push_with_err(delta, ci.mean, ci.half_width);
                        }
                    }
                    series.push(s);
                }
            }
        }
        Figure::new(self.title, self.x_label, self.y_label, series)
    }

    /// Runs the figure in-process: its manifest's shards fanned across
    /// threads ([`pbbf_parallel::par_map`]), then its column folded and
    /// assembled. The same shards and the same fold as `pbbf sweep`, so
    /// the bytes match for any thread or worker count.
    ///
    /// # Panics
    ///
    /// Panics with [`Effort::validate`]'s message on an effort it
    /// refuses.
    pub(crate) fn run(&self, effort: &Effort, seed: u64) -> Figure {
        if let Err(e) = effort.validate() {
            panic!("{}: {e}", self.id);
        }
        let manifest = sweep_manifest(self.id, effort, seed).expect("a catalogue figure");
        let values = pbbf_parallel::par_map(manifest.shards.iter().collect(), |job| {
            run_sweep_shard(job).expect("a validated effort's shards run")
        });
        assemble_sweep(&manifest, values)
    }
}

/// Folds each point's run-ordered metric values into a confidence
/// interval (`None` when every run of the point produced no sample).
/// The fold order is the value order, so any execution that delivers
/// the same per-point value sequences — threads, worker processes,
/// retried shards — folds to identical bytes.
pub(crate) fn fold_point_values(vals: Vec<Vec<Option<f64>>>) -> Vec<Option<ConfidenceInterval>> {
    vals.into_iter()
        .map(|point_vals| {
            let summary: Summary = point_vals.into_iter().flatten().collect();
            (!summary.is_empty()).then(|| ConfidenceInterval::from_summary(&summary, 0.95))
        })
        .collect()
}

fn catalogue_sweep(id: &str, effort: &Effort, seed: u64) -> Figure {
    net_sweep(id).expect("known catalogue id").run(effort, seed)
}

/// Figure 13: average per-node energy per update (J) vs `q`.
#[must_use]
pub fn fig13(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig13", effort, seed)
}

/// Figure 14: average update latency of 2-hop nodes (s) vs `q`.
#[must_use]
pub fn fig14(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig14", effort, seed)
}

/// Figure 15: average update latency of 5-hop nodes (s) vs `q`.
#[must_use]
pub fn fig15(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig15", effort, seed)
}

/// Figure 16: updates received / updates sent vs `q`.
#[must_use]
pub fn fig16(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig16", effort, seed)
}

/// Figure 17: average update latency (s) vs density Δ at `q = 0.25`.
#[must_use]
pub fn fig17(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig17", effort, seed)
}

/// Figure 18: updates received / updates sent vs density Δ at `q = 0.25`.
#[must_use]
pub fn fig18(effort: &Effort, seed: u64) -> Figure {
    catalogue_sweep("fig18", effort, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effort() -> Effort {
        let mut e = Effort::quick();
        e.runs = 2;
        e.net_duration_secs = 150.0;
        e.q_points = 3;
        e
    }

    #[test]
    fn fig13_energy_shape() {
        let f = fig13(&effort(), 1);
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
        let f = fig16(&effort(), 2);
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
        let f = fig17(&e, 3);
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

    #[test]
    fn sweep_catalogue_is_consistent() {
        for sweep in &NET_SWEEPS {
            assert_eq!(net_sweep(sweep.id).unwrap().id, sweep.id);
            assert!(sweep.title.contains(&sweep.id["fig".len()..]));
            assert_eq!(SweepAxis::from_name(sweep.axis.name()), Some(sweep.axis));
        }
        assert!(net_sweep("fig04").is_none());
        assert!(SweepAxis::from_name("fig13").is_none());
    }
}
