//! Shard manifests for the distributed sweep fabric.
//!
//! Every Section-5 figure runs through here, in-process or not. A shard
//! is a slice of a *table*, not of a figure: figs 13–16 read columns of
//! the Q-axis table and figs 17–18 columns of the Δ table
//! (`crate::net_figs`), so a shard returns one row per run holding every
//! column, `(run1 − run0) ×` [`ShardJob::reply_len`]'s row width values,
//! row-major. The contract that makes this bitwise-safe lives here: a
//! [`SweepManifest`] names every `(point, run-range)` chunk of a figure's
//! table in fold order, each [`ShardJob`] carries everything needed to
//! recompute its rows from scratch (`sweep`, `effort`, `seed`, point
//! index, run range — all pure inputs), and [`assemble_sweep`] folds the
//! figure's column back in manifest order. `NetSweep::run` (what
//! `pbbf reproduce` calls) fans a manifest's shards across threads; any
//! other executor that returns each shard's exact values — whichever
//! process ran it, however many times it was retried — therefore
//! reproduces the same figure byte for byte.
//!
//! The same property makes tables freely *queueable* and *shareable*:
//! each job is self-contained, and figures of one table have equal
//! shards. [`plan_sweep`] maps the figures of one `pbbf sweep` to one
//! flat queue holding each distinct table once, plus each figure's range
//! of it. `pbbf-fabric`'s `run_queue` runs that queue on one worker
//! fleet and returns the values in queue order, and every figure
//! assembles from its range as if it had run alone.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::net_figs::{net_sweep, SweepAxis, NET_SWEEPS, RUN_CHUNK, WIDTH};
use crate::Effort;

/// One self-contained unit of sweep work: runs `run0..run1` of point
/// `point` of table `sweep` at `(effort, seed)`.
///
/// A job deliberately carries the *whole* sweep context rather than a
/// pre-resolved parameter point: the worker process rebuilds the
/// identical point grid from `(sweep, effort, seed)` — a pure
/// function — so the wire format never has to serialize simulator
/// configuration, and a stale or corrupt supervisor cannot ship a
/// point the worker wouldn't itself derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJob {
    /// The table being swept: `"q"` (figs 13–16) or `"delta"`
    /// (figs 17–18).
    pub sweep: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Index into the table's point grid.
    pub point: u32,
    /// First run of this shard's range (inclusive).
    pub run0: u32,
    /// One past the last run of this shard's range.
    pub run1: u32,
}

impl ShardJob {
    /// How many values the shard returns: one row of every table
    /// column per run. This is the `expect` of its wire spec.
    #[must_use]
    pub fn reply_len(&self) -> usize {
        self.run1.saturating_sub(self.run0) as usize * WIDTH
    }
}

/// Every shard of the table one figure reads, in fold order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Catalogue id of the figure; it names the column assembled.
    pub figure: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Number of points in the table's grid.
    pub points: u32,
    /// The table's shards, ordered by `(point, run0)` — the fold order.
    /// Figures of one table have equal shards.
    pub shards: Vec<ShardJob>,
}

/// The catalogue ids `pbbf sweep` can shard (the Section-5 figures).
#[must_use]
pub fn sweepable_figures() -> Vec<&'static str> {
    NET_SWEEPS.iter().map(|s| s.id).collect()
}

/// Builds the shard manifest of one figure's table, or `None` when the
/// id is not a shardable Section-5 figure.
///
/// Shards are `(point, run-chunk)` slices at `RUN_CHUNK`
/// granularity, ordered by point, then by run.
#[must_use]
pub fn sweep_manifest(figure: &str, effort: &Effort, seed: u64) -> Option<SweepManifest> {
    let axis = net_sweep(figure)?.axis;
    let points = axis.points(effort, seed).len() as u32;
    let runs = effort.runs;
    let chunk = RUN_CHUNK as u32;
    let mut shards = Vec::new();
    for point in 0..points {
        let mut run0 = 0;
        while run0 < runs {
            shards.push(ShardJob {
                sweep: axis.name().to_string(),
                seed,
                effort: *effort,
                point,
                run0,
                run1: (run0 + chunk).min(runs),
            });
            run0 += chunk;
        }
    }
    Some(SweepManifest {
        figure: figure.to_string(),
        seed,
        effort: *effort,
        points,
        shards,
    })
}

/// How one queue sweeps a list of figures: each distinct table once.
/// Built by [`plan_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The queue: each distinct table's shards once, in first-use order.
    pub queue: Vec<ShardJob>,
    /// The requested figures in request order, each with the range of
    /// [`Self::queue`] that holds its table's shards.
    pub figures: Vec<(SweepManifest, Range<usize>)>,
}

/// Maps the requested figures to the distinct tables they read, so a
/// queue runs each table once however many of its figures are asked
/// for. The ids are already resolved: the caller refuses an unknown
/// one before planning.
///
/// # Panics
///
/// If a figure is not one of [`sweepable_figures`].
#[must_use]
pub fn plan_sweep(figures: &[&str], effort: &Effort, seed: u64) -> SweepPlan {
    let mut plan = SweepPlan {
        queue: Vec::new(),
        figures: Vec::with_capacity(figures.len()),
    };
    let mut tables: Vec<(SweepAxis, Range<usize>)> = Vec::new();
    for fig in figures {
        let manifest = sweep_manifest(fig, effort, seed)
            .unwrap_or_else(|| panic!("`{fig}` is not a shardable figure"));
        let axis = net_sweep(fig).expect("a manifest names a figure").axis;
        let range = match tables.iter().find(|(a, _)| *a == axis) {
            Some((_, range)) => range.clone(),
            None => {
                let start = plan.queue.len();
                plan.queue.extend_from_slice(&manifest.shards);
                tables.push((axis, start..plan.queue.len()));
                start..plan.queue.len()
            }
        };
        plan.figures.push((manifest, range));
    }
    plan
}

/// Executes one shard, returning one row per run in `job.run0..job.run1`,
/// row-major: [`ShardJob::reply_len`] values.
///
/// Pure in `job`: the point grid is rebuilt from the job's own
/// `(sweep, effort, seed)` and the runs re-derive their RNG streams
/// from `(point seed, run index)`, so executing the same job twice —
/// or on two different machines — yields identical bits. Malformed
/// jobs (unknown table, an effort [`Effort::validate`] refuses, an
/// out-of-range point, a run window outside `0..runs` or longer than a
/// manifest shard) are reported as `Err` before anything is allocated
/// for them, so a worker process can refuse them over the wire and stay
/// alive.
pub fn run_sweep_shard(job: &ShardJob) -> Result<Vec<Option<f64>>, String> {
    let axis = SweepAxis::from_name(&job.sweep)
        .ok_or_else(|| format!("unknown sweep table `{}`", job.sweep))?;
    job.effort.validate()?;
    let points = axis.points(&job.effort, job.seed);
    let pt = points
        .get(job.point as usize)
        .ok_or_else(|| format!("point {} out of range ({})", job.point, points.len()))?;
    if job.run0 >= job.run1 || job.run1 > job.effort.runs || job.run1 - job.run0 > RUN_CHUNK as u32
    {
        return Err(format!(
            "bad run range {}..{} (a shard runs 1 to {RUN_CHUNK} of the effort's {} runs)",
            job.run0, job.run1, job.effort.runs
        ));
    }
    let rows = SweepAxis::run_chunk(pt, job.run0 as usize..job.run1 as usize);
    Ok(rows.into_iter().flatten().collect())
}

/// Folds per-shard value vectors (one per manifest shard, in manifest
/// order) into the manifest's figure, reading its column of each row.
///
/// The regroup-and-fold is position-based: shard `i`'s rows land in
/// the slot the manifest assigned them, so arrival order, retries, and
/// worker identity are all invisible here — only the values matter.
///
/// # Panics
///
/// Panics if `shard_values` doesn't match the manifest shard-for-shard
/// (count or per-shard length) — the supervisor guarantees both
/// before calling.
#[must_use]
pub fn assemble_sweep(
    manifest: &SweepManifest,
    shard_values: Vec<Vec<Option<f64>>>,
) -> pbbf_metrics::Figure {
    let sweep = net_sweep(&manifest.figure).expect("manifest names a shardable figure");
    assert_eq!(
        shard_values.len(),
        manifest.shards.len(),
        "one value vector per manifest shard"
    );
    let col = sweep.column as usize;
    let mut per_point = vec![Vec::new(); manifest.points as usize];
    for (job, values) in manifest.shards.iter().zip(shard_values) {
        assert_eq!(
            values.len(),
            job.reply_len(),
            "shard {}..{} of point {} must return one row per run",
            job.run0,
            job.run1,
            job.point
        );
        per_point[job.point as usize].extend(values.chunks_exact(WIDTH).map(|row| row[col]));
    }
    sweep.assemble(&manifest.effort, per_point)
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
    fn manifest_covers_every_run_once() {
        let e = Effort::quick(); // runs = 3 < RUN_CHUNK: one shard per point
        let m = sweep_manifest("fig17", &e, 7).unwrap();
        assert_eq!(m.points, 30); // (3 PBBF + 2 baselines) × 6 densities
        assert_eq!(m.shards.len(), 30);
        for (i, job) in m.shards.iter().enumerate() {
            assert_eq!(job.point, i as u32);
            assert_eq!((job.run0, job.run1), (0, 3));
        }

        // Paper-scale runs split into RUN_CHUNK-sized shards.
        let mut big = e;
        big.runs = 20;
        let m = sweep_manifest("fig17", &big, 7).unwrap();
        assert_eq!(m.shards.len(), 30 * 3);
        let ranges: Vec<_> = m.shards[..3].iter().map(|j| (j.run0, j.run1)).collect();
        assert_eq!(ranges, [(0, 8), (8, 16), (16, 20)]);

        assert!(sweep_manifest("fig07", &e, 7).is_none());
    }

    #[test]
    fn serial_shard_execution_reproduces_the_figure() {
        let e = effort();
        let m = sweep_manifest("fig17", &e, 3).unwrap();
        let values: Vec<_> = m
            .shards
            .iter()
            .map(|job| run_sweep_shard(job).expect("well-formed shard"))
            .collect();
        assert_eq!(assemble_sweep(&m, values), crate::fig17(&e, 3));
    }

    #[test]
    fn shard_jobs_round_trip_the_wire_format() {
        let m = sweep_manifest("fig13", &effort(), 9).unwrap();
        let job = &m.shards[4];
        let line = serde_json::to_string(job).unwrap();
        assert_eq!(&serde_json::from_str::<ShardJob>(&line).unwrap(), job);
    }

    #[test]
    fn shard_replies_are_rows_of_every_column() {
        let m = sweep_manifest("fig13", &effort(), 5).unwrap();
        let job = &m.shards[3];
        let values = run_sweep_shard(job).unwrap();
        assert_eq!(values.len(), job.reply_len());
        assert_eq!(job.reply_len(), (job.run1 - job.run0) as usize * WIDTH);
        // Energy and delivery are measured on every run.
        for row in values.chunks_exact(WIDTH) {
            assert!(row[0].is_some() && row[3].is_some(), "{row:?}");
        }
    }

    #[test]
    fn figures_of_one_table_share_its_shards() {
        let e = effort();
        let shards = |fig: &str| sweep_manifest(fig, &e, 4).unwrap().shards;
        for fig in ["fig14", "fig15", "fig16"] {
            assert_eq!(shards(fig), shards("fig13"), "{fig}");
        }
        assert_eq!(shards("fig18"), shards("fig17"));
        assert_ne!(shards("fig13"), shards("fig17"));
        assert!(shards("fig13").iter().all(|j| j.sweep == "q"));
        assert!(shards("fig17").iter().all(|j| j.sweep == "delta"));
    }

    #[test]
    fn six_figures_queue_two_tables_once() {
        let e = Effort::paper();
        let figures = sweepable_figures();
        let plan = plan_sweep(&figures, &e, 2005);
        // (4 p × 11 q + 2 baselines) and (5 series × 6 Δ) points, two
        // run-chunks of 10 runs each.
        assert_eq!(plan.queue.len(), 152);
        let ranges: Vec<Range<usize>> = plan.figures.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(
            ranges,
            [0..92, 0..92, 0..92, 0..92, 92..152, 92..152],
            "92 Q-table shards, then 60 Δ-table shards"
        );
        for (manifest, range) in &plan.figures {
            assert_eq!(
                plan.queue[range.clone()],
                manifest.shards,
                "{}",
                manifest.figure
            );
        }
        let per_figure: usize = plan.figures.iter().map(|(m, _)| m.shards.len()).sum();
        assert_eq!(
            per_figure, 488,
            "one manifest per figure would ship this many"
        );

        // Request order is kept, and tables are queued by first use.
        let plan = plan_sweep(&["fig18", "fig13", "fig17"], &e, 1);
        let layout: Vec<(&str, Range<usize>)> = plan
            .figures
            .iter()
            .map(|(m, r)| (m.figure.as_str(), r.clone()))
            .collect();
        assert_eq!(
            layout,
            [("fig18", 0..60), ("fig13", 60..152), ("fig17", 0..60)]
        );
        assert_eq!(
            plan.queue[..60],
            sweep_manifest("fig17", &e, 1).unwrap().shards
        );
        assert_eq!(
            plan.queue[60..],
            sweep_manifest("fig13", &e, 1).unwrap().shards
        );
    }

    #[test]
    fn every_figure_assembles_from_its_shared_table() {
        let e = Effort::quick();
        let figures = sweepable_figures();
        let reference: [fn(&Effort, u64) -> pbbf_metrics::Figure; 6] = [
            crate::fig13,
            crate::fig14,
            crate::fig15,
            crate::fig16,
            crate::fig17,
            crate::fig18,
        ];
        for seed in [3, 2005] {
            let plan = plan_sweep(&figures, &e, seed);
            let values: Vec<Vec<Option<f64>>> = plan
                .queue
                .iter()
                .map(|j| run_sweep_shard(j).unwrap())
                .collect();
            for ((manifest, range), figure) in plan.figures.iter().zip(reference) {
                assert_eq!(
                    assemble_sweep(manifest, values[range.clone()].to_vec()),
                    figure(&e, seed),
                    "{} seed {seed}",
                    manifest.figure
                );
            }
        }
    }

    #[test]
    fn malformed_shards_are_refused_not_fatal() {
        let e = effort();
        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.sweep = "fig18".into();
        assert!(run_sweep_shard(&job)
            .unwrap_err()
            .contains("unknown sweep table"));

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.point = 10_000;
        assert!(run_sweep_shard(&job).is_err());

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.run1 = job.effort.runs + 5;
        assert!(run_sweep_shard(&job).is_err());
        job.run1 = job.run0;
        assert!(run_sweep_shard(&job).is_err());

        // Durations `SimTime` cannot hold, ones no run can use, and ones
        // whose per-update buffers would need gigabytes.
        for secs in [-5.0, 0.0, 1e300, 1e10, 1.8e10] {
            let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
            job.effort.net_duration_secs = secs;
            let err = run_sweep_shard(&job).unwrap_err();
            assert!(err.contains("net_duration_secs"), "{secs}: {err}");
        }

        // A q axis whose point grid would need ~32 GB, and a run range
        // that would need ~64 GB: both are refused before allocating.
        let mut job = sweep_manifest("fig13", &e, 1).unwrap().shards[0].clone();
        job.effort.q_points = 4_000_000_000;
        let err = run_sweep_shard(&job).unwrap_err();
        assert!(err.contains("q_points"), "{err}");
        let mut job = sweep_manifest("fig13", &e, 1).unwrap().shards[0].clone();
        job.effort.runs = 4_000_000_000;
        (job.run0, job.run1) = (0, 4_000_000_000);
        let err = run_sweep_shard(&job).unwrap_err();
        assert!(err.contains("run range"), "{err}");
    }
}
