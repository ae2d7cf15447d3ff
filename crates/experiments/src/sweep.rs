//! Shard manifests for the distributed sweep fabric.
//!
//! `pbbf sweep` shards a Section-5 figure across worker processes. The
//! contract that makes this bitwise-safe lives here: a
//! [`SweepManifest`] names every `(point, run-range)` chunk of a sweep
//! in the same order `NetSweep::run` schedules them
//! in-process, each [`ShardJob`] carries everything needed to recompute
//! its values from scratch (`figure`, `effort`, `seed`, point index,
//! run range — all pure inputs), and [`assemble_sweep`] folds shard
//! values back in manifest order. Any executor that returns each
//! shard's exact value sequence — whichever process ran it, however
//! many times it was retried — therefore reproduces the single-process
//! figure byte for byte.
//!
//! The same property makes manifests freely *queueable*: because each
//! job is self-contained and each manifest folds independently, one
//! queue (`pbbf sweep --figs a,b,…`, backed by `pbbf-fabric`'s
//! `run_queue`) can multiplex several figures' manifests onto one
//! worker fleet, stream shards back in completion order, and still
//! assemble every figure as if it had run alone.

use serde::{Deserialize, Serialize};

use crate::net_figs::{fold_point_values, net_sweep, NET_SWEEPS, RUN_CHUNK};
use crate::Effort;

/// One self-contained unit of sweep work: runs `run0..run1` of point
/// `point` of figure `figure` at `(effort, seed)`.
///
/// A job deliberately carries the *whole* sweep context rather than a
/// pre-resolved parameter point: the worker process rebuilds the
/// identical point grid from `(figure, effort, seed)` — a pure
/// function — so the wire format never has to serialize simulator
/// configuration, and a stale or corrupt supervisor cannot ship a
/// point the worker wouldn't itself derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardJob {
    /// Catalogue id of the figure being swept, e.g. `"fig17"`.
    pub figure: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Index into the sweep's point grid.
    pub point: u32,
    /// First run of this shard's range (inclusive).
    pub run0: u32,
    /// One past the last run of this shard's range.
    pub run1: u32,
}

/// Every shard of one figure sweep, in fold order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Catalogue id of the figure.
    pub figure: String,
    /// The sweep's base seed.
    pub seed: u64,
    /// The sweep's effort preset.
    pub effort: Effort,
    /// Number of points in the sweep's grid.
    pub points: u32,
    /// The shards, ordered by `(point, run0)` — the fold order.
    pub shards: Vec<ShardJob>,
}

/// The catalogue ids `pbbf sweep` can shard (the Section-5 figures).
#[must_use]
pub fn sweepable_figures() -> Vec<&'static str> {
    NET_SWEEPS.iter().map(|s| s.id).collect()
}

/// Builds the shard manifest of one figure sweep, or `None` when the
/// id is not a shardable Section-5 figure.
///
/// Shards are `(point, run-chunk)` slices at `RUN_CHUNK`
/// granularity — exactly the job list
/// [`par_run_grouped_chunked`](pbbf_parallel::par_run_grouped_chunked)
/// would schedule in-process, in the same order.
#[must_use]
pub fn sweep_manifest(figure: &str, effort: &Effort, seed: u64) -> Option<SweepManifest> {
    let sweep = net_sweep(figure)?;
    let points = sweep.points(effort, seed).len() as u32;
    let runs = effort.runs;
    let chunk = RUN_CHUNK as u32;
    let mut shards = Vec::new();
    for point in 0..points {
        let mut run0 = 0;
        while run0 < runs {
            shards.push(ShardJob {
                figure: figure.to_string(),
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

/// Executes one shard, returning the metric value of each run in
/// `job.run0..job.run1`, in run order.
///
/// Pure in `job`: the point grid is rebuilt from the job's own
/// `(figure, effort, seed)` and the runs re-derive their RNG streams
/// from `(point seed, run index)`, so executing the same job twice —
/// or on two different machines — yields identical bits. Malformed
/// jobs (unknown figure, an effort [`Effort::validate`] refuses, an
/// out-of-range point, a run window outside `0..runs` or longer than a
/// manifest shard) are reported as `Err` before anything is allocated
/// for them, so a worker process can refuse them over the wire and stay
/// alive.
pub fn run_sweep_shard(job: &ShardJob) -> Result<Vec<Option<f64>>, String> {
    let sweep = net_sweep(&job.figure).ok_or_else(|| format!("unknown figure {}", job.figure))?;
    job.effort.validate()?;
    let points = sweep.points(&job.effort, job.seed);
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
    Ok(sweep.run_chunk(pt, job.run0 as usize..job.run1 as usize))
}

/// Folds per-shard value vectors (one per manifest shard, in manifest
/// order) into the finished figure.
///
/// The regroup-and-fold is position-based: shard `i`'s values land in
/// the slot the manifest assigned them, so arrival order, retries, and
/// worker identity are all invisible here — only the values matter.
///
/// # Panics
///
/// Panics if `shard_values` doesn't match the manifest shard-for-shard
/// (count or per-shard run count) — the supervisor guarantees both
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
    let mut per_point = vec![Vec::new(); manifest.points as usize];
    for (job, values) in manifest.shards.iter().zip(shard_values) {
        assert_eq!(
            values.len(),
            (job.run1 - job.run0) as usize,
            "shard {}..{} of point {} must return one value per run",
            job.run0,
            job.run1,
            job.point
        );
        per_point[job.point as usize].extend(values);
    }
    sweep.assemble(&manifest.effort, &fold_point_values(per_point))
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
    fn malformed_shards_are_refused_not_fatal() {
        let e = effort();
        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.figure = "fig99".into();
        assert!(run_sweep_shard(&job).is_err());

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.point = 10_000;
        assert!(run_sweep_shard(&job).is_err());

        let mut job = sweep_manifest("fig18", &e, 1).unwrap().shards[0].clone();
        job.run1 = job.effort.runs + 5;
        assert!(run_sweep_shard(&job).is_err());
        job.run1 = job.run0;
        assert!(run_sweep_shard(&job).is_err());

        // Durations `SimTime` cannot hold, and ones no run can use.
        for secs in [-5.0, 0.0, 1e300] {
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
