//! One sweep path for every Monte Carlo figure of the paper.
//!
//! The twelve Monte Carlo figures are columns of three *tables*: figs 4,
//! 5 and 8–11 read the Section-4 `ideal` table, figs 13–16 the Section-5
//! `q` table, and figs 17–18 its `delta` table. A table is a point grid
//! and a Monte Carlo slice of it that returns one fixed-width row per
//! run, holding every metric the table's figures read.
//!
//! Every one of those figures runs through here, in-process or not. A
//! shard is a slice of a table, not of a figure: it returns
//! `(run1 − run0) ×` the table's row width values, row-major
//! ([`ShardJob::reply_len`]). The contract that makes this bitwise-safe
//! lives here: a [`SweepManifest`] names every `(point, run-range)`
//! chunk of a figure's table in fold order, each [`ShardJob`] carries
//! everything needed to recompute its rows from scratch (`sweep`,
//! `effort`, `seed`, point index, run range — all pure inputs), and
//! [`assemble_sweep`] folds the figure's column back in manifest order
//! and lays it out. Any executor that returns each shard's exact values
//! — whichever thread or process ran it, however many times it was
//! retried — therefore reproduces the same figure byte for byte.
//!
//! The same property makes tables freely *queueable* and *shareable*:
//! each job is self-contained, and figures of one table have equal
//! shards. `plan_sweep` maps the figures of one request to one flat
//! queue holding each distinct table once, plus each figure's range of
//! it. [`crate::run_exhibits`] plans every request and hands the queue
//! to one executor: [`run_in_process`] on this process's threads
//! (`pbbf reproduce`, [`crate::Experiment::run`]) or `pbbf-fabric`'s
//! `run_queue` on a worker fleet (`pbbf sweep`). Either returns the
//! values in queue order, and every figure assembles from its range as
//! if it had run alone.

use std::ops::Range;

use pbbf_metrics::{ConfidenceInterval, Figure, Series, Summary};
use serde::{Deserialize, Serialize};

use crate::ideal_figs::{self, IDEAL_P_VALUES};
use crate::net_figs::{self, DELTA_P_VALUES, DELTA_VALUES, NET_P_VALUES};
use crate::Effort;

/// The scheduling granularity of a sweep's Monte Carlo fan-out: runs per
/// `(point, run-chunk)` shard. One shard amortizes its point lookup and
/// simulator construction over several runs, while the paper-scale
/// tables (points × runs/chunk shards) still oversubscribe every thread
/// budget the CI matrix uses. Threads and worker processes run the same
/// shards, so changing the value reshapes both.
const RUN_CHUNK: usize = 8;

/// The legends of the two baselines every table appends after its PBBF
/// points.
const BASELINE_LABELS: [&str; 2] = ["PSM", "NO PSM"];

/// A Monte Carlo table: the parameter grid a sweep walks. Its points and
/// rows depend only on `(table, effort, seed)`, so every figure that
/// reads the same table reads the same rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepAxis {
    /// The Section-4 (p, q) grid of figs 4, 5 and 8–11
    /// (`crate::ideal_figs`).
    Ideal,
    /// q at the Table-2 density, figs 13–16 (`crate::net_figs`).
    Q,
    /// Density Δ at fixed q, figs 17–18 (`crate::net_figs`).
    Delta,
}

impl SweepAxis {
    /// The table's name on the wire (`ShardJob::sweep`).
    fn name(self) -> &'static str {
        match self {
            Self::Ideal => "ideal",
            Self::Q => "q",
            Self::Delta => "delta",
        }
    }

    /// The table a wire name denotes, if any.
    fn from_name(name: &str) -> Option<Self> {
        [Self::Ideal, Self::Q, Self::Delta]
            .into_iter()
            .find(|t| t.name() == name)
    }

    /// Values per row: one per metric the table's figures read.
    fn width(self) -> usize {
        match self {
            Self::Ideal => ideal_figs::WIDTH,
            Self::Q | Self::Delta => net_figs::WIDTH,
        }
    }

    /// The x-axis label of the table's figures.
    fn x_label(self) -> &'static str {
        match self {
            Self::Ideal | Self::Q => "q",
            Self::Delta => "Delta",
        }
    }

    /// The `p` of each PBBF series, in point order.
    fn p_values(self) -> &'static [f64] {
        match self {
            Self::Ideal => &IDEAL_P_VALUES,
            Self::Q => &NET_P_VALUES,
            Self::Delta => &DELTA_P_VALUES,
        }
    }

    /// Whether a baseline is measured at every x. On the Δ axis each
    /// density is its own scenario; on a q axis a baseline does not read
    /// q, so it is measured once and drawn flat.
    fn baselines_per_x(self) -> bool {
        self == Self::Delta
    }

    /// Points in the table's grid: a PBBF point per `p` and x, then the
    /// baselines ([`Self::baselines_per_x`]). Computed without building
    /// the grid.
    fn point_count(self, effort: &Effort) -> usize {
        let xs = match self {
            Self::Ideal | Self::Q => effort.q_points as usize,
            Self::Delta => DELTA_VALUES.len(),
        };
        let per_baseline = if self.baselines_per_x() { xs } else { 1 };
        self.p_values().len() * xs + BASELINE_LABELS.len() * per_baseline
    }

    /// Executes runs `runs` of point `point` of the table at
    /// `(effort, seed)`, one row per run, row-major: the body of every
    /// shard, on a thread or in a worker process — one code path, so a
    /// shard re-executed anywhere is bitwise identical.
    fn run_chunk(
        self,
        effort: &Effort,
        seed: u64,
        point: usize,
        runs: Range<usize>,
    ) -> Vec<Option<f64>> {
        match self {
            Self::Ideal => {
                ideal_figs::run_chunk(effort, ideal_figs::points(effort, seed)[point], runs)
            }
            Self::Q => net_figs::run_chunk(&net_figs::q_table(effort, seed)[point], runs),
            Self::Delta => net_figs::run_chunk(&net_figs::delta_table(effort, seed)[point], runs),
        }
    }

    /// Lays per-point intervals, in point order, out as the table's
    /// series: one PBBF line per `p` over the x values, then PSM and
    /// NO PSM ([`Self::baselines_per_x`]). A point without a sample
    /// leaves its x out of the line.
    fn layout(self, effort: &Effort, intervals: Vec<Option<ConfidenceInterval>>) -> Vec<Series> {
        let xs = match self {
            Self::Ideal | Self::Q => effort.q_values(),
            Self::Delta => DELTA_VALUES.to_vec(),
        };
        let mut intervals = intervals.into_iter();
        let mut line = |label: String, per_x: bool| {
            let mut s = Series::new(label);
            let mut ci = None;
            for (i, &x) in xs.iter().enumerate() {
                if per_x || i == 0 {
                    ci = intervals.next().expect("one interval per point");
                }
                if let Some(ci) = &ci {
                    s.push_with_err(x, ci.mean, ci.half_width);
                }
            }
            s
        };
        let mut series: Vec<Series> = self
            .p_values()
            .iter()
            .map(|p| line(format!("PBBF-{p}"), true))
            .collect();
        series.extend(BASELINE_LABELS.map(|label| line(label.to_string(), self.baselines_per_x())));
        series
    }
}

/// One Monte Carlo figure: its catalogue id, the table and column it
/// plots, and its dressing. `{near}` and `{far}` in the title or y label
/// stand for the effort's hop-probe distances.
struct SweepFigure {
    id: &'static str,
    table: SweepAxis,
    column: usize,
    title: &'static str,
    y_label: &'static str,
}

/// Every Monte Carlo figure, in catalogue order. Columns index the
/// tables' rows (`ideal_figs::row`, `net_figs::row`).
const CATALOGUE: [SweepFigure; 12] = [
    SweepFigure {
        id: "fig04",
        table: SweepAxis::Ideal,
        column: 0,
        title: "Figure 4: Threshold behavior for 90% reliability",
        y_label: "Fraction of updates received by 90% of nodes",
    },
    SweepFigure {
        id: "fig05",
        table: SweepAxis::Ideal,
        column: 1,
        title: "Figure 5: Threshold behavior for 99% reliability",
        y_label: "Fraction of updates received by 99% of nodes",
    },
    SweepFigure {
        id: "fig08",
        table: SweepAxis::Ideal,
        column: 2,
        title: "Figure 8: Average energy consumption",
        y_label: "Joules consumed / total updates sent at source",
    },
    SweepFigure {
        id: "fig09",
        table: SweepAxis::Ideal,
        column: 3,
        title: "Figure 9: Average hops traveled to reach a node {near} hops from the source",
        y_label: "Average {near}-hop flooding hop count",
    },
    SweepFigure {
        id: "fig10",
        table: SweepAxis::Ideal,
        column: 4,
        title: "Figure 10: Average hops traveled to reach a node {far} hops from the source",
        y_label: "Average {far}-hop flooding hop count",
    },
    SweepFigure {
        id: "fig11",
        table: SweepAxis::Ideal,
        column: 5,
        title: "Figure 11: Average per-hop update latency",
        y_label: "Average per-hop update latency (s)",
    },
    SweepFigure {
        id: "fig13",
        table: SweepAxis::Q,
        column: 0,
        title: "Figure 13: Average energy consumption",
        y_label: "Joules consumed / total updates sent at source",
    },
    SweepFigure {
        id: "fig14",
        table: SweepAxis::Q,
        column: 1,
        title: "Figure 14: 2-hop average update latency",
        y_label: "Average 2-hop latency (s)",
    },
    SweepFigure {
        id: "fig15",
        table: SweepAxis::Q,
        column: 2,
        title: "Figure 15: 5-hop average update latency",
        y_label: "Average 5-hop latency (s)",
    },
    SweepFigure {
        id: "fig16",
        table: SweepAxis::Q,
        column: 3,
        title: "Figure 16: Average updates received",
        y_label: "Updates received / total updates sent at source",
    },
    SweepFigure {
        id: "fig17",
        table: SweepAxis::Delta,
        column: 4,
        title: "Figure 17: Average update latency",
        y_label: "Average update latency (s)",
    },
    SweepFigure {
        id: "fig18",
        table: SweepAxis::Delta,
        column: 3,
        title: "Figure 18: Average updates received",
        y_label: "Updates received / total updates sent at source",
    },
];

/// Looks a Monte Carlo figure up by catalogue id.
fn catalogue_figure(id: &str) -> Option<&'static SweepFigure> {
    CATALOGUE.iter().find(|f| f.id == id)
}

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
    /// The table being swept: `"ideal"` (figs 4, 5, 8–11), `"q"`
    /// (figs 13–16) or `"delta"` (figs 17–18).
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
    /// How many values the shard returns: one row of the table's width
    /// (6 for `ideal`, 5 for `q` and `delta`) per run, or 0 for a table
    /// no worker runs. This is the `expect` of its wire spec.
    #[must_use]
    pub fn reply_len(&self) -> usize {
        let width = SweepAxis::from_name(&self.sweep).map_or(0, SweepAxis::width);
        self.run1.saturating_sub(self.run0) as usize * width
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

/// The catalogue ids `pbbf sweep` can shard: every Monte Carlo figure
/// (figs 4, 5, 8–11 and 13–18), in catalogue order.
#[must_use]
pub fn sweepable_figures() -> Vec<&'static str> {
    CATALOGUE.iter().map(|f| f.id).collect()
}

/// Builds the shard manifest of one figure's table, or `None` when the
/// id is not a Monte Carlo figure.
///
/// Shards are `(point, run-chunk)` slices of at most 8 runs, ordered by
/// point, then by run.
#[must_use]
pub fn sweep_manifest(figure: &str, effort: &Effort, seed: u64) -> Option<SweepManifest> {
    let table = catalogue_figure(figure)?.table;
    let points = table.point_count(effort) as u32;
    let runs = effort.runs;
    let chunk = RUN_CHUNK as u32;
    let mut shards = Vec::new();
    for point in 0..points {
        let mut run0 = 0;
        while run0 < runs {
            shards.push(ShardJob {
                sweep: table.name().to_string(),
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
pub(crate) struct SweepPlan {
    /// The queue: each distinct table's shards once, in first-use order.
    pub(crate) queue: Vec<ShardJob>,
    /// The requested figures in request order, each with the range of
    /// [`Self::queue`] that holds its table's shards.
    pub(crate) figures: Vec<(SweepManifest, Range<usize>)>,
}

/// Maps the requested figures to the distinct tables they read, so a
/// queue runs each table once however many of its figures are asked
/// for. A repeated figure gets a manifest per request. The caller
/// validates the effort first: a plan allocates points ×
/// ⌈runs / `RUN_CHUNK`⌉ shards.
///
/// # Panics
///
/// If a figure is not one of [`sweepable_figures`].
#[must_use]
pub(crate) fn plan_sweep(figures: &[&str], effort: &Effort, seed: u64) -> SweepPlan {
    let mut plan = SweepPlan {
        queue: Vec::new(),
        figures: Vec::with_capacity(figures.len()),
    };
    let mut tables: Vec<(SweepAxis, Range<usize>)> = Vec::new();
    for fig in figures {
        let table = catalogue_figure(fig)
            .unwrap_or_else(|| panic!("`{fig}` is not a shardable figure"))
            .table;
        let manifest = sweep_manifest(fig, effort, seed).expect("a catalogue figure");
        let range = match tables.iter().find(|(t, _)| *t == table) {
            Some((_, range)) => range.clone(),
            None => {
                let start = plan.queue.len();
                plan.queue.extend_from_slice(&manifest.shards);
                tables.push((table, start..plan.queue.len()));
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
    let table = SweepAxis::from_name(&job.sweep)
        .ok_or_else(|| format!("unknown sweep table `{}`", job.sweep))?;
    job.effort.validate()?;
    let points = table.point_count(&job.effort);
    if job.point as usize >= points {
        return Err(format!("point {} out of range ({points})", job.point));
    }
    if job.run0 >= job.run1 || job.run1 > job.effort.runs || job.run1 - job.run0 > RUN_CHUNK as u32
    {
        return Err(format!(
            "bad run range {}..{} (a shard runs 1 to {RUN_CHUNK} of the effort's {} runs)",
            job.run0, job.run1, job.effort.runs
        ));
    }
    Ok(table.run_chunk(
        &job.effort,
        job.seed,
        job.point as usize,
        job.run0 as usize..job.run1 as usize,
    ))
}

/// Folds per-shard value vectors (one per manifest shard, in manifest
/// order) into the manifest's figure, reading its column of each row.
///
/// The regroup-and-fold is position-based: shard `i`'s rows land in
/// the slot the manifest assigned them, so arrival order, retries, and
/// worker identity are all invisible here — only the values matter.
/// Each point's run-ordered values fold into a 95% confidence interval,
/// and the intervals are laid out as the figure's series.
///
/// # Panics
///
/// Panics if `shard_values` doesn't match the manifest shard-for-shard
/// (count or per-shard length) — the supervisor guarantees both
/// before calling.
#[must_use]
pub fn assemble_sweep(manifest: &SweepManifest, shard_values: Vec<Vec<Option<f64>>>) -> Figure {
    let figure = catalogue_figure(&manifest.figure).expect("manifest names a shardable figure");
    assert_eq!(
        shard_values.len(),
        manifest.shards.len(),
        "one value vector per manifest shard"
    );
    let width = figure.table.width();
    let mut per_point = vec![Summary::new(); manifest.points as usize];
    for (job, values) in manifest.shards.iter().zip(shard_values) {
        assert_eq!(
            values.len(),
            job.reply_len(),
            "shard {}..{} of point {} must return one row per run",
            job.run0,
            job.run1,
            job.point
        );
        per_point[job.point as usize].extend(
            values
                .chunks_exact(width)
                .filter_map(|row| row[figure.column]),
        );
    }
    let intervals = per_point
        .iter()
        .map(|s| (!s.is_empty()).then(|| ConfidenceInterval::from_summary(s, 0.95)))
        .collect();
    let effort = &manifest.effort;
    let dress = |text: &str| {
        text.replace("{near}", &effort.hop_probe_near.to_string())
            .replace("{far}", &effort.hop_probe_far.to_string())
    };
    Figure::new(
        dress(figure.title),
        figure.table.x_label(),
        dress(figure.y_label),
        figure.table.layout(effort, intervals),
    )
}

/// Runs a queue on this process's threads ([`pbbf_parallel::par_map`]),
/// returning each shard's values in queue order: the in-process
/// executor of [`crate::run_exhibits`]. The same shards and the same
/// fold as `pbbf sweep`, so the bytes match for any thread or worker
/// count.
///
/// # Errors
///
/// The first refusal of [`run_sweep_shard`], in queue order.
pub fn run_in_process(queue: &[ShardJob]) -> Result<Vec<Vec<Option<f64>>>, String> {
    pbbf_parallel::par_map(queue.iter().collect(), run_sweep_shard)
        .into_iter()
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

    /// The first shard of `figure`'s quick-effort manifest.
    fn first_shard(figure: &str) -> ShardJob {
        sweep_manifest(figure, &effort(), 1).unwrap().shards[0].clone()
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
    fn shard_jobs_round_trip_the_wire_format() {
        for figure in ["fig05", "fig13"] {
            let m = sweep_manifest(figure, &effort(), 9).unwrap();
            let job = &m.shards[4];
            let line = serde_json::to_string(job).unwrap();
            assert_eq!(&serde_json::from_str::<ShardJob>(&line).unwrap(), job);
        }
    }

    #[test]
    fn shard_replies_are_rows_of_every_column() {
        // Energy and delivery (net), and both reliability fractions and
        // energy (ideal), are measured on every run.
        for (figure, width, always) in [("fig13", 5, &[0, 3][..]), ("fig04", 6, &[0, 1, 2][..])] {
            let m = sweep_manifest(figure, &effort(), 5).unwrap();
            let job = &m.shards[3];
            let values = run_sweep_shard(job).unwrap();
            assert_eq!(values.len(), job.reply_len());
            assert_eq!(job.reply_len(), (job.run1 - job.run0) as usize * width);
            for row in values.chunks_exact(width) {
                assert!(always.iter().all(|&c| row[c].is_some()), "{row:?}");
            }
        }
        let unknown = ShardJob {
            sweep: "fig13".into(),
            ..first_shard("fig13")
        };
        assert_eq!(unknown.reply_len(), 0);
    }

    #[test]
    fn figures_of_one_table_share_its_shards() {
        let e = effort();
        let shards = |fig: &str| sweep_manifest(fig, &e, 4).unwrap().shards;
        for fig in ["fig05", "fig08", "fig09", "fig10", "fig11"] {
            assert_eq!(shards(fig), shards("fig04"), "{fig}");
        }
        for fig in ["fig14", "fig15", "fig16"] {
            assert_eq!(shards(fig), shards("fig13"), "{fig}");
        }
        assert_eq!(shards("fig18"), shards("fig17"));
        assert_ne!(shards("fig04"), shards("fig13"));
        assert_ne!(shards("fig13"), shards("fig17"));
        assert!(shards("fig04").iter().all(|j| j.sweep == "ideal"));
        assert!(shards("fig13").iter().all(|j| j.sweep == "q"));
        assert!(shards("fig17").iter().all(|j| j.sweep == "delta"));
    }

    #[test]
    fn point_counts_match_the_tables() {
        let fine = |q_points| Effort {
            q_points,
            ..Effort::quick()
        };
        for e in [Effort::quick(), Effort::paper(), fine(2), fine(1001)] {
            let built = [
                (SweepAxis::Ideal, ideal_figs::points(&e, 1).len()),
                (SweepAxis::Q, net_figs::q_table(&e, 1).len()),
                (SweepAxis::Delta, net_figs::delta_table(&e, 1).len()),
            ];
            for (table, len) in built {
                assert_eq!(table.point_count(&e), len, "{table:?} at {e:?}");
            }
        }
    }

    #[test]
    fn twelve_figures_queue_three_tables_once() {
        let e = Effort::paper();
        let figures = sweepable_figures();
        let plan = plan_sweep(&figures, &e, 2005);
        // (5 p × 11 q + 2), (4 p × 11 q + 2) and (5 series × 6 Δ)
        // points, two run-chunks of 10 runs each.
        assert_eq!(plan.queue.len(), 266);
        let ranges: Vec<Range<usize>> = plan.figures.iter().map(|(_, r)| r.clone()).collect();
        let mut expected = vec![0..114; 6];
        expected.extend(vec![114..206; 4]);
        expected.extend(vec![206..266; 2]);
        assert_eq!(
            ranges, expected,
            "114 ideal shards, then 92 Q-table and 60 Δ-table shards"
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
            per_figure, 1172,
            "one manifest per figure would ship this many"
        );

        // Quick effort: 32 ideal + 26 Q + 30 Δ shards of 3 runs.
        assert_eq!(plan_sweep(&figures, &Effort::quick(), 1).queue.len(), 88);

        // Request order is kept, and tables are queued by first use.
        let plan = plan_sweep(&["fig18", "fig13", "fig10", "fig17"], &e, 1);
        let layout: Vec<(&str, Range<usize>)> = plan
            .figures
            .iter()
            .map(|(m, r)| (m.figure.as_str(), r.clone()))
            .collect();
        assert_eq!(
            layout,
            [
                ("fig18", 0..60),
                ("fig13", 60..152),
                ("fig10", 152..266),
                ("fig17", 0..60)
            ]
        );
        for (figure, range) in [("fig17", 0..60), ("fig13", 60..152), ("fig04", 152..266)] {
            assert_eq!(
                plan.queue[range],
                sweep_manifest(figure, &e, 1).unwrap().shards
            );
        }
    }

    #[test]
    fn sweep_catalogue_is_consistent() {
        use Experiment::*;
        let own_code = [Table1, Table2, Fig06, Fig07, Fig12];
        for exp in Experiment::all() {
            assert_ne!(
                own_code.contains(&exp),
                catalogue_figure(exp.id()).is_some(),
                "{} has code of its own or a catalogue row, not both",
                exp.id()
            );
        }
        for (i, fig) in CATALOGUE.iter().enumerate() {
            assert!(Experiment::from_id(fig.id).is_some(), "{}", fig.id);
            let number: u32 = fig.id["fig".len()..].parse().unwrap();
            assert!(fig.title.starts_with(&format!("Figure {number}: ")));
            assert!(fig.column < fig.table.width(), "{}", fig.id);
            assert_eq!(SweepAxis::from_name(fig.table.name()), Some(fig.table));
            assert!(
                CATALOGUE[..i]
                    .iter()
                    .all(|f| (f.table, f.column) != (fig.table, fig.column)),
                "{} repeats a column",
                fig.id
            );
        }
        assert_eq!(sweepable_figures().len(), 12);
        assert!(catalogue_figure("fig07").is_none());
        assert!(SweepAxis::from_name("fig13").is_none());
    }

    #[test]
    fn malformed_shards_are_refused_not_fatal() {
        let mut job = first_shard("fig18");
        job.sweep = "fig18".into();
        assert!(run_sweep_shard(&job)
            .unwrap_err()
            .contains("unknown sweep table"));

        for figure in ["fig18", "fig04"] {
            let mut job = first_shard(figure);
            job.point = 10_000;
            let err = run_sweep_shard(&job).unwrap_err();
            assert!(err.contains("point 10000 out of range"), "{err}");

            let mut job = first_shard(figure);
            job.run1 = job.effort.runs + 5;
            assert!(run_sweep_shard(&job).is_err());
            job.run1 = job.run0;
            assert!(run_sweep_shard(&job).is_err());

            // A run range longer than one manifest chunk.
            let mut job = first_shard(figure);
            job.effort.runs = 100;
            job.run1 = RUN_CHUNK as u32 + 1;
            let err = run_sweep_shard(&job).unwrap_err();
            assert!(err.contains("run range"), "{err}");
        }

        // Durations `SimTime` cannot hold, ones no run can use (0.1 s
        // ends before the first update), and ones whose per-update
        // buffers would need gigabytes.
        for secs in [-5.0, 0.0, 0.1, 1e300, 1e10, 1.8e10] {
            let mut job = first_shard("fig18");
            job.effort.net_duration_secs = secs;
            let err = run_sweep_shard(&job).unwrap_err();
            assert!(err.starts_with("net_duration_secs: "), "{secs}: {err}");
        }

        // Ideal grids with no node or past the node budget, runs of no
        // update or past the node-update budget: each is refused before
        // a grid is built.
        for (grid, updates, field) in [
            (0, 3, "ideal_grid_side"),
            (100_000, 3, "ideal_grid_side"),
            (25, 0, "ideal_updates"),
            (25, 4_000_000_000, "ideal_updates"),
        ] {
            let mut job = first_shard("fig04");
            job.effort.ideal_grid_side = grid;
            job.effort.ideal_updates = updates;
            let err = run_sweep_shard(&job).unwrap_err();
            assert!(
                err.starts_with(&format!("{field}: ")),
                "{grid}, {updates}: {err}"
            );
        }

        // A q axis whose point grid would need ~32 GB, and a run range
        // that would need ~64 GB: both are refused before allocating.
        let mut job = first_shard("fig13");
        job.effort.q_points = 4_000_000_000;
        let err = run_sweep_shard(&job).unwrap_err();
        assert!(err.contains("q_points"), "{err}");
        let mut job = first_shard("fig13");
        job.effort.runs = 4_000_000_000;
        (job.run0, job.run1) = (0, 4_000_000_000);
        let err = run_sweep_shard(&job).unwrap_err();
        assert!(err.contains("run range"), "{err}");
    }
}
