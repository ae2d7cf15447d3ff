//! The four workloads, their output checks, and the layer samples the
//! traced run reports.
//!
//! Each workload is a closed loop: one client runs an iteration, checks
//! its outputs, and only then starts the next. An iteration's wall and
//! CPU time cover the calls into the program's crates and nothing the
//! benchmark does around them (checks, hashing, registry clearing).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use pbbf_core::PbbfParams;
use pbbf_experiments::sweep::{assemble_sweep, run_sweep_shard, sweep_manifest};
use pbbf_experiments::{Effort, Experiment, Output};
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode, RunStats};
use pbbf_metrics::Figure;
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetSim};

use crate::fabric_stats::{parse_stats_line, SweepStats};
use crate::procfs;
use crate::trace::Scope;

pub const NAMES: [&str; 4] = [
    "paper_reproduce",
    "ideal_points",
    "net_sweep",
    "fabric_sweep",
];

/// The Section-5 figures `pbbf sweep` can shard, in catalogue order.
const NET_FIGS: [&str; 6] = ["fig13", "fig14", "fig15", "fig16", "fig17", "fig18"];

/// Consecutive seeds one `net_sweep` / `fabric_sweep` iteration covers:
/// about 2 s of work on the 2-core reference box, so the work of any one
/// seed weighs little in an iteration.
const NET_SEEDS: u64 = 8;

/// Seeds each `ideal_points` point runs per iteration (about 0.3 s of
/// single-threaded work per iteration), for the same reason.
const IDEAL_SEEDS: u64 = 4;

/// Local worker processes of `fabric_sweep` (the container's core count).
const FABRIC_WORKERS: usize = 2;

/// Deployments drawn by the traced-only net-sim probe.
const PROBE_SEEDS: u64 = 8;

/// Output checks and layer samples gathered over a run.
#[derive(Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: Vec<String>,
    pub layers: BTreeMap<String, Vec<f64>>,
}

impl Record {
    /// Counts one check; a failure is reported by name on stderr at once
    /// and kept for the result line.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("check failed: {name}");
            self.failed.push(name.to_string());
        }
    }

    pub fn sample(&mut self, metric: &str, value: f64) {
        self.layers
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    fn samples(&mut self, metric: &str, values: impl IntoIterator<Item = f64>) {
        self.layers
            .entry(metric.to_string())
            .or_default()
            .extend(values);
    }
}

/// Wall and CPU time of one iteration's timed part.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub wall_s: f64,
    /// CPU clock ticks of this process and the children it reaped.
    pub cpu_ticks: u64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, other: Self) {
        self.wall_s += other.wall_s;
        self.cpu_ticks += other.cpu_ticks;
    }
}

struct Stopwatch {
    start: Instant,
    ticks: u64,
}

impl Stopwatch {
    fn start() -> Self {
        let ticks = procfs::cpu_ticks().expect("/proc/self/stat is readable");
        Self {
            start: Instant::now(),
            ticks,
        }
    }

    fn stop(self) -> Timing {
        let wall_s = self.start.elapsed().as_secs_f64();
        let ticks = procfs::cpu_ticks().expect("/proc/self/stat is readable");
        Timing {
            wall_s,
            cpu_ticks: ticks - self.ticks,
        }
    }
}

/// Derives an input seed from the workload seed (splitmix64 finaliser).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn net_seeds(seed: u64) -> Vec<u64> {
    let base = derive(seed, 2);
    (0..NET_SEEDS).map(|k| base.wrapping_add(k)).collect()
}

/// A workload ready to iterate: inputs generated, one-off set-up done.
pub enum Workload {
    Paper {
        seed: u64,
    },
    Ideal {
        points: Vec<IdealPoint>,
    },
    Net {
        seeds: Vec<u64>,
        first_registry: Option<(usize, u64)>,
    },
    Fabric {
        pbbf: PathBuf,
        seeds: Vec<u64>,
        reference: Vec<String>,
    },
}

/// Output of earlier iterations, which every later one must repeat.
#[derive(Default)]
pub struct Seen {
    texts: BTreeMap<String, String>,
    hashes: BTreeMap<String, u64>,
}

impl Seen {
    fn text(&mut self, rec: &mut Record, key: &str, text: &str) {
        match self.texts.get(key) {
            Some(first) => rec.check(&format!("{key}: bytes equal iteration 1"), first == text),
            None => {
                self.texts.insert(key.to_string(), text.to_string());
            }
        }
    }

    fn hash(&mut self, rec: &mut Record, key: &str, hash: u64) {
        match self.hashes.get(key) {
            Some(&first) => rec.check(&format!("{key}: hash equals iteration 1"), first == hash),
            None => {
                self.hashes.insert(key.to_string(), hash);
            }
        }
    }
}

impl Workload {
    /// Generates the workload's inputs from `seed` and does its one-off
    /// set-up. For `fabric_sweep` that includes the in-process reference
    /// output its checks compare against.
    pub fn setup(
        name: &str,
        seed: u64,
        pbbf: &Path,
        scope: Scope,
        rec: &mut Record,
    ) -> Result<Self, String> {
        // Lazy process-wide state every workload touches first.
        let _ = DeploymentCache::global();
        let threads = pbbf_parallel::max_threads();
        pbbf_parallel::par_run(threads, |i| i);
        match name {
            "paper_reproduce" => Ok(Self::Paper {
                seed: derive(seed, 1),
            }),
            "ideal_points" => {
                let points = ideal_points(seed, scope);
                if scope.is_on() {
                    rec.samples("ideal_sim.new_ms", scope.durations_ms("ideal_sim.new"));
                }
                Ok(Self::Ideal { points })
            }
            "net_sweep" => Ok(Self::Net {
                seeds: net_seeds(seed),
                first_registry: None,
            }),
            "fabric_sweep" => {
                let seeds = net_seeds(seed);
                let reference = seeds
                    .iter()
                    .map(|&s| {
                        DeploymentCache::global().clear();
                        net_sweep_seed(s, Scope::off(), None).map(|(text, _)| text)
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Self::Fabric {
                    pbbf: pbbf.to_path_buf(),
                    seeds,
                    reference,
                })
            }
            other => Err(format!(
                "unknown workload `{other}` (choose from {NAMES:?})"
            )),
        }
    }

    /// Runs one iteration, checks its outputs, and (when `scope` traces)
    /// turns its spans into layer samples.
    pub fn iterate(&mut self, scope: Scope, rec: &mut Record, seen: &mut Seen) -> Timing {
        match self {
            Self::Paper { seed } => paper_iteration(*seed, scope, rec, seen),
            Self::Ideal { points } => ideal_iteration(points, scope, rec, seen),
            Self::Net {
                seeds,
                first_registry,
            } => net_iteration(seeds, first_registry, scope, rec, seen),
            Self::Fabric {
                pbbf,
                seeds,
                reference,
            } => fabric_iteration(pbbf, seeds, reference, scope, rec, seen),
        }
    }
}

/// The set-up a fresh process pays before its first iteration: what
/// `setup_s` times. For `fabric_sweep` it is starting the worker fleet;
/// the reference output is the benchmark's own work and is left out.
pub fn setup_probe(name: &str, pbbf: &Path) -> Result<(), String> {
    if name == "fabric_sweep" {
        return start_fleet(pbbf);
    }
    let mut rec = Record::default();
    Workload::setup(name, 0, pbbf, Scope::off(), &mut rec).map(|_| ())
}

/// Starts the sweep fleet the way `pbbf sweep` does, `pbbf worker`
/// processes on pipes, and waits for them to see end-of-input and exit.
fn start_fleet(pbbf: &Path) -> Result<(), String> {
    let _ = DeploymentCache::global();
    let mut fleet = Vec::with_capacity(FABRIC_WORKERS);
    for _ in 0..FABRIC_WORKERS {
        let child = Command::new(pbbf)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pbbf.display()))?;
        fleet.push(child);
    }
    for mut child in fleet {
        drop(child.stdin.take());
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("pbbf worker exited with {status}"));
        }
    }
    Ok(())
}

fn check_figure(rec: &mut Record, id: &str, fig: &Figure) {
    let expected = match id {
        "fig04" | "fig05" | "fig08" | "fig09" | "fig10" | "fig11" => 7,
        "fig06" | "fig07" => 4,
        "fig12" => 1,
        "fig13" | "fig14" | "fig15" | "fig16" => 6,
        "fig17" | "fig18" => 5,
        _ => 0,
    };
    rec.check(
        &format!("{id}: {expected} series"),
        fig.series.len() == expected,
    );
    let points = || fig.series.iter().flat_map(|s| &s.points);
    rec.check(
        &format!("{id}: every value finite"),
        points().all(|p| p.x.is_finite() && p.y.is_finite() && p.err.is_finite()),
    );
    // Fractions of updates delivered (to a reliability level, or at all).
    if matches!(id, "fig04" | "fig05" | "fig16" | "fig18") {
        rec.check(
            &format!("{id}: fractions within [0, 1]"),
            points().all(|p| (0.0..=1.0).contains(&p.y)),
        );
    }
}

// ---------------------------------------------------------------- paper

fn paper_iteration(seed: u64, scope: Scope, rec: &mut Record, seen: &mut Seen) -> Timing {
    let effort = Effort::paper();
    DeploymentCache::global().clear();
    let clock = Stopwatch::start();
    let exhibits: Vec<(Experiment, Output, String)> = scope.span("paper_reproduce", None, |root| {
        Experiment::all()
            .into_iter()
            .map(|exp| {
                let name = format!("experiments.{}", exp.id());
                let out = scope.span(&name, root, |_| exp.run(&effort, seed));
                let text = scope.span("metrics.render", root, |_| out.render_text());
                (exp, out, text)
            })
            .collect()
    });
    let timing = clock.stop();

    rec.check("paper_reproduce: 17 exhibits", exhibits.len() == 17);
    for (exp, out, text) in &exhibits {
        match out {
            Output::Figure(fig) => check_figure(rec, exp.id(), fig),
            Output::Table(_) => rec.check(
                &format!("{}: is a table", exp.id()),
                exp.id().starts_with("table"),
            ),
        }
        seen.text(rec, &format!("paper_reproduce {}", exp.id()), text);
    }

    if scope.is_on() {
        let figure_s = |ids: &[&str]| -> f64 {
            ids.iter()
                .map(|id| {
                    scope
                        .durations_s(&format!("experiments.{id}"))
                        .iter()
                        .sum::<f64>()
                })
                .sum()
        };
        for id in ["fig04", "fig05", "fig08", "fig09", "fig10", "fig11"] {
            rec.sample(&format!("experiments.{id}_s"), figure_s(&[id]));
        }
        rec.sample("experiments.net_figs_s", figure_s(&NET_FIGS));
        rec.sample(
            "experiments.percolation_figs_s",
            figure_s(&["fig06", "fig07", "fig12"]),
        );
        let all: Vec<&str> = Experiment::all().iter().map(Experiment::id).collect();
        let (total, render) = (
            figure_s(&all),
            scope.durations_s("metrics.render").iter().sum::<f64>(),
        );
        rec.check(
            "paper_reproduce: experiments and render spans add up to the traced wall within 1%",
            (timing.wall_s - total - render).abs() <= 0.01 * timing.wall_s,
        );
        rec.sample("experiments.total_s", total);
        rec.sample("metrics.render_s", render);
        rec.sample(
            "trace.paper_unattributed_s",
            scope.self_s("paper_reproduce").iter().sum(),
        );
        rec.sample("parallel.cpu_util.paper_reproduce", cpu_util(timing));
    }
    timing
}

fn cpu_util(t: Timing) -> f64 {
    t.cpu_ticks as f64 / procfs::TICKS_PER_SEC / (t.wall_s * pbbf_parallel::max_threads() as f64)
}

// ---------------------------------------------------------------- ideal

/// One fixed ideal-sim point: a simulator built once in set-up, the
/// seeds of its runs, and the q band its run times are reported under.
pub struct IdealPoint {
    band: &'static str,
    mode: Mode,
    sim: IdealSim,
    seeds: Vec<u64>,
}

fn ideal_points(seed: u64, scope: Scope) -> Vec<IdealPoint> {
    let effort = Effort::paper();
    let mut cfg = IdealConfig::table1();
    cfg.grid_side = effort.ideal_grid_side;
    cfg.updates = effort.ideal_updates;
    let mut modes = Vec::new();
    for p in [0.05, 0.5, 0.75] {
        for (band, q) in [("q0", 0.0), ("q01", 0.1), ("q05", 0.5), ("q1", 1.0)] {
            let params = PbbfParams::new(p, q).expect("fixed p, q are valid");
            modes.push((band, Mode::SleepScheduled(params)));
        }
    }
    modes.push(("psm", Mode::SleepScheduled(PbbfParams::PSM)));
    modes.push(("always_on", Mode::AlwaysOn));
    modes
        .into_iter()
        .enumerate()
        .map(|(i, (band, mode))| IdealPoint {
            band,
            mode,
            sim: scope.span("ideal_sim.new", None, |_| IdealSim::new(cfg, mode)),
            seeds: (0..IDEAL_SEEDS)
                .map(|r| derive(derive(seed, 100 + i as u64), r))
                .collect(),
        })
        .collect()
}

fn hash_run(stats: &RunStats) -> u64 {
    let mut h = Fnv::new();
    for u in &stats.updates {
        for r in &u.received {
            match r {
                Some((latency, hops)) => {
                    h.u64(latency.to_bits());
                    h.u64(u64::from(*hops));
                }
                None => h.u64(u64::MAX),
            }
        }
        h.u64(u.energy_joules_per_node.to_bits());
        h.u64(u.immediate_tx);
        h.u64(u.normal_tx);
        h.u64(u.deferred_immediates);
        h.u64(u64::from(u.frames_used));
    }
    h.0
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Per-update totals over the sleep-scheduled runs of one iteration.
#[derive(Default)]
struct UpdateCounts {
    updates: u64,
    frames: u64,
    tx: u64,
    deferred: u64,
    node_frames: u64,
}

fn ideal_iteration(
    points: &[IdealPoint],
    scope: Scope,
    rec: &mut Record,
    seen: &mut Seen,
) -> Timing {
    // Each point's runs are checked and dropped before the next point
    // runs, so the benchmark holds one point's `RunStats` at a time and
    // `peak_rss_mib` stays the simulator's.
    let mut timing = Timing::default();
    let mut counts = UpdateCounts::default();
    for (i, pt) in points.iter().enumerate() {
        let name = format!("ideal_sim.run.{}", pt.band);
        let clock = Stopwatch::start();
        let runs: Vec<RunStats> = pt
            .seeds
            .iter()
            .map(|&seed| scope.span(&name, None, |_| pt.sim.run(seed)))
            .collect();
        timing += clock.stop();
        for (seed, stats) in pt.seeds.iter().zip(&runs) {
            let key = format!("ideal_points point {i} ({}) seed {seed}", pt.band);
            check_ideal_run(pt, &key, stats, rec, seen, &mut counts);
        }
    }
    let UpdateCounts {
        updates,
        frames,
        tx,
        deferred,
        node_frames,
    } = counts;
    rec.sample(
        "ideal_sim.frames_per_update",
        frames as f64 / updates as f64,
    );
    rec.sample("ideal_sim.tx_per_update", tx as f64 / updates as f64);
    rec.sample(
        "ideal_sim.deferred_per_update",
        deferred as f64 / updates as f64,
    );

    if scope.is_on() {
        let mut sleep_ns = 0.0;
        for band in ["q0", "q01", "q05", "q1", "psm", "always_on"] {
            let ms = scope.durations_ms(&format!("ideal_sim.run.{band}"));
            if band != "always_on" {
                sleep_ns += ms.iter().sum::<f64>() * 1e6;
            }
            rec.samples(&format!("ideal_sim.run_ms.{band}"), ms);
        }
        rec.sample("ideal_sim.ns_per_node_frame", sleep_ns / node_frames as f64);
    }
    timing
}

fn check_ideal_run(
    pt: &IdealPoint,
    key: &str,
    stats: &RunStats,
    rec: &mut Record,
    seen: &mut Seen,
    counts: &mut UpdateCounts,
) {
    seen.hash(rec, key, hash_run(stats));
    rec.check(
        &format!("{key}: delivered fractions within [0, 1], energy finite"),
        stats.updates.iter().all(|u| {
            (0.0..=1.0).contains(&u.delivered_fraction())
                && u.energy_joules_per_node.is_finite()
                && u.energy_joules_per_node > 0.0
        }),
    );
    let along_shortest = |u: &pbbf_ideal_sim::UpdateStats| {
        u.received
            .iter()
            .zip(&stats.shortest)
            .all(|(r, &d)| matches!(r, Some((_, hops)) if *hops == d))
    };
    match pt.mode {
        Mode::AlwaysOn => {
            let cfg = pt.sim.config();
            let per_hop = cfg.analysis.l1 + cfg.t_packet;
            rec.check(
                &format!("{key}: every node reached along shortest paths"),
                stats.updates.iter().all(along_shortest),
            );
            rec.check(
                &format!("{key}: latency equals hops x (L1 + t_packet)"),
                stats.updates.iter().all(|u| {
                    u.received.iter().flatten().all(|&(latency, hops)| {
                        let expected = f64::from(hops) * per_hop;
                        (latency - expected).abs() <= 1e-9 * expected.max(1.0)
                    })
                }),
            );
        }
        Mode::SleepScheduled(params) => {
            if params == PbbfParams::PSM {
                rec.check(
                    &format!("{key}: PSM reaches every node along shortest paths"),
                    stats.updates.iter().all(along_shortest),
                );
            }
            for u in &stats.updates {
                counts.updates += 1;
                counts.frames += u64::from(u.frames_used);
                counts.tx += u.total_tx();
                counts.deferred += u.deferred_immediates;
                counts.node_frames += u64::from(u.frames_used) * u.received.len() as u64;
            }
        }
        Mode::Gossip { .. } => unreachable!("no gossip point is built"),
    }
}

// ------------------------------------------------------------------ net

/// One seed of the net-sim figures through the public shard path:
/// manifest, every shard fanned across the thread budget, assembly and
/// rendering. Returns the text `pbbf sweep` would print and the figures.
fn net_sweep_seed(
    seed: u64,
    scope: Scope,
    parent: Option<usize>,
) -> Result<(String, Vec<Figure>), String> {
    let effort = Effort::paper();
    let mut text = String::new();
    let mut figures = Vec::with_capacity(NET_FIGS.len());
    for fig in NET_FIGS {
        scope.span(fig, parent, |fig_span| {
            let manifest = scope
                .span("experiments.manifest", fig_span, |_| {
                    sweep_manifest(fig, &effort, seed)
                })
                .ok_or_else(|| format!("{fig} is not shardable"))?;
            let values = pbbf_parallel::par_run(manifest.shards.len(), |i| {
                scope.span("experiments.shard", fig_span, |_| {
                    run_sweep_shard(&manifest.shards[i])
                })
            })
            .into_iter()
            .collect::<Result<Vec<_>, String>>()?;
            let figure = scope.span("experiments.assemble", fig_span, |_| {
                assemble_sweep(&manifest, values)
            });
            let rendered = scope.span("metrics.render", fig_span, |_| figure.render_text());
            text.push_str(&rendered);
            text.push('\n'); // `pbbf sweep` prints each figure with println!
            figures.push(figure);
            Ok::<_, String>(())
        })?;
    }
    Ok((text, figures))
}

fn net_iteration(
    seeds: &[u64],
    first_registry: &mut Option<(usize, u64)>,
    scope: Scope,
    rec: &mut Record,
    seen: &mut Seen,
) -> Timing {
    let registry = DeploymentCache::global();
    registry.clear();
    let before = registry.stats();
    let clock = Stopwatch::start();
    let outputs: Vec<Result<(String, Vec<Figure>), String>> =
        scope.span("net_sweep", None, |root| {
            seeds
                .iter()
                .map(|&seed| net_sweep_seed(seed, scope, root))
                .collect()
        });
    let timing = clock.stop();
    let after = registry.stats();

    for (seed, out) in seeds.iter().zip(outputs) {
        let key = format!("net_sweep seed {seed}");
        rec.check(&format!("{key}: every shard ran"), out.is_ok());
        let Ok((text, figures)) = out else { continue };
        for (id, fig) in NET_FIGS.iter().zip(&figures) {
            check_figure(rec, id, fig);
        }
        seen.text(rec, &key, &text);
    }
    // Two shards racing on one key both draw it and both count a miss, so
    // misses vary with thread timing. The entries left resident (the
    // registry was cleared first) and the lookups do not.
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    rec.sample("net_sim.deploy_cache_hits", hits as f64);
    rec.sample("net_sim.deploy_cache_misses", misses as f64);
    rec.sample("net_sim.deploy_cache_entries", after.len as f64);
    rec.check(
        "net_sweep: registry cleared before the iteration (misses >= entries)",
        misses >= after.len as u64,
    );
    let usage = (after.len, hits + misses);
    match first_registry {
        Some(first) => rec.check(
            "net_sweep: registry entries and lookups equal iteration 1's",
            usage == *first,
        ),
        None => *first_registry = Some(usage),
    }

    if scope.is_on() {
        rec.samples(
            "experiments.shard_ms",
            scope.durations_ms("experiments.shard"),
        );
        rec.sample(
            "experiments.manifest_ms",
            scope.durations_ms("experiments.manifest").iter().sum(),
        );
        rec.sample(
            "experiments.assemble_ms",
            scope.durations_ms("experiments.assemble").iter().sum(),
        );
        rec.sample("parallel.cpu_util.net_sweep", cpu_util(timing));
    }
    timing
}

/// Traced-only probe at the Table-2 config: splits shard time into the
/// deployment draw and the event loop of each protocol mode.
pub fn net_probe(seed: u64, scope: Scope, rec: &mut Record) {
    let cfg = NetConfig::table2();
    let modes = [
        (
            "pbbf",
            NetMode::SleepScheduled(PbbfParams::new(0.25, 0.25).expect("valid p, q")),
        ),
        ("psm", NetMode::SleepScheduled(PbbfParams::PSM)),
        ("always_on", NetMode::AlwaysOn),
    ];
    scope.span("net_probe", None, |root| {
        for k in 0..PROBE_SEEDS {
            let s = derive(seed, 0x5EED_0000 + k);
            let deployment = scope.span("net_sim.draw_deployment", root, |_| {
                NetSim::draw_deployment(&cfg, s)
            });
            for (name, mode) in modes {
                let sim = NetSim::new(cfg, mode);
                let stats = scope.span(&format!("net_sim.run_on.{name}"), root, |_| {
                    sim.run_on(s, &deployment)
                });
                rec.sample("net_sim.data_tx_per_run", stats.data_tx as f64);
                rec.sample("net_sim.collisions_per_run", stats.collisions as f64);
            }
        }
    });
    rec.samples(
        "net_sim.draw_deployment_ms",
        scope.durations_ms("net_sim.draw_deployment"),
    );
    for (name, _) in modes {
        rec.samples(
            &format!("net_sim.run_on_ms.{name}"),
            scope.durations_ms(&format!("net_sim.run_on.{name}")),
        );
    }
}

// --------------------------------------------------------------- fabric

fn fabric_iteration(
    pbbf: &Path,
    seeds: &[u64],
    reference: &[String],
    scope: Scope,
    rec: &mut Record,
    seen: &mut Seen,
) -> Timing {
    let figs = NET_FIGS.join(",");
    let workers = FABRIC_WORKERS.to_string();
    let clock = Stopwatch::start();
    let outputs: Vec<std::io::Result<std::process::Output>> =
        scope.span("fabric_sweep", None, |root| {
            seeds
                .iter()
                .map(|seed| {
                    scope.span("fabric.sweep", root, |_| {
                        Command::new(pbbf)
                            .args(["sweep", "--paper", "--workers", &workers, "--figs", &figs])
                            .args(["--seed", &seed.to_string()])
                            .stdin(Stdio::null())
                            .output()
                    })
                })
                .collect()
        });
    let timing = clock.stop();

    let mut total = SweepStats::default();
    let mut faults = 0;
    for ((seed, out), expected) in seeds.iter().zip(outputs).zip(reference) {
        let key = format!("fabric_sweep seed {seed}");
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                rec.check(&format!("{key}: pbbf sweep starts ({e})"), false);
                continue;
            }
        };
        rec.check(&format!("{key}: pbbf sweep exits 0"), out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        rec.check(
            &format!("{key}: stdout byte-identical to net_sweep"),
            stdout == expected.as_str(),
        );
        seen.text(rec, &key, &stdout);
        let mut figures = Vec::new();
        for line in String::from_utf8_lossy(&out.stderr).lines() {
            match parse_stats_line(line) {
                None => eprintln!("{line}"),
                Some(Err(e)) => rec.check(&format!("{key}: {e}"), false),
                Some(Ok((fig, s))) => {
                    rec.check(
                        &format!("{key} {fig}: no faults or retries"),
                        s.faults() == 0 && s.retries == 0,
                    );
                    figures.push(fig);
                    faults += s.faults();
                    total.retries += s.retries;
                    total.inproc_shards += s.inproc_shards;
                    total.cache_hits += s.cache_hits;
                    total.cache_misses += s.cache_misses;
                }
            }
        }
        rec.check(
            &format!("{key}: one stats line per figure"),
            figures == NET_FIGS,
        );
    }
    rec.sample("fabric.retries", total.retries as f64);
    rec.sample("fabric.faults", faults as f64);
    rec.sample("fabric.inproc_shards", total.inproc_shards as f64);
    rec.sample("fabric.cache_hits", total.cache_hits as f64);
    rec.sample("fabric.cache_misses", total.cache_misses as f64);
    timing
}
