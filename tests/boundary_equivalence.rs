//! Statistical equivalence of the lazy boundary engine.
//!
//! [`BoundaryEngine::Lazy`] settles idle nodes' beacon boundaries in
//! closed form — one geometric run-length draw per stretch of sleeps
//! instead of one Bernoulli coin per boundary — and jumps globally
//! quiescent frames wholesale. It relaxes *stream layout* relative to
//! the dense reference (values for a fixed seed move) while promising
//! the same *distribution*; this suite is the honest pin of that
//! promise, comparing it against [`BoundaryEngine::Dense`] on the two
//! observables the skips actually rewrite:
//!
//! * **per-node awake-beacon counts** — how many data phases each node
//!   spent awake (recovered exactly from the per-node sleep residency:
//!   nodes sleep only in whole `BI − AW` data phases), compared cell by
//!   cell with a pooled chi-square over the two empirical histograms;
//! * **total sleep energy** (and total energy) — compared as
//!   across-run means with a tolerance from the runs' own spread.
//!
//! Cells randomize `(q, Δ, λ, run-length)` (plus network size) from a
//! fixed seed, on two grids sampled from disjoint seed spaces: the
//! general grid, where λ spans busy and near-quiescent update rates and
//! geometric settling carries the comparison, and a quiescent-dominated
//! grid (long update periods over long runs), where most frames of every
//! run fall inside quiescent-frame jumps. All runs of a cell fan out
//! through
//! `pbbf_parallel::par_map`, so CI exercising `PBBF_THREADS = 1/2/8`
//! checks the suite is thread-count invariant as well as green.
//!
//! The exact-equivalence complement lives in
//! `crates/net-sim/tests/run_active_vs_seed.rs` (dense engine pinned
//! bit-for-bit to the pre-geometric goldens; deterministic-coin modes
//! pinned across engines; the frame jump pinned by its quiescent rows)
//! — this file owns the `0 < q < 1` regime where only distributional
//! claims are possible.

use pbbf_core::PbbfParams;
use pbbf_net_sim::{BoundaryEngine, NetConfig, NetMode, NetRunStats, NetSim};
use pbbf_parallel::par_map;

/// One randomized grid cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    q: f64,
    delta: f64,
    lambda: f64,
    frames: u32,
    nodes: usize,
}

/// Disjoint seed spaces: every comparison is between independent
/// samples of each engine's own distribution, never the same seeds
/// replayed (identical seeds could mask a bias).
const GEOMETRIC_SEEDS: u64 = 1_000_000;
const FRAME_SKIP_SEEDS: u64 = 5_000_000;
const DENSE_SEEDS: u64 = 9_000_000;

/// The general grid. Update period of 3..32 whole beacon intervals: the
/// low end keeps traffic almost continuous, the high end leaves long
/// quiescent stretches for the quiescent-frame jump.
fn cells() -> Vec<Cell> {
    grid(0x9E37_79B9_2005_1CD5, (3.0, 30.0), (20, 40))
}

/// The quiescent-dominated grid. Update period of 24..47 whole beacon
/// intervals over 60..119 frames: each flood dies out within a few
/// frames, so every run is mostly jumped frames between two to five
/// floods.
fn quiescent_cells() -> Vec<Cell> {
    grid(0xC0FF_EE20_0513_D5A7, (24.0, 24.0), (60, 60))
}

/// Deterministic cell generation (splitmix64): the grid is randomized
/// but identical on every run and thread count. `periods` is the
/// `(min, span)` of the update period in whole beacon intervals,
/// `frames` the `(min, span)` of the run length in frames.
fn grid(seed: u64, periods: (f64, f64), frames: (u32, u32)) -> Vec<Cell> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(pbbf::des::GOLDEN_GAMMA);
        pbbf::des::mix64(state)
    };
    let mut unit = move || (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (0..6)
        .map(|_| Cell {
            // The full interior regime, biased toward the sparse low-q
            // corner the skip optimizes.
            q: (0.03 + unit() * 0.9).min(0.93),
            delta: 8.0 + unit() * 6.0,
            // Whole-beacon-interval update periods keep every generated
            // update inside an ATIM window (the first lands mid-window),
            // the regime the source model supports — its sender is awake
            // by the frame-start wakeup, like every config this repo
            // simulates.
            lambda: 1.0 / (10.0 * (periods.0 + (unit() * periods.1).floor())),
            frames: frames.0 + (unit() * f64::from(frames.1)) as u32,
            nodes: 60 + (unit() * 90.0) as usize,
        })
        .collect()
}

fn config(cell: Cell, engine: BoundaryEngine) -> NetConfig {
    let mut cfg = NetConfig::table2();
    cfg.nodes = cell.nodes;
    cfg.delta = cell.delta;
    cfg.lambda = cell.lambda;
    cfg.duration_secs = f64::from(cell.frames) * cfg.beacon_interval_secs;
    cfg.boundary_engine = engine;
    cfg
}

/// Per-node slept-beacon counts of one run. Sleep happens only in whole
/// data phases of `BI − AW` seconds, so the division is integral up to
/// float rounding.
fn slept_beacons(cfg: &NetConfig, stats: &NetRunStats) -> Vec<u32> {
    let data_secs = cfg.beacon_interval_secs - cfg.atim_window_secs;
    stats
        .state_secs
        .iter()
        .map(|d| {
            let slept = d[2] / data_secs;
            let rounded = slept.round();
            assert!(
                (slept - rounded).abs() < 1e-6,
                "sleep residency {} is not a whole number of data phases",
                d[2]
            );
            rounded as u32
        })
        .collect()
}

struct EngineSample {
    /// Histogram of per-node awake-beacon counts across all runs.
    awake_hist: Vec<u64>,
    /// Per-run total sleep seconds across nodes.
    sleep_secs: Vec<f64>,
    /// Per-run total energy across nodes.
    energy: Vec<f64>,
}

/// `runs` runs of `engine` on `cell`, seeded `seeds..seeds + runs`.
fn sample(cell: Cell, engine: BoundaryEngine, seeds: u64, runs: u64) -> EngineSample {
    let cfg = config(cell, engine);
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(PbbfParams::new(0.25, cell.q).expect("valid params")),
    );
    let stats = par_map((0..runs).collect(), |r| sim.run(seeds + r));
    let mut awake_hist = vec![0u64; cell.frames as usize + 1];
    let mut sleep_secs = Vec::with_capacity(stats.len());
    let mut energy = Vec::with_capacity(stats.len());
    for s in &stats {
        for slept in slept_beacons(&cfg, s) {
            let awake = cell.frames - slept;
            awake_hist[awake as usize] += 1;
        }
        sleep_secs.push(s.state_secs.iter().map(|d| d[2]).sum());
        energy.push(s.energy_joules.iter().sum());
    }
    EngineSample {
        awake_hist,
        sleep_secs,
        energy,
    }
}

/// Pooled Pearson chi-square between two empirical histograms, with
/// low-count bins merged (expected < 8) so the asymptotic distribution
/// applies. Returns `(chi2, dof)`.
fn pooled_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len());
    let mut chi2 = 0.0;
    let mut dof = 0usize;
    let (mut acc_a, mut acc_b) = (0.0f64, 0.0f64);
    for i in 0..a.len() {
        acc_a += a[i] as f64;
        acc_b += b[i] as f64;
        let pooled = (acc_a + acc_b) / 2.0;
        if pooled >= 8.0 || (i == a.len() - 1 && pooled > 0.0) {
            chi2 += (acc_a - pooled).powi(2) / pooled + (acc_b - pooled).powi(2) / pooled;
            dof += 1;
            acc_a = 0.0;
            acc_b = 0.0;
        }
    }
    (chi2, dof.saturating_sub(1))
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Means must agree within 5 standard errors of the paired difference
/// (plus a small absolute floor for near-zero spreads).
fn assert_means_close(label: &str, cell: Cell, a: &[f64], b: &[f64]) {
    let (ma, sa) = mean_std(a);
    let (mb, sb) = mean_std(b);
    let n = a.len() as f64;
    let se = ((sa * sa + sb * sb) / n).sqrt();
    let tol = 5.0 * se + 1e-9 * ma.abs().max(1.0);
    assert!(
        (ma - mb).abs() <= tol,
        "{label} diverged for {cell:?}: lazy {ma} vs dense {mb} (tol {tol})"
    );
}

/// The chi-square + mean-agreement battery between the lazy engine's
/// sample and the dense reference's.
fn assert_engine_agrees(cell: Cell, lazy: &EngineSample, dense: &EngineSample) {
    // Per-node awake-beacon counts: pooled chi-square between the
    // engines' histograms. Threshold: a generous 0.9999-quantile
    // bound (dof + 4 * sqrt(2 dof) + 8) — the samples are
    // independent, so only a real distributional bias fails this.
    let (chi2, dof) = pooled_chi_square(&lazy.awake_hist, &dense.awake_hist);
    let threshold = dof as f64 + 4.0 * (2.0 * dof as f64).sqrt() + 8.0;
    let samples: u64 = lazy.awake_hist.iter().sum();
    eprintln!("cell {cell:?}: chi2 {chi2:.1} dof {dof} samples {samples}");
    assert!(
        dof >= 2 && samples >= 500,
        "degenerate cell {cell:?}: dof {dof}, {samples} node-samples — \
         the comparison has no statistical power"
    );
    assert!(
        chi2 <= threshold,
        "awake-beacon histograms diverged for {cell:?}: chi2 {chi2} > {threshold} \
         (dof {dof})\n  lazy  {:?}\n  dense {:?}",
        lazy.awake_hist,
        dense.awake_hist,
    );

    // Sleep-energy and total-energy means within sampling error.
    assert_means_close(
        "total sleep seconds",
        cell,
        &lazy.sleep_secs,
        &dense.sleep_secs,
    );
    assert_means_close("total energy", cell, &lazy.energy, &dense.energy);
}

/// Samples the lazy engine from seed space `lazy_seeds` and the dense
/// reference on every cell, and runs the agreement battery on each.
fn assert_grid_agrees(cells: Vec<Cell>, lazy_seeds: u64) {
    const RUNS: u64 = 12;
    for cell in cells {
        let lazy = sample(cell, BoundaryEngine::Lazy, lazy_seeds, RUNS);
        let dense = sample(cell, BoundaryEngine::Dense, DENSE_SEEDS, RUNS);
        assert_engine_agrees(cell, &lazy, &dense);
    }
}

#[test]
fn geometric_and_dense_engines_agree_in_distribution() {
    // The lazy engine's geometric per-node settling against the exact
    // per-boundary replay, over the general grid.
    assert_grid_agrees(cells(), GEOMETRIC_SEEDS);
}

#[test]
fn frame_skip_and_dense_engines_agree_in_distribution() {
    // The lazy engine where quiescent-frame jumps cover most of every
    // run: settling across a jump must leave each node's awake-beacon
    // count distributed as the frame-by-frame replay leaves it. The
    // goldens pin the jump bit-for-bit on fixed rows; this is the
    // independent end-to-end check against the dense reference, over
    // seeds disjoint from the geometric test's.
    assert_grid_agrees(quiescent_cells(), FRAME_SKIP_SEEDS);
}

#[test]
fn suite_is_thread_count_invariant_per_engine() {
    // The fan-out must not perturb the sampled values themselves: one
    // cell re-sampled under the current PBBF_THREADS equals a forced
    // sequential pass (run-level substreams are independent of
    // scheduling by construction; this guards the suite's own plumbing).
    let cell = cells()[0];
    let cfg = config(cell, BoundaryEngine::Lazy);
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(PbbfParams::new(0.25, cell.q).expect("valid params")),
    );
    let fanned = par_map((0..6u64).collect(), |r| sim.run(500 + r));
    let sequential: Vec<_> = (0..6u64).map(|r| sim.run(500 + r)).collect();
    assert_eq!(fanned, sequential);
}
