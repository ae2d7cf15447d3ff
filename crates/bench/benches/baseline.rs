//! The perf-trajectory baseline: a small, fixed set of kernels whose
//! results are snapshotted into `BENCH_baseline.json` at the repo root so
//! future optimization PRs have concrete numbers to beat.
//!
//! Regenerate the snapshot with:
//!
//! ```text
//! BENCH_OUTPUT_JSON=BENCH_baseline.json cargo bench -p pbbf-bench --bench baseline
//! ```
//!
//! (A relative `BENCH_OUTPUT_JSON` resolves against the workspace root —
//! the criterion shim anchors it at the nearest ancestor `Cargo.lock` —
//! so this works from any directory inside the repo.)
//!
//! CI enforces this snapshot: the `bench-gate` job re-runs every kernel
//! and `bench_check` fails the build when one is more than 30% slower
//! than the committed numbers (see `crates/bench/src/check.rs`).
//!
//! Kernels:
//!
//! * `deployment_edges_grid_n5000` vs `deployment_edges_brute_n5000` — the
//!   spatial-hash unit-disk edge build against the O(n²) reference at
//!   N = 5000, Δ = 10 (the acceptance criterion is ≥10× here).
//! * `deployment_build_n10000` — full 10k-node deployment construction,
//!   infeasible with the brute path at interactive timescales.
//! * `event_queue_churn_100k` — a schedule/pop mix over the FIFO-stable
//!   binary-heap event queue.
//! * `net_sim_run_120s` — one end-to-end realistic-simulator run.
//! * `channel_churn_dense_delta16_brute` — a CSMA-like
//!   begin/carrier-sense/end mix on a dense (Δ = 16) 300-node
//!   deployment, through the O(active × degree) collision channel.
//! * `net_sim_run_delta16_brute` — a dense (Δ = 16), 1000-node, busy
//!   (λ = 1) end-to-end run, where the channel's cost shows most.
//! * `net_sim_run_sparse_q05_shared` vs `net_sim_run_sparse_q05_batched`
//!   — a 10k-node low-duty-cycle (q = 0.05) single-flood run over a long
//!   idle horizon on the `Arc`-shared cached deployment, on the walk
//!   (`NetSim::run_on_walked`: every node stepped at every boundary, one
//!   sleep coin each) and on the lazy engine (`NetSim::run_on`)
//!   respectively: what lazy settling buys.
//! * `net_sim_run_quiescent_frameskip` — a 500-node two-hour
//!   single-flood scenario (λ = 0.000125, PBBF(1, 1): all-immediate
//!   forwarding, draw-free always-awake coin) at the 50 ms beacon
//!   interval on the lazy engine, whose quiescent-frame jump settles the
//!   ~288k empty boundary events after the flood in one step. The
//!   absolute gate guards it: a revert to the per-frame walk is ~5.5×
//!   slower here.
//! * `fig06_quick_effort` — one full figure regeneration at quick effort.
//! * `ideal_sim_run_75_p05_q05`, `ideal_sim_run_75_psm` and
//!   `ideal_sim_run_301_p05_q05` — one idealized-simulator run of 5
//!   updates, the tile-at-a-time flood: on the paper's 75×75 grid at
//!   p = q = 0.5 (chain levels and coin reads) and under PSM (one normal
//!   batch per frame, no coin), and on a 301×301 grid (1,444 tiles) at
//!   p = q = 0.5, where a batch's frontier is a thin ring of a large
//!   tile set.
//!
//! Kernels that resolve deployments through the process-wide registry do
//! so via [`get_or_draw_tracked`], which records that kernel's cache
//! hit/miss delta under an `extras` key — the report shows *which*
//! kernel's geometry hit or missed, not just an end-of-run total.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pbbf_des::{EventQueue, SimDuration, SimRng, SimTime};
use pbbf_experiments::{fig06, Effort};
use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode};
use pbbf_net_sim::{CachedDeployment, DeploymentCache, NetConfig, NetMode, NetSim};
use pbbf_radio::{Channel, Frame};
use pbbf_topology::{
    area_for_density, unit_disk_edges, unit_disk_edges_brute, NodeId, Point2, RandomDeployment,
    Topology,
};

/// [`DeploymentCache::global().get_or_draw`] with per-kernel telemetry:
/// the registry counter movement caused by *this* resolution lands in
/// the JSON report as `extras["deployment_cache_<kernel>"]`, so the
/// snapshot records which kernel's geometry hit the cache and which drew
/// fresh (one end-of-run total cannot attribute either).
fn get_or_draw_tracked(
    kernel: &str,
    cfg: &NetConfig,
    seed: u64,
) -> std::sync::Arc<CachedDeployment> {
    let before = DeploymentCache::global().stats();
    let deployment = DeploymentCache::global().get_or_draw(cfg, seed);
    let after = DeploymentCache::global().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    criterion::set_json_extra(
        &format!("deployment_cache_{kernel}"),
        format!(
            "{{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {}, \"len\": {}, \"capacity\": {}}}",
            after.evictions - before.evictions,
            after.len,
            after.capacity
        ),
    );
    println!("deployment cache [{kernel}]: {hits} hits, {misses} misses");
    deployment
}

fn positions_at_density(n: usize, range: f64, delta: f64, seed: u64) -> (Vec<Point2>, f64) {
    let side = area_for_density(range, n, delta).sqrt();
    let mut rng = SimRng::new(seed);
    let positions = (0..n)
        .map(|_| Point2::new(rng.uniform01() * side, rng.uniform01() * side))
        .collect();
    (positions, side)
}

fn deployment_edges(c: &mut Criterion) {
    let (positions, _) = positions_at_density(5000, 30.0, 10.0, 42);
    let mut grid = unit_disk_edges(&positions, 30.0);
    grid.sort_unstable();
    assert_eq!(
        grid,
        unit_disk_edges_brute(&positions, 30.0),
        "grid and brute-force edge sets must agree"
    );
    c.bench_function("deployment_edges_grid_n5000", |b| {
        b.iter(|| unit_disk_edges(black_box(&positions), 30.0))
    });
    c.bench_function("deployment_edges_brute_n5000", |b| {
        b.iter(|| unit_disk_edges_brute(black_box(&positions), 30.0))
    });
}

fn deployment_build_10k(c: &mut Criterion) {
    let (positions, side) = positions_at_density(10_000, 30.0, 10.0, 43);
    c.bench_function("deployment_build_n10000", |b| {
        b.iter(|| RandomDeployment::from_positions(black_box(positions.clone()), 30.0, side))
    });
}

fn event_queue_churn(c: &mut Criterion) {
    c.bench_function("event_queue_churn_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut acc = 0u64;
            // A MAC-like mix: burst-schedule timers, drain some, repeat.
            for round in 0..1000u64 {
                let base = SimTime::from_nanos(round * 1_000_000);
                for i in 0..100u64 {
                    q.schedule(base + SimDuration::from_nanos(i * 7919), i);
                }
                for _ in 0..50 {
                    if let Some((_, e)) = q.pop() {
                        acc = acc.wrapping_add(e);
                    }
                }
            }
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
}

/// A CSMA-like churn: every millisecond, complete due transmissions and
/// start up to four new ones from randomly probed idle nodes (each probe
/// carrier-senses first, like the MAC does). Returns a checksum of clean
/// deliveries and suppressed probes so the workload can't be optimized
/// away.
fn channel_churn(ch: &mut Channel, steps: u32) -> u64 {
    let n = ch.topology().len() as u64;
    let air = SimDuration::from_millis(20);
    let mut rng = SimRng::new(99);
    let mut inflight: std::collections::VecDeque<(SimTime, NodeId)> =
        std::collections::VecDeque::new();
    let mut out = Vec::new();
    let mut acc = 0u64;
    for step in 0..steps {
        let now = SimTime::from_nanos(u64::from(step) * 1_000_000);
        while let Some(&(end, node)) = inflight.front() {
            if end > now {
                break;
            }
            inflight.pop_front();
            let _ = ch.end_tx_into(end, node, &mut out);
            acc += out.iter().filter(|d| d.clean).count() as u64;
        }
        for _ in 0..4 {
            let node = NodeId(rng.below(n) as u32);
            // carrier_busy covers own transmissions too.
            if ch.carrier_busy(node) {
                acc += 1;
                continue;
            }
            let end = ch.begin_tx(now, Frame::beacon(node), air);
            inflight.push_back((end, node));
        }
    }
    while let Some((end, node)) = inflight.pop_front() {
        let _ = ch.end_tx_into(end, node, &mut out);
        acc += out.iter().filter(|d| d.clean).count() as u64;
    }
    acc
}

fn dense_delta16_topology() -> Topology {
    let mut rng = SimRng::new(7);
    RandomDeployment::connected_with_density(300, 30.0, 16.0, 1000, &mut rng)
        .expect("dense deployment")
        .into_topology()
}

fn channel_churn_dense(c: &mut Criterion) {
    let topo = dense_delta16_topology();
    c.bench_function("channel_churn_dense_delta16_brute", |b| {
        b.iter(|| channel_churn(&mut Channel::new(black_box(topo.clone())), 2000))
    });
}

fn net_sim_run(c: &mut Criterion) {
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 120.0;
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(pbbf_core::PbbfParams::new(0.25, 0.25).expect("valid")),
    );
    c.bench_function("net_sim_run_120s", |b| b.iter(|| sim.run(4)));
}

fn net_sim_run_dense(c: &mut Criterion) {
    // Where the channel dominates: a dense (Δ = 16), large (1000
    // nodes), busy (λ = 1) scenario with many concurrent transmissions,
    // far past Table 2's 50 nodes at λ = 0.01. Almost every node is busy
    // almost every beacon here, so geometric skip has little to batch.
    let mut cfg = NetConfig::table2();
    cfg.nodes = 1000;
    cfg.duration_secs = 120.0;
    cfg.delta = 16.0;
    cfg.lambda = 1.0;
    let sim = NetSim::new(
        cfg,
        NetMode::SleepScheduled(pbbf_core::PbbfParams::new(0.5, 0.5).expect("valid")),
    );
    c.bench_function("net_sim_run_delta16_brute", |b| b.iter(|| sim.run(4)));
}

fn net_sim_run_sparse(c: &mut Criterion) {
    // Where the event loop dominates: a large (10000 nodes) rare-traffic
    // network at a low duty cycle (q = 0.05) — one flood at λ = 0.000125,
    // then ~670 beacon intervals of pure idle steady state over 7200 s.
    // `net_sim_run_sparse_q05_shared` walks every node at every boundary
    // (`NetSim::run_on_walked`); `net_sim_run_sparse_q05_batched` is the
    // same registry-shared run on the lazy engine. The ratio isolates
    // what lazy settling buys in the regime sweeps spend their time in.
    let mut cfg = NetConfig::table2();
    cfg.nodes = 10_000;
    cfg.duration_secs = 7200.0;
    cfg.delta = 10.0;
    cfg.lambda = 0.000125;
    // Resolved through the process-wide registry (not a direct draw) so
    // the report's cache counters reflect how the sweeps actually obtain
    // deployments.
    let deployment = get_or_draw_tracked("net_sim_run_sparse_q05_shared", &cfg, 4);
    let mode = NetMode::SleepScheduled(pbbf_core::PbbfParams::new(0.25, 0.05).expect("valid"));
    let sim = NetSim::new(cfg, mode);
    let batched = sim.run_on(4, &deployment);
    assert_eq!(batched, sim.run(4), "shared deployment must reproduce run");
    assert_eq!(
        sim.run_on_walked(4, &deployment).updates_generated(),
        batched.updates_generated(),
        "the walk and the lazy engine must simulate the same workload"
    );
    c.bench_function("net_sim_run_sparse_q05_shared", |b| {
        b.iter(|| sim.run_on_walked(4, &deployment))
    });
    c.bench_function("net_sim_run_sparse_q05_batched", |b| {
        b.iter(|| sim.run_on(4, &deployment))
    });
}

fn net_sim_run_quiescent(c: &mut Criterion) {
    // The quiescent-frame jump's home regime: a two-hour sparse horizon
    // (λ = 0.000125 → exactly one update at t = AW/2, flooded through
    // the whole network within a few beacons, then nothing) at the
    // 50 ms beacon interval — the shortest the Mica2 PHY admits, its
    // 26.7 ms data airtime having to fit inside one data phase. Mode is
    // PBBF(1, 1): all-immediate forwarding (no announce drain) and the
    // draw-free always-awake coin — so once the flood's carried traffic
    // ends, *no* node holds a frame or window membership and no traffic
    // event is pending. The lazy engine detects that quiescence at the
    // first idle frame start and settles the rest of the horizon — ~288k
    // empty boundary events — in one O(1) jump. 500 nodes keeps the
    // flood a real multi-hop spread while the walk it replaces would
    // still dominate the run; at the sparse kernel's 10k nodes the one
    // flood costs several times the entire walk.
    let mut cfg = NetConfig::table2();
    cfg.nodes = 500;
    cfg.duration_secs = 7200.0;
    cfg.delta = 10.0;
    cfg.lambda = 0.000125;
    cfg.beacon_interval_secs = 0.05;
    cfg.atim_window_secs = 0.005;
    // A fresh geometry (no other kernel runs 500 nodes), so the
    // per-kernel extras record this kernel's miss + insert.
    let deployment = get_or_draw_tracked("net_sim_run_quiescent_frameskip", &cfg, 4);
    let mode = NetMode::SleepScheduled(pbbf_core::PbbfParams::new(1.0, 1.0).expect("valid"));
    let sim = NetSim::new(cfg, mode);
    assert_eq!(
        sim.run_on(4, &deployment).updates_generated(),
        1,
        "exactly one flood"
    );
    c.bench_function("net_sim_run_quiescent_frameskip", |b| {
        b.iter(|| sim.run_on(black_box(4), &deployment))
    });
}

fn figure_quick(c: &mut Criterion) {
    let effort = Effort::quick();
    c.bench_function("fig06_quick_effort", |b| b.iter(|| fig06(&effort, 2005)));
}

fn ideal_sim_run(c: &mut Criterion) {
    let pbbf = Mode::SleepScheduled(pbbf_core::PbbfParams::new(0.5, 0.5).expect("valid"));
    let psm = Mode::SleepScheduled(pbbf_core::PbbfParams::PSM);
    for (name, side, mode) in [
        ("ideal_sim_run_75_p05_q05", 75, pbbf),
        ("ideal_sim_run_75_psm", 75, psm),
        ("ideal_sim_run_301_p05_q05", 301, pbbf),
    ] {
        let cfg = IdealConfig {
            grid_side: side,
            updates: 5,
            ..IdealConfig::table1()
        };
        let sim = IdealSim::new(cfg, mode);
        c.bench_function(name, |b| b.iter(|| sim.run(black_box(2005))));
    }
}

criterion_group! {
    name = baseline;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = deployment_edges, deployment_build_10k, event_queue_churn, channel_churn_dense,
        net_sim_run, net_sim_run_dense, net_sim_run_sparse, net_sim_run_quiescent, figure_quick,
        ideal_sim_run
}
criterion_main!(baseline);
