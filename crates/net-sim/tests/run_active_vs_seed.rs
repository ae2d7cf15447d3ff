//! Pins both ways the event loop steps beacon boundaries.
//!
//! * The walk ([`NetSim::run_on_walked`]) steps every node at every
//!   boundary and must stay **bit-identical to the original
//!   per-node-walk loop**: `EXPECTED_DENSE` was captured from that loop
//!   (commit 630516c) and has never been regenerated since. The
//!   quiescent rows were added later and live in
//!   `EXPECTED_DENSE_QUIESCENT`, so the original table keeps its
//!   provenance; they were captured through an exact per-boundary replay
//!   engine since deleted, which the walk reproduces bit for bit.
//! * The lazy engine ([`NetSim::run`], [`NetSim::run_on`]) settles
//!   idle-node boundary runs in closed form — a relaxed RNG-stream-layout
//!   contract under which every value for a fixed seed moved **once**, at
//!   the change that introduced geometric skip. `EXPECTED_LAZY` pins that
//!   layout; the statistical-equivalence suite
//!   (`tests/boundary_equivalence.rs` at the workspace root) pins it to
//!   the walk in distribution. Modes whose sleep coin is deterministic
//!   (NO PSM, PSM, `q = 1`, adaptive) consume no sleep randomness either
//!   way, so their rows agree across both tables up to the association
//!   order of the batched energy additions (almost all are bitwise
//!   equal).
//! * The `quiescent/*` rows — one flood, then ~700 idle beacon intervals —
//!   are where the lazy engine's quiescent-frame jump covers almost the
//!   whole horizon in one step. Their `EXPECTED_LAZY` values were captured
//!   from a lazy loop that walked every frame, so they pin "the jump is a
//!   no-op" without comparing two engines.
//!
//! Every `(seed, mode)` cell hashes the [`NetRunStats`] of one run —
//! reception times, energy joules bit-for-bit, transmission and
//! collision counters, adaptive traces (everything the original loop
//! produced; see [`fingerprint`] for the one later-added exclusion).
//! Every cell is additionally executed on a registry-cached,
//! `Arc`-shared scenario and must hash identically to its run on a
//! fresh draw.
//!
//! Regenerate (only when an *intentional* behavior change is made) with:
//!
//! ```text
//! PBBF_PRINT_FINGERPRINTS=1 cargo test -p pbbf-net-sim --test run_active_vs_seed -- --nocapture
//! ```

use pbbf_core::adaptive::AdaptiveConfig;
use pbbf_core::PbbfParams;
use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim};

/// FNV-1a over the stats, f64s by bit pattern.
///
/// Hashes every field the original per-node-walk loop produced.
/// `state_secs` (added with geometric skip) is deliberately *not*
/// hashed: including it would force regenerating `EXPECTED_DENSE` and
/// sever its provenance to the deleted loop. It is pinned indirectly —
/// `energy_joules`, hashed bit-for-bit, is the power-weighted dot
/// product of the same `StateClock` accumulators (the three weights
/// differ by orders of magnitude, so any misattributed residency moves
/// the joules) — and distributionally by `tests/boundary_equivalence.rs`.
fn fingerprint(s: &NetRunStats) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(u64::from(s.source.0));
    for d in &s.hop_distance {
        eat(u64::from(d.map_or(u32::MAX, |x| x)));
    }
    for t in &s.gen_times {
        eat(t.as_nanos());
    }
    for row in &s.receptions {
        for t in row {
            eat(t.map_or(u64::MAX, |x| x.as_nanos()));
        }
    }
    for e in &s.energy_joules {
        eat(e.to_bits());
    }
    eat(s.data_tx);
    eat(s.atim_tx);
    eat(s.immediate_tx);
    eat(s.collisions);
    eat(s.mean_degree.to_bits());
    for &(p, q) in &s.adaptive_trace {
        eat(p.to_bits());
        eat(q.to_bits());
    }
    h
}

fn modes() -> Vec<(&'static str, NetMode)> {
    vec![
        ("no-psm", NetMode::AlwaysOn),
        ("psm", NetMode::SleepScheduled(PbbfParams::PSM)),
        (
            "pbbf-lo",
            NetMode::SleepScheduled(PbbfParams::new(0.25, 0.05).unwrap()),
        ),
        (
            "pbbf-mid",
            NetMode::SleepScheduled(PbbfParams::new(0.5, 0.5).unwrap()),
        ),
        (
            "pbbf-hi-q",
            NetMode::SleepScheduled(PbbfParams::new(0.1, 1.0).unwrap()),
        ),
        (
            "adaptive",
            NetMode::Adaptive(AdaptiveConfig::default_for(
                PbbfParams::new(0.1, 0.3).unwrap(),
            )),
        ),
    ]
}

/// One grid cell: the fingerprint of a run on a fresh draw (`run`, or
/// `run_on_walked` of [`NetSim::draw_deployment`] with `walk`), asserted
/// identical to the same run executed on a registry-cached `Arc`-shared
/// scenario (the shared-topology path must be indistinguishable from the
/// fresh-draw, per-run-clone path it replaced).
fn cell(cfg: NetConfig, mode: NetMode, seed: u64, label: &str, walk: bool) -> (String, u64) {
    let sim = NetSim::new(cfg, mode);
    let shared = DeploymentCache::global().get_or_draw(&cfg, seed);
    let (fp, fp_shared) = if walk {
        let fresh = NetSim::draw_deployment(&cfg, seed);
        (
            fingerprint(&sim.run_on_walked(seed, &fresh)),
            fingerprint(&sim.run_on_walked(seed, &shared)),
        )
    } else {
        (
            fingerprint(&sim.run(seed)),
            fingerprint(&sim.run_on(seed, &shared)),
        )
    };
    assert_eq!(
        fp, fp_shared,
        "{label}: the Arc-shared run diverged from the fresh draw's for seed {seed}"
    );
    (label.to_string(), fp)
}

/// The golden grid, every cell on the walk or on the lazy engine.
fn grid(walk: bool) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut cfg = NetConfig::table2();
    cfg.duration_secs = 300.0;
    for (label, mode) in modes() {
        for seed in [1u64, 7, 42] {
            out.push(cell(cfg, mode, seed, &format!("{label}/{seed}"), walk));
        }
    }
    // A denser, busier scenario so contention paths are pinned too.
    let mut dense = NetConfig::table2();
    dense.duration_secs = 200.0;
    dense.delta = 16.0;
    dense.lambda = 0.1;
    for (label, mode) in modes() {
        out.push(cell(dense, mode, 9, &format!("dense/{label}/9"), walk));
    }
    // A larger sparse low-duty-cycle scenario (the lazy-settling fast
    // path's home turf: most nodes sleep most beacons).
    let mut sparse = NetConfig::table2();
    sparse.nodes = 300;
    sparse.duration_secs = 400.0;
    for seed in [3u64, 11] {
        let mode = NetMode::SleepScheduled(PbbfParams::new(0.25, 0.05).unwrap());
        out.push(cell(sparse, mode, seed, &format!("sparse/{seed}"), walk));
    }
    // The Table-2 network with a single update over two hours: one
    // flood, then a quiescent stretch the lazy engine jumps in one go.
    let mut quiescent = NetConfig::table2();
    quiescent.lambda = 0.000125;
    quiescent.duration_secs = 7200.0;
    for seed in [1u64, 7] {
        let mode = NetMode::SleepScheduled(PbbfParams::new(0.25, 0.5).unwrap());
        out.push(cell(
            quiescent,
            mode,
            seed,
            &format!("quiescent/{seed}"),
            walk,
        ));
    }
    out
}

/// Captured from the pre-active-set per-node-walk loop (commit 630516c).
/// The walk must reproduce these forever.
const EXPECTED_DENSE: &[(&str, u64)] = &[
    ("no-psm/1", 0x115127465b0942e2),
    ("no-psm/7", 0xab39b06c009eeb55),
    ("no-psm/42", 0x6e905325f5634876),
    ("psm/1", 0xf8df0767c80edf19),
    ("psm/7", 0x27baf7244f97c2cb),
    ("psm/42", 0xfdab74a2db8f7400),
    ("pbbf-lo/1", 0x41ad998a03fa07c0),
    ("pbbf-lo/7", 0x226c041fd8b20f6f),
    ("pbbf-lo/42", 0xd876fba83074acea),
    ("pbbf-mid/1", 0x30e4e17b9509e953),
    ("pbbf-mid/7", 0x076ff0df4c72fd90),
    ("pbbf-mid/42", 0x307f7373de5fc5c9),
    ("pbbf-hi-q/1", 0xe17967e18a929dc7),
    ("pbbf-hi-q/7", 0x22a9dc987c1db31a),
    ("pbbf-hi-q/42", 0x7d766ed3d2a23f16),
    ("adaptive/1", 0x4a63f95a6872e059),
    ("adaptive/7", 0x0e037063ce0d512a),
    ("adaptive/42", 0x4ec1a6acccd6d6ab),
    ("dense/no-psm/9", 0x2970b74c581f139d),
    ("dense/psm/9", 0x4d564f4f2db423cd),
    ("dense/pbbf-lo/9", 0x87e3567ba7a66295),
    ("dense/pbbf-mid/9", 0xec69b834468d3a3f),
    ("dense/pbbf-hi-q/9", 0x8de0e23589e39ef1),
    ("dense/adaptive/9", 0x17dadff62a850f65),
    ("sparse/3", 0x05f2d30d5caf2a27),
    ("sparse/11", 0x6c15ac46ddfaefdc),
];

/// The walk's quiescent rows, captured when they were added to the grid
/// (by then the exact replay was long pinned to `EXPECTED_DENSE`).
const EXPECTED_DENSE_QUIESCENT: &[(&str, u64)] = &[
    ("quiescent/1", 0x600c071e23c52422),
    ("quiescent/7", 0xa7207060a964dc82),
];

/// Captured at the change that introduced geometric skip — the one-time
/// stream-layout move — from a loop that walked every beacon frame.
/// Deterministic-coin rows (no-psm, psm, hi-q, adaptive) match
/// `EXPECTED_DENSE` except where noted. The quiescent rows came later,
/// still from the frame-by-frame loop.
const EXPECTED_LAZY: &[(&str, u64)] = &[
    ("no-psm/1", 0x115127465b0942e2),
    ("no-psm/7", 0xab39b06c009eeb55),
    ("no-psm/42", 0x6e905325f5634876),
    ("psm/1", 0xf8df0767c80edf19),
    ("psm/7", 0x27baf7244f97c2cb),
    ("psm/42", 0xfdab74a2db8f7400),
    ("pbbf-lo/1", 0x6c6099fbda554c26),
    ("pbbf-lo/7", 0xa78886d487b8e384),
    ("pbbf-lo/42", 0x0ba90dda68562203),
    ("pbbf-mid/1", 0xcc9853a8226bce95),
    ("pbbf-mid/7", 0xea59e247f206c94c),
    ("pbbf-mid/42", 0x0ce0a20fb3cc01cf),
    ("pbbf-hi-q/1", 0xe17967e18a929dc7),
    // q = 1 consumes no sleep randomness, but this cell's batched energy
    // credit associates float additions differently around a transmit
    // instant — a last-bit move, part of the relaxed contract.
    ("pbbf-hi-q/7", 0xd14279909a98a8d1),
    ("pbbf-hi-q/42", 0x7d766ed3d2a23f16),
    ("adaptive/1", 0x4a63f95a6872e059),
    ("adaptive/7", 0x0e037063ce0d512a),
    ("adaptive/42", 0x4ec1a6acccd6d6ab),
    ("dense/no-psm/9", 0x2970b74c581f139d),
    ("dense/psm/9", 0x4d564f4f2db423cd),
    ("dense/pbbf-lo/9", 0x635a7f0d9a5f1f89),
    ("dense/pbbf-mid/9", 0xec69b834468d3a3f),
    ("dense/pbbf-hi-q/9", 0x8de0e23589e39ef1),
    ("dense/adaptive/9", 0x17dadff62a850f65),
    ("sparse/3", 0xaa2a0fcf461e6947),
    ("sparse/11", 0x2f4d5ba8890caff2),
    ("quiescent/1", 0x9b54753274a476f0),
    ("quiescent/7", 0xe71f347331ff418c),
];

fn check(walk: bool, expected: &[(&str, u64)], what: &str) {
    let got = grid(walk);
    if std::env::var("PBBF_PRINT_FINGERPRINTS").is_ok() {
        println!("const {what}: &[(&str, u64)] = &[");
        for (label, fp) in &got {
            println!("    (\"{label}\", 0x{fp:016x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(got.len(), expected.len(), "grid shape changed");
    for ((label, fp), (elabel, efp)) in got.iter().zip(expected) {
        assert_eq!(label, elabel, "grid order changed");
        assert_eq!(
            *fp, *efp,
            "{label}: {what} stats diverged from the committed golden"
        );
    }
}

#[test]
fn walk_matches_seed_goldens() {
    let expected = [EXPECTED_DENSE, EXPECTED_DENSE_QUIESCENT].concat();
    check(true, &expected, "EXPECTED_DENSE + EXPECTED_DENSE_QUIESCENT");
}

#[test]
fn lazy_engine_matches_committed_goldens() {
    check(false, EXPECTED_LAZY, "EXPECTED_LAZY");
}
