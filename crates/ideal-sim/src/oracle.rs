//! The dense frame loop, kept as the bitwise oracle of the sparse one in
//! `crate::dissemination`, which floods the grid a batch at a time over
//! 8×8 tiles and visits only the tiles its frontier touches.
//!
//! The dense loop walks edges. Every frame it evaluates every node's
//! sleep coin, through the same `Coins` the flood reads lazily, then
//! resets and scans all `n` nodes, with no listening bitset. It pops
//! immediate forwards from a priority queue in `(time, node)` order, one
//! transmitter at a time, and delivers to each neighbor in turn, so a
//! node takes its copy from the first transmitter to reach it. It keeps
//! each node's awake-until time, so a neighbor of an immediate
//! transmission receives if the update's traffic or its coin kept it
//! awake, and each node's activity span. It decides a receiver's forward
//! through the same `Forwards` the flood reads, at the moment of
//! reception. The flood instead delivers a whole batch per tile from
//! shifted bitboards, asks the coin alone, takes each copy from the
//! lowest-index sender, and bills marginal energy only to a frame's
//! first-level forwarders. After its frames the dense loop bills the
//! listen-only node-frames and the update's duty cycle with the same two
//! Binomial draws the flood makes, which hash no coin.
//!
//! The tests below run both loops on the same inputs, the flood through
//! one reused `Scratch` and reception buffer across consecutive updates
//! (and, in one test, across grids of other tile layouts), and compare
//! every output field by bit pattern. Since every coin and forwarding
//! decision is a pure function of `(update, frame, node)` or `(update,
//! node)`, they pin the flood's order-freedom and laziness: reading fewer
//! coins, in another order, a tile at a time, changes nothing. A
//! statistical test holds the listen-only draw to the coins it replaces.
//! The hashes themselves are pinned by the tests in
//! `crate::dissemination`, and the draws' distribution by the sampler's
//! tests in `pbbf-rand`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pbbf_des::SimRng;
use pbbf_topology::{NodeId, Topology};

use crate::dissemination::{
    billed_awake, listen_only_awake, Coins, Dissemination, DisseminationSetup, Forwards,
};

/// What the dense loop returns: the reception records, the counters, and
/// how many listen-only node-frames slept by their hashed coin.
struct Dense {
    received: Vec<Option<(f64, u32)>>,
    counters: Dissemination,
    listen_only_slept: u64,
}

/// Disseminates one update from `source` with a dense per-frame scan.
fn disseminate_dense(
    topology: &Topology,
    source: NodeId,
    setup: &DisseminationSetup,
    rng: &SimRng,
) -> Dense {
    let n = topology.len();
    let p = setup.params.p();
    let q = setup.params.q();
    let t_active = setup.schedule.t_active();
    let t_frame = setup.schedule.t_frame();
    let t_sleep = setup.schedule.t_sleep();
    let rx_done = t_active + setup.l1 + setup.t_packet;
    let gen_time = 0.5 * t_active;

    let mut received: Vec<Option<(f64, u32)>> = vec![None; n];
    received[source.index()] = Some((0.0, 0));
    let mut pending_normal: Vec<NodeId> = Vec::new();
    let mut imm: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    let mut immediate_tx = 0u64;
    let mut normal_tx = 0u64;
    let mut deferred = 0u64;
    let mut energy = 0.0f64;
    let mut listen_only = 0u64;
    let mut listen_only_slept = 0u64;

    let mut awake_until = vec![0.0f64; n];
    let mut act_start = vec![f64::INFINITY; n];
    let mut act_end = vec![0.0f64; n];
    // Per node this frame: heard an announcement, carried immediate
    // traffic.
    let mut heard = vec![false; n];
    let mut busy = vec![false; n];
    let mut coins = Coins::new(rng, q);
    let mut coin = vec![false; n];
    let forwards = Forwards::new(rng, p);

    let mut frame0_normal: Vec<NodeId> = Vec::new();
    if forwards.immediate(source.index()) {
        imm.push(Reverse((secs_to_ns(t_active + setup.l1), source.0)));
    } else {
        frame0_normal.push(source);
    }

    let ns_frame_limit = secs_to_ns(t_frame - setup.t_packet);
    let mut frame = 0u32;
    loop {
        let frame_start = f64::from(frame) * t_frame;

        for (i, c) in coin.iter_mut().enumerate() {
            *c = coins.awake(frame, i);
        }

        let mut normal_now = std::mem::take(&mut pending_normal);
        if frame == 0 {
            normal_now.append(&mut frame0_normal);
        }
        normal_now.sort_unstable();

        if normal_now.is_empty() && imm.is_empty() {
            break;
        }

        for (i, au) in awake_until.iter_mut().enumerate() {
            *au = if coin[i] { t_frame } else { 0.0 };
            act_start[i] = f64::INFINITY;
            act_end[i] = 0.0;
            heard[i] = false;
            busy[i] = false;
        }
        for &tx in &normal_now {
            for i in std::iter::once(tx.index())
                .chain(topology.neighbors(tx).iter().map(|nb| nb.index()))
            {
                awake_until[i] = awake_until[i].max(rx_done);
                note_activity(&mut act_start, &mut act_end, i, t_active, rx_done);
                heard[i] = true;
            }
        }

        let t_norm_rx = t_active + setup.l1 + setup.t_packet;
        for &tx in &normal_now {
            normal_tx += 1;
            for &nb in topology.neighbors(tx) {
                if received[nb.index()].is_some() {
                    continue;
                }
                let hops = received[tx.index()].expect("transmitter holds packet").1 + 1;
                let latency = frame_start + t_norm_rx - gen_time;
                received[nb.index()] = Some((latency, hops));
                decide_forward(
                    nb,
                    t_norm_rx,
                    setup,
                    &forwards,
                    &mut imm,
                    &mut pending_normal,
                    &mut deferred,
                    ns_frame_limit,
                );
            }
        }

        while let Some(Reverse((t_ns, node_raw))) = imm.pop() {
            let node = NodeId(node_raw);
            let t_tx = ns_to_secs(t_ns);
            let t_rx = t_tx + setup.t_packet;
            immediate_tx += 1;
            awake_until[node.index()] = awake_until[node.index()].max(t_rx);
            note_activity(
                &mut act_start,
                &mut act_end,
                node.index(),
                t_tx - setup.l1,
                t_rx,
            );
            busy[node.index()] = true;
            for &nb in topology.neighbors(node) {
                if awake_until[nb.index()] < t_tx {
                    continue;
                }
                if received[nb.index()].is_some() {
                    continue;
                }
                let hops = received[node.index()].expect("forwarder holds packet").1 + 1;
                let latency = frame_start + t_rx - gen_time;
                received[nb.index()] = Some((latency, hops));
                note_activity(&mut act_start, &mut act_end, nb.index(), t_tx, t_rx);
                busy[nb.index()] = true;
                decide_forward(
                    nb,
                    t_rx,
                    setup,
                    &forwards,
                    &mut imm,
                    &mut pending_normal,
                    &mut deferred,
                    ns_frame_limit,
                );
            }
        }

        let idle = setup.power.idle;
        let sleep = setup.power.sleep;
        for i in 0..n {
            if heard[i] && !busy[i] {
                listen_only += 1;
                listen_only_slept += u64::from(!coin[i]);
            } else if act_end[i] > 0.0 && !coin[i] {
                let duration = (act_end[i] - act_start[i].min(act_end[i])).max(0.0);
                energy += (idle - sleep) * duration;
            }
        }

        frame += 1;
        if frame >= setup.max_frames {
            break;
        }
    }

    let listen_awake = listen_only_awake(rng, q, listen_only);
    energy += (setup.power.idle - setup.power.sleep)
        * (rx_done - t_active)
        * (listen_only - listen_awake) as f64;

    let node_frames = u64::from(setup.billing_frames) * n as u64;
    let awake = billed_awake(rng, q, node_frames);
    let on = setup.power.idle * t_active + setup.power.idle * t_sleep;
    let off = setup.power.idle * t_active + setup.power.sleep * t_sleep;
    energy += on * awake as f64 + off * (node_frames - awake) as f64;

    energy +=
        (setup.power.tx - setup.power.idle) * setup.t_packet * (immediate_tx + normal_tx) as f64;

    Dense {
        received,
        counters: Dissemination {
            immediate_tx,
            normal_tx,
            deferred_immediates: deferred,
            energy_joules: energy,
            frames_used: frame,
            coins_evaluated: coins.evaluated,
            billed_awake: awake,
            listen_only,
            listen_only_awake: listen_awake,
            batches: 0,
            tiles_visited: 0,
        },
        listen_only_slept,
    }
}

#[allow(clippy::too_many_arguments)]
fn decide_forward(
    node: NodeId,
    now: f64,
    setup: &DisseminationSetup,
    forwards: &Forwards,
    imm: &mut BinaryHeap<Reverse<(u64, u32)>>,
    pending_normal: &mut Vec<NodeId>,
    deferred: &mut u64,
    ns_frame_limit: u64,
) {
    if forwards.immediate(node.index()) {
        let t_tx = secs_to_ns(now + setup.l1);
        if t_tx <= ns_frame_limit {
            imm.push(Reverse((t_tx, node.0)));
        } else {
            *deferred += 1;
            pending_normal.push(node);
        }
    } else {
        pending_normal.push(node);
    }
}

fn note_activity(starts: &mut [f64], ends: &mut [f64], i: usize, from: f64, to: f64) {
    if from < starts[i] {
        starts[i] = from;
    }
    if to > ends[i] {
        ends[i] = to;
    }
}

fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

mod tests {
    use super::*;
    use crate::dissemination::{disseminate, Scratch, Tiles};
    use crate::IdealConfig;
    use pbbf_core::{PbbfParams, PowerProfile, SleepSchedule};
    use pbbf_topology::Grid;
    use proptest::prelude::*;

    /// The inputs `IdealSim` runs `cfg` with, billing 10 frames.
    fn setup(cfg: &IdealConfig, params: PbbfParams) -> DisseminationSetup {
        let a = cfg.analysis;
        DisseminationSetup {
            params,
            schedule: a.schedule,
            power: a.power,
            l1: a.l1,
            t_packet: cfg.t_packet,
            billing_frames: 10,
            max_frames: cfg.max_frames_per_update,
        }
    }

    /// The Table-1 inputs `IdealSim` runs with: 10 billing frames
    /// (`1/(λ·T_frame)`).
    fn table1_setup(params: PbbfParams) -> DisseminationSetup {
        let cfg = IdealConfig::table1();
        let a = cfg.analysis;
        assert_eq!((1.0 / (a.lambda * a.schedule.t_frame())).round(), 10.0);
        setup(&cfg, params)
    }

    /// Table 1 with its frame timing drawn within what
    /// `IdealConfig::validate` admits: Table 1's own where `kind` is 0,
    /// else a frame from 1 µs to 10^6 s (just under the longest
    /// admitted) with the active window, `L1` and `t_packet` each up to
    /// a third of it and at least 1 ns. Where `kind` is 1, `L1` is 0 and
    /// `t_packet` the smallest admitted, 1 ns, so chain levels land 1 ns
    /// apart; otherwise `L1` is 0 where `l1_kind` is 0, and `t_packet`
    /// 1 ns where `packet_kind` is 0.
    fn timed((kind, l1_kind, packet_kind): (u8, u8, u8), u: (f64, f64, f64, f64)) -> IdealConfig {
        let mut cfg = IdealConfig::table1();
        if kind == 0 {
            return cfg;
        }
        let (u_frame, u_active, u_l1, u_packet) = u;
        let t_frame = 10f64.powf(12.0 * u_frame - 6.0);
        let third = |u: f64| (t_frame * u / 3.0).max(1e-9);
        cfg.analysis.schedule =
            SleepSchedule::new(third(u_active), t_frame).expect("the window fits the frame");
        let tightest = kind == 1;
        cfg.analysis.l1 = if tightest || l1_kind == 0 {
            0.0
        } else {
            third(u_l1)
        };
        cfg.t_packet = if tightest || packet_kind == 0 {
            1e-9
        } else {
            third(u_packet)
        };
        assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        cfg
    }

    /// What the sparse loop keeps between updates: its working state and
    /// the reception buffer it refills.
    #[derive(Default)]
    struct Reused {
        scratch: Scratch,
        received: Vec<Option<(f64, u32)>>,
    }

    /// A field-by-field comparison by bit pattern: `Err` names the first
    /// field that differs. `coins_evaluated`, `batches` and
    /// `tiles_visited` count work, not output, and are the fields the
    /// loops are meant to disagree on.
    fn same_bits(
        (sparse_rx, sparse): (&[Option<(f64, u32)>], &Dissemination),
        (dense_rx, dense): (&[Option<(f64, u32)>], &Dissemination),
    ) -> Result<(), String> {
        let bits = |received: &[Option<(f64, u32)>]| -> Vec<Option<(u64, u32)>> {
            received
                .iter()
                .map(|r| r.map(|(latency, hops)| (latency.to_bits(), hops)))
                .collect()
        };
        let fields = [
            ("received", bits(sparse_rx) == bits(dense_rx)),
            ("immediate_tx", sparse.immediate_tx == dense.immediate_tx),
            ("normal_tx", sparse.normal_tx == dense.normal_tx),
            (
                "deferred_immediates",
                sparse.deferred_immediates == dense.deferred_immediates,
            ),
            (
                "energy_joules",
                sparse.energy_joules.to_bits() == dense.energy_joules.to_bits(),
            ),
            ("frames_used", sparse.frames_used == dense.frames_used),
            ("billed_awake", sparse.billed_awake == dense.billed_awake),
            ("listen_only", sparse.listen_only == dense.listen_only),
            (
                "listen_only_awake",
                sparse.listen_only_awake == dense.listen_only_awake,
            ),
        ];
        match fields.iter().find(|(_, same)| !same) {
            Some((name, _)) => Err(format!(
                "{name} differs: sparse {sparse:?} vs dense {dense:?}"
            )),
            None => Ok(()),
        }
    }

    /// Runs both loops on `updates` substreams of `seed`, the sparse one
    /// through `reused`; each update must agree bit for bit. Returns the
    /// sparse counters.
    fn compare(
        reused: &mut Reused,
        side: u32,
        setup: &DisseminationSetup,
        seed: u64,
        updates: u64,
    ) -> Result<Vec<Dissemination>, String> {
        let grid = Grid::square(side);
        let tiles = Tiles::new(&grid);
        let root = SimRng::new(seed);
        let mut sparse_counters = Vec::new();
        for u in 0..updates {
            let rng = root.substream(u);
            let sparse = disseminate(
                &tiles,
                grid.center(),
                setup,
                &rng,
                &mut reused.scratch,
                &mut reused.received,
            );
            let dense = disseminate_dense(grid.topology(), grid.center(), setup, &rng);
            same_bits(
                (&reused.received, &sparse),
                (&dense.received, &dense.counters),
            )
            .map_err(|e| format!("update {u}: {e}"))?;
            sparse_counters.push(sparse);
        }
        Ok(sparse_counters)
    }

    /// `0`, `1`, or the uniform value: the two exact endpoints where a
    /// hashed trial evaluates no hash, and the interior where it does.
    fn probability(kind: u8, uniform: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1.0,
            _ => uniform,
        }
    }

    proptest! {
        #[test]
        fn sparse_loop_matches_dense_oracle_bitwise(
            sides in (0u8..8, 1u32..=40, 41u32..=130),
            pq in (0u8..3, 0u8..3, 0.0f64..1.0, 0.0f64..1.0),
            seed in any::<u64>(),
            knobs in (any::<bool>(), 0u32..=16),
            max_frames in 1u32..=24,
            power in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, any::<bool>()),
            timing in (
                (0u8..4, 0u8..3, 0u8..3),
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            ),
        ) {
            // A quarter of the cases on grids past 40 nodes a side, half
            // of those in whole tiles (a multiple of 8 nodes): past 48 a
            // side the tile summary spans more than one word.
            let side = match sides {
                (0, _, large) => large,
                (1, _, large) => large / 8 * 8,
                (_, small, _) => small,
            };
            let (p_kind, q_kind, p_uniform, q_uniform) = pq;
            let (capped, billing_frames) = knobs;
            let params = PbbfParams::new(
                probability(p_kind, p_uniform),
                probability(q_kind, q_uniform),
            )
            .expect("p and q lie in [0, 1]");
            // Power draws off Table 1's round numbers, half of them with
            // sleep outdrawing idle listening: the loops must agree on any
            // profile. A baseline computed another way, such as
            // `node_frames·off + awake·(on − off)`, rounds differently for
            // some profiles, most often when `off` dwarfs `on`.
            let (idle_u, tx_u, sleep_u, sleep_outdraws_idle) = power;
            let idle = 1e-3 + 0.1 * idle_u;
            let power = PowerProfile {
                tx: idle * (1.0 + tx_u),
                idle,
                sleep: idle * sleep_u * if sleep_outdraws_idle { 50.0 } else { 1.0 },
            };
            let mut setup = DisseminationSetup {
                power,
                billing_frames,
                ..setup(&timed(timing.0, timing.1), params)
            };
            if capped {
                // Low enough that the cap ends some floods, before or
                // after the billing window.
                setup.max_frames = max_frames;
            }
            compare(&mut Reused::default(), side, &setup, seed, 2)?;
        }
    }

    /// One- and two-node-wide grids, where a flood ends in its first
    /// frames, at every p and q endpoint and an interior value.
    #[test]
    fn sparse_loop_matches_dense_oracle_on_tiny_grids() {
        let mut reused = Reused::default();
        for side in [1, 2] {
            for p in [0.0, 0.5, 1.0] {
                for q in [0.0, 0.5, 1.0] {
                    let setup = table1_setup(PbbfParams::new(p, q).expect("valid"));
                    for seed in 0..8 {
                        if let Err(e) = compare(&mut reused, side, &setup, seed, 2) {
                            panic!("side {side}, p = {p}, q = {q}, seed {seed}: {e}");
                        }
                    }
                }
            }
        }
    }

    /// One scratch and one reception buffer carried across floods of
    /// other grid sizes, the first of them cut by `max_frames` with
    /// normal broadcasts still queued: what a flood leaves behind never
    /// reaches the next. The sides cross tile layouts: whole tiles (64,
    /// 128) and ragged ones, tile summaries of one word (up to 48 a side)
    /// and of several (65 and 129 a side store 121 and 361 tiles).
    #[test]
    fn reused_buffers_match_dense_oracle_after_a_capped_flood() {
        let mut reused = Reused::default();
        let psm = table1_setup(PbbfParams::PSM);
        let capped = DisseminationSetup {
            max_frames: 3,
            ..psm
        };
        // PSM moves one hop a frame and queues every receiver for the
        // next, so after 3 frames the distance-3 ring is still pending.
        let cut = compare(&mut reused, 21, &capped, 41, 1).expect("capped PSM flood");
        assert_eq!(cut[0].frames_used, 3);
        let reached = reused.received.iter().flatten().count();
        assert!(
            reached < 21 * 21,
            "the cap stopped the flood at {reached} nodes"
        );
        let pbbf = |p, q| table1_setup(PbbfParams::new(p, q).expect("valid"));
        for (side, setup, seed, updates) in [
            (21, psm, 42, 1),
            (9, pbbf(0.5, 0.5), 43, 2),
            (
                30,
                DisseminationSetup {
                    max_frames: 5,
                    ..pbbf(0.75, 0.3)
                },
                44,
                2,
            ),
            (30, pbbf(0.25, 0.9), 45, 2),
            (21, capped, 46, 2),
            (3, pbbf(1.0, 0.1), 47, 3),
            (129, pbbf(0.5, 0.5), 48, 1),
            (64, pbbf(0.05, 0.3), 49, 2),
            (65, pbbf(0.75, 0.9), 50, 1),
            (128, psm, 51, 1),
            (8, pbbf(0.375, 0.6), 52, 2),
        ] {
            if let Err(e) = compare(&mut reused, side, &setup, seed, updates) {
                panic!("side {side}, seed {seed}: {e}");
            }
        }
    }

    /// Forwards whose transmission ends exactly when the frame does: in a
    /// 5 s frame with a 1 s active window, `L1` = 1.5 s and 0.5 s packets,
    /// a normal receiver (at 3 s) and the source's receivers (at 3 s)
    /// forward at 4.5 s, the last start that fits, and their receivers'
    /// forwards are deferred to the next frame.
    #[test]
    fn forwards_that_end_with_the_frame_fit_and_later_ones_defer() {
        let mut reused = Reused::default();
        let mut chained = (0, 0);
        for (p, q) in [(0.5, 0.5), (1.0, 1.0), (0.75, 0.25)] {
            let setup = DisseminationSetup {
                schedule: SleepSchedule::new(1.0, 5.0).expect("valid schedule"),
                l1: 1.5,
                t_packet: 0.5,
                ..table1_setup(PbbfParams::new(p, q).expect("valid"))
            };
            for seed in 0..4 {
                match compare(&mut reused, 15, &setup, seed, 2) {
                    Ok(runs) => {
                        for d in runs {
                            chained.0 += d.immediate_tx;
                            chained.1 += d.deferred_immediates;
                        }
                    }
                    Err(e) => panic!("p = {p}, q = {q}, seed {seed}: {e}"),
                }
            }
        }
        assert!(chained.0 > 0 && chained.1 > 0, "{chained:?}");
    }

    /// The paper's sweep at Table-1 scale: every sleep-scheduled point of
    /// figs 4, 5 and 8–11 (five PBBF lines × eleven q values, plus PSM;
    /// NO PSM never enters the frame loop), two seeds each, through one
    /// reused scratch and reception buffer.
    #[test]
    fn sparse_loop_matches_dense_oracle_on_the_paper_sweep() {
        let cfg = IdealConfig::table1();
        let mut points: Vec<PbbfParams> = Vec::new();
        for p in [0.05, 0.25, 0.375, 0.5, 0.75] {
            for qi in 0..=10 {
                points.push(PbbfParams::new(p, f64::from(qi) / 10.0).expect("valid"));
            }
        }
        points.push(PbbfParams::PSM);
        let mut reused = Reused::default();
        for (i, &params) in points.iter().enumerate() {
            let setup = table1_setup(params);
            for seed in [2005, 0x5EED_0000 + i as u64] {
                if let Err(e) = compare(&mut reused, cfg.grid_side, &setup, seed, 1) {
                    panic!("p = {}, q = {}, seed {seed}: {e}", params.p(), params.q());
                }
            }
        }
    }

    /// The listen-only draw against the coins it replaces. The dense
    /// loop still hashes every coin, so it counts the listen-only
    /// node-frames whose coin slept; the draw's asleep count is
    /// `listen_only − listen_only_awake`. Both are Binomial(L, 1 − q)
    /// counts of the same node-frames, independent of each other, so over
    /// at least 10^5 node-frames per q they differ by under 4σ,
    /// σ² = 2·L·q(1 − q).
    #[test]
    fn listen_only_draw_matches_the_coins_it_replaces() {
        let cfg = IdealConfig::table1();
        let grid = Grid::square(cfg.grid_side);
        for (i, q) in [0.1, 0.5, 0.9].into_iter().enumerate() {
            let setup = table1_setup(PbbfParams::new(0.25, q).expect("valid"));
            let root = SimRng::new(0x115_7E40 + i as u64);
            let (mut listen_only, mut slept, mut drawn_asleep) = (0u64, 0u64, 0u64);
            let mut update = 0;
            while listen_only < 100_000 {
                let rng = root.substream(update);
                let dense = disseminate_dense(grid.topology(), grid.center(), &setup, &rng);
                let c = &dense.counters;
                listen_only += c.listen_only;
                slept += dense.listen_only_slept;
                drawn_asleep += c.listen_only - c.listen_only_awake;
                update += 1;
            }
            let sigma = (2.0 * listen_only as f64 * q * (1.0 - q)).sqrt();
            let z = (slept as f64 - drawn_asleep as f64) / sigma;
            assert!(
                z.abs() < 4.0,
                "q = {q}: {slept} slept by coin, {drawn_asleep} by the draw, of \
                 {listen_only} over {update} updates; z = {z:.2}"
            );
        }
    }
}
