//! The per-update frame loop: disseminating one broadcast over the grid.
//!
//! # What a frame costs
//!
//! A flood touches only its frontier: the transmitters of the frame,
//! their neighbors, and the nodes that receive. The loop keeps per-node
//! activity only for the nodes immediate traffic touched, marks them in
//! bitsets of `n/64` words, and walks and resets just the marked entries
//! at the end of the frame. A normal broadcast marks its transmitter and
//! each neighbor in one pass over the neighbor list: they all heard its
//! announcement and listen through the same window, so a `listening` bit
//! stands for that window. Normal transmitters queue in a further bitset
//! and drain in index order, so no frame sorts.
//!
//! Immediate forwards chain in *levels*: the forwards that transmit at one
//! time. Every normal receiver of a frame forwards at `rx_done + L1`, and
//! every receiver of one level forwards `t_packet + L1` after that level
//! transmits, which [`crate::IdealConfig::validate`] keeps at least 1 ns
//! later. So a level is one bitset drained in index order, and draining
//! level after level is the `(time, node)` order a priority queue would
//! pop. A node that has not received has carried no traffic, so only its
//! sleep coin can keep it awake for an immediate transmission.
//!
//! The end of a frame asks whether each node the update kept busy had
//! slept by its coin, which makes its activity marginal. A *listen-only*
//! node (in `listening` but not touched by immediate traffic) received
//! before any immediate forward read a coin, so its coin is read nowhere
//! else, and its activity is the announced window `[T_active, rx_done]`.
//! The frame counts these nodes by popcount and walks only the touched
//! ones. So a frame costs O(touched + levels·n/64).
//!
//! The sleep coin of node `i` in frame `f` is a pure hash of
//! `(update key, f, i)` ([`Coins`]), so it costs nothing until the
//! flood reads it, and reads in any order see the same coins. The flood
//! reads a coin in two places: an immediate transmission asks whether a
//! neighbor that has not received yet slept, and the end of a frame asks
//! about each node immediate traffic touched. The update's generator
//! only draws the `chance(p)` forwarding decisions.
//!
//! # What an update costs
//!
//! An update bills `billing_frames` frames of every node's baseline duty
//! cycle: `on` for a node-frame its coin kept awake, `off` for one it
//! slept. The awake count of those `B·n` node-frames is one
//! Binomial(`B·n`, `q`) draw ([`billed_awake`]), the distribution of the
//! sum of `B` frames' independent counts, so billing hashes no coin and
//! costs O(√(B·n·q(1 − q))) however large the grid. The `L` listen-only
//! node-frames of the flood are billed the same way: one Binomial(`L`,
//! `q`) draw ([`listen_only_awake`]) says how many the coin kept awake,
//! and each of the rest costs `(P_I − P_S)·(rx_done − T_active)`. Each
//! count is drawn from its own substream of the update's generator, not
//! counted from the coins the flood reads. An update thus costs its
//! frames plus resetting its `n` reception records, and the working state
//! ([`Scratch`]) is allocated once per run, not per update.
//!
//! The dense loop, which evaluates every coin, resets and scans all `n`
//! nodes every frame and pops immediate forwards from a priority queue,
//! is kept as the test oracle in `crate::oracle`; the tests there compare
//! every output field bit for bit.

use pbbf_core::{PbbfParams, PowerProfile, SleepSchedule};
use pbbf_des::{mix64, SimRng, GOLDEN_GAMMA};
use pbbf_topology::{NodeId, Topology};

/// The inputs of one dissemination, resolved from [`crate::IdealConfig`]
/// and the protocol parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DisseminationSetup {
    pub params: PbbfParams,
    pub schedule: SleepSchedule,
    pub power: PowerProfile,
    /// Channel-access time `L1` (s).
    pub l1: f64,
    /// Packet airtime (s).
    pub t_packet: f64,
    /// Frames of baseline duty-cycle energy billed to this update
    /// (`1/(λ·T_frame)` for the steady-state share).
    pub billing_frames: u32,
    pub max_frames: u32,
}

/// The counters of one update's dissemination; its receptions go to the
/// caller's buffer.
#[derive(Debug, Clone)]
pub(crate) struct Dissemination {
    pub immediate_tx: u64,
    pub normal_tx: u64,
    /// Immediate forwards that would have overrun the frame and were
    /// demoted to normal broadcasts.
    pub deferred_immediates: u64,
    /// Total energy billed to this update, all nodes (J).
    pub energy_joules: f64,
    pub frames_used: u32,
    /// Sleep-coin hashes evaluated: the work [`Coins`] did, not an
    /// output of the flood.
    pub coins_evaluated: u64,
    /// Billed node-frames awake by the Sleep-Decision-Handler: the
    /// update's [`billed_awake`] draw.
    pub billed_awake: u64,
    /// Listen-only node-frames: a node that announced or heard a normal
    /// broadcast in a frame and carried no immediate traffic in it.
    pub listen_only: u64,
    /// Listen-only node-frames awake by the Sleep-Decision-Handler: the
    /// update's [`listen_only_awake`] draw.
    pub listen_only_awake: u64,
}

/// The frame loop's working state. Every flood leaves it sized for its
/// grid and empty but for normal broadcasts still pending when a flood
/// stops at `max_frames`, which the next flood clears. So one `Scratch`
/// serves every update of a run, and its buffers are allocated and paged
/// in once.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Nodes queued to announce and transmit a normal broadcast next
    /// frame.
    pending_normal: NodeSet,
    /// This frame's normal transmitters, in index order.
    normal_now: Vec<NodeId>,
    /// The immediate forwards that transmit next.
    level: Level,
    /// The immediate forwards `level` queues.
    next_level: Level,
    activity: Activity,
}

impl Scratch {
    /// Sizes the state for nodes `0..n` and drops the normal broadcasts
    /// a flood stopped at `max_frames` left pending.
    fn reset(&mut self, n: usize) {
        self.pending_normal.reset(n);
        self.level.reset(n);
        self.next_level.reset(n);
        self.activity.reset(n);
    }
}

/// Disseminates one update from `source`, drawing its forwarding
/// decisions from `rng` and keying its sleep coins and billing draws on
/// `rng`'s seed. Refills `received` with one record per node: latency
/// from generation to first reception (s) and the number of links the
/// delivered copy traversed, `Some((0.0, 0))` at the source.
pub(crate) fn disseminate(
    topology: &Topology,
    source: NodeId,
    setup: &DisseminationSetup,
    rng: &mut SimRng,
    scratch: &mut Scratch,
    received: &mut Vec<Option<(f64, u32)>>,
) -> Dissemination {
    let n = topology.len();
    let p = setup.params.p();
    let q = setup.params.q();
    let t_active = setup.schedule.t_active();
    let t_frame = setup.schedule.t_frame();
    let t_sleep = setup.schedule.t_sleep();
    let rx_done = t_active + setup.l1 + setup.t_packet;
    let idle = setup.power.idle;
    let sleep = setup.power.sleep;
    // Generation happens mid-ATIM-window of frame 0 (Section 5.1: "new
    // packets always arrive at the source during the ATIM window").
    let gen_time = 0.5 * t_active;

    received.clear();
    received.resize(n, None);
    received[source.index()] = Some((0.0, 0));

    scratch.reset(n);
    let Scratch {
        pending_normal,
        normal_now,
        level,
        next_level,
        activity,
    } = scratch;

    let mut immediate_tx = 0u64;
    let mut normal_tx = 0u64;
    let mut deferred = 0u64;
    let mut energy = 0.0f64;
    let mut listen_only = 0u64;

    let mut coins = Coins::new(rng, q);

    // The source's own forwarding decision. An immediate source
    // transmission still happens after the ATIM window (data may not be
    // sent during the window) but is *unannounced*: only awake neighbors
    // receive it.
    let source_immediate = rng.chance(p);
    if source_immediate {
        level.push(secs_to_ns(t_active + setup.l1), source.index());
    } else {
        pending_normal.insert(source.index());
    }

    let ns_frame_limit = secs_to_ns(t_frame - setup.t_packet);
    let mut frame = 0u32;
    loop {
        let frame_start = f64::from(frame) * t_frame;

        // ---- Who transmits a normal (announced) broadcast this frame.
        normal_now.clear();
        pending_normal.drain(|i| normal_now.push(NodeId(i as u32)));

        if normal_now.is_empty() && level.is_empty() {
            break;
        }

        // ---- Normal data transmissions (all at T_active + L1; ideal
        // channel, no collisions). The transmitter and every neighbor
        // heard the ATIM and listen through `rx_done`; every neighbor
        // receives.
        let latency = frame_start + rx_done - gen_time;
        for &tx in normal_now.iter() {
            normal_tx += 1;
            activity.listen(tx.index());
            let hops = received[tx.index()].expect("transmitter holds packet").1 + 1;
            for &nb in topology.neighbors(tx) {
                activity.listen(nb.index());
                if received[nb.index()].is_some() {
                    continue; // duplicate: dropped
                }
                received[nb.index()] = Some((latency, hops));
                decide_forward(
                    nb,
                    rx_done,
                    setup,
                    p,
                    rng,
                    level,
                    pending_normal,
                    &mut deferred,
                    ns_frame_limit,
                );
            }
        }

        // ---- Immediate forwards, chaining within the frame one level
        // at a time.
        while !level.is_empty() {
            let t_tx = ns_to_secs(level.t_ns);
            let t_rx = t_tx + setup.t_packet;
            let latency = frame_start + t_rx - gen_time;
            level.drain(|forwarder| {
                immediate_tx += 1;
                // The forwarder is awake from its reception through its
                // transmission.
                activity.note(forwarder, t_tx - setup.l1, t_rx);
                let hops = received[forwarder].expect("forwarder holds packet").1 + 1;
                for &nb in topology.neighbors(NodeId(forwarder as u32)) {
                    let i = nb.index();
                    if received[i].is_some() {
                        continue;
                    }
                    // No traffic has woken a node that has not received,
                    // so only the Sleep-Decision-Handler coin can keep it
                    // on.
                    if !coins.awake(frame, i) {
                        continue; // asleep: the bond is closed for this copy
                    }
                    received[i] = Some((latency, hops));
                    activity.note(i, t_tx, t_rx);
                    decide_forward(
                        nb,
                        t_rx,
                        setup,
                        p,
                        rng,
                        next_level,
                        pending_normal,
                        &mut deferred,
                        ns_frame_limit,
                    );
                }
            });
            std::mem::swap(level, next_level);
        }

        // ---- Marginal activity: awake time the update caused beyond
        // what the coin (billed below, possibly to another update's
        // window) covers.
        listen_only += activity.drain_marginal(
            &mut energy,
            &mut coins,
            frame,
            idle - sleep,
            (t_active, rx_done),
        );

        frame += 1;
        if frame >= setup.max_frames {
            break;
        }
    }

    // The listen-only node-frames the coin slept through: each was awake
    // only for the announced window.
    let listen_awake = listen_only_awake(rng, q, listen_only);
    energy += (idle - sleep) * (rx_done - t_active) * (listen_only - listen_awake) as f64;

    // Baseline duty-cycle energy: the update's steady-state share covers
    // the full inter-update interval, even if the broadcast died early.
    let node_frames = u64::from(setup.billing_frames) * n as u64;
    let awake = billed_awake(rng, q, node_frames);
    let on = idle * t_active + idle * t_sleep;
    let off = idle * t_active + sleep * t_sleep;
    energy += on * awake as f64 + off * (node_frames - awake) as f64;

    // Transmission surcharge over idle listening.
    energy +=
        (setup.power.tx - setup.power.idle) * setup.t_packet * (immediate_tx + normal_tx) as f64;

    Dissemination {
        immediate_tx,
        normal_tx,
        deferred_immediates: deferred,
        energy_joules: energy,
        frames_used: frame,
        coins_evaluated: coins.evaluated,
        billed_awake: awake,
        listen_only,
        listen_only_awake: listen_awake,
    }
}

/// The stream id, under an update's generator, of the substream its coin
/// key is drawn from ("coin" in ASCII). The update's own draws stay
/// where they are.
const COIN_STREAM: u64 = 0x636F_696E;

/// The stream id, under an update's generator, of the substream its
/// billing draw comes from ("bill" in ASCII).
const BILL_STREAM: u64 = 0x6269_6C6C;

/// The stream id, under an update's generator, of the substream its
/// listen-only draw comes from ("lstn" in ASCII).
const LISTEN_STREAM: u64 = 0x6C73_746E;

/// How many of the `node_frames` node-frames billed to the update whose
/// generator is `rng` the Sleep-Decision-Handler kept awake: one
/// Binomial(`node_frames`, `q`) draw from the [`BILL_STREAM`] substream.
/// `rng` is not drawn from. `q ≤ 0` and `q ≥ 1` fix the count without a
/// draw, as [`Coins`] fix every coin there.
pub(crate) fn billed_awake(rng: &SimRng, q: f64, node_frames: u64) -> u64 {
    rng.substream(BILL_STREAM).binomial(node_frames, q)
}

/// How many of the `listen_only` listen-only node-frames of the update
/// whose generator is `rng` the Sleep-Decision-Handler kept awake: one
/// Binomial(`listen_only`, `q`) draw from the [`LISTEN_STREAM`]
/// substream, fixed without a draw at `q ≤ 0` and `q ≥ 1`. `rng` is not
/// drawn from.
pub(crate) fn listen_only_awake(rng: &SimRng, q: f64, listen_only: u64) -> u64 {
    rng.substream(LISTEN_STREAM).binomial(listen_only, q)
}

/// [`Coins::threshold`] when `q ≤ 0`: no 53-bit value lies below it.
const ASLEEP: u64 = 0;

/// [`Coins::threshold`] when `q ≥ 1`: every 53-bit value lies below it.
const AWAKE: u64 = 1 << 53;

/// The sleep coins of one update: whether the Sleep-Decision-Handler
/// kept node `i` awake through frame `f`'s data phase.
///
/// A coin is a pure function of `(key, f, i)`, evaluated where it is
/// read, in the counter-based style of Salmon et al. ("Parallel random
/// numbers: as easy as 1, 2, 3", SC 2011). The hash is SplitMix64's
/// output at counter position `f·2^32 + i` from state `key` (Steele, Lea
/// and Flood, "Fast splittable pseudorandom number generators",
/// OOPSLA 2014). [`crate::IdealConfig::MAX_NODES`] keeps `i < 2^32`, so
/// no two coins of an update share a position. The coin is awake when
/// the hash's top 53 bits lie below `ceil(q·2^53)`, the comparison
/// `uniform01() < q` makes on the same bits. When `q ≤ 0` or `q ≥ 1`
/// every coin is fixed and no hash is evaluated, as `chance` draws
/// nothing there.
pub(crate) struct Coins {
    key: u64,
    /// The number of 53-bit values below which a coin is awake.
    threshold: u64,
    /// Hashes evaluated so far.
    pub evaluated: u64,
}

impl Coins {
    /// The coins of the update whose generator is `rng`, keyed by the
    /// [`COIN_STREAM`] substream of its seed. `rng` is not drawn from.
    pub(crate) fn new(rng: &SimRng, q: f64) -> Self {
        let mut stream = rng.substream(COIN_STREAM);
        // `below` a power of two keeps the low bits of one draw, so two
        // 32-bit halves make the 64-bit key.
        Self {
            key: (stream.below(1 << 32) << 32) | stream.below(1 << 32),
            threshold: threshold(q),
            evaluated: 0,
        }
    }

    /// The top 53 bits of coin `(frame, i)`'s hash.
    fn bits(&self, frame: u32, i: usize) -> u64 {
        let counter = (u64::from(frame) << 32) | i as u64;
        mix64(
            self.key
                .wrapping_add(counter.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        ) >> 11
    }

    /// Whether node `i`'s coin kept it awake through frame `frame`.
    pub(crate) fn awake(&mut self, frame: u32, i: usize) -> bool {
        match self.threshold {
            ASLEEP => false,
            AWAKE => true,
            threshold => {
                self.evaluated += 1;
                self.bits(frame, i) < threshold
            }
        }
    }
}

/// `ceil(q·2^53)`, the number of 53-bit values `k` with `k·2^-53 < q`:
/// [`ASLEEP`] for `q ≤ 0`, [`AWAKE`] for `q ≥ 1`, and between them
/// otherwise. Scaling by a power of two is exact, so so is the ceiling.
fn threshold(q: f64) -> u64 {
    if q <= 0.0 {
        ASLEEP
    } else if q >= 1.0 {
        AWAKE
    } else {
        (q * AWAKE as f64).ceil() as u64
    }
}

/// A set of node indices, one bit per node (bit `i % 64` of word
/// `i / 64`), drained in index order.
#[derive(Default)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Empties the set and sizes it for nodes `0..n`.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Calls `f` on every member in ascending order and empties the set:
    /// `n/64` word reads plus one step per member.
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// One chain level: the immediate forwards that transmit at one time,
/// `t_ns` nanoseconds into the frame.
#[derive(Default)]
struct Level {
    t_ns: u64,
    len: usize,
    nodes: NodeSet,
}

impl Level {
    /// Empties the level and sizes it for nodes `0..n`.
    fn reset(&mut self, n: usize) {
        self.len = 0;
        self.nodes.reset(n);
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues node `i` to transmit at `t_ns`.
    ///
    /// # Panics
    ///
    /// Panics if the level already holds a forward at another time.
    fn push(&mut self, t_ns: u64, i: usize) {
        if self.len == 0 {
            self.t_ns = t_ns;
        }
        assert_eq!(t_ns, self.t_ns, "a level transmits at one time");
        self.len += 1;
        self.nodes.insert(i);
    }

    /// Calls `f` on every forward in index order and empties the level.
    fn drain(&mut self, f: impl FnMut(usize)) {
        self.len = 0;
        self.nodes.drain(f);
    }
}

/// Activity the update caused this frame, kept only for the nodes it
/// touched.
#[derive(Default)]
struct Activity {
    /// Per node: the span `[start, end]` of the update's immediate
    /// traffic there.
    nodes: Vec<NodeActivity>,
    /// Nodes that carried immediate traffic this frame.
    touched: NodeSet,
    /// Nodes that announced a normal broadcast this frame or heard one
    /// announced: busy over `[t_active, rx_done]`, on top of their
    /// `nodes` entry.
    listening: NodeSet,
}

#[derive(Clone, Copy)]
struct NodeActivity {
    start: f64,
    end: f64,
}

impl NodeActivity {
    const IDLE: Self = Self {
        start: f64::INFINITY,
        end: 0.0,
    };

    /// Widens the activity span to cover `[from, to]`.
    fn note(&mut self, from: f64, to: f64) {
        if from < self.start {
            self.start = from;
        }
        if to > self.end {
            self.end = to;
        }
    }
}

impl Activity {
    /// Sizes the state for nodes `0..n`. A drained frame leaves every
    /// entry idle and both sets empty.
    fn reset(&mut self, n: usize) {
        self.nodes.resize(n, NodeActivity::IDLE);
        self.touched.reset(n);
        self.listening.reset(n);
    }

    /// Node `i` is busy over `[from, to]` with immediate traffic.
    fn note(&mut self, i: usize, from: f64, to: f64) {
        self.touched.insert(i);
        self.nodes[i].note(from, to);
    }

    /// Node `i` announced a normal broadcast or heard one announced.
    fn listen(&mut self, i: usize) {
        self.listening.insert(i);
    }

    /// Adds to `energy` the marginal awake energy of every touched node
    /// whose coin slept in frame `frame`, in index order, resets their
    /// entries and empties both sets. Returns the number of listen-only
    /// nodes, which the caller bills. A touched listener's span takes in
    /// the listening window `[from, to]` first; min and max do not depend
    /// on order, so the span is the one the frame's traffic made.
    fn drain_marginal(
        &mut self,
        energy: &mut f64,
        coins: &mut Coins,
        frame: u32,
        idle_over_sleep: f64,
        (from, to): (f64, f64),
    ) -> u64 {
        let mut listen_only = 0;
        let words = self.touched.words.iter_mut().zip(&mut self.listening.words);
        for (w, (touched, listening)) in words.enumerate() {
            let heard = std::mem::take(listening);
            let mut bits = std::mem::take(touched);
            listen_only += u64::from((heard & !bits).count_ones());
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let i = w * 64 + bit as usize;
                let mut a = std::mem::replace(&mut self.nodes[i], NodeActivity::IDLE);
                if heard >> bit & 1 != 0 {
                    a.note(from, to);
                }
                if !coins.awake(frame, i) {
                    let duration = (a.end - a.start.min(a.end)).max(0.0);
                    *energy += idle_over_sleep * duration;
                }
                bits &= bits - 1;
            }
        }
        listen_only
    }
}

/// `Receive-Broadcast` (Fig. 3) applied inside the frame loop.
#[allow(clippy::too_many_arguments)]
fn decide_forward(
    node: NodeId,
    now: f64,
    setup: &DisseminationSetup,
    p: f64,
    rng: &mut SimRng,
    level: &mut Level,
    pending_normal: &mut NodeSet,
    deferred: &mut u64,
    ns_frame_limit: u64,
) {
    if rng.chance(p) {
        let t_tx = secs_to_ns(now + setup.l1);
        if t_tx <= ns_frame_limit {
            level.push(t_tx, node.index());
        } else {
            // Would overrun the data phase: demote to a normal broadcast
            // next frame.
            *deferred += 1;
            pending_normal.insert(node.index());
        }
    } else {
        pending_normal.insert(node.index());
    }
}

/// `(s * 1e9).round() as u64` without a libm call: truncate, then round
/// half away from zero on the fraction. For `0 ≤ x < 2^52` the fraction
/// `x − trunc(x)` is exact; above that `x` is integral. Negative and NaN
/// inputs give 0 and overflow saturates, as the cast does.
fn secs_to_ns(s: f64) -> u64 {
    let x = s * 1e9;
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::{ns_to_secs, secs_to_ns, threshold, Coins, ASLEEP, AWAKE};
    use crate::IdealConfig;
    use pbbf_des::{mix64, SimRng, GOLDEN_GAMMA};

    /// Coins with a chosen key.
    fn coins(key: u64, q: f64) -> Coins {
        Coins {
            key,
            threshold: threshold(q),
            evaluated: 0,
        }
    }

    /// The coin keys of the first `updates` updates of a run of `seed`,
    /// keyed as `IdealSim::run` keys them: adjacent substreams of one
    /// root.
    fn update_keys(seed: u64, updates: u64) -> Vec<u64> {
        let root = SimRng::new(seed);
        (0..updates)
            .map(|u| Coins::new(&root.substream(u), 0.5).key)
            .collect()
    }

    /// `uniform01`'s map from 53 random bits to `[0, 1)`.
    fn unit(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn coin_hash_is_splitmix64_at_the_coin_position() {
        // SplitMix64's published first outputs from state 0: node i of
        // frame 0 is output i.
        let c = coins(0, 0.5);
        let outputs: [u64; 4] = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        for (i, z) in outputs.into_iter().enumerate() {
            assert_eq!(c.bits(0, i), z >> 11, "node {i}");
        }
        // Frame f starts 2^32 positions on, so `MAX_NODES` nodes never
        // reach the next frame's positions.
        let key = 0x0123_4567_89AB_CDEF;
        let c = coins(key, 0.5);
        for (frame, i) in [(1u32, 0usize), (7, 5624), (9_999, (1 << 20) - 1)] {
            let position = (u64::from(frame) << 32) + i as u64;
            let state = key.wrapping_add((position + 1).wrapping_mul(GOLDEN_GAMMA));
            assert_eq!(c.bits(frame, i), mix64(state) >> 11);
        }
    }

    #[test]
    fn awake_rate_is_q_within_four_sigma() {
        let keys = update_keys(2005, 4);
        let frames = [0, 1, 2, 9, 10, 1_000, 9_999, u32::MAX];
        let n = 1 << 15;
        for q in [1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3] {
            let mut awake = 0u64;
            for &key in &keys {
                let mut c = coins(key, q);
                for frame in frames {
                    awake += (0..n).filter(|&i| c.awake(frame, i)).count() as u64;
                }
                assert_eq!(c.evaluated, (frames.len() * n) as u64);
            }
            let total = (keys.len() * frames.len() * n) as f64;
            assert!(total >= 1e6);
            let sigma = (total * q * (1.0 - q)).sqrt();
            let z = (awake as f64 - total * q) / sigma;
            assert!(
                z.abs() < 4.0,
                "q = {q}: {awake} of {total} awake, z = {z:.2}"
            );
        }
    }

    #[test]
    fn fixed_coins_evaluate_no_hash() {
        for (q, expect) in [(0.0, false), (-0.5, false), (1.0, true), (1.5, true)] {
            let mut c = coins(0x5EED, q);
            for frame in 0..16 {
                for i in 0..1_000 {
                    assert_eq!(c.awake(frame, i), expect, "q = {q}");
                }
            }
            assert_eq!(c.evaluated, 0, "q = {q}");
        }
    }

    #[test]
    fn threshold_compares_like_uniform01() {
        let half_ulp = f64::EPSILON / 2.0; // 2^-53
        let mut rng = SimRng::new(53);
        let mut qs = vec![half_ulp, 0.1, 0.5, 1.0 - half_ulp];
        qs.extend((0..1_000).map(|_| rng.uniform01().max(half_ulp)));
        for q in qs {
            let t = threshold(q);
            assert!(t > ASLEEP && t < AWAKE, "q = {q:e}: threshold {t}");
            let mut ks = vec![t - 1, t];
            for _ in 0..1_000 {
                // The 53 bits behind a real `uniform01` draw.
                let u = rng.uniform01();
                let k = (u * AWAKE as f64) as u64;
                assert_eq!(unit(k), u);
                ks.push(k);
            }
            for k in ks {
                assert_eq!(k < t, unit(k) < q, "q = {q:e}, k = {k}");
            }
        }
    }

    #[test]
    fn coins_are_uncorrelated_at_lag_one() {
        let keys = update_keys(7, 2);
        let (a, b) = (coins(keys[0], 0.5), coins(keys[1], 0.5));
        let side = 1 << 10;
        let grid = || (0..side as u32).flat_map(move |f| (0..side).map(move |i| (f, i)));
        let u = |c: &Coins, frame: u32, i: usize| unit(c.bits(frame, i));
        let cases: [(&str, Vec<(f64, f64)>); 3] = [
            (
                "along node",
                (0..side * side)
                    .map(|i| (u(&a, 3, i), u(&a, 3, i + 1)))
                    .collect(),
            ),
            (
                "along frame",
                grid()
                    .map(|(f, i)| (u(&a, f, i), u(&a, f + 1, i)))
                    .collect(),
            ),
            (
                "between updates",
                grid().map(|(f, i)| (u(&a, f, i), u(&b, f, i))).collect(),
            ),
        ];
        for (name, pairs) in cases {
            let n = pairs.len() as f64;
            let mean = |v: &dyn Fn(&(f64, f64)) -> f64| pairs.iter().map(v).sum::<f64>() / n;
            let (mx, my) = (mean(&|p| p.0), mean(&|p| p.1));
            let cov = mean(&|p| (p.0 - mx) * (p.1 - my));
            let (vx, vy) = (mean(&|p| (p.0 - mx).powi(2)), mean(&|p| (p.1 - my).powi(2)));
            let rho = cov / (vx * vy).sqrt();
            assert!(
                rho.abs() < 4.0 / n.sqrt(),
                "{name}: rho = {rho:e} over {n} pairs"
            );
        }
    }

    /// The tightest chain `IdealConfig::validate` admits (`L1 = 0`,
    /// 1 ns packets) steps each level by 1 ns, through the roundings the
    /// frame loop makes: from any time within the longest admitted frame,
    /// the next level lands on a later nanosecond. Sixteen times further
    /// out, where an f64 holds seconds only to 3.7 ns, some do not.
    #[test]
    fn chain_levels_advance_within_the_longest_frame() {
        let next = |t_ns: u64| {
            let t_rx = ns_to_secs(t_ns) + IdealConfig::TIME_UNIT;
            secs_to_ns(t_rx + 0.0)
        };
        let last = secs_to_ns(IdealConfig::MAX_T_FRAME);
        let mut times = vec![0, 1, last / 2, last - 1, last];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            times.push(x % (last + 1));
        }
        for t_ns in times {
            assert!(next(t_ns) > t_ns, "a level at {t_ns} ns");
        }
        let far = 16 * last;
        assert!((far..far + 1_000).any(|t_ns| next(t_ns) <= t_ns));
    }

    #[test]
    fn secs_to_ns_rounds_like_libm() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.4e-9,
            0.5e-9,
            1.5e-9,
            2.5e-9,
            1.0 - 2.5e-9,
            -1e-9,
            -0.6e-9,
            1.0 + 1.5 * f64::EPSILON,
            // Around 2^52 and 2^53 ns, where fractions vanish, and 2^64 ns,
            // where the cast saturates.
            (1u64 << 52) as f64 / 1e9,
            ((1u64 << 52) as f64 - 0.5) / 1e9,
            (1u64 << 53) as f64 / 1e9,
            u64::MAX as f64 / 1e9,
            u64::MAX as f64 / 1e9 * 1.5,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Random times over two 10 s frames, and times within rounding of
        // a half-nanosecond tie.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cases.push((x >> 11) as f64 / (1u64 << 53) as f64 * 20.0);
            cases.push((x % 20_000_000_000) as f64 / 1e9 + 0.5e-9);
        }
        for s in cases {
            assert_eq!(secs_to_ns(s), (s * 1e9).round() as u64, "s = {s:e}");
        }
    }
}
