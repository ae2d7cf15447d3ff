//! The per-update frame loop: disseminating one broadcast over the grid.
//!
//! # What a frame costs
//!
//! A flood touches only its frontier: the transmitters of the frame,
//! their neighbors, and the nodes that receive. The loop keeps per-node
//! activity only for those nodes, marks them in a bitset of `n/64`
//! words, and walks and resets just the marked entries at the end of
//! the frame. A node's awake time is derived, not stored: it is its
//! coin's `T_frame` (or 0) raised to its activity-driven awake time.
//! Normal transmitters queue in a second bitset and drain in index
//! order, so no frame sorts.
//!
//! Two things stay dense in node order, because the output bits depend
//! on them:
//!
//! * **The coin stream.** When `0 < q < 1`, every frame draws `n`
//!   `chance(q)` coins from the update's xoshiro256** stream in node
//!   order, and `decide_forward`'s `chance(p)` draws fall between
//!   frames. The generator has no cheap jump-ahead, so drawing only the
//!   coins the flood asks for would shift every later draw. The frame
//!   that ends the loop also draws its `n` coins and discards them, and
//!   the billing tail then draws fresh coins for every billing frame the
//!   flood did not span. That discarded draw buys nothing and is kept on
//!   purpose: dropping it moves the tail's coins. It can go when coins
//!   become a pure function of `(update, frame, node)`, which needs one
//!   golden refresh (ROADMAP, ideal-sim item, Step A).
//! * **The baseline energy of the first `billing_frames` frames.** It is
//!   a running f64 sum in node order, added before that frame's marginal
//!   terms. f64 addition is not associative, so the order is part of the
//!   value. The marginal terms walk the touched bitset in index order:
//!   the same addends in the same order as a scan of `0..n`, since an
//!   untouched node adds nothing.
//!
//! The dense loop, which resets, scans and bills all `n` nodes every
//! frame, is kept as the test oracle in `crate::oracle`; the tests there
//! compare every output field bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pbbf_core::{PbbfParams, PowerProfile, SleepSchedule};
use pbbf_des::SimRng;
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

/// Everything measured about one update's dissemination.
#[derive(Debug, Clone)]
pub(crate) struct Dissemination {
    /// Per node: latency from generation to first reception (s) and the
    /// number of links the delivered copy traversed. The source holds
    /// `Some((0.0, 0))`.
    pub received: Vec<Option<(f64, u32)>>,
    pub immediate_tx: u64,
    pub normal_tx: u64,
    /// Immediate forwards that would have overrun the frame and were
    /// demoted to normal broadcasts.
    pub deferred_immediates: u64,
    /// Total energy billed to this update, all nodes (J).
    pub energy_joules: f64,
    pub frames_used: u32,
}

/// Disseminates one update from `source`, consuming randomness from `rng`.
pub(crate) fn disseminate(
    topology: &Topology,
    source: NodeId,
    setup: &DisseminationSetup,
    rng: &mut SimRng,
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
    // A node's baseline energy for one billed frame, by its coin.
    let billed = Billing {
        on: idle * t_active + idle * t_sleep,
        off: idle * t_active + sleep * t_sleep,
    };
    // Generation happens mid-ATIM-window of frame 0 (Section 5.1: "new
    // packets always arrive at the source during the ATIM window").
    let gen_time = 0.5 * t_active;

    let mut received: Vec<Option<(f64, u32)>> = vec![None; n];
    received[source.index()] = Some((0.0, 0));

    // Nodes queued to announce + transmit a normal broadcast next frame,
    // and this frame's, in index order.
    let mut pending_normal = NodeSet::new(n);
    let mut normal_now: Vec<NodeId> = Vec::new();
    // Immediate forwards scheduled within the current frame:
    // (tx time in integer ns from frame start, node).
    let mut imm: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    let mut immediate_tx = 0u64;
    let mut normal_tx = 0u64;
    let mut deferred = 0u64;
    let mut energy = 0.0f64;

    let mut coins = Coins::new(n, q);
    let mut activity = Activity::new(n);

    // The source's own forwarding decision. An immediate source
    // transmission still happens after the ATIM window (data may not be
    // sent during the window) but is *unannounced*: only awake neighbors
    // receive it.
    let source_immediate = rng.chance(p);
    if source_immediate {
        imm.push(Reverse((secs_to_ns(t_active + setup.l1), source.0)));
    } else {
        pending_normal.insert(source.index());
    }

    let ns_frame_limit = secs_to_ns(t_frame - setup.t_packet);
    let mut frame = 0u32;
    loop {
        let frame_start = f64::from(frame) * t_frame;

        // ---- Sleep-Decision-Handler coins for this frame's data phase,
        // drawn even when the frame below turns out to end the loop.
        coins.draw(rng);

        // ---- Who transmits a normal (announced) broadcast this frame.
        normal_now.clear();
        pending_normal.drain(|i| normal_now.push(NodeId(i as u32)));

        if normal_now.is_empty() && imm.is_empty() {
            break;
        }

        // ---- Awake intervals of the announced transmissions.
        for &tx in &normal_now {
            activity.awake(tx.index(), t_active, rx_done);
            for &nb in topology.neighbors(tx) {
                // Every neighbor heard the ATIM and listens for the data.
                activity.awake(nb.index(), t_active, rx_done);
            }
        }

        // ---- Normal data transmissions (all at T_active + L1; ideal
        // channel, no collisions). Every neighbor receives.
        let t_norm_rx = t_active + setup.l1 + setup.t_packet;
        let latency = frame_start + t_norm_rx - gen_time;
        for &tx in &normal_now {
            normal_tx += 1;
            let hops = received[tx.index()].expect("transmitter holds packet").1 + 1;
            for &nb in topology.neighbors(tx) {
                if received[nb.index()].is_some() {
                    continue; // duplicate: dropped
                }
                received[nb.index()] = Some((latency, hops));
                decide_forward(
                    nb,
                    t_norm_rx,
                    setup,
                    p,
                    rng,
                    &mut imm,
                    &mut pending_normal,
                    &mut deferred,
                    ns_frame_limit,
                );
            }
        }

        // ---- Immediate forwards, in time order, chaining within the
        // frame.
        while let Some(Reverse((t_ns, node_raw))) = imm.pop() {
            let node = NodeId(node_raw);
            let t_tx = ns_to_secs(t_ns);
            let t_rx = t_tx + setup.t_packet;
            immediate_tx += 1;
            // The forwarder is awake from its reception through its
            // transmission.
            activity.awake(node.index(), t_tx - setup.l1, t_rx);
            let hops = received[node.index()].expect("forwarder holds packet").1 + 1;
            let latency = frame_start + t_rx - gen_time;
            for &nb in topology.neighbors(node) {
                let i = nb.index();
                if coins.awake_until(i, t_frame).max(activity.awake_until(i)) < t_tx {
                    continue; // asleep: the bond is closed for this copy
                }
                if received[i].is_some() {
                    continue;
                }
                received[i] = Some((latency, hops));
                activity.note(i, t_tx, t_rx);
                decide_forward(
                    nb,
                    t_rx,
                    setup,
                    p,
                    rng,
                    &mut imm,
                    &mut pending_normal,
                    &mut deferred,
                    ns_frame_limit,
                );
            }
        }

        // ---- Energy for this frame: the baseline duty-cycle share billed
        // to this update, then the marginal activity — awake time the
        // update caused beyond what the coin (already billed, possibly to
        // another update's window) covers.
        if frame < setup.billing_frames {
            energy = billed.add(energy, &coins);
        }
        energy = activity.drain_marginal(energy, &coins, idle - sleep);

        frame += 1;
        if frame >= setup.max_frames {
            break;
        }
    }

    // Baseline duty-cycle energy for billing-window frames the
    // dissemination did not span (the update's steady-state share covers
    // the full inter-update interval even if the broadcast died early).
    for _ in frame..setup.billing_frames {
        coins.draw(rng);
        energy = billed.add(energy, &coins);
    }

    // Transmission surcharge over idle listening.
    energy +=
        (setup.power.tx - setup.power.idle) * setup.t_packet * (immediate_tx + normal_tx) as f64;

    Dissemination {
        received,
        immediate_tx,
        normal_tx,
        deferred_immediates: deferred,
        energy_joules: energy,
        frames_used: frame,
    }
}

/// One frame's sleep coins, one per node, stored as a mask: all ones
/// when the coin kept the node awake, zero when it slept. A mask loaded
/// from memory can only be used by bit operations; with `bool` coins the
/// compiler turned the billing select into a branch, which mispredicts
/// about half the time at q = 0.5. `chance` draws nothing when `q ≤ 0`
/// or `q ≥ 1`, so the coins are then fixed and [`Coins::draw`] is a
/// no-op.
struct Coins {
    masks: Vec<u64>,
    q: f64,
}

impl Coins {
    fn new(n: usize, q: f64) -> Self {
        Self {
            masks: vec![if q >= 1.0 { u64::MAX } else { 0 }; n],
            q,
        }
    }

    /// Draws every node's coin in node order, as `n` calls of
    /// `rng.chance(q)` would. The generator is copied into a local so
    /// the stores to `masks` cannot alias its state.
    fn draw(&mut self, rng: &mut SimRng) {
        let q = self.q;
        if !(q > 0.0 && q < 1.0) {
            return;
        }
        let mut local = rng.clone();
        for mask in &mut self.masks {
            *mask = u64::from(local.uniform01() < q).wrapping_neg();
        }
        *rng = local;
    }

    fn get(&self, i: usize) -> bool {
        self.masks[i] != 0
    }

    /// `t_frame` if node `i`'s coin kept it awake through the data phase,
    /// else 0, picked by masking rather than by a branch.
    fn awake_until(&self, i: usize, t_frame: f64) -> f64 {
        f64::from_bits(t_frame.to_bits() & self.masks[i])
    }
}

/// A node's baseline energy for one billed frame: `on` when its coin
/// kept it awake through the data phase, `off` when it slept.
struct Billing {
    on: f64,
    off: f64,
}

impl Billing {
    /// Adds every node's share to `energy`, one f64 add per node in node
    /// order. The addend is picked by masking bit patterns, never by a
    /// branch on a random coin; `off + c·(on − off)` can round away from
    /// `on`.
    fn add(&self, mut energy: f64, coins: &Coins) -> f64 {
        let off = self.off.to_bits();
        let flip = off ^ self.on.to_bits();
        for &mask in &coins.masks {
            energy += f64::from_bits(off ^ (flip & mask));
        }
        energy
    }
}

/// A set of node indices, one bit per node (bit `i % 64` of word
/// `i / 64`), drained in index order.
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
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

/// Activity the update caused this frame, kept only for the nodes it
/// touched.
struct Activity {
    /// Per node: the latest time the update's own traffic kept it
    /// awake, and the span `[start, end]` of that traffic.
    nodes: Vec<NodeActivity>,
    touched: NodeSet,
}

#[derive(Clone, Copy)]
struct NodeActivity {
    awake_until: f64,
    start: f64,
    end: f64,
}

impl NodeActivity {
    const IDLE: Self = Self {
        awake_until: 0.0,
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
    fn new(n: usize) -> Self {
        Self {
            nodes: vec![NodeActivity::IDLE; n],
            touched: NodeSet::new(n),
        }
    }

    /// Node `i` is busy over `[from, to]` and stays awake until `to`.
    fn awake(&mut self, i: usize, from: f64, to: f64) {
        self.touched.insert(i);
        let a = &mut self.nodes[i];
        a.awake_until = a.awake_until.max(to);
        a.note(from, to);
    }

    /// Node `i` is busy over `[from, to]` (a reception while its radio is
    /// already on).
    fn note(&mut self, i: usize, from: f64, to: f64) {
        self.touched.insert(i);
        self.nodes[i].note(from, to);
    }

    fn awake_until(&self, i: usize) -> f64 {
        self.nodes[i].awake_until
    }

    /// Adds the marginal awake energy of every touched node whose coin
    /// slept, in index order, and resets the touched entries.
    fn drain_marginal(&mut self, mut energy: f64, coins: &Coins, idle_over_sleep: f64) -> f64 {
        let nodes = &mut self.nodes;
        self.touched.drain(|i| {
            let a = std::mem::replace(&mut nodes[i], NodeActivity::IDLE);
            if a.end > 0.0 && !coins.get(i) {
                let duration = (a.end - a.start.min(a.end)).max(0.0);
                energy += idle_over_sleep * duration;
            }
        });
        energy
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
    imm: &mut BinaryHeap<Reverse<(u64, u32)>>,
    pending_normal: &mut NodeSet,
    deferred: &mut u64,
    ns_frame_limit: u64,
) {
    if rng.chance(p) {
        let t_tx = secs_to_ns(now + setup.l1);
        if t_tx <= ns_frame_limit {
            imm.push(Reverse((t_tx, node.0)));
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
    use super::secs_to_ns;

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
