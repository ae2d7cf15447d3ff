//! The per-update frame loop: disseminating one broadcast over the grid.
//!
//! # Batches over tiles
//!
//! A frame of the flood is a sequence of *batches*, each a set of nodes
//! that transmit at one time: first the frame's normal (announced)
//! broadcasts, then its chain levels of immediate forwards. Every normal
//! receiver of a frame forwards at `rx_done + L1`, and every receiver of
//! one level forwards `t_packet + L1` after that level transmits, which
//! [`crate::IdealConfig::validate`] keeps at least 1 ns later. So
//! draining level after level is the `(time, node)` order a priority
//! queue would pop.
//!
//! Every random decision of the flood is a pure function of the node it
//! concerns: a node's sleep coin in a frame ([`Coins`]) and its choice,
//! on first reception, to forward immediately ([`Forwards`]). So a batch
//! may be evaluated in any order, and the flood evaluates it a tile at a
//! time. The grid is cut into 8×8 tiles ([`Tiles`]), and each node set of
//! the flood holds one `u64` per tile, bit `(r % 8)·8 + c % 8` for node
//! `(r, c)`. A batch visits each of its senders' tiles, and a neighbor
//! grid tile only when a sender sits on the edge facing it: row 0 for the
//! tile above, row 7 for the one below, column 0 for the left and column
//! 7 for the right. In each it shifts the senders up, down, left and
//! right by one node (8 bits down a tile, 1 bit across it, with the
//! neighbor tile's carry row or column), and the union of the four
//! shifts, less the nodes that hold the packet, is the tile's candidates.
//! A tile the rule skips has no sender and no carry, so no candidate. A
//! normal broadcast reaches every candidate: the transmitter and every
//! neighbor heard its announcement. An immediate forward reaches a
//! candidate only if its coin kept it awake, since no traffic has woken a
//! node that has not received; each candidate's coin is read once per
//! level. A receiver's copy comes from its lowest-index sender, up before
//! left before right before down: its bits in the up, left and right
//! shifts index a table of that sender's offset, so one loop over a
//! tile's receivers takes each hop count from its sender's entry of a
//! `u32` array. A batch thus costs O(tiles it visits + receivers), not a
//! branch per edge.
//!
//! # Energy
//!
//! The end of a frame asks whether each node the update kept busy had
//! slept by its coin, which makes its activity marginal. An immediate
//! receiver is awake by its coin, so only the forwarders of the frame's
//! first level can have slept: the source in frame 0, or the normal
//! receivers that forward at once. They all forward at one time, and the
//! normal receivers all heard the frame's announcements, so they share
//! one activity span, and the frame adds its marginal energy once per
//! first-level forwarder whose coin slept. Terms that are all equal sum
//! to the same bits in any order, so the total is the node-order sum.
//! A *listen-only* node (announced or heard an announcement, carried no
//! immediate traffic) received before any immediate forward read a coin,
//! so its coin is read nowhere else, and its activity is the announced
//! window `[T_active, rx_done]`: the frame counts these nodes by
//! popcount.
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
//! draw and each key comes from its own substream of the update's
//! generator, which is never drawn from itself. An update thus costs its
//! batches plus resetting its `n` reception records, and the working
//! state ([`Scratch`]) is allocated once per run, not per update.
//!
//! The dense loop, which evaluates every coin, resets and scans all `n`
//! nodes every frame and pops immediate forwards from a priority queue
//! edge by edge, is kept as the test oracle in `crate::oracle`; the tests
//! there compare every output field bit for bit.

use pbbf_core::{PbbfParams, PowerProfile, SleepSchedule};
use pbbf_des::{mix64, SimRng, GOLDEN_GAMMA};
use pbbf_topology::{Grid, NodeId};

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
    /// Batches: frames with normal broadcasts plus chain levels. Work,
    /// not an output of the flood.
    pub batches: u64,
    /// Tiles the batches visited, summed over batches. Work, not an
    /// output of the flood.
    pub tiles_visited: u64,
}

/// The frame loop's working state. Every flood leaves it sized for its
/// grid and empty but for normal broadcasts still pending when a flood
/// stops at `max_frames`, which the next flood clears. So one `Scratch`
/// serves every update of a run, and its buffers are allocated and paged
/// in once.
#[derive(Default)]
pub(crate) struct Scratch {
    /// This frame's normal transmitters.
    normal: TileSet,
    /// The chain level that transmits next.
    level: TileSet,
    /// The chain level `level` queues.
    next_level: TileSet,
    reach: Reach,
}

/// Disseminates one update from `source` over the grid `tiles` covers,
/// keying its sleep coins, forwarding decisions and billing draws on
/// `rng`'s seed (`rng` is not drawn from). Refills `received` with one
/// record per node: latency from generation to first reception (s) and
/// the number of links the delivered copy traversed, `Some((0.0, 0))` at
/// the source.
pub(crate) fn disseminate(
    tiles: &Tiles,
    source: NodeId,
    setup: &DisseminationSetup,
    rng: &SimRng,
    scratch: &mut Scratch,
    received: &mut Vec<Option<(f64, u32)>>,
) -> Dissemination {
    let n = tiles.n;
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

    let Scratch {
        normal,
        level,
        next_level,
        reach,
    } = scratch;
    normal.reset(tiles);
    level.reset(tiles);
    next_level.reset(tiles);
    reach.reset(tiles, source.index());

    let mut immediate_tx = 0u64;
    let mut normal_tx = 0u64;
    let mut energy = 0.0f64;
    let mut listen_only = 0u64;
    let mut batches = 0u64;

    let mut coins = Coins::new(rng, q);
    let forwards = Forwards::new(rng, p);

    // The source's own forwarding decision. An immediate source
    // transmission still happens after the ATIM window (data may not be
    // sent during the window) but is *unannounced*: only awake neighbors
    // receive it.
    let (t, bit) = tiles.locate(source.index());
    let mut level_ns = secs_to_ns(t_active + setup.l1);
    if forwards.immediate(source.index()) {
        level.insert(t, 1 << bit);
    } else {
        reach.pending.insert(t, 1 << bit);
    }

    let ns_frame_limit = secs_to_ns(t_frame - setup.t_packet);
    let normal_forward_ns = secs_to_ns(rx_done + setup.l1);
    let mut frame = 0u32;
    loop {
        let frame_start = f64::from(frame) * t_frame;

        // ---- Who transmits a normal (announced) broadcast this frame.
        std::mem::swap(normal, &mut reach.pending);
        if normal.is_empty() && level.is_empty() {
            break;
        }
        // Whether the frame's first level heard the announcements.
        let announced = !normal.is_empty();

        // ---- Normal data transmissions (all at T_active + L1; ideal
        // channel, no collisions). The transmitter and every neighbor
        // heard the ATIM and listen through `rx_done`; every neighbor
        // receives. Those that forward at once make the frame's first
        // level, which was empty.
        if announced {
            batches += 1;
            normal_tx += normal.len;
            level_ns = normal_forward_ns;
            let batch = Batch {
                senders: normal,
                hearing: Hearing::Announced,
                latency: frame_start + rx_done - gen_time,
                forward_fits: normal_forward_ns <= ns_frame_limit,
            };
            let listening = reach.expand(tiles, batch, &forwards, level, received);
            normal.clear();
            listen_only += listening - level.len;
        }

        // ---- Immediate forwards, chaining within the frame one level
        // at a time.
        let mut first = true;
        while !level.is_empty() {
            batches += 1;
            immediate_tx += level.len;
            let t_tx = ns_to_secs(level_ns);
            let t_rx = t_tx + setup.t_packet;
            if first {
                // Marginal activity: awake time the update caused beyond
                // what the coin (billed below, possibly to another
                // update's window) covers. A first-level forwarder is
                // busy from its reception through its transmission, and
                // through the announced window if it heard one.
                let mut span = Span::IDLE;
                span.note(t_tx - setup.l1, t_rx);
                if announced {
                    span.note(t_active, rx_done);
                }
                let marginal = (idle - sleep) * span.duration();
                for _ in 0..level.asleep(tiles, &mut coins, frame) {
                    energy += marginal;
                }
                first = false;
            }
            let next_ns = secs_to_ns(t_rx + setup.l1);
            let fits = next_ns <= ns_frame_limit;
            assert!(
                !fits || next_ns > level_ns,
                "a level transmits later than the level before it"
            );
            let batch = Batch {
                senders: level,
                hearing: Hearing::Awake(&mut coins, frame),
                latency: frame_start + t_rx - gen_time,
                forward_fits: fits,
            };
            reach.expand(tiles, batch, &forwards, next_level, received);
            level.clear();
            std::mem::swap(level, next_level);
            level_ns = next_ns;
        }

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
        deferred_immediates: reach.deferred,
        energy_joules: energy,
        frames_used: frame,
        coins_evaluated: coins.evaluated,
        billed_awake: awake,
        listen_only,
        listen_only_awake: listen_awake,
        batches,
        tiles_visited: reach.tiles_visited,
    }
}

/// The stream id, under an update's generator, of the substream its coin
/// key is drawn from ("coin" in ASCII).
const COIN_STREAM: u64 = 0x636F_696E;

/// The stream id, under an update's generator, of the substream its
/// forwarding key is drawn from ("fwd " in ASCII).
const FORWARD_STREAM: u64 = 0x6677_6420;

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

/// [`Hashed::threshold`] when the probability is at most 0: no 53-bit
/// value lies below it.
const NEVER: u64 = 0;

/// [`Hashed::threshold`] when the probability is at least 1: every
/// 53-bit value lies below it.
const ALWAYS: u64 = 1 << 53;

/// Counter-based Bernoulli trials: trial `position` succeeds with
/// probability `p`, as a pure function of `(key, position)` evaluated
/// where it is read, in the counter-based style of Salmon et al.
/// ("Parallel random numbers: as easy as 1, 2, 3", SC 2011). The hash is
/// SplitMix64's output at counter position `position` from state `key`
/// (Steele, Lea and Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014). A trial succeeds when the hash's top 53
/// bits lie below `ceil(p·2^53)`, the comparison `uniform01() < p` makes
/// on the same bits. When `p ≤ 0` or `p ≥ 1` every trial is fixed and no
/// hash is evaluated, as `chance` draws nothing there.
#[derive(Clone, Copy)]
struct Hashed {
    key: u64,
    /// The number of 53-bit values below which a trial succeeds.
    threshold: u64,
}

impl Hashed {
    /// The trials of the update whose generator is `rng`, keyed by its
    /// `stream` substream. `rng` is not drawn from.
    fn new(rng: &SimRng, stream: u64, p: f64) -> Self {
        let mut stream = rng.substream(stream);
        // `below` a power of two keeps the low bits of one draw, so two
        // 32-bit halves make the 64-bit key.
        Self {
            key: (stream.below(1 << 32) << 32) | stream.below(1 << 32),
            threshold: threshold(p),
        }
    }

    /// The top 53 bits of trial `position`'s hash.
    fn bits(&self, position: u64) -> u64 {
        mix64(
            self.key
                .wrapping_add(position.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
        ) >> 11
    }

    /// Every trial's outcome when `p` fixes it, else `None`.
    fn fixed(&self) -> Option<bool> {
        match self.threshold {
            NEVER => Some(false),
            ALWAYS => Some(true),
            _ => None,
        }
    }
}

/// The sleep coins of one update: whether the Sleep-Decision-Handler
/// kept node `i` awake through frame `f`'s data phase.
///
/// Coin `(f, i)` is the [`Hashed`] trial at position `f·2^32 + i` under
/// a key from the update's [`COIN_STREAM`] substream, with probability
/// `q`. [`crate::IdealConfig::MAX_NODES`] keeps `i < 2^32`, so no two
/// coins of an update share a position.
pub(crate) struct Coins {
    trials: Hashed,
    /// Hashes evaluated so far.
    pub evaluated: u64,
}

impl Coins {
    /// The coins of the update whose generator is `rng`. `rng` is not
    /// drawn from.
    pub(crate) fn new(rng: &SimRng, q: f64) -> Self {
        Self {
            trials: Hashed::new(rng, COIN_STREAM, q),
            evaluated: 0,
        }
    }

    /// The top 53 bits of coin `(frame, i)`'s hash.
    fn bits(&self, frame: u32, i: usize) -> u64 {
        self.trials.bits((u64::from(frame) << 32) | i as u64)
    }

    /// Whether node `i`'s coin kept it awake through frame `frame`.
    pub(crate) fn awake(&mut self, frame: u32, i: usize) -> bool {
        self.trials.fixed().unwrap_or_else(|| {
            self.evaluated += 1;
            self.bits(frame, i) < self.trials.threshold
        })
    }

    /// The members of `bits`, one tile's nodes, whose coins kept them
    /// awake through frame `frame`, where `node(b)` is the node at bit
    /// `b`: one hash per member unless `q` fixes every coin.
    fn awake_bits(&mut self, frame: u32, bits: u64, node: impl Fn(u32) -> usize) -> u64 {
        match self.trials.fixed() {
            Some(true) => bits,
            Some(false) => 0,
            None => {
                let mut awake = 0;
                for_each_bit(bits, |b| {
                    awake |= u64::from(self.awake(frame, node(b))) << b
                });
                awake
            }
        }
    }
}

/// The forwarding decisions of one update (`Receive-Broadcast`, Fig. 3):
/// whether node `i`, on first receiving the update, forwards it
/// immediately (probability `p`) rather than as a normal broadcast next
/// frame. A node decides once per update, so decision `i` is the
/// [`Hashed`] trial at position `i` under a key from the update's
/// [`FORWARD_STREAM`] substream. Being a pure function of the node, a
/// decision does not depend on the order in which the flood reaches
/// nodes.
pub(crate) struct Forwards {
    trials: Hashed,
}

impl Forwards {
    /// The decisions of the update whose generator is `rng`. `rng` is not
    /// drawn from.
    pub(crate) fn new(rng: &SimRng, p: f64) -> Self {
        Self {
            trials: Hashed::new(rng, FORWARD_STREAM, p),
        }
    }

    /// Whether node `i` forwards immediately.
    pub(crate) fn immediate(&self, i: usize) -> bool {
        self.trials
            .fixed()
            .unwrap_or_else(|| self.trials.bits(i as u64) < self.trials.threshold)
    }
}

/// `ceil(p·2^53)`, the number of 53-bit values `k` with `k·2^-53 < p`:
/// [`NEVER`] for `p ≤ 0`, [`ALWAYS`] for `p ≥ 1`, and between them
/// otherwise. Scaling by a power of two is exact, so so is the ceiling.
fn threshold(p: f64) -> u64 {
    if p <= 0.0 {
        NEVER
    } else if p >= 1.0 {
        ALWAYS
    } else {
        (p * ALWAYS as f64).ceil() as u64
    }
}

/// The bits of a tile's first row (`r % 8 == 0`).
const FIRST_ROW: u64 = 0xFF;

/// The bits of a tile's last row (`r % 8 == 7`).
const LAST_ROW: u64 = FIRST_ROW << 56;

/// The bits of a tile's first column (`c % 8 == 0`).
const FIRST_COLUMN: u64 = 0x0101_0101_0101_0101;

/// The bits of a tile's last column (`c % 8 == 7`).
const LAST_COLUMN: u64 = 0x8080_8080_8080_8080;

/// A grid cut into 8×8 tiles: node `(r, c)` is bit `(r % 8)·8 + c % 8`
/// of tile `(r / 8, c / 8)`. Tiles are stored row-major inside a border
/// of empty tiles, so every grid tile's four neighbor tiles exist and a
/// batch reads them without a bounds branch. It depends on the grid
/// alone, so simulators of one grid share it.
#[derive(Debug)]
pub(crate) struct Tiles {
    /// Nodes in the grid.
    n: usize,
    /// Nodes per grid row.
    cols: usize,
    /// Stored tiles per row: the grid's tile columns plus the border.
    stride: usize,
    /// Per stored tile, the bits that are grid nodes; 0 on the border.
    valid: Vec<u64>,
    /// Per stored tile, the index of the node at bit 0.
    base: Vec<u32>,
}

impl Tiles {
    /// Cuts `grid` into tiles.
    pub(crate) fn new(grid: &Grid) -> Self {
        let (rows, cols) = (grid.rows() as usize, grid.cols() as usize);
        let (tile_rows, tile_cols) = (rows.div_ceil(8), cols.div_ceil(8));
        let stride = tile_cols + 2;
        let stored = (tile_rows + 2) * stride;
        let mut valid = vec![0; stored];
        let mut base = vec![0; stored];
        for tr in 0..tile_rows {
            for tc in 0..tile_cols {
                let t = (tr + 1) * stride + tc + 1;
                let width = (cols - 8 * tc).min(8);
                let row = u64::MAX >> (64 - width);
                for r in 0..(rows - 8 * tr).min(8) {
                    valid[t] |= row << (8 * r);
                }
                base[t] = u32::try_from(8 * tr * cols + 8 * tc).expect("node ids are u32");
            }
        }
        Self {
            n: rows * cols,
            cols,
            stride,
            valid,
            base,
        }
    }

    /// Stored tiles, the border included.
    fn stored(&self) -> usize {
        self.valid.len()
    }

    /// The stored tile and bit of node `i`.
    fn locate(&self, i: usize) -> (usize, u32) {
        let (r, c) = (i / self.cols, i % self.cols);
        let t = (r / 8 + 1) * self.stride + c / 8 + 1;
        (t, (r % 8 * 8 + c % 8) as u32)
    }

    /// The node at bit `b` of stored tile `t`.
    fn node(&self, t: usize, b: u32) -> usize {
        self.base[t] as usize + (b as usize >> 3) * self.cols + (b as usize & 7)
    }
}

/// Calls `f` on the index of every set bit of `bits`, in ascending order.
fn for_each_bit(mut bits: u64, mut f: impl FnMut(u32)) {
    while bits != 0 {
        f(bits.trailing_zeros());
        bits &= bits - 1;
    }
}

/// A set of nodes, one word per stored tile of [`Tiles`], with a summary
/// of the tiles that hold members, so emptying it and finding its tiles
/// cost O(tiles/64 + its tiles), not O(n).
#[derive(Default)]
struct TileSet {
    words: Vec<u64>,
    /// Bit `t % 64` of word `t / 64` is set when tile `t` holds a member.
    occupied: Vec<u64>,
    /// Members.
    len: u64,
}

impl TileSet {
    /// Empties the set and sizes it for `tiles`.
    fn reset(&mut self, tiles: &Tiles) {
        self.words.clear();
        self.words.resize(tiles.stored(), 0);
        self.occupied.clear();
        self.occupied.resize(tiles.stored().div_ceil(64), 0);
        self.len = 0;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds the nodes of `bits` to tile `t`.
    fn insert(&mut self, t: usize, bits: u64) {
        let added = bits & !self.words[t];
        self.words[t] |= added;
        self.occupied[t / 64] |= u64::from(added != 0) << (t % 64);
        self.len += u64::from(added.count_ones());
    }

    /// Calls `f` on every tile that holds a member, in ascending order.
    fn for_each_tile(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.occupied.iter().enumerate() {
            for_each_bit(word, |b| f(w * 64 + b as usize));
        }
    }

    /// Empties the set, visiting only the tiles that held members.
    fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            for_each_bit(std::mem::take(word), |b| {
                self.words[w * 64 + b as usize] = 0
            });
        }
        self.len = 0;
    }

    /// How many members' coins slept through `frame`: one coin read per
    /// member.
    fn asleep(&self, tiles: &Tiles, coins: &mut Coins, frame: u32) -> u32 {
        let mut asleep = 0;
        self.for_each_tile(|t| {
            let members = self.words[t];
            let awake = coins.awake_bits(frame, members, |b| tiles.node(t, b));
            asleep += (members & !awake).count_ones();
        });
        asleep
    }
}

/// How a batch's candidates receive.
enum Hearing<'c> {
    /// A normal broadcast: every neighbor heard its announcement and
    /// receives.
    Announced,
    /// An immediate forward in this frame: a neighbor receives if its
    /// coin kept it awake.
    Awake(&'c mut Coins, u32),
}

/// Nodes that transmit at one time, and what their receivers do.
struct Batch<'a> {
    senders: &'a TileSet,
    hearing: Hearing<'a>,
    /// The latency of this batch's receptions (s).
    latency: f64,
    /// Whether a receiver that forwards immediately does so inside the
    /// frame; if not, it is deferred to a normal broadcast next frame.
    forward_fits: bool,
}

/// What the batches of a flood write: who holds the update and how its
/// copy got there, and who transmits a normal broadcast next frame.
#[derive(Default)]
struct Reach {
    /// Per stored tile: the grid nodes that have not received.
    unreached: Vec<u64>,
    /// Per node: the links its delivered copy traversed, valid once it
    /// received.
    hops: Vec<u32>,
    /// Nodes queued to announce and transmit a normal broadcast next
    /// frame.
    pending: TileSet,
    /// One bit per stored tile: the tiles a batch visits, its senders'
    /// tiles and the grid tiles its senders' edges face.
    visit: Vec<u64>,
    /// Immediate forwards demoted to normal broadcasts.
    deferred: u64,
    /// Tiles visited by the flood's batches.
    tiles_visited: u64,
}

impl Reach {
    /// Sizes the state for `tiles`, with only `source` holding the
    /// update.
    fn reset(&mut self, tiles: &Tiles, source: usize) {
        self.unreached.clone_from(&tiles.valid);
        self.hops.resize(tiles.n, 0);
        self.pending.reset(tiles);
        self.visit.clear();
        self.visit.resize(tiles.stored().div_ceil(64), 0);
        self.deferred = 0;
        self.tiles_visited = 0;
        let (t, b) = tiles.locate(source);
        self.unreached[t] &= !(1 << b);
        self.hops[source] = 0;
    }

    /// Delivers one batch: every unreached neighbor of a sender that can
    /// hear it receives, writing its record into `received`, and queues
    /// its forward, into `level` when it forwards immediately in time and
    /// into [`Self::pending`] otherwise. Returns how many nodes the batch
    /// kept listening through its announced window (the senders and their
    /// neighbors) if it was announced, else 0.
    ///
    /// # Panics
    ///
    /// Panics if a sender has not received the update.
    fn expand(
        &mut self,
        tiles: &Tiles,
        batch: Batch<'_>,
        forwards: &Forwards,
        level: &mut TileSet,
        received: &mut [Option<(f64, u32)>],
    ) -> u64 {
        let Batch {
            senders,
            mut hearing,
            latency,
            forward_fits,
        } = batch;
        let stride = tiles.stride;
        senders.for_each_tile(|t| {
            let here = senders.words[t];
            assert_eq!(
                here & self.unreached[t],
                0,
                "a transmitter holds the packet"
            );
            self.visit[t / 64] |= 1 << (t % 64);
            let edges = [
                (t - stride, FIRST_ROW),
                (t - 1, FIRST_COLUMN),
                (t + 1, LAST_COLUMN),
                (t + stride, LAST_ROW),
            ];
            for (v, edge) in edges {
                let faced = (here & edge != 0) & (tiles.valid[v] != 0);
                self.visit[v / 64] |= u64::from(faced) << (v % 64);
            }
        });
        let s = &senders.words;
        let cols = tiles.cols as isize;
        // The offset from a receiver to its lowest-index sender, indexed
        // by its bits in the up, left and right shifts: above if up,
        // else left, else right, else below.
        let sender = [cols, -cols, -1, -cols, 1, -cols, -1, -cols];
        let mut listening = 0u64;
        for w in 0..self.visit.len() {
            for_each_bit(std::mem::take(&mut self.visit[w]), |b| {
                let t = w * 64 + b as usize;
                self.tiles_visited += 1;
                // The nodes whose neighbor above, left, right or below
                // sends: the senders shifted one node down, right, left
                // or up, carrying in the neighbor tile's edge.
                let here = s[t];
                let up = (here << 8) | (s[t - stride] >> 56);
                let left = ((here << 1) & !FIRST_COLUMN) | ((s[t - 1] >> 7) & FIRST_COLUMN);
                let right = ((here >> 1) & !LAST_COLUMN) | ((s[t + 1] << 7) & LAST_COLUMN);
                let down = (here >> 8) | (s[t + stride] << 56);
                let heard = up | left | right | down;
                let candidates = heard & self.unreached[t];
                let receivers = match &mut hearing {
                    Hearing::Announced => {
                        listening += u64::from(((here | heard) & tiles.valid[t]).count_ones());
                        candidates
                    }
                    Hearing::Awake(coins, frame) => {
                        coins.awake_bits(*frame, candidates, |b| tiles.node(t, b))
                    }
                };
                if receivers == 0 {
                    return;
                }
                self.unreached[t] &= !receivers;
                let mut immediate = 0u64;
                for_each_bit(receivers, |b| {
                    let side = (up >> b & 1) | (left >> b & 1) << 1 | (right >> b & 1) << 2;
                    let i = tiles.node(t, b);
                    let hops = self.hops[i.wrapping_add_signed(sender[side as usize])] + 1;
                    self.hops[i] = hops;
                    received[i] = Some((latency, hops));
                    immediate |= u64::from(forwards.immediate(i)) << b;
                });
                if forward_fits {
                    level.insert(t, immediate);
                    self.pending.insert(t, receivers & !immediate);
                } else {
                    // Would overrun the data phase: demoted to a normal
                    // broadcast next frame.
                    self.deferred += u64::from(immediate.count_ones());
                    self.pending.insert(t, receivers);
                }
            });
        }
        listening
    }
}

/// The span `[start, end]` over which a node was busy with the update's
/// traffic in a frame.
struct Span {
    start: f64,
    end: f64,
}

impl Span {
    const IDLE: Self = Self {
        start: f64::INFINITY,
        end: 0.0,
    };

    /// Widens the span to cover `[from, to]`.
    fn note(&mut self, from: f64, to: f64) {
        if from < self.start {
            self.start = from;
        }
        if to > self.end {
            self.end = to;
        }
    }

    fn duration(&self) -> f64 {
        (self.end - self.start.min(self.end)).max(0.0)
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
    use super::{
        ns_to_secs, secs_to_ns, threshold, Batch, Coins, Forwards, Hashed, Hearing, Reach, TileSet,
        Tiles, ALWAYS, FORWARD_STREAM, NEVER,
    };
    use crate::IdealConfig;
    use pbbf_des::{mix64, SimRng, GOLDEN_GAMMA};
    use pbbf_topology::{Grid, NodeId};

    /// Coins with a chosen key.
    fn coins(key: u64, q: f64) -> Coins {
        Coins {
            trials: Hashed {
                key,
                threshold: threshold(q),
            },
            evaluated: 0,
        }
    }

    /// The coin keys of the first `updates` updates of a run of `seed`,
    /// keyed as `IdealSim::run` keys them: adjacent substreams of one
    /// root.
    fn update_keys(seed: u64, updates: u64) -> Vec<u64> {
        let root = SimRng::new(seed);
        (0..updates)
            .map(|u| Coins::new(&root.substream(u), 0.5).trials.key)
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

    /// A forwarding decision is the trial at the node's own position
    /// under a key from its own substream, so it is neither the node's
    /// coin in frame 0 nor another update's decision, and `p ∈ {0, 1}`
    /// fixes it.
    #[test]
    fn forwards_hash_the_node_position_under_their_own_key() {
        let root = SimRng::new(2005);
        for u in 0..4 {
            let rng = root.substream(u);
            let f = Forwards::new(&rng, 0.5);
            let mut stream = rng.substream(FORWARD_STREAM);
            let key = (stream.below(1 << 32) << 32) | stream.below(1 << 32);
            assert_eq!(f.trials.key, key);
            assert_ne!(key, Coins::new(&rng, 0.5).trials.key);
            for i in [0usize, 1, 5624, (1 << 20) - 1] {
                let state = key.wrapping_add((i as u64 + 1).wrapping_mul(GOLDEN_GAMMA));
                assert_eq!(f.immediate(i), mix64(state) >> 11 < f.trials.threshold);
            }
            for (p, expect) in [(0.0, false), (-0.5, false), (1.0, true), (1.5, true)] {
                let f = Forwards::new(&rng, p);
                assert_eq!(f.trials.fixed(), Some(expect), "p = {p}");
                assert!((0..1_000).all(|i| f.immediate(i) == expect), "p = {p}");
            }
        }
    }

    #[test]
    fn forward_rate_is_p_within_four_sigma() {
        let root = SimRng::new(27);
        let n = 1 << 16;
        for p in [1e-3, 0.05, 0.375, 0.75, 1.0 - 1e-3] {
            let mut forwards = 0u64;
            for u in 0..16 {
                let f = Forwards::new(&root.substream(u), p);
                forwards += (0..n).filter(|&i| f.immediate(i)).count() as u64;
            }
            let total = (16 * n) as f64;
            let z = (forwards as f64 - total * p) / (total * p * (1.0 - p)).sqrt();
            assert!(z.abs() < 4.0, "p = {p}: {forwards} of {total}, z = {z:.2}");
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
            assert!(t > NEVER && t < ALWAYS, "q = {q:e}: threshold {t}");
            let mut ks = vec![t - 1, t];
            for _ in 0..1_000 {
                // The 53 bits behind a real `uniform01` draw.
                let u = rng.uniform01();
                let k = (u * ALWAYS as f64) as u64;
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

    /// The tiles one announced batch visits when node `(r, c)` of a
    /// `side`×`side` grid sends alone. Its receivers must be exactly the
    /// node's grid neighbors.
    fn tiles_visited_by_lone_sender(side: u32, r: u32, c: u32) -> u64 {
        let grid = Grid::square(side);
        let tiles = Tiles::new(&grid);
        let node = grid.node_at(r, c);
        let mut reach = Reach::default();
        reach.reset(&tiles, node.index());
        let (mut senders, mut level) = (TileSet::default(), TileSet::default());
        senders.reset(&tiles);
        level.reset(&tiles);
        let (t, b) = tiles.locate(node.index());
        senders.insert(t, 1 << b);
        let mut received = vec![None; tiles.n];
        let batch = Batch {
            senders: &senders,
            hearing: Hearing::Announced,
            latency: 1.0,
            forward_fits: true,
        };
        let forwards = Forwards::new(&SimRng::new(1), 0.0);
        reach.expand(&tiles, batch, &forwards, &mut level, &mut received);
        let heard: Vec<NodeId> = (0..tiles.n)
            .filter(|&i| received[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect();
        assert_eq!(heard, grid.topology().neighbors(node), "({r}, {c})");
        reach.tiles_visited
    }

    /// A batch visits its senders' tiles, and a neighbor grid tile only
    /// when a sender sits on the edge facing it.
    #[test]
    fn a_batch_visits_the_tiles_its_senders_edges_face() {
        // 24 = 3×3 full tiles; 20 = 3×3 tiles whose last row and column
        // hold 4 nodes.
        let cases = [
            // Strictly inside a tile: its own tile.
            (24, 11, 12, 1),
            (20, 19, 19, 1),
            // On one edge row or column: and the tile it faces.
            (24, 8, 12, 2),
            (24, 15, 12, 2),
            (24, 11, 8, 2),
            (24, 11, 15, 2),
            (20, 7, 18, 2),
            // On a tile corner: and the two tiles its edges face.
            (24, 8, 8, 3),
            (24, 8, 15, 3),
            (24, 15, 8, 3),
            (24, 15, 15, 3),
            (20, 16, 16, 3),
            // An edge facing the border visits no border tile.
            (24, 0, 0, 1),
            (24, 0, 12, 1),
            (24, 0, 7, 2),
            (24, 23, 23, 1),
            (20, 16, 0, 2),
            (1, 0, 0, 1),
        ];
        for (side, r, c, visited) in cases {
            assert_eq!(
                tiles_visited_by_lone_sender(side, r, c),
                visited,
                "side {side}, sender ({r}, {c})"
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
