//! The discrete-event loop composing app, PBBF, PSM, CSMA, radio, channel.
//!
//! # The active-set event loop
//!
//! PSM gives every node two pieces of per-beacon bookkeeping: wake for
//! the ATIM window at each frame start, and run the Figure-3 sleep
//! decision at each window end. The original runner walked all `n` nodes
//! in both handlers — O(n) per beacon interval even when the network was
//! asleep and idle, which made the event loop (not the channel) the
//! bottleneck of sparse low-duty-cycle scenarios.
//!
//! This runner is O(active) per beacon instead:
//!
//! * **Active sets** ([`ActiveSet`]) track the nodes each boundary
//!   handler must process eagerly — at frame starts the nodes with an
//!   announce to contend (`MacState::pending_work().frame_start`), at
//!   window ends the nodes with pending data sends to schedule
//!   (`.window_end`). Membership is refreshed at every MAC transition
//!   point (`source_update`, `receive_data`, `mark_*_sent`,
//!   `begin_frame`, `announce_now`). Handlers sweep members in ascending
//!   node order so events enter the queue exactly as the full walk
//!   inserted them (FIFO tie-breaking preserved).
//! * **Lazy boundary settling** covers everyone else: each node carries
//!   a cursor of boundaries already applied (`NodeRt::applied`), and
//!   [`Runner::settle`] brings it up to date whenever the node is next
//!   touched (a delivery, a generated update, or `into_stats`). *How*
//!   the missed boundaries are settled is the
//!   [`BoundaryEngine`](crate::BoundaryEngine) choice:
//!
//!   - [`Lazy`](crate::BoundaryEngine::Lazy) (default) does two things.
//!
//!     **Geometric skip per node.** The skipped
//!     `(frame start, window end)` pairs are settled in closed form. The
//!     length of each run of "sleep" decisions is drawn directly from a
//!     geometric distribution (`MacState::skip_boundaries`, one RNG draw
//!     per run instead of one Bernoulli per boundary) and the run's
//!     energy is credited in O(1) (`EnergyMeter::accrue_batch` +
//!     `jump_to_secs`): per skipped frame, one ATIM window of idle plus
//!     one data phase of idle or sleep. A node asleep through a hundred
//!     beacon intervals costs a handful of arithmetic operations. This
//!     relaxes the per-node RNG stream *layout* (values for a fixed seed
//!     move relative to `Dense`), but the per-boundary decisions keep
//!     exactly the Figure-3 distribution — `tests/boundary_equivalence.rs`
//!     pins the two engines together statistically, and the `q = 0` /
//!     `q = 1` endpoints stay exact.
//!
//!     **Quiescent-frame jump for the global loop.** Even with every
//!     node settled lazily, the loop would still pop one `FrameStart`
//!     and one `WindowEnd` event per beacon interval — pure bookkeeping
//!     when no flood is in flight. A frame start that finds the network
//!     **globally quiescent** (both boundary active sets empty, no
//!     ATIM/data/`TxEnd` event pending — an O(1) check against live
//!     counters) fast-forwards the boundary bookkeeping over every whole
//!     frame before the next traffic arrival (the generation schedule is
//!     mirrored in [`Runner::next_gen`]) and reschedules the frame start
//!     there ([`Runner::try_skip_frames`]). The skipped events were
//!     provably no-ops — empty sweeps over empty sets, no node touched,
//!     no randomness drawn — so the jump changes where the loop spends
//!     its time, never what it computes: cost becomes O(traffic) instead
//!     of O(sim-time × nodes) in the λ → 0 regime the paper's
//!     energy-latency frontier lives in. The quiescent rows of
//!     `tests/run_active_vs_seed.rs` pin this (their lazy goldens were
//!     captured from a loop that walked every frame).
//!
//!   - [`Dense`](crate::BoundaryEngine::Dense) — exact per-boundary
//!     replay at original timestamps, consuming the node's RNG
//!     substreams in the original order, with every frame walked:
//!     bit-for-bit identical to the deleted per-node walk
//!     (`tests/run_active_vs_seed.rs` pins that against fingerprints
//!     captured from it). The reference oracle for tests and benches.
//!
//!   Boundaries a batch cannot see uniformly — a leading window end
//!   whose sleep decision may hinge on an ATIM heard this window, or a
//!   trailing frame start — are replayed exactly on both engines.
//!
//! Adaptive mode keeps a full walk: closing every node's controller
//! window (and tracing mean parameters) at each beacon is inherently
//! O(n), and its per-window `q` changes feed the sleep coin.
//!
//! # One step per boundary
//!
//! Whichever path applies a boundary — the eager active-set sweep, the
//! adaptive walk, or the replay of a lazily settled node — it goes
//! through [`open_window`] (wake, begin the MAC frame) or
//! [`close_window`] (Figure-3 coin, sleep). The paths differ only in
//! which nodes they visit and how they name the instant. Whether a
//! radio is awake is kept only in the node's [`EnergyMeter`].

use std::sync::Arc;

use pbbf_core::adaptive::AdaptiveController;
use pbbf_core::ForwardDecision;
use pbbf_des::{EventQueue, SimDuration, SimRng, SimTime};
use pbbf_mac::{BackoffPolicy, DataIntent, MacState, PsmTiming};
use pbbf_radio::{
    BruteChannel, Channel, CollisionChannel, Delivery, EnergyMeter, Frame, FrameKind, RadioState,
};
use pbbf_topology::{NodeId, RandomDeployment};

use crate::{ActiveSet, BoundaryEngine, CachedDeployment, NetConfig, NetMode, NetRunStats};

/// The realistic simulator: construct once, [`NetSim::run`] per seed.
///
/// Every run draws a fresh connected random deployment, a fresh random
/// source node, and fresh protocol randomness — all deterministically from
/// the seed, matching the paper's "each data point is averaged over ten
/// runs" methodology (each run is a new scenario).
#[derive(Debug, Clone)]
pub struct NetSim {
    config: NetConfig,
    mode: NetMode,
}

impl NetSim {
    /// Creates a simulator for the given scenario and protocol mode.
    #[must_use]
    pub fn new(config: NetConfig, mode: NetMode) -> Self {
        Self { config, mode }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The protocol mode.
    #[must_use]
    pub fn mode(&self) -> NetMode {
        self.mode
    }

    /// Draws the deployment and source node that [`NetSim::run`] would
    /// use for `seed` — the unit of work the
    /// [`DeploymentCache`](crate::DeploymentCache) stores and shares
    /// across protocol modes.
    ///
    /// # Errors
    ///
    /// Fails if no connected deployment can be drawn within
    /// `cfg.max_deploy_attempts` (raise Δ or the attempt budget).
    pub fn try_draw_deployment(cfg: &NetConfig, seed: u64) -> Result<CachedDeployment, String> {
        let root = SimRng::new(seed);
        let mut deploy_rng = root.substream(0);
        let deployment = RandomDeployment::connected_with_density(
            cfg.nodes,
            cfg.range_m,
            cfg.delta,
            cfg.max_deploy_attempts,
            &mut deploy_rng,
        )
        .ok_or_else(|| {
            format!(
                "no connected deployment of {} nodes at delta {} in {} attempts; \
                 raise delta or attempts",
                cfg.nodes, cfg.delta, cfg.max_deploy_attempts
            )
        })?;
        let mut source_rng = root.substream(1);
        let source = NodeId(source_rng.below(cfg.nodes as u64) as u32);
        Ok(CachedDeployment {
            topology: Arc::new(deployment.into_topology()),
            source,
        })
    }

    /// [`NetSim::try_draw_deployment`] for configurations known to be
    /// drawable.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment can be drawn within
    /// `cfg.max_deploy_attempts` (raise Δ or the attempt budget).
    #[must_use]
    pub fn draw_deployment(cfg: &NetConfig, seed: u64) -> CachedDeployment {
        Self::try_draw_deployment(cfg, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes one fully deterministic run.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment can be drawn within
    /// `config.max_deploy_attempts` (raise Δ or the attempt budget).
    #[must_use]
    pub fn run(&self, seed: u64) -> NetRunStats {
        self.run_with(seed, Channel::new)
    }

    /// [`NetSim::run`] over the reference [`BruteChannel`] instead of the
    /// incremental engine. Kept for the channel-equivalence tests and the
    /// baseline benches — results must be identical to [`NetSim::run`]
    /// for every seed.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment can be drawn within
    /// `config.max_deploy_attempts` (raise Δ or the attempt budget).
    #[must_use]
    pub fn run_brute(&self, seed: u64) -> NetRunStats {
        self.run_with(seed, BruteChannel::new)
    }

    /// Executes one run on an already-drawn scenario (typically from a
    /// [`DeploymentCache`](crate::DeploymentCache)), with protocol
    /// randomness from `seed`.
    ///
    /// `run_on(seed, &NetSim::draw_deployment(cfg, seed))` is bitwise
    /// identical to `run(seed)`: the deployment draw and the per-node
    /// protocol substreams are independent streams of the same root.
    ///
    /// The scenario's topology is *shared* into the run's channel (an
    /// [`Arc`] clone), never copied — every `(mode, run)` job of a sweep
    /// executes over the same adjacency allocation across threads.
    #[must_use]
    pub fn run_on(&self, seed: u64, deployment: &CachedDeployment) -> NetRunStats {
        self.run_core(
            seed,
            Arc::clone(&deployment.topology),
            deployment.source,
            Channel::new,
        )
    }

    fn run_with<C: CollisionChannel>(
        &self,
        seed: u64,
        channel: impl FnOnce(Arc<pbbf_topology::Topology>) -> C,
    ) -> NetRunStats {
        let drawn = Self::draw_deployment(&self.config, seed);
        self.run_core(seed, drawn.topology, drawn.source, channel)
    }

    fn run_core<C: CollisionChannel>(
        &self,
        seed: u64,
        topology: Arc<pbbf_topology::Topology>,
        source: NodeId,
        channel: impl FnOnce(Arc<pbbf_topology::Topology>) -> C,
    ) -> NetRunStats {
        let root = SimRng::new(seed);
        let mut runner = Runner::new(&self.config, self.mode, channel(topology), source, &root);
        runner.prime();
        runner.drain();
        runner.into_stats()
    }
}

#[derive(Debug)]
enum Ev {
    FrameStart,
    WindowEnd,
    GenUpdate,
    AtimAttempt(u32),
    DataAttempt(u32, DataIntent),
    TxEnd(u32),
}

#[derive(Debug)]
struct NodeRt {
    mac: MacState,
    /// Energy accounting, and the one record of whether the radio is
    /// awake ([`EnergyMeter::is_awake`]): every wake and sleep is a
    /// meter transition.
    meter: EnergyMeter,
    awake_since: SimTime,
    rng: SimRng,
    atim_scheduled: bool,
    normal_scheduled: bool,
    immediate_scheduled: bool,
    /// Lazy-replay cursor: boundaries applied to this node so far
    /// (eagerly or by [`Runner::settle`]). Boundaries alternate — frame
    /// start of beacon `f` is number `2f`, its window end `2f + 1` — so
    /// one counter encodes the position and `applied >= fired` is the
    /// settled check.
    applied: u32,
    /// Present only in [`NetMode::Adaptive`]: the Section-6 controller
    /// plus last-window snapshots of its loss-signal inputs. Boxed so
    /// the ~100-byte controller does not bloat every node of the static
    /// modes — `NodeRt` size is what the delivery loops stream through
    /// cache.
    adapt: Option<Box<AdaptiveController>>,
    holes_snapshot: u64,
    known_snapshot: u64,
}

/// The frame-start boundary of beacon interval `frame` for one node:
/// wake it if asleep, at the instant `at` yields (as a time and in
/// seconds), then begin its MAC frame. Returns whether the node wants
/// to contend for an ATIM. `at` is a closure so the replay converts an
/// instant only when the node really wakes.
#[inline(always)]
fn open_window(node: &mut NodeRt, frame: u32, at: impl FnOnce() -> (SimTime, f64)) -> bool {
    node.applied = 2 * frame + 1;
    if !node.meter.is_awake() {
        let (t, secs) = at();
        node.meter.set_state_secs(secs, RadioState::Idle);
        node.awake_since = t;
    }
    node.mac.begin_frame()
}

/// The window-end boundary of beacon interval `frame` for one node:
/// flip the Figure-3 coin, and sleep at the instant `at` yields (in
/// seconds) when it says sleep, the radio is awake and `transmitting()`
/// is false — a node never sleeps mid-transmission.
#[inline(always)]
fn close_window(
    node: &mut NodeRt,
    frame: u32,
    transmitting: impl FnOnce() -> bool,
    at: impl FnOnce() -> f64,
) {
    node.applied = 2 * frame + 2;
    if !node.mac.sleep_decision() && node.meter.is_awake() && !transmitting() {
        node.meter.set_state_secs(at(), RadioState::Sleep);
    }
}

struct Runner<C: CollisionChannel> {
    psm: bool,
    /// The active-set fast path: boundary handlers sweep only active
    /// nodes and everyone else is settled lazily. Off for always-on (no
    /// beacon structure at all) and adaptive mode (every beacon closes
    /// every node's observation window, an inherently dense walk).
    lazy: bool,
    /// Exact per-boundary replay with every frame walked, instead of
    /// geometric-skip batching and quiescent-frame jumps — the
    /// [`BoundaryEngine::Dense`] choice (configured, or forced by the
    /// `PBBF_DENSE_BOUNDARIES` override). Only the lazy path settles
    /// nodes, so this is off whenever `lazy` is.
    dense_boundaries: bool,
    /// Pending ATIM/data/`TxEnd` events in the queue — the traffic half
    /// of the quiescence check. Maintained by
    /// [`Runner::sched_traffic`] and the drain loop.
    traffic_events: u32,
    /// The scheduled time of the next `GenUpdate` event, mirrored so
    /// the quiescent-frame jump knows where the next traffic arrival lands
    /// without searching the queue.
    next_gen: Option<SimTime>,
    /// ATIM-window length in seconds — the per-frame idle stint every
    /// settled boundary pair credits.
    aw_secs: f64,
    /// Data-phase length (beacon interval minus ATIM window) in seconds
    /// — the per-frame stint credited idle or sleep by the coin.
    data_secs: f64,
    k: usize,
    timing: PsmTiming,
    backoff: BackoffPolicy,
    data_air: SimDuration,
    atim_air: SimDuration,
    update_period: SimDuration,
    duration: SimTime,
    channel: C,
    nodes: Vec<NodeRt>,
    queue: EventQueue<Ev>,
    source: NodeId,
    /// Boundary events already fired (same numbering as
    /// `NodeRt::applied`) — the target lazy nodes settle to. Adaptive
    /// mode keeps it too: its walks step every node at every boundary,
    /// so each node's cursor stays equal to it and settling is a no-op.
    fired: u32,
    /// Nodes the frame-start handler must process (pending announces).
    frame_set: ActiveSet,
    /// Nodes the window-end handler must process (pending data sends).
    window_set: ActiveSet,
    /// Scratch for sorted active-set sweeps.
    sweep: Vec<u32>,
    /// Boundary timestamps in seconds, one entry per fired frame
    /// (`frame_secs[f]` = start of frame `f`, `window_secs[f]` = its
    /// window end), appended by the frame-start handler **under the
    /// dense engine only**. Dense settling replays the same `set_state`
    /// instants for thousands of nodes; converting each boundary to
    /// seconds once — instead of dividing nanoseconds per node per
    /// boundary — keeps the replay loop in integer/flag work. The lazy
    /// engine touches only O(1) boundaries per settle, so it leaves
    /// these empty and converts on demand — bit-identical values
    /// (boundaries are exact integer-nanosecond multiples, converted
    /// with the same division).
    frame_secs: Vec<f64>,
    window_secs: Vec<f64>,
    gen_times: Vec<SimTime>,
    receptions: Vec<Vec<Option<SimTime>>>,
    /// Reused per-`end_tx` delivery buffer: the channel writes into it so
    /// the steady-state event loop makes no delivery allocations.
    deliveries: Vec<Delivery>,
    data_tx: u64,
    atim_tx: u64,
    immediate_tx: u64,
    collisions: u64,
    /// Mean `(p, q)` across nodes at each beacon interval (adaptive mode).
    adaptive_trace: Vec<(f64, f64)>,
}

impl<C: CollisionChannel> Runner<C> {
    fn new(cfg: &NetConfig, mode: NetMode, channel: C, source: NodeId, root: &SimRng) -> Self {
        let params = match mode {
            NetMode::AlwaysOn => pbbf_core::PbbfParams::ALWAYS_ON,
            NetMode::SleepScheduled(p) => p,
            NetMode::Adaptive(a) => a.initial,
        };
        let nodes: Vec<NodeRt> = (0..cfg.nodes)
            .map(|i| NodeRt {
                mac: MacState::new(params, root.substream(1000 + i as u64)),
                meter: EnergyMeter::new(cfg.power),
                awake_since: SimTime::ZERO,
                rng: root.substream(2000 + i as u64),
                atim_scheduled: false,
                normal_scheduled: false,
                immediate_scheduled: false,
                applied: 0,
                adapt: match mode {
                    NetMode::Adaptive(a) => Some(Box::new(AdaptiveController::new(a))),
                    _ => None,
                },
                holes_snapshot: 0,
                known_snapshot: 0,
            })
            .collect();
        let phy = cfg.phy;
        // One row per generated update lands in `gen_times`/`receptions`;
        // pre-size them so the steady-state loop never reallocates.
        let expected_updates = cfg.expected_updates() as usize;
        // Degree ≈ Δ bounds the per-`end_tx` delivery count.
        let expected_degree = cfg.delta.ceil() as usize + 1;
        let psm = !matches!(mode, NetMode::AlwaysOn);
        let lazy = matches!(mode, NetMode::SleepScheduled(_));
        let timing = PsmTiming::new(
            SimDuration::from_secs(cfg.beacon_interval_secs),
            SimDuration::from_secs(cfg.atim_window_secs),
        );
        Self {
            psm,
            lazy,
            dense_boundaries: lazy && cfg.boundary_engine.effective() == BoundaryEngine::Dense,
            traffic_events: 0,
            next_gen: None,
            aw_secs: timing.atim_window().as_secs(),
            data_secs: (timing.beacon_interval() - timing.atim_window()).as_secs(),
            k: cfg.k,
            timing,
            backoff: BackoffPolicy::mica2(),
            data_air: phy.airtime(phy.data_bytes),
            atim_air: phy.airtime(phy.atim_bytes),
            update_period: SimDuration::from_secs(1.0 / cfg.lambda),
            duration: SimTime::from_secs(cfg.duration_secs),
            channel,
            queue: EventQueue::new(),
            source,
            fired: 0,
            frame_set: ActiveSet::new(nodes.len()),
            window_set: ActiveSet::new(nodes.len()),
            sweep: Vec::new(),
            frame_secs: Vec::new(),
            window_secs: Vec::new(),
            nodes,
            gen_times: Vec::with_capacity(expected_updates),
            receptions: Vec::with_capacity(expected_updates),
            deliveries: Vec::with_capacity(expected_degree),
            data_tx: 0,
            atim_tx: 0,
            immediate_tx: 0,
            collisions: 0,
            adaptive_trace: Vec::new(),
        }
    }

    fn prime(&mut self) {
        if self.psm {
            self.queue.schedule(SimTime::ZERO, Ev::FrameStart);
        }
        let first_update = SimTime::ZERO + self.timing.atim_window() / 2;
        if first_update <= self.duration {
            self.next_gen = Some(first_update);
            self.queue.schedule(first_update, Ev::GenUpdate);
        }
    }

    fn drain(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            if now > self.duration {
                break;
            }
            match ev {
                Ev::FrameStart => self.on_frame_start(now),
                Ev::WindowEnd => self.on_window_end(now),
                Ev::GenUpdate => self.on_gen_update(now),
                Ev::AtimAttempt(i) => {
                    self.traffic_events -= 1;
                    self.on_atim_attempt(now, i as usize);
                }
                Ev::DataAttempt(i, intent) => {
                    self.traffic_events -= 1;
                    self.on_data_attempt(now, i as usize, intent);
                }
                Ev::TxEnd(i) => {
                    self.traffic_events -= 1;
                    self.on_tx_end(now, i as usize);
                }
            }
        }
    }

    /// Schedules a traffic event (ATIM/data attempt or `TxEnd`), keeping
    /// the quiescence counter in sync with the queue. Every
    /// traffic schedule site must go through here; the drain loop
    /// decrements on pop.
    #[inline]
    fn sched_traffic(&mut self, at: SimTime, ev: Ev) {
        self.traffic_events += 1;
        self.queue.schedule(at, ev);
    }

    /// The quiescent-frame jump of [`BoundaryEngine::Lazy`], tried at the
    /// top of every lazy-engine frame start. When the network is globally
    /// quiescent — both boundary active sets empty and no traffic event
    /// pending, an O(1) check — every whole frame before the next
    /// generated update is pure bookkeeping: its frame-start and
    /// window-end handlers would sweep empty sets, touch no node, and
    /// draw no randomness. This settles that bookkeeping wholesale (the
    /// global `fired` cursor) and reschedules the frame start at the
    /// first frame that can carry traffic, leaving per-node settling
    /// exactly as lazy as a frame-by-frame walk would have left it.
    ///
    /// Returns whether the jump was taken (the caller's frame-start work
    /// is then subsumed). The rescheduled frame start is a fresh event,
    /// not a fall-through: a `GenUpdate` landing exactly on the target
    /// boundary was scheduled earlier and must pop first, exactly as it
    /// would have against the serially-scheduled frame start.
    fn try_skip_frames(&mut self, now: SimTime) -> bool {
        if self.traffic_events != 0 || !self.frame_set.is_empty() || !self.window_set.is_empty() {
            return false;
        }
        let f = self.fired / 2;
        debug_assert_eq!(now, self.timing.frame_time(u64::from(f)));
        let beacon_nanos = self.timing.beacon_interval().as_nanos();
        let last_frame = (self.duration.as_nanos() / beacon_nanos) as u32;
        let target = match self.next_gen {
            Some(t) => ((t.as_nanos() / beacon_nanos) as u32).min(last_frame),
            None => last_frame,
        };
        if target <= f {
            return false;
        }
        // O(1): no per-skipped-frame work at all. The boundary-seconds
        // tables are a dense-engine cache (see their field docs), so the
        // jump is just the cursor advance and the rescheduled frame
        // start — later settles convert the skipped boundaries to
        // seconds on demand, bit-identically.
        self.fired = 2 * target;
        self.queue
            .schedule(self.timing.frame_time(u64::from(target)), Ev::FrameStart);
        true
    }

    /// Re-derives node `i`'s active-set membership from its MAC flags.
    /// Called at every transition point that can change pending work.
    #[inline]
    fn refresh_sets(&mut self, i: usize) {
        if !self.lazy {
            return;
        }
        let work = self.nodes[i].mac.pending_work();
        self.frame_set.set(i, work.frame_start);
        self.window_set.set(i, work.window_end);
    }

    /// Brings node `i` up to the boundaries whose events have already
    /// fired, replaying wake/sleep transitions at their original
    /// timestamps and RNG draws in their original order. O(1) when the
    /// node is already settled; every path that touches a node (a
    /// delivery, a generated update, an attempt, `into_stats`) settles it
    /// first.
    ///
    /// This is the hot loop of sparse scenarios — a node asleep for a
    /// hundred beacon intervals pays for all of them here, in one pass
    /// over cursor-indexed locals — so it works on a single borrow of
    /// the node and hands [`open_window`]/[`close_window`] closures
    /// that convert an instant to seconds only when a transition
    /// happens.
    #[inline]
    fn settle(&mut self, i: usize) {
        if self.nodes[i].applied < self.fired {
            self.settle_replay(i);
        }
    }

    /// The out-of-line settle body of [`Runner::settle`] — kept cold so
    /// the settled-already fast path (every delivery in a busy network)
    /// stays a two-compare inline check. Dispatches on the configured
    /// [`BoundaryEngine`].
    fn settle_replay(&mut self, i: usize) {
        debug_assert!(self.lazy, "only the lazy path leaves nodes unsettled");
        // An unsettled node has had no events since before the boundaries
        // being replayed, so it cannot be mid-transmission.
        debug_assert!(
            !self.channel.is_transmitting(NodeId(i as u32)),
            "untouched node {i} cannot be mid-transmission"
        );
        if self.dense_boundaries {
            self.settle_dense(i, self.fired);
        } else {
            self.settle_geometric(i);
        }
    }

    /// Exact per-boundary replay of node `i` up to boundary `target`:
    /// wake/sleep transitions at their original timestamps, RNG draws in
    /// their original order — bit-identical to the deleted per-node
    /// walk. The whole settle under [`BoundaryEngine::Dense`]; the
    /// single-boundary edges of a batch under [`BoundaryEngine::Lazy`].
    fn settle_dense(&mut self, i: usize, target: u32) {
        let beacon_nanos = self.timing.beacon_interval().as_nanos();
        let atim_nanos = self.timing.atim_window().as_nanos();
        // The tables are filled only under the dense engine; the lazy
        // engine replays at most one boundary per edge here, so the
        // on-demand conversion (bit-identical: exact integer-nanosecond
        // boundaries through the same division) costs nothing that
        // matters.
        let dense = self.dense_boundaries;
        let (frame_secs, window_secs) = (&self.frame_secs, &self.window_secs);
        let node = &mut self.nodes[i];
        while node.applied < target {
            let frame = node.applied >> 1;
            if node.applied & 1 == 0 {
                let wants = open_window(node, frame, || {
                    let t = SimTime::from_nanos(u64::from(frame) * beacon_nanos);
                    let secs = if dense {
                        frame_secs[frame as usize]
                    } else {
                        t.as_secs()
                    };
                    (t, secs)
                });
                debug_assert!(
                    !wants,
                    "node {i} with announce work must be in the frame-start active set"
                );
            } else {
                // An untouched node cannot be mid-transmission.
                close_window(
                    node,
                    frame,
                    || false,
                    || {
                        if dense {
                            window_secs[frame as usize]
                        } else {
                            SimTime::from_nanos(u64::from(frame) * beacon_nanos + atim_nanos)
                                .as_secs()
                        }
                    },
                );
            }
        }
    }

    /// Geometric-skip settling of node `i` up to [`Runner::fired`]: the
    /// interior `(frame start, window end)` pairs are jumped over in
    /// closed form; only the batch's ragged edges replay exactly.
    fn settle_geometric(&mut self, i: usize) {
        let fired = self.fired;
        // A leading window end sees state the batch cannot assume away —
        // an ATIM heard in that window keeps the node awake
        // deterministically — so it replays exactly.
        if self.nodes[i].applied & 1 == 1 {
            self.settle_dense(i, (self.nodes[i].applied + 1).min(fired));
        }
        let pairs = (fired - self.nodes[i].applied) / 2;
        if pairs > 0 {
            self.settle_pairs_batched(i, pairs);
        }
        // A trailing frame start (the node is being touched inside an
        // ATIM window) is a lone wake: replay exactly.
        if self.nodes[i].applied < fired {
            self.settle_dense(i, fired);
        }
    }

    /// The closed-form core: settles `pairs` consecutive
    /// `(frame start, window end)` boundary pairs of idle node `i` with
    /// one [`MacState::skip_boundaries`] batch (geometric run-length
    /// draws) and O(1) energy accounting, instead of `2 × pairs`
    /// replayed steps.
    ///
    /// Per skipped frame the node is awake for the ATIM window
    /// (`aw_secs` idle) and then idle or asleep for the data phase
    /// (`data_secs`) by that window end's coin; the last pair's data
    /// phase lies *beyond* the settled span, so its coin only fixes the
    /// state the node leaves in.
    fn settle_pairs_batched(&mut self, i: usize, pairs: u32) {
        let g0 = self.nodes[i].applied / 2;
        // Only the lazy engine batches, and it leaves the
        // boundary-seconds tables empty: convert the two touched
        // boundaries on demand (bit-identical to the dense engine's
        // table entries).
        let g0_secs = self.timing.frame_time(u64::from(g0)).as_secs();
        let node = &mut self.nodes[i];
        debug_assert_eq!(node.applied & 1, 0, "batch must start at a frame start");
        // Frame start `g0`: the node is awake for the ATIM window
        // whatever state it entered in. A real transition (not a jump):
        // it also closes the books on the stretch since the node's last
        // transition, in whatever state that stretch was spent.
        if !node.meter.is_awake() {
            node.awake_since = self.timing.frame_time(u64::from(g0));
        }
        node.meter.set_state_secs(g0_secs, RadioState::Idle);
        let summary = node.mac.skip_boundaries(pairs);
        let stays_inside = summary.stays_before_last(pairs);
        let sleeps_inside = pairs - 1 - stays_inside;
        node.meter
            .accrue_batch(RadioState::Idle, u64::from(pairs), self.aw_secs);
        node.meter
            .accrue_batch(RadioState::Idle, u64::from(stays_inside), self.data_secs);
        node.meter
            .accrue_batch(RadioState::Sleep, u64::from(sleeps_inside), self.data_secs);
        let last = g0 + pairs - 1;
        let ends_awake = summary.ends_awake(pairs);
        let last_window_secs =
            (self.timing.frame_time(u64::from(last)) + self.timing.atim_window()).as_secs();
        node.meter.jump_to_secs(
            last_window_secs,
            if ends_awake {
                RadioState::Idle
            } else {
                RadioState::Sleep
            },
        );
        if ends_awake {
            if let Some(j) = summary.last_sleep {
                // Slept last at window end `g0 + j`, so it has been
                // awake since the following frame start.
                node.awake_since = self.timing.frame_time(u64::from(g0 + j + 1));
            }
            // No sleeps at all: awake since before the batch (or since
            // the wake at `g0` above).
        }
        node.applied = 2 * (g0 + pairs);
    }

    /// The nodes a boundary handler visits, in ascending order: the
    /// members of that boundary's active set on the lazy path, every
    /// node in adaptive mode (each beacon closes every node's
    /// controller window, an inherently dense walk).
    fn take_sweep(&mut self, window_end: bool) -> Vec<u32> {
        let mut sweep = std::mem::take(&mut self.sweep);
        if !self.lazy {
            sweep.clear();
            sweep.extend(0..self.nodes.len() as u32);
        } else if window_end {
            self.window_set.sweep(&mut sweep);
        } else {
            self.frame_set.sweep(&mut sweep);
        }
        sweep
    }

    fn on_frame_start(&mut self, now: SimTime) {
        if self.lazy && !self.dense_boundaries && self.try_skip_frames(now) {
            return;
        }
        let frame = self.fired / 2;
        if self.dense_boundaries {
            // The lazy engine converts on demand instead (see the
            // `frame_secs` field docs) — its tables stay empty, which is
            // also what lets `try_skip_frames` jump in O(1).
            debug_assert_eq!(self.frame_secs.len(), frame as usize);
            self.frame_secs.push(now.as_secs());
            self.window_secs
                .push((now + self.timing.atim_window()).as_secs());
        }
        let (mut p_sum, mut q_sum) = (0.0, 0.0);
        let sweep = self.take_sweep(false);
        for &i in &sweep {
            let i = i as usize;
            self.settle(i);
            let node = &mut self.nodes[i];
            let wants = open_window(node, frame, || (now, now.as_secs()));
            if let Some(ctl) = &mut node.adapt {
                let holes = node.mac.sequence_holes();
                let known = node.mac.known_updates().len() as u64;
                let missed = holes.saturating_sub(node.holes_snapshot);
                let received = known.saturating_sub(node.known_snapshot);
                node.holes_snapshot = holes;
                node.known_snapshot = known;
                ctl.observe_updates(received, missed);
                let params = ctl.end_window();
                node.mac.set_params(params);
                p_sum += params.p();
                q_sum += params.q();
            }
            if wants && !node.atim_scheduled {
                node.atim_scheduled = true;
                let at = self.backoff.next_atim_attempt(now, &mut node.rng);
                self.sched_traffic(at, Ev::AtimAttempt(i as u32));
            }
            if self.lazy {
                // Every member has announce work (membership is
                // refreshed at each transition), so `begin_frame` left
                // it with a pending normal send: it stays in this set
                // and now needs window-end processing too.
                debug_assert!(wants, "frame-set member {i} had nothing to announce");
                self.window_set.set(i, true);
            }
        }
        self.sweep = sweep;
        self.fired = 2 * frame + 1;
        if !self.lazy {
            let n = self.nodes.len() as f64;
            self.adaptive_trace.push((p_sum / n, q_sum / n));
        }
        self.queue
            .schedule(now + self.timing.atim_window(), Ev::WindowEnd);
        let next = now + self.timing.beacon_interval();
        if next <= self.duration {
            self.queue.schedule(next, Ev::FrameStart);
        }
    }

    fn on_window_end(&mut self, now: SimTime) {
        let frame = self.fired / 2;
        let sweep = self.take_sweep(true);
        for &i in &sweep {
            let i = i as usize;
            self.settle(i);
            let channel = &self.channel;
            close_window(
                &mut self.nodes[i],
                frame,
                || channel.is_transmitting(NodeId(i as u32)),
                || now.as_secs(),
            );
            self.schedule_window_attempts(now, i);
        }
        self.sweep = sweep;
        self.fired = 2 * frame + 2;
    }

    /// The window-end contention kickoff: schedules the data-phase
    /// attempts for node `i`'s pending sends.
    #[inline]
    fn schedule_window_attempts(&mut self, now: SimTime, i: usize) {
        let node = &mut self.nodes[i];
        if node.mac.has_pending_normal() && !node.normal_scheduled {
            node.normal_scheduled = true;
            let at = self.backoff.next_data_attempt(now, &mut node.rng);
            self.sched_traffic(at, Ev::DataAttempt(i as u32, DataIntent::Normal));
        }
        let node = &mut self.nodes[i];
        if node.mac.has_pending_immediate() && !node.immediate_scheduled {
            node.immediate_scheduled = true;
            let at = self.backoff.next_data_attempt(now, &mut node.rng);
            self.sched_traffic(at, Ev::DataAttempt(i as u32, DataIntent::Immediate));
        }
    }

    fn on_gen_update(&mut self, now: SimTime) {
        let i = self.source.index();
        self.settle(i);
        let id = self.gen_times.len() as u64;
        self.gen_times.push(now);
        let mut row = vec![None; self.nodes.len()];
        row[i] = Some(now);
        self.receptions.push(row);

        let decision = self.nodes[i].mac.source_update(id);
        if self.psm {
            match decision {
                ForwardDecision::EnqueueForNextActiveWindow => {
                    // The paper's source announces in the window the update
                    // arrives in.
                    if self.timing.in_atim_window(now) {
                        self.nodes[i].mac.announce_now();
                        if !self.nodes[i].atim_scheduled {
                            self.nodes[i].atim_scheduled = true;
                            let at = self.backoff.next_atim_attempt(now, &mut self.nodes[i].rng);
                            self.sched_traffic(at, Ev::AtimAttempt(i as u32));
                        }
                    }
                }
                ForwardDecision::SendImmediately => {
                    self.schedule_immediate_attempt(now, i);
                }
            }
        } else {
            self.schedule_immediate_attempt(now, i);
        }
        self.refresh_sets(i);

        let next = now + self.update_period;
        if next <= self.duration {
            self.next_gen = Some(next);
            self.queue.schedule(next, Ev::GenUpdate);
        } else {
            self.next_gen = None;
        }
    }

    /// Schedules an immediate-data attempt respecting the no-data-in-window
    /// rule.
    fn schedule_immediate_attempt(&mut self, now: SimTime, i: usize) {
        if self.nodes[i].immediate_scheduled || !self.nodes[i].mac.has_pending_immediate() {
            return;
        }
        self.nodes[i].immediate_scheduled = true;
        let from = if self.psm {
            self.timing.earliest_data_time(now)
        } else {
            now
        };
        let at = self.backoff.next_data_attempt(from, &mut self.nodes[i].rng);
        self.sched_traffic(at, Ev::DataAttempt(i as u32, DataIntent::Immediate));
    }

    fn on_atim_attempt(&mut self, now: SimTime, i: usize) {
        let id = NodeId(i as u32);
        if !self.nodes[i].mac.has_pending_normal() {
            self.nodes[i].atim_scheduled = false;
            return;
        }
        let window_end = self.timing.window_end(now);
        if !self.timing.in_atim_window(now) || now + self.atim_air > window_end {
            // Too late to announce this window; the data still goes out in
            // the data phase (unannounced), and `begin_frame` re-announces
            // next interval if it remains unsent.
            self.nodes[i].atim_scheduled = false;
            return;
        }
        if self.channel.is_transmitting(id) || self.channel.carrier_busy(id) {
            let at = self.backoff.next_atim_attempt(now, &mut self.nodes[i].rng);
            if at + self.atim_air <= window_end {
                self.sched_traffic(at, Ev::AtimAttempt(i as u32));
            } else {
                self.nodes[i].atim_scheduled = false;
            }
            return;
        }
        self.nodes[i].atim_scheduled = false;
        // Announce work keeps a node in the frame-start set, so it was
        // settled when this frame began (the meter transition below needs
        // that).
        debug_assert!(
            self.nodes[i].applied >= self.fired,
            "ATIM transmit on unsettled node {id}"
        );
        let contents = self.nodes[i].mac.packet_contents(self.k);
        let end = self
            .channel
            .begin_tx(now, Frame::atim(id, contents), self.atim_air);
        self.nodes[i].meter.set_state(now, RadioState::Transmit);
        self.sched_traffic(end, Ev::TxEnd(i as u32));
    }

    fn on_data_attempt(&mut self, now: SimTime, i: usize, intent: DataIntent) {
        let id = NodeId(i as u32);
        let pending = match intent {
            DataIntent::Normal => self.nodes[i].mac.has_pending_normal(),
            DataIntent::Immediate => self.nodes[i].mac.has_pending_immediate(),
        };
        if !pending {
            self.clear_guard(i, intent);
            return;
        }
        // No settle here: a pending-immediate node's attempt can fire
        // inside the next ATIM window before its frame start was applied
        // (it is not in the frame-start set), but that path only
        // reschedules — node state the boundary affects is not read, and
        // the transmit path below asserts settledness.
        debug_assert!(
            self.nodes[i].meter.is_awake(),
            "pending data must keep {id} awake"
        );

        // Data may not be sent during an ATIM window, and a frame may not
        // straddle the next beacon boundary.
        if self.psm {
            let blocked_by_window = self.timing.in_atim_window(now);
            let overruns = now + self.data_air > self.timing.next_frame_start(now);
            if blocked_by_window || overruns {
                let from = if blocked_by_window {
                    self.timing.earliest_data_time(now)
                } else {
                    self.timing
                        .earliest_data_time(self.timing.next_frame_start(now))
                };
                let at = self.backoff.next_data_attempt(from, &mut self.nodes[i].rng);
                self.sched_traffic(at, Ev::DataAttempt(i as u32, intent));
                return;
            }
        }
        if self.channel.is_transmitting(id) || self.channel.carrier_busy(id) {
            let at = self.backoff.next_data_attempt(now, &mut self.nodes[i].rng);
            self.sched_traffic(at, Ev::DataAttempt(i as u32, intent));
            return;
        }
        self.clear_guard(i, intent);
        // Transmitting records a meter transition at `now`, so the node's
        // boundary replay must be current. It is: data transmits only in
        // the data phase, and every pending-send node was eagerly
        // processed at this frame's window end.
        debug_assert!(
            self.nodes[i].applied >= self.fired,
            "transmit on unsettled node {id}"
        );
        let contents = self.nodes[i].mac.packet_contents(self.k);
        let frame = Frame::data(id, contents, intent == DataIntent::Immediate);
        let end = self.channel.begin_tx(now, frame, self.data_air);
        self.nodes[i].meter.set_state(now, RadioState::Transmit);
        self.sched_traffic(end, Ev::TxEnd(i as u32));
    }

    fn clear_guard(&mut self, i: usize, intent: DataIntent) {
        match intent {
            DataIntent::Normal => self.nodes[i].normal_scheduled = false,
            DataIntent::Immediate => self.nodes[i].immediate_scheduled = false,
        }
    }

    fn on_tx_end(&mut self, now: SimTime, i: usize) {
        // Take the buffer so the channel and node state can be borrowed
        // together; it goes back (with its capacity) at the end.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        let frame = self
            .channel
            .end_tx_into(now, NodeId(i as u32), &mut deliveries);
        self.nodes[i].meter.set_state(now, RadioState::Idle);
        match frame.kind {
            FrameKind::Beacon => {}
            FrameKind::Atim { .. } => {
                self.atim_tx += 1;
                for d in &deliveries {
                    let r = d.receiver.index();
                    self.settle(r);
                    if !self.nodes[r].meter.is_awake() || self.nodes[r].awake_since > d.started {
                        continue;
                    }
                    if !d.clean {
                        self.collisions += 1;
                        continue;
                    }
                    self.nodes[r].mac.receive_atim();
                }
            }
            FrameKind::Data { updates, immediate } => {
                self.data_tx += 1;
                if immediate {
                    self.immediate_tx += 1;
                    self.nodes[i].mac.mark_immediate_sent();
                } else {
                    self.nodes[i].mac.mark_normal_sent();
                }
                self.refresh_sets(i);
                for d in &deliveries {
                    let r = d.receiver.index();
                    self.settle(r);
                    if !self.nodes[r].meter.is_awake() || self.nodes[r].awake_since > d.started {
                        continue;
                    }
                    // Adaptive PBBF: any audible data frame (even a
                    // collision or a duplicate) counts as overheard
                    // activity — the Section-6 p signal.
                    if let Some(ctl) = &mut self.nodes[r].adapt {
                        ctl.observe_transmission();
                    }
                    if !d.clean {
                        self.collisions += 1;
                        continue;
                    }
                    let fresh = self.nodes[r].mac.receive_data(&updates);
                    // Duplicate-only receptions (the common case in a
                    // flood) change no MAC flags, so membership needs no
                    // refresh for them.
                    let had_fresh = !fresh.is_empty();
                    for id in fresh {
                        let row = &mut self.receptions[id as usize];
                        if row[r].is_none() {
                            row[r] = Some(now);
                        }
                    }
                    if self.nodes[r].mac.has_pending_immediate() {
                        self.schedule_immediate_attempt(now, r);
                    }
                    // A queued normal forward waits for the next ATIM
                    // window; `begin_frame`/`on_window_end` pick it up.
                    if had_fresh {
                        self.refresh_sets(r);
                    }
                }
            }
        }
        self.deliveries = deliveries;
    }

    fn into_stats(mut self) -> NetRunStats {
        // Lazy nodes still owe their boundary replay; one cache-friendly
        // pass per node closes the books.
        for i in 0..self.nodes.len() {
            self.settle(i);
        }
        let topo = self.channel.topology();
        let hop_distance = topo.hop_distances(self.source);
        let energy_joules = self
            .nodes
            .iter()
            .map(|n| n.meter.joules_at(self.duration))
            .collect();
        let state_secs = self
            .nodes
            .iter()
            .map(|n| n.meter.durations_at(self.duration))
            .collect();
        NetRunStats {
            source: self.source,
            hop_distance,
            gen_times: self.gen_times,
            receptions: self.receptions,
            energy_joules,
            state_secs,
            data_tx: self.data_tx,
            atim_tx: self.atim_tx,
            immediate_tx: self.immediate_tx,
            collisions: self.collisions,
            mean_degree: topo.mean_degree(),
            adaptive_trace: self.adaptive_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_core::PbbfParams;

    fn cfg(duration: f64) -> NetConfig {
        let mut c = NetConfig::table2();
        c.duration_secs = duration;
        c
    }

    fn pbbf(p: f64, q: f64) -> NetMode {
        NetMode::SleepScheduled(PbbfParams::new(p, q).unwrap())
    }

    #[test]
    fn psm_delivers_reliably() {
        let sim = NetSim::new(cfg(300.0), NetMode::SleepScheduled(PbbfParams::PSM));
        let s = sim.run(1);
        assert_eq!(s.updates_generated(), 3);
        assert!(
            s.mean_delivery_ratio() > 0.9,
            "ratio {}",
            s.mean_delivery_ratio()
        );
        assert_eq!(s.immediate_tx, 0, "PSM never sends immediately");
        assert!(s.atim_tx > 0, "PSM announces every broadcast");
    }

    #[test]
    fn always_on_is_fast_and_reliable() {
        let sim = NetSim::new(cfg(300.0), NetMode::AlwaysOn);
        let s = sim.run(2);
        assert!(
            s.mean_delivery_ratio() > 0.9,
            "ratio {}",
            s.mean_delivery_ratio()
        );
        assert_eq!(s.atim_tx, 0, "no PSM structure");
        // Latency well under one beacon interval at every hop count.
        let l2 = s.mean_latency_at_hops(2);
        if let Some(l) = l2 {
            assert!(l < 10.0, "2-hop latency {l}");
        }
    }

    #[test]
    fn psm_latency_about_one_beacon_interval_per_hop() {
        let sim = NetSim::new(cfg(500.0), NetMode::SleepScheduled(PbbfParams::PSM));
        let s = sim.run(3);
        let l1 = s.mean_latency_at_hops(1).expect("1-hop nodes reached");
        let l2 = s.mean_latency_at_hops(2).expect("2-hop nodes reached");
        // First hop leaves in the generation interval (≈ AW + access);
        // the second waits for the next interval.
        assert!(l1 < 6.0, "1-hop {l1}");
        assert!((6.0..20.0).contains(&l2), "2-hop {l2}");
        assert!(
            l2 > l1 + 5.0,
            "each extra hop costs about a beacon interval"
        );
    }

    #[test]
    fn energy_ordering_no_psm_vs_psm_vs_pbbf() {
        let psm = NetSim::new(cfg(300.0), NetMode::SleepScheduled(PbbfParams::PSM))
            .run(4)
            .energy_per_update();
        let pbbf_mid = NetSim::new(cfg(300.0), pbbf(0.25, 0.5))
            .run(4)
            .energy_per_update();
        let no_psm = NetSim::new(cfg(300.0), NetMode::AlwaysOn)
            .run(4)
            .energy_per_update();
        assert!(psm < pbbf_mid, "PSM {psm} < PBBF(q=0.5) {pbbf_mid}");
        assert!(
            pbbf_mid < no_psm,
            "PBBF(q=0.5) {pbbf_mid} < NO PSM {no_psm}"
        );
        // Fig. 13 scale: PSM saves about 2+ J/update over NO PSM.
        assert!(no_psm - psm > 1.5, "saving {}", no_psm - psm);
    }

    #[test]
    fn energy_grows_with_q_not_p() {
        let base = cfg(300.0);
        let e_low = NetSim::new(base, pbbf(0.25, 0.1))
            .run(5)
            .energy_per_update();
        let e_high = NetSim::new(base, pbbf(0.25, 0.9))
            .run(5)
            .energy_per_update();
        assert!(e_high > e_low * 1.5, "q drives energy: {e_low} -> {e_high}");
        let e_p1 = NetSim::new(base, pbbf(0.05, 0.5))
            .run(6)
            .energy_per_update();
        let e_p2 = NetSim::new(base, pbbf(0.5, 0.5)).run(6).energy_per_update();
        let rel = (e_p1 - e_p2).abs() / e_p1;
        assert!(rel < 0.15, "p barely affects energy: {e_p1} vs {e_p2}");
    }

    #[test]
    fn high_p_low_q_degrades_reliability() {
        let good = NetSim::new(cfg(300.0), pbbf(0.5, 0.9))
            .run(7)
            .mean_delivery_ratio();
        let bad = NetSim::new(cfg(300.0), pbbf(0.5, 0.05))
            .run(7)
            .mean_delivery_ratio();
        assert!(bad < good, "q rescues reliability: {bad} !< {good}");
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = NetSim::new(cfg(200.0), pbbf(0.5, 0.5));
        let a = sim.run(42);
        let b = sim.run(42);
        assert_eq!(a.receptions, b.receptions);
        assert_eq!(a.data_tx, b.data_tx);
        assert_eq!(a.energy_joules, b.energy_joules);
        let c = sim.run(43);
        assert!(a.receptions != c.receptions || a.data_tx != c.data_tx);
    }

    #[test]
    fn adaptive_mode_tunes_parameters_and_delivers() {
        use pbbf_core::adaptive::AdaptiveConfig;
        // Start from conservative parameters; the busy code-distribution
        // channel should pull p up, and full delivery should keep q low.
        let initial = PbbfParams::new(0.1, 0.3).unwrap();
        let sim = NetSim::new(
            cfg(400.0),
            NetMode::Adaptive(AdaptiveConfig::default_for(initial)),
        );
        let s = sim.run(11);
        assert!(!s.adaptive_trace.is_empty(), "trace recorded every beacon");
        // Parameters moved away from the initial point.
        let (p_last, q_last) = *s.adaptive_trace.last().unwrap();
        assert!(
            (p_last - 0.1).abs() > 0.05 || (q_last - 0.3).abs() > 0.05,
            "controller must react: trace ends at ({p_last}, {q_last})"
        );
        // Adaptation must not wreck delivery.
        assert!(
            s.mean_delivery_ratio() > 0.6,
            "ratio {}",
            s.mean_delivery_ratio()
        );
        // Static modes record no trace.
        let st = NetSim::new(cfg(200.0), NetMode::SleepScheduled(initial)).run(11);
        assert!(st.adaptive_trace.is_empty());
    }

    #[test]
    fn adaptive_q_rises_under_forced_losses() {
        use pbbf_core::adaptive::AdaptiveConfig;
        // Force losses: start with aggressive immediate forwarding and no
        // listeners (p = 1, q at floor) — nodes detect sequence holes and
        // must raise q over time.
        let mut acfg = AdaptiveConfig::default_for(PbbfParams::new(1.0, 0.05).unwrap());
        acfg.p_step = 0.0; // isolate the q loop
        let sim = NetSim::new(cfg(500.0), NetMode::Adaptive(acfg));
        let s = sim.run(12);
        let early_q = s.adaptive_trace[2].1;
        let late_q = s.adaptive_trace.last().unwrap().1;
        assert!(
            late_q > early_q,
            "detected holes must raise q: {early_q} -> {late_q}"
        );
    }

    #[test]
    fn incremental_channel_matches_brute_reference() {
        // Whole-run equivalence: the incremental engine and the brute
        // reference must produce identical stats for every seed, including
        // a dense (Δ = 18) contention-heavy scenario.
        for seed in [1, 7, 42] {
            let sim = NetSim::new(cfg(300.0), pbbf(0.5, 0.5));
            assert_eq!(sim.run(seed), sim.run_brute(seed), "seed {seed}");
        }
        let mut dense = cfg(300.0);
        dense.delta = 18.0;
        let sim = NetSim::new(dense, NetMode::AlwaysOn);
        let s = sim.run(8);
        assert_eq!(s, sim.run_brute(8));
        assert!(s.collisions > 0, "contention exercised the collision path");
    }

    #[test]
    fn collisions_happen_under_contention() {
        // Dense network, always-on flooding: plenty of concurrent senders.
        let mut c = cfg(300.0);
        c.delta = 18.0;
        let s = NetSim::new(c, NetMode::AlwaysOn).run(8);
        assert!(s.collisions > 0, "no collisions in a dense flood?");
    }

    #[test]
    fn stats_bookkeeping_consistent() {
        let s = NetSim::new(cfg(300.0), pbbf(0.75, 0.75)).run(9);
        assert!(s.immediate_tx <= s.data_tx);
        assert_eq!(s.gen_times.len(), s.receptions.len());
        assert_eq!(s.energy_joules.len(), 50);
        assert!(s.mean_degree > 3.0, "Δ=10 deployment");
        // Source "receives" its own updates at generation time.
        for (u, row) in s.receptions.iter().enumerate() {
            assert_eq!(row[s.source.index()], Some(s.gen_times[u]));
        }
    }

    fn with_engine(duration: f64, engine: BoundaryEngine) -> NetConfig {
        let mut c = cfg(duration);
        c.boundary_engine = engine;
        c
    }

    #[test]
    fn deterministic_endpoints_identical_across_boundary_engines() {
        // q = 0 (PSM) and q = 1 consume no sleep randomness on either
        // engine, and the Table-2 boundary instants are exactly
        // representable, so whole runs agree bit for bit — the strongest
        // cheap cross-check of the batched pair accounting (an off-by-one
        // in the credited ATIM windows or data phases shows up here).
        let dense = with_engine(300.0, BoundaryEngine::Dense);
        let lazy = with_engine(300.0, BoundaryEngine::Lazy);
        for seed in [1u64, 5] {
            for mode in [
                NetMode::SleepScheduled(PbbfParams::PSM),
                pbbf(0.25, 1.0),
                pbbf(1.0, 0.0),
            ] {
                assert_eq!(
                    NetSim::new(dense, mode).run(seed),
                    NetSim::new(lazy, mode).run(seed),
                    "dense vs lazy, mode {mode:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn quiescent_jumps_still_deliver() {
        // A quiescent scenario — each flood dies out well before the
        // next update — exercises repeated multi-frame jumps end to end.
        let mut c = with_engine(600.0, BoundaryEngine::Lazy);
        c.lambda = 0.005; // 3 updates over 600 s, 20 beacon intervals apart
        for seed in [3u64, 8] {
            let s = NetSim::new(c, pbbf(0.25, 0.5)).run(seed);
            assert_eq!(s.updates_generated(), 3);
            assert!(s.mean_delivery_ratio() > 0.3, "{}", s.mean_delivery_ratio());
        }
    }

    #[test]
    fn non_lazy_modes_ignore_the_boundary_engine() {
        use pbbf_core::adaptive::AdaptiveConfig;
        let dense = with_engine(200.0, BoundaryEngine::Dense);
        let lazy = with_engine(200.0, BoundaryEngine::Lazy);
        for mode in [
            NetMode::AlwaysOn,
            NetMode::Adaptive(AdaptiveConfig::default_for(
                PbbfParams::new(0.1, 0.3).unwrap(),
            )),
        ] {
            assert_eq!(
                NetSim::new(dense, mode).run(7),
                NetSim::new(lazy, mode).run(7),
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn lazy_engine_is_deterministic_and_reasonable() {
        // Mid-q: the engines differ bitwise (different stream layouts)
        // but the lazy engine must stay seed-deterministic and produce
        // the same qualitative physics as dense.
        let sim = NetSim::new(with_engine(300.0, BoundaryEngine::Lazy), pbbf(0.5, 0.5));
        assert_eq!(sim.run(42), sim.run(42));
        let dense = with_engine(300.0, BoundaryEngine::Dense);
        let d = NetSim::new(dense, pbbf(0.5, 0.5)).run(42);
        let l = sim.run(42);
        assert_ne!(l, d, "mid-q stream layouts legitimately differ");
        assert!(l.mean_delivery_ratio() > 0.8, "{}", l.mean_delivery_ratio());
        // Energy totals agree to a few percent even on single runs: the
        // q coin only modulates the data-phase residency.
        let (le, de) = (l.energy_per_update(), d.energy_per_update());
        assert!((le - de).abs() / de < 0.1, "energy lazy {le} vs dense {de}");
    }

    #[test]
    fn undrawable_deployments_are_errors() {
        let mut sparse = cfg(100.0);
        sparse.delta = 1e-9;
        sparse.max_deploy_attempts = 3;
        let err = NetSim::try_draw_deployment(&sparse, 1).unwrap_err();
        assert!(err.contains("no connected deployment"), "{err}");
        let c = cfg(100.0);
        assert_eq!(
            NetSim::try_draw_deployment(&c, 1).unwrap(),
            NetSim::draw_deployment(&c, 1)
        );
    }

    #[test]
    fn run_on_cached_deployment_matches_run() {
        // The documented contract: running on the deployment drawn from
        // the same seed reproduces `run` bit for bit, for every mode.
        use pbbf_core::adaptive::AdaptiveConfig;
        let modes = [
            NetMode::AlwaysOn,
            NetMode::SleepScheduled(PbbfParams::PSM),
            pbbf(0.25, 0.05),
            pbbf(0.5, 0.5),
            NetMode::Adaptive(AdaptiveConfig::default_for(
                PbbfParams::new(0.1, 0.3).unwrap(),
            )),
        ];
        let c = cfg(300.0);
        for mode in modes {
            let sim = NetSim::new(c, mode);
            for seed in [1u64, 9] {
                let drawn = NetSim::draw_deployment(&c, seed);
                assert_eq!(sim.run_on(seed, &drawn), sim.run(seed));
            }
        }
        // Decoupling: a different deployment seed changes the scenario
        // while the protocol streams stay pinned to `seed`.
        let sim = NetSim::new(c, pbbf(0.5, 0.5));
        let other = NetSim::draw_deployment(&c, 77);
        let s = sim.run_on(1, &other);
        assert_eq!(s.source, other.source);
        assert_ne!(s, sim.run(1));
    }
}
