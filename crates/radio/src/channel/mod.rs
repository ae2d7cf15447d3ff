//! The shared broadcast medium with collisions and interference.
//!
//! Two implementations of the same collision model live here:
//!
//! * [`Channel`] — the incremental engine used by the simulators: flat
//!   per-node state maintained on every `begin_tx`/`end_tx` so carrier
//!   sensing is one array read and transmission bookkeeping costs
//!   O(degree), independent of how many transmissions are in flight.
//! * [`brute::BruteChannel`] — the original O(active × degree) reference,
//!   kept (like `unit_disk_edges_brute`) for property tests and benches.
//!
//! Both are driven through the [`CollisionChannel`] trait and must agree
//! bit-for-bit on every carrier-sense answer and delivery outcome; the
//! randomized-schedule property tests in `tests/properties.rs` and the
//! whole-run equivalence tests in `pbbf-net-sim` enforce that.

pub mod brute;

use std::sync::Arc;

use pbbf_des::{SimDuration, SimTime};
use pbbf_topology::{NodeId, Topology};

use crate::Frame;

/// One potential reception reported at the end of a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The neighbor the frame propagated to.
    pub receiver: NodeId,
    /// Whether the frame arrived uncorrupted (no overlapping transmission
    /// audible at the receiver, and the receiver was not itself
    /// transmitting). The MAC must additionally check the receiver was
    /// awake for the whole airtime.
    pub clean: bool,
    /// When the transmission began (for awake-span checks).
    pub started: SimTime,
}

/// The driving interface shared by the incremental [`Channel`] and the
/// reference [`brute::BruteChannel`].
///
/// The MAC calls [`CollisionChannel::begin_tx`] when a transmission
/// starts and [`CollisionChannel::end_tx_into`] at its scheduled end;
/// carrier sensing happens through [`CollisionChannel::carrier_busy`].
/// Implementations must agree exactly — same panics, same delivery
/// outcomes in the same (CSR neighbor) order.
///
/// Both implementations hold their topology behind an [`Arc`] rather
/// than owning a copy: a channel constructed from a cached deployment
/// shares the scenario's CSR adjacency with every other concurrent run
/// instead of paying an O(V + E) clone per run.
pub trait CollisionChannel {
    /// The underlying topology.
    fn topology(&self) -> &Topology;

    /// The shared handle to the underlying topology (cloning it is
    /// reference-count traffic, not an adjacency copy).
    fn topology_arc(&self) -> &Arc<Topology>;

    /// Whether `node` currently senses the channel busy: it is
    /// transmitting itself or can hear an ongoing transmission.
    fn carrier_busy(&self, node: NodeId) -> bool;

    /// Whether `node` is currently transmitting.
    fn is_transmitting(&self, node: NodeId) -> bool;

    /// Number of in-flight transmissions.
    fn active_count(&self) -> usize;

    /// Starts a transmission of `frame` lasting `duration`; returns the
    /// end time the caller must schedule the matching `end_tx_into` at.
    fn begin_tx(&mut self, now: SimTime, frame: Frame, duration: SimDuration) -> SimTime;

    /// Completes `src`'s transmission, writing the per-neighbor delivery
    /// outcomes into `out` (cleared first) and returning the frame. The
    /// caller owns `out`, so steady-state simulation makes no per-`end_tx`
    /// allocation.
    fn end_tx_into(&mut self, now: SimTime, src: NodeId, out: &mut Vec<Delivery>) -> Frame;
}

/// Sentinel mark for "corrupted before any later event could matter".
const CORRUPT: u64 = u64::MAX;

/// Sentinel for "no active transmission" in [`NodeAir::tx_slot`].
const NO_SLOT: u32 = u32::MAX;

/// One node's incremental air state, packed into a single 16-byte record
/// so the O(degree) begin/end loops and the carrier-sense read touch one
/// cache line per node instead of three parallel arrays — at 10 000
/// nodes the split layout cost three scattered loads per neighbor.
#[derive(Debug, Clone, Copy)]
struct NodeAir {
    /// In-flight transmissions audible at the node.
    audible: u32,
    /// Slot of the node's own active transmission, or [`NO_SLOT`].
    tx_slot: u32,
    /// Monotone corruption clock (see the [`Channel`] docs).
    mark: u64,
}

impl NodeAir {
    const IDLE: Self = Self {
        audible: 0,
        tx_slot: NO_SLOT,
        mark: 0,
    };
}

/// One in-flight transmission, stored in a recycled slot.
#[derive(Debug, Clone)]
struct ActiveTx {
    frame: Frame,
    start: SimTime,
    end: SimTime,
    /// Corruption snapshot per receiver, parallel to
    /// `topology.neighbors(src)`: the value `mark[r]` held right after
    /// this transmission registered, or [`CORRUPT`] if the receiver was
    /// already compromised at begin. The delivery is clean iff the mark
    /// never moved again before `end_tx`.
    rx_marks: Vec<u64>,
}

/// The broadcast channel: unit-disk propagation over a [`Topology`] with
/// a no-capture collision model.
///
/// * Every transmission reaches exactly the transmitter's neighbors.
/// * Two transmissions that overlap in time corrupt each other at every
///   receiver that can hear both (including hidden-terminal collisions,
///   where the two transmitters cannot hear each other).
/// * A radio cannot receive while transmitting.
///
/// # Engine
///
/// All queries and updates run over flat per-node state, incrementally
/// maintained across the CSR adjacency — no hashing, no scans of the
/// active list:
///
/// * `audible[n]` counts in-flight transmissions whose source neighbors
///   `n`, so carrier sense is one array read.
/// * `tx_slot[n]` maps a node to its active-transmission slot, so
///   `is_transmitting` and `end_tx` are O(1) lookups.
/// * `mark[n]` is a monotone per-node corruption clock, bumped whenever a
///   transmitter audible at `n` begins or `n` itself starts transmitting.
///   Each transmission snapshots its receivers' marks at begin; a
///   delivery is clean iff its receiver's mark never moved during the
///   airtime. This makes `begin_tx`/`end_tx` O(degree) instead of
///   O(active × degree).
///
/// Slot and mark buffers are recycled through free lists, so steady-state
/// operation allocates nothing.
///
/// The channel is driven by the MAC: [`Channel::begin_tx`] when a
/// transmission starts, [`Channel::end_tx`] when it completes (the caller
/// schedules the end event `airtime` later); `end_tx` reports per-neighbor
/// [`Delivery`] outcomes.
///
/// # Examples
///
/// ```
/// use pbbf_des::{SimDuration, SimTime};
/// use pbbf_radio::{Channel, Frame};
/// use pbbf_topology::{Grid, NodeId};
///
/// let mut ch = Channel::new(Grid::new(1, 3, 1.0).into_topology());
/// let t0 = SimTime::ZERO;
/// let end = ch.begin_tx(t0, Frame::beacon(NodeId(0)), SimDuration::from_millis(10));
/// let (frame, deliveries) = ch.end_tx(end, NodeId(0));
/// assert_eq!(frame.src, NodeId(0));
/// assert!(deliveries.iter().all(|d| d.clean));
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    /// Shared, not owned: constructing a channel over a cached scenario
    /// is a pointer bump, never an O(V + E) adjacency copy.
    topology: Arc<Topology>,
    /// Active transmissions, slot-addressed; freed slots are recycled.
    slots: Vec<Option<ActiveTx>>,
    free_slots: Vec<u32>,
    /// Per-node audible count, own-transmission slot, and corruption
    /// clock, interleaved for cache locality (see [`NodeAir`]).
    air: Vec<NodeAir>,
    active: usize,
    /// Recycled `rx_marks` buffers, cleared, ready for the next begin.
    spare_marks: Vec<Vec<u64>>,
}

impl Channel {
    /// Creates a channel over `topology` — owned (wrapped into a fresh
    /// [`Arc`]) or already shared (`Arc<Topology>`, no copy either way).
    #[must_use]
    pub fn new(topology: impl Into<Arc<Topology>>) -> Self {
        let topology = topology.into();
        let n = topology.len();
        Self {
            topology,
            slots: Vec::new(),
            free_slots: Vec::new(),
            air: vec![NodeAir::IDLE; n],
            active: 0,
            spare_marks: Vec::new(),
        }
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared handle to the underlying topology.
    #[must_use]
    pub fn topology_arc(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Whether `node` currently senses the channel busy: it is
    /// transmitting itself or can hear an ongoing transmission.
    #[must_use]
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        let a = &self.air[node.index()];
        a.tx_slot != NO_SLOT || a.audible > 0
    }

    /// Whether `node` is currently transmitting.
    #[must_use]
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.air[node.index()].tx_slot != NO_SLOT
    }

    /// Number of in-flight transmissions.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Starts a transmission of `frame` lasting `duration`; returns the
    /// end time the caller must schedule [`Channel::end_tx`] at.
    ///
    /// Collision bookkeeping happens here: the new transmission corrupts,
    /// and is corrupted by, every overlapping transmission at each common
    /// receiver; ongoing receptions at the new transmitter die.
    ///
    /// # Panics
    ///
    /// Panics if the source is already transmitting (a MAC must serialize
    /// its own transmissions).
    pub fn begin_tx(&mut self, now: SimTime, frame: Frame, duration: SimDuration) -> SimTime {
        let src = frame.src;
        assert!(
            self.air[src.index()].tx_slot == NO_SLOT,
            "{src} began a transmission while already transmitting"
        );
        let mut rx_marks = self.spare_marks.pop().unwrap_or_default();
        for &r in self.topology.neighbors(src) {
            let a = &mut self.air[r.index()];
            // Corrupted from the start: the receiver already hears another
            // transmitter, or is mid-transmission itself.
            let corrupt = a.audible > 0 || a.tx_slot != NO_SLOT;
            // Registering bumps the receiver's clock, corrupting every
            // *other* in-flight transmission delivering to it; our own
            // snapshot is taken after the bump so we don't corrupt
            // ourselves.
            a.audible += 1;
            a.mark += 1;
            rx_marks.push(if corrupt { CORRUPT } else { a.mark });
        }
        // A radio cannot receive while transmitting: beginning kills any
        // reception in progress at the source.
        self.air[src.index()].mark += 1;
        let end = now + duration;
        let tx = ActiveTx {
            frame,
            start: now,
            end,
            rx_marks,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(tx);
                s
            }
            None => {
                self.slots.push(Some(tx));
                (self.slots.len() - 1) as u32
            }
        };
        debug_assert_ne!(slot, NO_SLOT, "slot index collides with sentinel");
        self.air[src.index()].tx_slot = slot;
        self.active += 1;
        end
    }

    /// Completes `src`'s transmission, removing it from the air and
    /// returning the frame plus the per-neighbor delivery outcomes.
    ///
    /// Allocates a fresh delivery vector; the simulators use
    /// [`Channel::end_tx_into`] with a reused buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `src` has no transmission in flight or `now` is not its
    /// scheduled end time (both indicate MAC/event-loop bugs).
    pub fn end_tx(&mut self, now: SimTime, src: NodeId) -> (Frame, Vec<Delivery>) {
        let mut out = Vec::new();
        let frame = self.end_tx_into(now, src, &mut out);
        (frame, out)
    }

    /// [`Channel::end_tx`] writing into a caller-provided buffer
    /// (cleared first), so steady-state simulation makes no per-`end_tx`
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `src` has no transmission in flight or `now` is not its
    /// scheduled end time.
    pub fn end_tx_into(&mut self, now: SimTime, src: NodeId, out: &mut Vec<Delivery>) -> Frame {
        let slot = self.air[src.index()].tx_slot;
        assert!(slot != NO_SLOT, "{src} has no transmission in flight");
        self.air[src.index()].tx_slot = NO_SLOT;
        let tx = self.slots[slot as usize]
            .take()
            .expect("slot holds the active transmission");
        self.free_slots.push(slot);
        self.active -= 1;
        assert_eq!(tx.end, now, "end_tx at the wrong time for {src}");
        out.clear();
        let neighbors = self.topology.neighbors(src);
        out.reserve(neighbors.len());
        for (&r, &m) in neighbors.iter().zip(&tx.rx_marks) {
            let a = &mut self.air[r.index()];
            a.audible -= 1;
            out.push(Delivery {
                receiver: r,
                clean: m == a.mark && a.tx_slot == NO_SLOT,
                started: tx.start,
            });
        }
        let ActiveTx {
            frame,
            mut rx_marks,
            ..
        } = tx;
        rx_marks.clear();
        self.spare_marks.push(rx_marks);
        frame
    }
}

impl CollisionChannel for Channel {
    fn topology(&self) -> &Topology {
        Channel::topology(self)
    }

    fn topology_arc(&self) -> &Arc<Topology> {
        Channel::topology_arc(self)
    }

    fn carrier_busy(&self, node: NodeId) -> bool {
        Channel::carrier_busy(self, node)
    }

    fn is_transmitting(&self, node: NodeId) -> bool {
        Channel::is_transmitting(self, node)
    }

    fn active_count(&self) -> usize {
        Channel::active_count(self)
    }

    fn begin_tx(&mut self, now: SimTime, frame: Frame, duration: SimDuration) -> SimTime {
        Channel::begin_tx(self, now, frame, duration)
    }

    fn end_tx_into(&mut self, now: SimTime, src: NodeId, out: &mut Vec<Delivery>) -> Frame {
        Channel::end_tx_into(self, now, src, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_des::SimDuration;
    use pbbf_topology::Grid;

    fn line(n: u32) -> Topology {
        Grid::new(1, n, 1.0).into_topology()
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn clean_delivery_to_all_neighbors() {
        let mut ch = Channel::new(line(3));
        let end = ch.begin_tx(t(0.0), Frame::beacon(NodeId(1)), d(0.01));
        assert!(ch.carrier_busy(NodeId(0)));
        assert!(ch.carrier_busy(NodeId(2)));
        let (_, dl) = ch.end_tx(end, NodeId(1));
        assert_eq!(dl.len(), 2);
        assert!(dl.iter().all(|x| x.clean));
        assert_eq!(ch.active_count(), 0);
    }

    #[test]
    fn overlapping_neighbors_collide() {
        // 0 - 1 - 2: nodes 0 and 2 both transmit; node 1 hears a collision.
        let mut ch = Channel::new(line(3));
        let e0 = ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.02));
        let e2 = ch.begin_tx(t(0.01), Frame::beacon(NodeId(2)), d(0.02));
        let (_, d0) = ch.end_tx(e0, NodeId(0));
        assert_eq!(
            d0,
            vec![Delivery {
                receiver: NodeId(1),
                clean: false,
                started: t(0.0)
            }]
        );
        let (_, d2) = ch.end_tx(e2, NodeId(2));
        assert!(!d2[0].clean, "hidden-terminal collision at node 1");
    }

    #[test]
    fn transmitter_cannot_receive() {
        // 0 - 1: both transmit concurrently; neither receives the other.
        let mut ch = Channel::new(line(2));
        let e0 = ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.05));
        let e1 = ch.begin_tx(t(0.01), Frame::beacon(NodeId(1)), d(0.01));
        let (_, d1) = ch.end_tx(e1, NodeId(1));
        // Node 0 is still transmitting at 1's end: not clean.
        assert!(!d1[0].clean);
        let (_, d0) = ch.end_tx(e0, NodeId(0));
        assert!(!d0[0].clean, "node 1 transmitted during our frame");
    }

    #[test]
    fn sequential_transmissions_are_clean() {
        let mut ch = Channel::new(line(3));
        let e0 = ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.01));
        let (_, d0) = ch.end_tx(e0, NodeId(0));
        assert!(d0.iter().all(|x| x.clean));
        let e2 = ch.begin_tx(t(1.0), Frame::beacon(NodeId(2)), d(0.01));
        let (_, d2) = ch.end_tx(e2, NodeId(2));
        assert!(d2.iter().all(|x| x.clean));
    }

    #[test]
    fn distant_transmitters_do_not_interfere() {
        // 0-1-2-3-4: 0 and 4 transmit; 1 hears only 0, 3 hears only 4.
        let mut ch = Channel::new(line(5));
        let e0 = ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.02));
        let e4 = ch.begin_tx(t(0.0), Frame::beacon(NodeId(4)), d(0.02));
        let (_, d0) = ch.end_tx(e0, NodeId(0));
        assert!(d0.iter().find(|x| x.receiver == NodeId(1)).unwrap().clean);
        let (_, d4) = ch.end_tx(e4, NodeId(4));
        assert!(d4.iter().find(|x| x.receiver == NodeId(3)).unwrap().clean);
    }

    #[test]
    fn carrier_sense_scope() {
        let mut ch = Channel::new(line(4));
        ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.1));
        assert!(ch.carrier_busy(NodeId(0)), "own transmission");
        assert!(ch.carrier_busy(NodeId(1)), "neighbor");
        assert!(!ch.carrier_busy(NodeId(2)), "two hops away");
        assert!(!ch.carrier_busy(NodeId(3)));
    }

    #[test]
    fn carrier_clears_after_end() {
        let mut ch = Channel::new(line(3));
        let end = ch.begin_tx(t(0.0), Frame::beacon(NodeId(1)), d(0.01));
        let _ = ch.end_tx(end, NodeId(1));
        for n in 0..3 {
            assert!(!ch.carrier_busy(NodeId(n)), "n{n} idle again");
            assert!(!ch.is_transmitting(NodeId(n)));
        }
    }

    #[test]
    fn slots_and_mark_buffers_recycle() {
        // Repeated churn must not grow the slot table beyond the peak
        // concurrency (steady state allocates nothing).
        let mut ch = Channel::new(line(5));
        for round in 0..10 {
            let base = t(f64::from(round));
            let e0 = ch.begin_tx(base, Frame::beacon(NodeId(0)), d(0.01));
            let e4 = ch.begin_tx(base, Frame::beacon(NodeId(4)), d(0.01));
            let _ = ch.end_tx(e0, NodeId(0));
            let _ = ch.end_tx(e4, NodeId(4));
        }
        assert!(ch.slots.len() <= 2, "slot table stays at peak concurrency");
        assert!(ch.spare_marks.len() <= 2, "mark buffers recycle");
        assert_eq!(ch.active_count(), 0);
    }

    #[test]
    fn back_to_back_retransmission_is_clean() {
        // Self-overlap edge case: a node ends one transmission and begins
        // the next at the same instant; the second must deliver clean.
        let mut ch = Channel::new(line(3));
        let e = ch.begin_tx(t(0.0), Frame::beacon(NodeId(1)), d(0.01));
        let _ = ch.end_tx(e, NodeId(1));
        let e2 = ch.begin_tx(e, Frame::beacon(NodeId(1)), d(0.01));
        let (_, dl) = ch.end_tx(e2, NodeId(1));
        assert!(dl.iter().all(|x| x.clean));
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_tx_panics() {
        let mut ch = Channel::new(line(2));
        ch.begin_tx(t(0.0), Frame::beacon(NodeId(0)), d(0.1));
        ch.begin_tx(t(0.01), Frame::beacon(NodeId(0)), d(0.1));
    }

    #[test]
    #[should_panic(expected = "no transmission in flight")]
    fn end_without_begin_panics() {
        let mut ch = Channel::new(line(2));
        let _ = ch.end_tx(t(0.0), NodeId(0));
    }
}
