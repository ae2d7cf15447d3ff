//! The shared broadcast medium with collisions and interference.

use std::collections::HashSet;
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

#[derive(Debug, Clone)]
struct Active {
    frame: Frame,
    start: SimTime,
    end: SimTime,
    corrupted: HashSet<NodeId>,
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
/// The model is kept the obvious way: a flat list of in-flight
/// transmissions, each carrying the set of receivers it has corrupted.
/// `begin_tx` walks every in-flight transmission times the transmitter's
/// neighborhood; `carrier_busy`, `is_transmitting` and `end_tx` rescan
/// the list. At the paper's 50-node scenarios only a handful of
/// transmissions are ever in flight at once.
///
/// The topology is held behind an [`Arc`]: a channel built from a
/// cached deployment shares the scenario's CSR adjacency with every
/// other concurrent run instead of paying an O(V + E) copy per run.
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
    topology: Arc<Topology>,
    active: Vec<Active>,
}

impl Channel {
    /// Creates a channel over `topology` — owned (wrapped into a fresh
    /// [`Arc`]) or already shared (`Arc<Topology>`, no copy either way).
    #[must_use]
    pub fn new(topology: impl Into<Arc<Topology>>) -> Self {
        Self {
            topology: topology.into(),
            active: Vec::new(),
        }
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether `node` currently senses the channel busy: it is
    /// transmitting itself or can hear an ongoing transmission.
    #[must_use]
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        self.active
            .iter()
            .any(|a| a.frame.src == node || self.topology.are_neighbors(a.frame.src, node))
    }

    /// Whether `node` is currently transmitting.
    #[must_use]
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.active.iter().any(|a| a.frame.src == node)
    }

    /// Number of in-flight transmissions.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
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
            !self.is_transmitting(src),
            "{src} began a transmission while already transmitting"
        );
        let mut corrupted = HashSet::new();
        for other in &mut self.active {
            let o_src = other.frame.src;
            // Receivers in range of both transmissions lose both frames.
            for &r in self.topology.neighbors(src) {
                if r != o_src && self.topology.are_neighbors(o_src, r) {
                    corrupted.insert(r);
                    other.corrupted.insert(r);
                }
            }
            // A transmitting radio cannot receive.
            if self.topology.are_neighbors(src, o_src) {
                corrupted.insert(o_src); // the other tx'er cannot hear us
                other.corrupted.insert(src); // and we can no longer hear it
            }
        }
        let end = now + duration;
        self.active.push(Active {
            frame,
            start: now,
            end,
            corrupted,
        });
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
    /// delivery allocation.
    ///
    /// # Panics
    ///
    /// Panics if `src` has no transmission in flight or `now` is not its
    /// scheduled end time.
    pub fn end_tx_into(&mut self, now: SimTime, src: NodeId, out: &mut Vec<Delivery>) -> Frame {
        let idx = self
            .active
            .iter()
            .position(|a| a.frame.src == src)
            .unwrap_or_else(|| panic!("{src} has no transmission in flight"));
        let active = self.active.swap_remove(idx);
        assert_eq!(active.end, now, "end_tx at the wrong time for {src}");
        out.clear();
        out.extend(self.topology.neighbors(src).iter().map(|&r| Delivery {
            receiver: r,
            clean: !active.corrupted.contains(&r) && !self.is_transmitting(r),
            started: active.start,
        }));
        active.frame
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
