//! Run statistics and the figure-level aggregations.

use pbbf_metrics::Summary;
use pbbf_topology::NodeId;

/// Everything measured about one update's dissemination.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateStats {
    /// Per node: `(latency from generation, links traversed)` of the first
    /// delivered copy; `None` if the update never reached the node. The
    /// source holds `Some((0.0, 0))`.
    pub received: Vec<Option<(f64, u32)>>,
    /// Energy billed to this update, averaged per node (J).
    pub energy_joules_per_node: f64,
    /// Immediate (unannounced) transmissions.
    pub immediate_tx: u64,
    /// Normal (announced) transmissions.
    pub normal_tx: u64,
    /// Immediate forwards demoted to normal because they would have
    /// overrun the data phase.
    pub deferred_immediates: u64,
    /// Frames the dissemination occupied.
    pub frames_used: u32,
    /// Sleep coins evaluated: one read per candidate per chain level (a
    /// node next to an immediate forward that has not received), plus
    /// one per touched-but-not-woken node at the end of its frame (a
    /// forwarder of the frame's first level, which received by a normal
    /// broadcast or is the source). Zero when every coin is fixed (`q` of
    /// 0 or 1), for always-on flooding and for gossip.
    pub coins_evaluated: u64,
    /// Billed node-frames the Sleep-Decision-Handler kept awake: of the
    /// `B·n` node-frames of baseline duty cycle billed to the update
    /// (`B = 1/(λ·T_frame)`), the Binomial(`B·n`, `q`) count billed at
    /// idle power through the data phase; the rest are billed asleep.
    /// Zero for always-on flooding and for gossip, which bill no duty
    /// cycle.
    pub billed_awake: u64,
    /// Listen-only node-frames: in a frame, a node that announced a
    /// normal broadcast or heard one announced and carried no immediate
    /// traffic. Each is busy through the announced window only, and is
    /// billed that window's marginal energy unless its coin kept it awake.
    /// Zero for always-on flooding and for gossip.
    pub listen_only: u64,
    /// Listen-only node-frames the Sleep-Decision-Handler kept awake: one
    /// Binomial(`listen_only`, `q`) draw, so 0 at `q = 0` and
    /// `listen_only` at `q = 1`.
    pub listen_only_awake: u64,
    /// Batches of transmissions the flood ran: one per frame with normal
    /// broadcasts plus one per chain level of immediate forwards. Zero
    /// for always-on flooding and for gossip.
    pub batches: u64,
    /// Grid tiles (8×8 nodes) the flood's batches visited, summed over
    /// batches: each batch visits its senders' tiles, and a neighbor grid
    /// tile only when a sender sits on the edge row or column facing it.
    /// Zero for always-on flooding and for gossip.
    pub tiles_visited: u64,
}

impl UpdateStats {
    /// Fraction of nodes (including the source) that received the update.
    #[must_use]
    pub fn delivered_fraction(&self) -> f64 {
        let n = self.received.len();
        if n == 0 {
            return 0.0;
        }
        self.received.iter().flatten().count() as f64 / n as f64
    }

    /// Total transmissions of any kind.
    #[must_use]
    pub fn total_tx(&self) -> u64 {
        self.immediate_tx + self.normal_tx
    }
}

/// The result of one seeded run: several updates over one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Shortest-path (BFS) distance of every node from the source.
    pub shortest: Vec<u32>,
    /// The broadcast source.
    pub source: NodeId,
    /// Per-update measurements.
    pub updates: Vec<UpdateStats>,
}

/// An empty run, for [`IdealSim::run_into`](crate::IdealSim::run_into)
/// to fill.
impl Default for RunStats {
    fn default() -> Self {
        Self {
            shortest: Vec::new(),
            source: NodeId(0),
            updates: Vec::new(),
        }
    }
}

impl RunStats {
    /// Figure 4/5 metric: the fraction of updates that reached at least
    /// `reliability` of all nodes.
    ///
    /// # Panics
    ///
    /// Panics if `reliability` is outside `(0, 1]`.
    #[must_use]
    pub fn fraction_of_updates_with_reliability(&self, reliability: f64) -> f64 {
        assert!(
            reliability > 0.0 && reliability <= 1.0,
            "reliability {reliability} outside (0, 1]"
        );
        if self.updates.is_empty() {
            return 0.0;
        }
        let hits = self
            .updates
            .iter()
            .filter(|u| u.delivered_fraction() >= reliability - 1e-12)
            .count();
        hits as f64 / self.updates.len() as f64
    }

    /// Figure 8 metric: mean per-node energy per update (J).
    #[must_use]
    pub fn mean_energy_per_update(&self) -> f64 {
        self.updates
            .iter()
            .map(|u| u.energy_joules_per_node)
            .collect::<Summary>()
            .mean()
    }

    /// Mean delivered fraction across updates (the Figure 16 metric of the
    /// realistic simulator, also informative here).
    #[must_use]
    pub fn mean_delivered_fraction(&self) -> f64 {
        self.updates
            .iter()
            .map(UpdateStats::delivered_fraction)
            .collect::<Summary>()
            .mean()
    }

    /// Figure 9/10 metric: mean links traversed by delivered copies over
    /// nodes at shortest distance `d`, together with how many such nodes
    /// exist and how many were reached. Returns `None` when the grid has
    /// no node at that distance or none were ever reached.
    #[must_use]
    pub fn mean_hops_at_distance(&self, d: u32) -> Option<f64> {
        let mut s = Summary::new();
        for u in &self.updates {
            for (i, r) in u.received.iter().enumerate() {
                if self.shortest[i] == d {
                    if let Some((_, hops)) = r {
                        s.record(f64::from(*hops));
                    }
                }
            }
        }
        (!s.is_empty()).then(|| s.mean())
    }

    /// Figure 11 metric: mean per-hop latency (delivery latency divided by
    /// links traversed) over all delivered non-source copies, summed in
    /// update and node order and divided by their count. `None` if
    /// nothing was delivered beyond the source.
    #[must_use]
    pub fn mean_per_hop_latency(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0u64;
        for u in &self.updates {
            for &(latency, hops) in u.received.iter().flatten() {
                if hops > 0 {
                    sum += latency / f64::from(hops);
                    count += 1;
                }
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Mean transmissions per update (for the duplicate-suppression
    /// ablation).
    #[must_use]
    pub fn mean_total_tx(&self) -> f64 {
        self.updates
            .iter()
            .map(|u| u.total_tx() as f64)
            .collect::<Summary>()
            .mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(received: Vec<Vec<Option<(f64, u32)>>>, shortest: Vec<u32>) -> RunStats {
        RunStats {
            shortest,
            source: NodeId(0),
            updates: received
                .into_iter()
                .map(|r| UpdateStats {
                    received: r,
                    energy_joules_per_node: 1.0,
                    immediate_tx: 2,
                    normal_tx: 3,
                    deferred_immediates: 0,
                    frames_used: 1,
                    coins_evaluated: 0,
                    billed_awake: 0,
                    listen_only: 0,
                    listen_only_awake: 0,
                    batches: 0,
                    tiles_visited: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn delivered_fraction_counts_source() {
        let u = UpdateStats {
            received: vec![Some((0.0, 0)), Some((1.0, 1)), None, None],
            energy_joules_per_node: 0.0,
            immediate_tx: 0,
            normal_tx: 0,
            deferred_immediates: 0,
            frames_used: 0,
            coins_evaluated: 0,
            billed_awake: 0,
            listen_only: 0,
            listen_only_awake: 0,
            batches: 0,
            tiles_visited: 0,
        };
        assert_eq!(u.delivered_fraction(), 0.5);
        assert_eq!(u.total_tx(), 0);
    }

    #[test]
    fn reliability_fraction_thresholds() {
        let s = stats_with(
            vec![
                vec![Some((0.0, 0)), Some((1.0, 1)), Some((2.0, 2))], // 100%
                vec![Some((0.0, 0)), Some((1.0, 1)), None],           // 66%
            ],
            vec![0, 1, 2],
        );
        assert_eq!(s.fraction_of_updates_with_reliability(1.0), 0.5);
        assert_eq!(s.fraction_of_updates_with_reliability(0.6), 1.0);
    }

    #[test]
    fn hops_and_latency_aggregations() {
        let s = stats_with(
            vec![vec![
                Some((0.0, 0)),
                Some((10.0, 1)),
                Some((40.0, 4)), // stretched path to a d=2 node
            ]],
            vec![0, 1, 2],
        );
        assert_eq!(s.mean_hops_at_distance(2), Some(4.0));
        assert_eq!(s.mean_hops_at_distance(1), Some(1.0));
        assert_eq!(s.mean_hops_at_distance(9), None);
        // Per-hop: (10/1 + 40/4) / 2 = 10.
        assert_eq!(s.mean_per_hop_latency(), Some(10.0));
    }

    #[test]
    fn empty_updates_are_neutral() {
        let s = stats_with(vec![], vec![0, 1]);
        assert_eq!(s.fraction_of_updates_with_reliability(0.9), 0.0);
        assert_eq!(s.mean_energy_per_update(), 0.0);
        assert_eq!(s.mean_per_hop_latency(), None);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_reliability_panics() {
        let s = stats_with(vec![], vec![]);
        let _ = s.fraction_of_updates_with_reliability(0.0);
    }
}
