//! Measurements of one realistic-simulation run.

use pbbf_des::SimTime;
use pbbf_metrics::Summary;
use pbbf_topology::NodeId;

/// Everything measured during one seeded run of the realistic simulator.
///
/// `PartialEq` compares every field exactly (including the `f64` vectors
/// bitwise-equal-or-not) — the cache-identity, walk-golden and
/// determinism tests rely on that strictness.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRunStats {
    /// The randomly chosen source node.
    pub source: NodeId,
    /// BFS hop distance of every node from the source.
    pub hop_distance: Vec<Option<u32>>,
    /// Generation time of every update, in generation order (id = index).
    pub gen_times: Vec<SimTime>,
    /// `receptions[update][node]`: first clean reception time.
    pub receptions: Vec<Vec<Option<SimTime>>>,
    /// Per-node joules consumed over the whole run.
    pub energy_joules: Vec<f64>,
    /// Per-node seconds of radio-state residency over the whole run, as
    /// `[idle, transmit, sleep]` — the raw durations behind
    /// `energy_joules`. Sleeping happens only in whole data phases, so
    /// `sleep / (BI − AW)` is the node's slept-beacon count — the
    /// observable the boundary-engine statistical-equivalence suite
    /// compares.
    pub state_secs: Vec<[f64; 3]>,
    /// Data transmissions (normal + immediate).
    pub data_tx: u64,
    /// ATIM transmissions.
    pub atim_tx: u64,
    /// Immediate data transmissions (subset of `data_tx`).
    pub immediate_tx: u64,
    /// Receptions discarded because of collisions.
    pub collisions: u64,
    /// Empirical mean degree of the deployed topology.
    pub mean_degree: f64,
    /// Adaptive mode only: mean `(p, q)` across nodes at each beacon
    /// interval, in order. Empty for static modes.
    pub adaptive_trace: Vec<(f64, f64)>,
}

impl NetRunStats {
    /// Number of updates the source generated.
    #[must_use]
    pub fn updates_generated(&self) -> u32 {
        self.gen_times.len() as u32
    }

    /// Figure 13 metric: mean per-node energy divided by updates
    /// generated (J/update).
    #[must_use]
    pub fn energy_per_update(&self) -> f64 {
        let updates = self.updates_generated().max(1) as f64;
        let per_node: Summary = self.energy_joules.iter().copied().collect();
        per_node.mean() / updates
    }

    /// Figure 16/18 metric: updates received / updates sent, averaged over
    /// non-source nodes.
    #[must_use]
    pub fn mean_delivery_ratio(&self) -> f64 {
        let updates = self.updates_generated();
        if updates == 0 {
            return 0.0;
        }
        let mut s = Summary::new();
        for node in 0..self.hop_distance.len() {
            if node == self.source.index() {
                continue;
            }
            let got = self.receptions.iter().filter(|r| r[node].is_some()).count();
            s.record(got as f64 / f64::from(updates));
        }
        s.mean()
    }

    /// Figure 14/15 metric: mean delivery latency (s) over nodes at BFS
    /// hop distance `d`, counting only updates that arrived. `None` when
    /// no node at that distance ever received anything.
    #[must_use]
    pub fn mean_latency_at_hops(&self, d: u32) -> Option<f64> {
        let mut s = Summary::new();
        for (u, gen) in self.gen_times.iter().enumerate() {
            for (node, dist) in self.hop_distance.iter().enumerate() {
                if *dist == Some(d) {
                    if let Some(t) = self.receptions[u][node] {
                        s.record(t.duration_since(*gen).as_secs());
                    }
                }
            }
        }
        (!s.is_empty()).then(|| s.mean())
    }

    /// Mean delivery latency over all non-source nodes and updates
    /// (the Figure 17 metric).
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        let mut s = Summary::new();
        for (u, gen) in self.gen_times.iter().enumerate() {
            for node in 0..self.hop_distance.len() {
                if node == self.source.index() {
                    continue;
                }
                if let Some(t) = self.receptions[u][node] {
                    s.record(t.duration_since(*gen).as_secs());
                }
            }
        }
        (!s.is_empty()).then(|| s.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> NetRunStats {
        NetRunStats {
            source: NodeId(0),
            hop_distance: vec![Some(0), Some(1), Some(2), Some(2)],
            gen_times: vec![t(0.0), t(100.0)],
            receptions: vec![
                vec![Some(t(0.0)), Some(t(2.0)), Some(t(12.0)), None],
                vec![Some(t(100.0)), Some(t(103.0)), None, None],
            ],
            energy_joules: vec![2.0, 2.0, 1.0, 1.0],
            state_secs: vec![[100.0, 1.0, 99.0]; 4],
            data_tx: 5,
            atim_tx: 4,
            immediate_tx: 1,
            collisions: 2,
            mean_degree: 2.0,
            adaptive_trace: Vec::new(),
        }
    }

    #[test]
    fn energy_per_update() {
        let s = sample();
        // mean energy 1.5 J over 2 updates.
        assert_eq!(s.energy_per_update(), 0.75);
    }

    #[test]
    fn delivery_ratio_excludes_source() {
        let s = sample();
        // node1: 2/2, node2: 1/2, node3: 0/2 -> mean = (1 + 0.5 + 0)/3.
        assert!((s.mean_delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_at_hops() {
        let s = sample();
        // d=1: node1 latencies 2.0 and 3.0.
        assert!((s.mean_latency_at_hops(1).unwrap() - 2.5).abs() < 1e-9);
        // d=2: only node2 update0: 12.0.
        assert!((s.mean_latency_at_hops(2).unwrap() - 12.0).abs() < 1e-9);
        assert_eq!(s.mean_latency_at_hops(7), None);
    }

    #[test]
    fn overall_latency() {
        let s = sample();
        // 2.0, 12.0, 3.0 -> mean 17/3.
        assert!((s.mean_latency().unwrap() - 17.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_neutral() {
        let s = NetRunStats {
            source: NodeId(0),
            hop_distance: vec![Some(0)],
            gen_times: vec![],
            receptions: vec![],
            energy_joules: vec![0.0],
            state_secs: vec![[0.0, 0.0, 0.0]],
            data_tx: 0,
            atim_tx: 0,
            immediate_tx: 0,
            collisions: 0,
            mean_degree: 0.0,
            adaptive_trace: Vec::new(),
        };
        assert_eq!(s.updates_generated(), 0);
        assert_eq!(s.mean_delivery_ratio(), 0.0);
        assert_eq!(s.mean_latency(), None);
    }
}
