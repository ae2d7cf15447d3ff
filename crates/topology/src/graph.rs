//! The topology graph: positions, adjacency, hop distances.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::Point2;

/// Identifies a node within one [`Topology`].
///
/// A thin index newtype: node ids are dense `0..n` and only meaningful
/// relative to the topology that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable deployment: node positions plus symmetric adjacency.
///
/// Built by [`Grid`](crate::Grid) or
/// [`RandomDeployment`](crate::RandomDeployment); consumed by the
/// simulators (neighbor iteration) and by the percolation analysis (edge
/// enumeration).
///
/// Adjacency is stored in CSR (compressed sparse row) form — one flat,
/// sorted neighbor array indexed by per-node offsets — so iterating a
/// node's neighbors is a contiguous slice scan with no pointer chasing,
/// and the whole structure is two allocations regardless of node count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    positions: Vec<Point2>,
    /// CSR row offsets: node `i`'s neighbors live at
    /// `neighbors[offsets[i] .. offsets[i + 1]]`; length `n + 1`.
    offsets: Vec<u32>,
    /// All neighbor lists concatenated, sorted within each node's segment;
    /// symmetric: `b ∈ neighbors(a) ⇔ a ∈ neighbors(b)`.
    neighbors: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from positions and an undirected edge list.
    ///
    /// Self-loops and duplicate edges are rejected rather than silently
    /// dropped — they always indicate a builder bug.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node out of range, is a self-loop, or
    /// is listed twice (in either orientation).
    #[must_use]
    pub fn from_edges(positions: Vec<Point2>, edges: &[(NodeId, NodeId)]) -> Self {
        let n = positions.len();
        assert!(n < u32::MAX as usize, "too many nodes for u32 ids");
        // Two-pass CSR build: count degrees, prefix-sum into offsets, fill.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in edges {
            assert!(
                a.index() < n && b.index() < n,
                "edge ({a}, {b}) out of range"
            );
            assert_ne!(a, b, "self-loop at {a}");
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut neighbors = vec![NodeId(0); offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(a, b) in edges {
            neighbors[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        for i in 0..n {
            let segment = &mut neighbors[offsets[i] as usize..offsets[i + 1] as usize];
            segment.sort_unstable();
            assert!(
                segment.windows(2).all(|w| w[0] != w[1]),
                "duplicate edge at node {i}"
            );
        }
        Self {
            positions,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterates over all node ids in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point2 {
        self.positions[node.index()]
    }

    /// The sorted neighbors of `node` (a contiguous CSR slice).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let lo = self.offsets[node.index()] as usize;
        let hi = self.offsets[node.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The degree of `node`.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// All undirected edges, each reported once with `a < b`.
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for a in self.nodes() {
            for &b in self.neighbors(a) {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Whether `a` and `b` share an edge.
    #[must_use]
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// BFS hop distance from `source` to every node.
    ///
    /// Returns `None` for unreachable nodes. Used for the paper's
    /// "`d`-hop node" groupings (Figs 9, 10, 14, 15).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    #[must_use]
    pub fn hop_distances(&self, source: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.len()];
        let mut queue = VecDeque::new();
        dist[source.index()] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued node has distance");
            for &v in self.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node is reachable from node 0 (vacuously true when
    /// empty).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.hop_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// Mean node degree — the empirical counterpart of the paper's density
    /// parameter Δ (expected number of one-hop neighbors, Section 5.3).
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2    (a path plus an isolated node 3)
    fn path3_plus_isolated() -> Topology {
        let pos = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(9.0, 9.0),
        ];
        Topology::from_edges(pos, &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))])
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = path3_plus_isolated();
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
        assert!(t.are_neighbors(NodeId(1), NodeId(0)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(3)), 0);
    }

    #[test]
    fn edge_count_and_edges() {
        let t = path3_plus_isolated();
        assert_eq!(t.edge_count(), 2);
        assert_eq!(
            t.edges(),
            vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]
        );
    }

    #[test]
    fn hop_distances_bfs() {
        let t = path3_plus_isolated();
        let d = t.hop_distances(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), None]);
    }

    #[test]
    fn connectivity() {
        let t = path3_plus_isolated();
        assert!(!t.is_connected());
        let pos = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let t2 = Topology::from_edges(pos, &[(NodeId(0), NodeId(1))]);
        assert!(t2.is_connected());
    }

    #[test]
    fn mean_degree() {
        let t = path3_plus_isolated();
        assert_eq!(t.mean_degree(), 2.0 * 2.0 / 4.0);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_edges(vec![], &[]);
        assert!(t.is_empty());
        assert!(t.is_connected());
        assert_eq!(t.mean_degree(), 0.0);
    }

    #[test]
    fn csr_layout_is_compact_and_ordered() {
        let t = path3_plus_isolated();
        // Neighbor slices tile the flat array: total length = 2·edges, and
        // concatenating per-node slices reproduces it exactly.
        let concat: Vec<NodeId> = t.nodes().flat_map(|n| t.neighbors(n).to_vec()).collect();
        assert_eq!(concat.len(), 2 * t.edge_count());
        for n in t.nodes() {
            assert!(t.neighbors(n).windows(2).all(|w| w[0] < w[1]), "sorted {n}");
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let pos = vec![Point2::new(0.0, 0.0)];
        let _ = Topology::from_edges(pos, &[(NodeId(0), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let pos = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let _ = Topology::from_edges(pos, &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let pos = vec![Point2::new(0.0, 0.0)];
        let _ = Topology::from_edges(pos, &[(NodeId(0), NodeId(5))]);
    }
}
