//! Uniform-random deployments with unit-disk connectivity (Section 5).
//!
//! The paper deploys `N = 50` nodes uniformly at random in a square region
//! whose area is chosen so that the node density `Δ = πR²N / A` (Eq. 13)
//! equals a target value; `Δ` approximates the expected number of one-hop
//! neighbors. Two radios are connected exactly when their distance is at
//! most the radio range `R` (unit-disk model, matching the ns-2 two-ray
//! ground setup at these scales).

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::{NodeId, Point2, Topology};

/// Computes the node density `Δ = πR²N / A` of Eq. 13.
///
/// # Panics
///
/// Panics if any argument is non-positive or non-finite.
#[must_use]
pub fn density(range: f64, nodes: usize, area: f64) -> f64 {
    assert!(range > 0.0 && range.is_finite(), "bad range {range}");
    assert!(nodes > 0, "no nodes");
    assert!(area > 0.0 && area.is_finite(), "bad area {area}");
    std::f64::consts::PI * range * range * nodes as f64 / area
}

/// Inverts Eq. 13: the deployment area that yields density `delta` for
/// `nodes` radios of the given `range`.
///
/// # Panics
///
/// Panics if any argument is non-positive or non-finite.
#[must_use]
pub fn area_for_density(range: f64, nodes: usize, delta: f64) -> f64 {
    assert!(delta > 0.0 && delta.is_finite(), "bad density {delta}");
    assert!(range > 0.0 && range.is_finite(), "bad range {range}");
    assert!(nodes > 0, "no nodes");
    std::f64::consts::PI * range * range * nodes as f64 / delta
}

/// A uniform-random deployment in a square region.
///
/// # Examples
///
/// ```
/// use pbbf_des::SimRng;
/// use pbbf_topology::RandomDeployment;
///
/// let mut rng = SimRng::new(1);
/// let d = RandomDeployment::with_density(50, 30.0, 10.0, &mut rng);
/// assert_eq!(d.topology().len(), 50);
/// // Mean degree approximates Δ = 10 (up to boundary effects).
/// assert!(d.topology().mean_degree() > 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomDeployment {
    side: f64,
    range: f64,
    topology: Topology,
}

impl RandomDeployment {
    /// Deploys `nodes` radios of the given `range` uniformly in a square
    /// region sized for the target density `delta` (Eq. 13).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    #[must_use]
    pub fn with_density(nodes: usize, range: f64, delta: f64, rng: &mut impl RngCore) -> Self {
        let area = area_for_density(range, nodes, delta);
        Self::in_square(nodes, range, area.sqrt(), rng)
    }

    /// Deploys `nodes` radios of the given `range` uniformly in a
    /// `side × side` square.
    ///
    /// Edge construction uses a spatial-hash grid ([`unit_disk_edges`]),
    /// making deployment O(n) at fixed density instead of the O(n²)
    /// all-pairs scan — the difference between the paper's `N = 50` and
    /// the 10k–100k-node deployments this engine targets.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    #[must_use]
    pub fn in_square(nodes: usize, range: f64, side: f64, rng: &mut impl RngCore) -> Self {
        assert!(nodes > 0, "no nodes");
        assert!(side > 0.0 && side.is_finite(), "bad side {side}");
        let positions: Vec<Point2> = (0..nodes)
            .map(|_| Point2::new(unit_f64(rng) * side, unit_f64(rng) * side))
            .collect();
        Self::from_positions(positions, range, side)
    }

    /// Builds a deployment from explicit positions (unit-disk edges of the
    /// given `range`, computed via the spatial-hash grid).
    ///
    /// # Panics
    ///
    /// Panics if there are no positions, or `range`/`side` are
    /// non-positive or non-finite.
    #[must_use]
    pub fn from_positions(positions: Vec<Point2>, range: f64, side: f64) -> Self {
        assert!(!positions.is_empty(), "no nodes");
        assert!(range > 0.0 && range.is_finite(), "bad range {range}");
        assert!(side > 0.0 && side.is_finite(), "bad side {side}");
        let edges = unit_disk_edges(&positions, range);
        Self {
            side,
            range,
            topology: Topology::from_edges(positions, &edges),
        }
    }

    /// Keeps redeploying (with fresh randomness from `rng`) until the
    /// unit-disk graph is connected, up to `max_attempts`.
    ///
    /// The paper's scenarios require every node to be reachable from the
    /// source for the reliability metric to be meaningful; ns-2 scenario
    /// generation conventionally rejects disconnected deployments.
    ///
    /// Returns `None` if no connected deployment was found.
    #[must_use]
    pub fn connected_with_density(
        nodes: usize,
        range: f64,
        delta: f64,
        max_attempts: u32,
        rng: &mut impl RngCore,
    ) -> Option<Self> {
        for _ in 0..max_attempts {
            let d = Self::with_density(nodes, range, delta, rng);
            if d.topology.is_connected() {
                return Some(d);
            }
        }
        None
    }

    /// Side length of the deployment square (m).
    #[must_use]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Radio range (m).
    #[must_use]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The underlying topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Consumes the deployment, returning the topology.
    #[must_use]
    pub fn into_topology(self) -> Topology {
        self.topology
    }
}

/// Uniform `[0, 1)` from 53 random bits of any `RngCore`.
fn unit_f64(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// All unit-disk edges among `positions` (pairs at distance ≤ `range`),
/// each reported once with the smaller id first.
///
/// The order is deterministic for given inputs but unspecified (it follows
/// the internal cell traversal, not node ids) — [`Topology::from_edges`]
/// normalizes per-node adjacency regardless, so builders need no sort
/// here; sort both sides when comparing against
/// [`unit_disk_edges_brute`]'s lexicographic output.
///
/// Uses a spatial-hash grid: positions are bucketed into square cells of
/// side ≥ `range` (counting sort, no per-node allocation), and each cell is
/// checked only against its forward half-stencil, so every candidate pair
/// is examined exactly once. At fixed density Δ this is O(n + E) versus the
/// all-pairs O(n²) of [`unit_disk_edges_brute`].
///
/// # Panics
///
/// Panics if `range` is non-positive, non-finite, or any coordinate is
/// non-finite.
#[must_use]
pub fn unit_disk_edges(positions: &[Point2], range: f64) -> Vec<(NodeId, NodeId)> {
    assert!(range > 0.0 && range.is_finite(), "bad range {range}");
    let n = positions.len();
    if n < 2 {
        return Vec::new();
    }
    let (min_x, min_y, max_x, max_y) = bounding_box(positions);

    // Cell side: at least `range` (so the 3×3 stencil covers the disk),
    // and large enough that the grid holds at most ~4n cells even when the
    // domain dwarfs the radio range.
    let extent = (max_x - min_x).max(max_y - min_y).max(range);
    let max_cells_per_axis = ((4.0 * n as f64).sqrt().floor() as usize).max(1);
    let cell = range.max(extent / max_cells_per_axis as f64);
    let cols = grid_axis_cells(max_x - min_x, cell);
    let rows = grid_axis_cells(max_y - min_y, cell);

    let cell_of = |p: Point2| -> usize {
        let gx = (((p.x - min_x) / cell) as usize).min(cols - 1);
        let gy = (((p.y - min_y) / cell) as usize).min(rows - 1);
        gy * cols + gx
    };

    // Counting sort of node indices into cells (CSR layout).
    let mut starts = vec![0u32; rows * cols + 1];
    for &p in positions {
        starts[cell_of(p) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    // Node ids and their positions laid out in bucket order: candidate
    // scans below walk both arrays sequentially instead of gathering
    // positions through a random-index indirection.
    let mut bucketed = vec![0u32; n];
    let mut bucket_pts = vec![Point2::new(0.0, 0.0); n];
    let mut cursor = starts.clone();
    for (i, &p) in positions.iter().enumerate() {
        let c = cell_of(p);
        let slot = cursor[c] as usize;
        bucketed[slot] = i as u32;
        bucket_pts[slot] = p;
        cursor[c] += 1;
    }

    // Forward half-stencil: within-cell pairs once (k < l by bucket
    // position), plus the four neighbor cells E, SW, S, SE — every
    // unordered cell pair is visited from exactly one side. Because cells
    // are row-major, "rest of own cell + E" is one contiguous run and
    // "SW + S + SE" another, so each node does two linear scans over the
    // bucket-ordered position array instead of five short loops. Edges are
    // packed as `min << 32 | max` u64 keys.
    let range_sq = range * range;
    let key = |a: u32, b: u32| (u64::from(a.min(b)) << 32) | u64::from(a.max(b));
    let mut edges: Vec<u64> = Vec::with_capacity(n * 4);
    for gy in 0..rows {
        for gx in 0..cols {
            let c0 = gy * cols + gx;
            let (s0, e0) = (starts[c0] as usize, starts[c0 + 1] as usize);
            // Own cell's tail plus the east neighbor (when it exists).
            let east_end = starts[c0 + usize::from(gx + 1 < cols) + 1] as usize;
            // The contiguous SW..SE span of the row below (when it exists).
            let (below_start, below_end) = if gy + 1 < rows {
                let row = (gy + 1) * cols;
                (
                    starts[row + gx.saturating_sub(1)] as usize,
                    starts[row + (gx + 1).min(cols - 1) + 1] as usize,
                )
            } else {
                (0, 0)
            };
            for k in s0..e0 {
                let (a, pa) = (bucketed[k], bucket_pts[k]);
                let east = bucket_pts[k + 1..east_end]
                    .iter()
                    .zip(&bucketed[k + 1..east_end]);
                let below = bucket_pts[below_start..below_end]
                    .iter()
                    .zip(&bucketed[below_start..below_end]);
                for (pb, &b) in east.chain(below) {
                    let (dx, dy) = (pa.x - pb.x, pa.y - pb.y);
                    if dx * dx + dy * dy <= range_sq {
                        edges.push(key(a, b));
                    }
                }
            }
        }
    }

    edges
        .into_iter()
        .map(|e| (NodeId((e >> 32) as u32), NodeId(e as u32)))
        .collect()
}

/// Reference all-pairs implementation of [`unit_disk_edges`]: O(n²), kept
/// for property tests and as the bench baseline the spatial hash is
/// measured against.
///
/// # Panics
///
/// Panics if `range` is non-positive or non-finite.
#[must_use]
pub fn unit_disk_edges_brute(positions: &[Point2], range: f64) -> Vec<(NodeId, NodeId)> {
    assert!(range > 0.0 && range.is_finite(), "bad range {range}");
    let range_sq = range * range;
    let mut edges = Vec::new();
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            if positions[i].distance_squared(positions[j]) <= range_sq {
                edges.push((NodeId(i as u32), NodeId(j as u32)));
            }
        }
    }
    edges
}

fn bounding_box(positions: &[Point2]) -> (f64, f64, f64, f64) {
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in positions {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position");
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    (min_x, min_y, max_x, max_y)
}

fn grid_axis_cells(extent: f64, cell: f64) -> usize {
    ((extent / cell).floor() as usize + 1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_des::SimRng;

    #[test]
    fn density_and_area_are_inverse() {
        let a = area_for_density(30.0, 50, 10.0);
        let d = density(30.0, 50, a);
        assert!((d - 10.0).abs() < 1e-12);
    }

    #[test]
    fn table2_scenario_area() {
        // N = 50, Δ = 10: A = πR²·50/10 = 5πR².
        let a = area_for_density(30.0, 50, 10.0);
        assert!((a - 5.0 * std::f64::consts::PI * 900.0).abs() < 1e-9);
    }

    #[test]
    fn deployment_positions_inside_square() {
        let mut rng = SimRng::new(2);
        let d = RandomDeployment::in_square(100, 10.0, 50.0, &mut rng);
        for n in d.topology().nodes() {
            let p = d.topology().position(n);
            assert!((0.0..50.0).contains(&p.x) && (0.0..50.0).contains(&p.y));
        }
    }

    #[test]
    fn edges_respect_range() {
        let mut rng = SimRng::new(3);
        let d = RandomDeployment::in_square(60, 12.0, 60.0, &mut rng);
        let topo = d.topology();
        for (a, b) in topo.edges() {
            assert!(topo.position(a).distance(topo.position(b)) <= 12.0);
        }
        // And non-edges exceed range.
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a < b && !topo.are_neighbors(a, b) {
                    assert!(topo.position(a).distance(topo.position(b)) > 12.0);
                }
            }
        }
    }

    #[test]
    fn mean_degree_tracks_density() {
        // Average over several seeds: boundary effects bias low, but the
        // mean degree should be within ~35% of Δ.
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let mut rng = SimRng::new(seed);
            let d = RandomDeployment::with_density(200, 25.0, 12.0, &mut rng);
            total += d.topology().mean_degree();
        }
        let mean = total / runs as f64;
        assert!((mean - 12.0).abs() < 4.0, "mean degree {mean} vs Δ=12");
    }

    #[test]
    fn connected_deployment_is_connected() {
        let mut rng = SimRng::new(4);
        let d = RandomDeployment::connected_with_density(50, 30.0, 10.0, 100, &mut rng)
            .expect("Δ=10 deployments connect easily");
        assert!(d.topology().is_connected());
        assert!((density(d.range(), 50, d.side() * d.side()) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deployment_is_deterministic_per_seed() {
        let d1 = RandomDeployment::with_density(50, 30.0, 10.0, &mut SimRng::new(9));
        let d2 = RandomDeployment::with_density(50, 30.0, 10.0, &mut SimRng::new(9));
        assert_eq!(d1, d2);
        let d3 = RandomDeployment::with_density(50, 30.0, 10.0, &mut SimRng::new(10));
        assert_ne!(d1, d3);
    }

    #[test]
    #[should_panic(expected = "bad density")]
    fn zero_density_panics() {
        let _ = area_for_density(30.0, 50, 0.0);
    }

    /// Grid output order is unspecified; normalize before comparing with
    /// the lexicographic brute-force reference.
    fn sorted_grid_edges(positions: &[Point2], range: f64) -> Vec<(NodeId, NodeId)> {
        let mut edges = unit_disk_edges(positions, range);
        edges.sort_unstable();
        edges
    }

    fn random_positions(n: usize, side: f64, rng: &mut SimRng) -> Vec<Point2> {
        (0..n)
            .map(|_| Point2::new(rng.uniform01() * side, rng.uniform01() * side))
            .collect()
    }

    #[test]
    fn spatial_hash_matches_brute_force_across_seeds_and_scales() {
        for (seed, n, range, side) in [
            (1u64, 2usize, 5.0, 100.0),
            (2, 50, 30.0, 120.0),
            (3, 200, 10.0, 50.0),
            (4, 400, 3.0, 200.0),
            (5, 333, 75.0, 80.0),
            (6, 100, 0.5, 1000.0), // sparse: cell-count cap engages
        ] {
            let mut rng = SimRng::new(seed);
            let positions = random_positions(n, side, &mut rng);
            assert_eq!(
                sorted_grid_edges(&positions, range),
                unit_disk_edges_brute(&positions, range),
                "seed {seed}, n {n}, range {range}, side {side}"
            );
        }
    }

    #[test]
    fn spatial_hash_degenerate_all_nodes_in_one_cell() {
        // Every pairwise distance is within range: complete graph.
        let mut rng = SimRng::new(7);
        let positions = random_positions(40, 1.0, &mut rng);
        let edges = sorted_grid_edges(&positions, 10.0);
        assert_eq!(edges.len(), 40 * 39 / 2);
        assert_eq!(edges, unit_disk_edges_brute(&positions, 10.0));
    }

    #[test]
    fn spatial_hash_nodes_on_cell_boundaries() {
        // Nodes at exact multiples of the range sit on cell borders; edges
        // at exactly distance == range must be included.
        let r = 10.0;
        let mut positions = Vec::new();
        for gx in 0..5 {
            for gy in 0..5 {
                positions.push(Point2::new(f64::from(gx) * r, f64::from(gy) * r));
            }
        }
        let edges = sorted_grid_edges(&positions, r);
        assert_eq!(edges, unit_disk_edges_brute(&positions, r));
        // Axis-aligned lattice neighbors are exactly `r` apart: 2·5·4 edges.
        assert_eq!(edges.len(), 40);
    }

    #[test]
    fn spatial_hash_coincident_points() {
        let positions = vec![Point2::new(3.0, 3.0); 8];
        let edges = sorted_grid_edges(&positions, 1.0);
        assert_eq!(edges.len(), 8 * 7 / 2);
        assert_eq!(edges, unit_disk_edges_brute(&positions, 1.0));
    }

    #[test]
    fn from_positions_matches_in_square_topology() {
        let mut rng = SimRng::new(8);
        let d1 = RandomDeployment::in_square(120, 12.0, 70.0, &mut rng);
        let positions: Vec<Point2> = d1
            .topology()
            .nodes()
            .map(|n| d1.topology().position(n))
            .collect();
        let d2 = RandomDeployment::from_positions(positions, 12.0, 70.0);
        assert_eq!(d1, d2);
    }
}
