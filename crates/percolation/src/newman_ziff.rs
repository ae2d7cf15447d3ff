//! The Newman–Ziff fast Monte-Carlo percolation sweep.
//!
//! One *microcanonical* sweep occupies the `M` bonds of a lattice one at a
//! time in uniformly random order, maintaining clusters in a union-find
//! structure; after each addition the observable of interest (here: the
//! fraction of nodes in the broadcast source's cluster) is available in
//! O(1), as in Newman & Ziff's technical report (the paper's citation
//! [9]). The figures read each sweep's *crossing*: the bond fraction at
//! which the source's cluster first covers a target share of the nodes.

use pbbf_des::SimRng;
use pbbf_topology::{NodeId, Topology};
use rand::RngCore;

use crate::UnionFind;

/// Newman–Ziff percolation driver bound to a topology and a source node.
///
/// # Examples
///
/// ```
/// use pbbf_des::SimRng;
/// use pbbf_percolation::NewmanZiff;
/// use pbbf_topology::Grid;
///
/// let grid = Grid::square(20);
/// let source = grid.center();
/// let nz = NewmanZiff::new(grid.topology(), source);
/// let mut rng = SimRng::new(1);
/// let sweep = nz.bond_sweep(&mut rng);
/// // With every bond occupied the source reaches everyone.
/// assert_eq!(sweep.source_fraction.last(), Some(&1.0));
/// // Covering more of the grid takes more bonds.
/// let c90 = nz.bond_crossing(0.9, &mut SimRng::new(2)).unwrap();
/// let c100 = nz.bond_crossing(1.0, &mut SimRng::new(2)).unwrap();
/// assert!(c90 < c100);
/// ```
#[derive(Debug, Clone)]
pub struct NewmanZiff<'a> {
    topology: &'a Topology,
    source: NodeId,
    edges: Vec<(NodeId, NodeId)>,
}

/// The trajectory of one microcanonical bond sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BondSweep {
    /// `source_fraction[n]` = fraction of all nodes in the source's cluster
    /// after occupying `n` bonds (`n = 0 ..= M`).
    pub source_fraction: Vec<f64>,
}

impl<'a> NewmanZiff<'a> {
    /// Creates a driver for `topology` with the given broadcast source.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty or the source is out of range.
    #[must_use]
    pub fn new(topology: &'a Topology, source: NodeId) -> Self {
        assert!(!topology.is_empty(), "empty topology");
        assert!(source.index() < topology.len(), "source out of range");
        Self {
            topology,
            source,
            edges: topology.edges(),
        }
    }

    /// Runs one microcanonical bond sweep with a fresh random bond order.
    #[must_use]
    pub fn bond_sweep(&self, rng: &mut impl RngCore) -> BondSweep {
        let n_nodes = self.topology.len() as f64;
        let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
        shuffle(&mut order, rng);

        let mut uf = UnionFind::new(self.topology.len());
        let mut source_fraction = Vec::with_capacity(self.edges.len() + 1);
        source_fraction.push(1.0 / n_nodes);
        for &e in &order {
            let (a, b) = self.edges[e as usize];
            uf.union(a.index(), b.index());
            source_fraction.push(f64::from(uf.size_of(self.source.index())) / n_nodes);
        }
        BondSweep { source_fraction }
    }

    /// The bond-occupation fraction `n/M` at which the source's cluster
    /// first covers at least `target` of all nodes, for one random sweep.
    ///
    /// Returns `None` if the target is never met (possible only for
    /// `target > 1`, or on a disconnected topology).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    #[must_use]
    pub fn bond_crossing(&self, target: f64, rng: &mut impl RngCore) -> Option<f64> {
        assert!(
            target > 0.0 && target <= 1.0,
            "target {target} outside (0, 1]"
        );
        let sweep = self.bond_sweep(rng);
        let m = self.edges.len() as f64;
        sweep
            .source_fraction
            .iter()
            .position(|&f| f >= target - 1e-12)
            .map(|n| n as f64 / m)
    }

    /// One microcanonical *site* sweep: the source is always occupied (a
    /// gossip source always transmits), remaining sites are occupied in
    /// random order; an edge conducts when both endpoints are occupied.
    /// Returns the source-cluster fraction after `k` additional occupied
    /// sites (`k = 0 ..= N − 1`).
    ///
    /// This is the site-percolation model of gossip-based routing (the
    /// paper's \[5\]) that Section 2.1 contrasts with PBBF's bond model.
    #[must_use]
    pub fn site_sweep(&self, rng: &mut impl RngCore) -> Vec<f64> {
        let n = self.topology.len();
        let mut order: Vec<u32> = (0..n as u32).filter(|&i| i != self.source.0).collect();
        shuffle(&mut order, rng);

        let mut occupied = vec![false; n];
        occupied[self.source.index()] = true;
        let mut uf = UnionFind::new(n);
        let mut out = Vec::with_capacity(n);
        out.push(1.0 / n as f64);
        for &s in &order {
            let site = NodeId(s);
            occupied[site.index()] = true;
            for &nb in self.topology.neighbors(site) {
                if occupied[nb.index()] {
                    uf.union(site.index(), nb.index());
                }
            }
            out.push(f64::from(uf.size_of(self.source.index())) / n as f64);
        }
        out
    }
}

/// Estimates the critical bond ratio of Figure 6: the mean over `runs`
/// sweeps of the bond-occupation fraction at which the source's cluster
/// first covers `target_reliability` of the `topology`.
///
/// The sweeps fan out across threads, sweep `i` drawing its randomness
/// from `base.substream(i)`. Because every sweep's stream depends only on
/// `(base seed, index)` and results are averaged in index order, the
/// estimate is bit-for-bit identical for any thread count (including the
/// sequential `PBBF_THREADS=1` path).
///
/// # Panics
///
/// Panics if `target_reliability` is not in `(0, 1]`, `runs == 0`, or the
/// target is never reached (disconnected topology).
#[must_use]
pub fn critical_bond_ratio(
    topology: &Topology,
    source: NodeId,
    target_reliability: f64,
    runs: u32,
    base: &SimRng,
) -> f64 {
    assert!(runs > 0, "need at least one run");
    let nz = NewmanZiff::new(topology, source);
    let crossings = pbbf_parallel::par_run(runs as usize, |sweep| {
        let mut rng = base.substream(sweep as u64);
        nz.bond_crossing(target_reliability, &mut rng)
    });
    let mut sum = 0.0;
    let mut hit = 0u32;
    for c in crossings.into_iter().flatten() {
        sum += c;
        hit += 1;
    }
    assert!(
        hit > 0,
        "target reliability never reached; disconnected topology?"
    );
    sum / f64::from(hit)
}

/// Fisher–Yates shuffle over any `RngCore` (unbiased via 128-bit widening).
fn shuffle(slice: &mut [u32], rng: &mut impl RngCore) {
    for i in (1..slice.len()).rev() {
        let bound = (i + 1) as u64;
        let j = ((rng.next_u64() as u128 * bound as u128) >> 64) as usize;
        slice.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_topology::Grid;

    #[test]
    fn sweep_starts_alone_and_ends_connected() {
        let grid = Grid::square(10);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(1);
        let sweep = nz.bond_sweep(&mut rng);
        assert_eq!(
            sweep.source_fraction.len(),
            grid.topology().edge_count() + 1
        );
        assert!((sweep.source_fraction[0] - 0.01).abs() < 1e-12);
        assert_eq!(*sweep.source_fraction.last().unwrap(), 1.0);
    }

    #[test]
    fn sweep_fractions_are_monotone() {
        let grid = Grid::square(8);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(2);
        let sweep = nz.bond_sweep(&mut rng);
        for w in sweep.source_fraction.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn crossing_near_half_for_large_grid() {
        // The infinite square lattice bond threshold is exactly 1/2; a
        // 30x30 grid at 90% coverage should cross in the 0.5-0.65 band
        // (finite-size effects push it above 1/2, as the paper's Fig. 6
        // shows).
        let grid = Grid::square(30);
        let c = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &SimRng::new(4));
        assert!((0.5..0.68).contains(&c), "critical ratio {c}");
    }

    #[test]
    fn higher_reliability_needs_more_bonds() {
        let grid = Grid::square(20);
        let base = SimRng::new(5);
        let c80 = critical_bond_ratio(grid.topology(), grid.center(), 0.8, 40, &base);
        let c99 = critical_bond_ratio(grid.topology(), grid.center(), 0.99, 40, &base);
        let c100 = critical_bond_ratio(grid.topology(), grid.center(), 1.0, 40, &base);
        assert!(c80 < c99, "{c80} !< {c99}");
        assert!(c99 < c100, "{c99} !< {c100}");
    }

    #[test]
    fn site_sweep_reaches_everyone() {
        let grid = Grid::square(10);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(8);
        let sweep = nz.site_sweep(&mut rng);
        assert_eq!(sweep.len(), grid.topology().len());
        assert_eq!(*sweep.last().unwrap(), 1.0);
        for w in sweep.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn parallel_critical_ratio_is_deterministic_and_plausible() {
        let grid = Grid::square(20);
        let base = SimRng::new(21);
        let a = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &base);
        let b = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &base);
        assert_eq!(a, b, "same base stream, same estimate");
        assert!((0.4..0.75).contains(&a), "critical ratio {a}");
        // More reliability still needs more bonds under the parallel path.
        let c99 = critical_bond_ratio(grid.topology(), grid.center(), 0.99, 40, &base);
        assert!(a < c99, "{a} !< {c99}");
    }

    #[test]
    fn crossing_deterministic_per_seed() {
        let grid = Grid::square(15);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let a = nz.bond_crossing(0.9, &mut SimRng::new(11)).unwrap();
        let b = nz.bond_crossing(0.9, &mut SimRng::new(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn crossing_full_reliability_requires_spanning() {
        // 100% reliability needs the source cluster to cover all nodes; on
        // any sweep this happens exactly when N-1 unions have occurred,
        // i.e. never before bond N-1.
        let grid = Grid::square(6);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(12);
        let c = nz.bond_crossing(1.0, &mut rng).unwrap();
        let min_fraction = (grid.topology().len() - 1) as f64 / grid.topology().edge_count() as f64;
        assert!(c >= min_fraction - 1e-12);
    }
}
