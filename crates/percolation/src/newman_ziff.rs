//! The Newman–Ziff fast Monte-Carlo percolation sweep.
//!
//! One *microcanonical* sweep occupies the `M` bonds of a lattice one at a
//! time in uniformly random order, maintaining clusters in a union-find
//! structure; after each addition the observable of interest (here: the
//! fraction of nodes in the broadcast source's cluster) is available in
//! O(1). Canonical (fixed bond probability `p_edge`) curves are recovered
//! by convolving the sweep with the binomial distribution `B(M, p_edge)`,
//! exactly as in Newman & Ziff's technical report (the paper's citation
//! [9]).

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
/// let stats = nz.average_bond_sweeps(50, &mut rng);
/// // With every bond occupied the source reaches everyone.
/// assert!((stats.mean_source_fraction.last().unwrap() - 1.0).abs() < 1e-12);
/// // Reliability is monotone in p_edge.
/// assert!(stats.canonical_reliability(0.7) >= stats.canonical_reliability(0.3));
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
    /// `largest_fraction[n]` = fraction of all nodes in the largest cluster.
    pub largest_fraction: Vec<f64>,
}

/// Averaged sweep statistics over many runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Mean source-cluster fraction after `n` occupied bonds.
    pub mean_source_fraction: Vec<f64>,
    /// Number of sweeps averaged.
    pub runs: u32,
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

    /// Number of bonds `M` in the lattice.
    #[must_use]
    pub fn bond_count(&self) -> usize {
        self.edges.len()
    }

    /// Runs one microcanonical bond sweep with a fresh random bond order.
    #[must_use]
    pub fn bond_sweep(&self, rng: &mut impl RngCore) -> BondSweep {
        let n_nodes = self.topology.len() as f64;
        let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
        shuffle(&mut order, rng);

        let mut uf = UnionFind::new(self.topology.len());
        let mut source_fraction = Vec::with_capacity(self.edges.len() + 1);
        let mut largest_fraction = Vec::with_capacity(self.edges.len() + 1);
        source_fraction.push(1.0 / n_nodes);
        largest_fraction.push(1.0 / n_nodes);
        for &e in &order {
            let (a, b) = self.edges[e as usize];
            uf.union(a.index(), b.index());
            source_fraction.push(f64::from(uf.size_of(self.source.index())) / n_nodes);
            largest_fraction.push(f64::from(uf.largest()) / n_nodes);
        }
        BondSweep {
            source_fraction,
            largest_fraction,
        }
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

    /// Averages `runs` bond sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    #[must_use]
    pub fn average_bond_sweeps(&self, runs: u32, rng: &mut impl RngCore) -> SweepStats {
        assert!(runs > 0, "need at least one run");
        let mut acc = vec![0.0; self.edges.len() + 1];
        for _ in 0..runs {
            let sweep = self.bond_sweep(rng);
            for (a, f) in acc.iter_mut().zip(&sweep.source_fraction) {
                *a += f;
            }
        }
        for a in &mut acc {
            *a /= f64::from(runs);
        }
        SweepStats {
            mean_source_fraction: acc,
            runs,
        }
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

impl SweepStats {
    /// Canonical reliability at bond probability `p_edge`: the binomial
    /// convolution `R(p) = Σₙ B(n; M, p) · mean_source_fraction[n]`.
    ///
    /// # Panics
    ///
    /// Panics if `p_edge` is outside `[0, 1]`.
    #[must_use]
    pub fn canonical_reliability(&self, p_edge: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p_edge),
            "p_edge {p_edge} outside [0, 1]"
        );
        let m = self.mean_source_fraction.len() - 1;
        let pmf = binomial_pmf(m, p_edge);
        pmf.iter()
            .zip(&self.mean_source_fraction)
            .map(|(w, f)| w * f)
            .sum()
    }

    /// The smallest occupied-bond fraction `n/M` at which the *mean*
    /// source-cluster fraction reaches `target`, or `None` if it never
    /// does.
    #[must_use]
    pub fn crossing_fraction(&self, target: f64) -> Option<f64> {
        let m = (self.mean_source_fraction.len() - 1) as f64;
        self.mean_source_fraction
            .iter()
            .position(|&f| f >= target - 1e-12)
            .map(|n| n as f64 / m)
    }

    /// The smallest canonical `p_edge` (on a grid of `steps` candidates)
    /// whose convolved reliability reaches `target`. Returns `1.0` when
    /// only full occupation reaches the target.
    #[must_use]
    pub fn canonical_threshold(&self, target: f64, steps: u32) -> f64 {
        assert!(steps > 1, "need at least two steps");
        for i in 0..=steps {
            let p = f64::from(i) / f64::from(steps);
            if self.canonical_reliability(p) >= target - 1e-12 {
                return p;
            }
        }
        1.0
    }
}

/// Estimates the critical bond ratio of Figure 6: the mean over `runs`
/// sweeps of the bond-occupation fraction at which the source's cluster
/// first covers `target_reliability` of the `topology`.
///
/// # Panics
///
/// Panics if `target_reliability` is not in `(0, 1]` or `runs == 0`.
#[must_use]
pub fn critical_bond_ratio(
    topology: &Topology,
    source: NodeId,
    target_reliability: f64,
    runs: u32,
    rng: &mut impl RngCore,
) -> f64 {
    assert!(runs > 0, "need at least one run");
    let nz = NewmanZiff::new(topology, source);
    let mut sum = 0.0;
    let mut hit = 0u32;
    for _ in 0..runs {
        if let Some(c) = nz.bond_crossing(target_reliability, rng) {
            sum += c;
            hit += 1;
        }
    }
    assert!(
        hit > 0,
        "target reliability never reached; disconnected topology?"
    );
    sum / f64::from(hit)
}

/// Parallel [`critical_bond_ratio`]: sweeps fan out across threads, each
/// drawing its randomness from `base.substream(sweep_index)`.
///
/// Because every sweep's stream depends only on `(base seed, index)` and
/// results are averaged in index order, the estimate is bit-for-bit
/// identical for any thread count (including the sequential
/// `PBBF_THREADS=1` path). Note the *stream layout* differs from the
/// shared-`&mut rng` sequential API above, so the two functions give
/// different (equally valid) Monte Carlo estimates for the same seed.
///
/// # Panics
///
/// Panics if `target_reliability` is not in `(0, 1]`, `runs == 0`, or the
/// target is never reached (disconnected topology).
#[must_use]
pub fn critical_bond_ratio_par(
    topology: &Topology,
    source: NodeId,
    target_reliability: f64,
    runs: u32,
    base: &pbbf_des::SimRng,
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

/// Binomial pmf `B(n; m, p)` for all `n = 0..=m`, computed by the
/// numerically stable outward recurrence from the mode.
fn binomial_pmf(m: usize, p: f64) -> Vec<f64> {
    let mut pmf = vec![0.0; m + 1];
    if p <= 0.0 {
        pmf[0] = 1.0;
        return pmf;
    }
    if p >= 1.0 {
        pmf[m] = 1.0;
        return pmf;
    }
    let mode = (((m + 1) as f64) * p).floor().min(m as f64) as usize;
    pmf[mode] = 1.0;
    // Upward: pmf[k+1] = pmf[k] * (m-k)/(k+1) * p/(1-p)
    let ratio = p / (1.0 - p);
    for k in mode..m {
        pmf[k + 1] = pmf[k] * ((m - k) as f64 / (k + 1) as f64) * ratio;
    }
    // Downward: pmf[k-1] = pmf[k] * k/(m-k+1) * (1-p)/p
    for k in (1..=mode).rev() {
        pmf[k - 1] = pmf[k] * (k as f64 / (m - k + 1) as f64) / ratio;
    }
    let total: f64 = pmf.iter().sum();
    for v in &mut pmf {
        *v /= total;
    }
    pmf
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
    use pbbf_des::SimRng;
    use pbbf_topology::Grid;

    #[test]
    fn binomial_pmf_sums_to_one_and_matches_small_cases() {
        let pmf = binomial_pmf(4, 0.5);
        let expected = [1.0, 4.0, 6.0, 4.0, 1.0].map(|c| c / 16.0);
        for (a, b) in pmf.iter().zip(expected) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        for p in [0.0, 0.123, 0.5, 0.987, 1.0] {
            let pmf = binomial_pmf(100, p);
            assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn binomial_pmf_degenerate() {
        let p0 = binomial_pmf(10, 0.0);
        assert_eq!(p0[0], 1.0);
        let p1 = binomial_pmf(10, 1.0);
        assert_eq!(p1[10], 1.0);
    }

    #[test]
    fn sweep_starts_alone_and_ends_connected() {
        let grid = Grid::square(10);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(1);
        let sweep = nz.bond_sweep(&mut rng);
        assert_eq!(sweep.source_fraction.len(), nz.bond_count() + 1);
        assert!((sweep.source_fraction[0] - 0.01).abs() < 1e-12);
        assert_eq!(*sweep.source_fraction.last().unwrap(), 1.0);
        assert_eq!(*sweep.largest_fraction.last().unwrap(), 1.0);
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
        for w in sweep.largest_fraction.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn largest_dominates_source_cluster() {
        let grid = Grid::square(8);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(3);
        let sweep = nz.bond_sweep(&mut rng);
        for (s, l) in sweep.source_fraction.iter().zip(&sweep.largest_fraction) {
            assert!(l >= s);
        }
    }

    #[test]
    fn crossing_near_half_for_large_grid() {
        // The infinite square lattice bond threshold is exactly 1/2; a
        // 30x30 grid at 90% coverage should cross in the 0.5-0.65 band
        // (finite-size effects push it above 1/2, as the paper's Fig. 6
        // shows).
        let grid = Grid::square(30);
        let mut rng = SimRng::new(4);
        let c = critical_bond_ratio(grid.topology(), grid.center(), 0.9, 40, &mut rng);
        assert!((0.5..0.68).contains(&c), "critical ratio {c}");
    }

    #[test]
    fn higher_reliability_needs_more_bonds() {
        let grid = Grid::square(20);
        let mut rng = SimRng::new(5);
        let c80 = critical_bond_ratio(grid.topology(), grid.center(), 0.8, 40, &mut rng);
        let c99 = critical_bond_ratio(grid.topology(), grid.center(), 0.99, 40, &mut rng);
        let c100 = critical_bond_ratio(grid.topology(), grid.center(), 1.0, 40, &mut rng);
        assert!(c80 < c99, "{c80} !< {c99}");
        assert!(c99 < c100, "{c99} !< {c100}");
    }

    #[test]
    fn canonical_reliability_monotone_in_p() {
        let grid = Grid::square(12);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(6);
        let stats = nz.average_bond_sweeps(30, &mut rng);
        let mut prev = -1.0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let r = stats.canonical_reliability(p);
            assert!(r >= prev - 1e-9, "not monotone at p = {p}");
            prev = r;
        }
        assert!(stats.canonical_reliability(0.0) < 0.05);
        assert!((stats.canonical_reliability(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn canonical_threshold_bounds() {
        let grid = Grid::square(12);
        let nz = NewmanZiff::new(grid.topology(), grid.center());
        let mut rng = SimRng::new(7);
        let stats = nz.average_bond_sweeps(30, &mut rng);
        let t80 = stats.canonical_threshold(0.8, 100);
        let t99 = stats.canonical_threshold(0.99, 100);
        assert!(t80 <= t99);
        assert!(t80 > 0.3 && t99 <= 1.0);
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
        let a = critical_bond_ratio_par(grid.topology(), grid.center(), 0.9, 40, &base);
        let b = critical_bond_ratio_par(grid.topology(), grid.center(), 0.9, 40, &base);
        assert_eq!(a, b, "same base stream, same estimate");
        assert!((0.4..0.75).contains(&a), "critical ratio {a}");
        // More reliability still needs more bonds under the parallel path.
        let c99 = critical_bond_ratio_par(grid.topology(), grid.center(), 0.99, 40, &base);
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
        let min_fraction = (grid.topology().len() - 1) as f64 / nz.bond_count() as f64;
        assert!(c >= min_fraction - 1e-12);
    }
}
