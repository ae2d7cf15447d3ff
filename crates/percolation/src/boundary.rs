//! The `p`–`q` reliability boundary (Remark 1, Figure 7).
//!
//! PBBF opens each directed link with probability
//! `p_edge = 1 − p·(1 − q)`: with probability `1 − p` the rebroadcast is a
//! *normal* (announced) broadcast every awake neighbor receives, and with
//! probability `p·q` it is an *immediate* broadcast that a neighbor catches
//! only if its `q`-coin kept it awake. Remark 1 states that reliability is
//! achieved when `p_edge ≥ p_c^bond(G)`; solving for `q` gives the minimum
//! `q` an application must configure for each `p`.

use pbbf_des::SimRng;
use pbbf_topology::{NodeId, Topology};

use crate::critical_bond_ratio;

/// The PBBF link-open probability `p_edge = 1 − p·(1 − q)` (Section 4.1).
///
/// # Panics
///
/// Panics if `p` or `q` is outside `[0, 1]`.
#[must_use]
pub fn reliability_edge_probability(p: f64, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    assert!((0.0..=1.0).contains(&q), "q = {q} outside [0, 1]");
    1.0 - p * (1.0 - q)
}

/// Inverts Remark 1: the minimum `q` such that
/// `1 − p·(1 − q) ≥ critical_edge_probability`, or `None` when no
/// `q ∈ [0, 1]` suffices (cannot happen for `critical ≤ 1`).
///
/// For `p ≤ 1 − critical` the immediate-broadcast losses alone cannot
/// disconnect the lattice and the answer is `q = 0`.
///
/// # Panics
///
/// Panics if `p` or `critical_edge_probability` is outside `[0, 1]`.
#[must_use]
pub fn min_q_for_reliability(p: f64, critical_edge_probability: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    assert!(
        (0.0..=1.0).contains(&critical_edge_probability),
        "critical p_edge {critical_edge_probability} outside [0, 1]"
    );
    if p == 0.0 {
        // Every broadcast is a normal broadcast; p_edge = 1 regardless of q.
        return Some(0.0);
    }
    let q = 1.0 - (1.0 - critical_edge_probability) / p;
    Some(q.clamp(0.0, 1.0))
}

/// Computes the Figure-7 boundary: for each requested `p`, the minimum `q`
/// achieving `target_reliability` on `topology`, using a Newman–Ziff
/// estimate ([`critical_bond_ratio`] over `runs` sweeps from `base`) of
/// the critical bond ratio.
///
/// Returns `(critical_edge_probability, Vec<(p, q_min)>)`.
///
/// # Panics
///
/// Panics on invalid reliability target, zero runs, or `p` values outside
/// `[0, 1]`.
#[must_use]
pub fn pq_boundary(
    topology: &Topology,
    source: NodeId,
    target_reliability: f64,
    p_values: &[f64],
    runs: u32,
    base: &SimRng,
) -> (f64, Vec<(f64, f64)>) {
    let critical = critical_bond_ratio(topology, source, target_reliability, runs, base);
    let boundary = p_values
        .iter()
        .map(|&p| {
            let q = min_q_for_reliability(p, critical).expect("critical <= 1 always solvable");
            (p, q)
        })
        .collect();
    (critical, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbbf_topology::Grid;

    #[test]
    fn edge_probability_formula() {
        assert_eq!(reliability_edge_probability(0.0, 0.0), 1.0);
        assert_eq!(reliability_edge_probability(1.0, 0.0), 0.0);
        assert_eq!(reliability_edge_probability(1.0, 1.0), 1.0);
        assert_eq!(reliability_edge_probability(0.5, 0.5), 0.75);
        // p = 0 makes q irrelevant.
        assert_eq!(
            reliability_edge_probability(0.0, 0.3),
            reliability_edge_probability(0.0, 0.9)
        );
    }

    #[test]
    fn min_q_inverts_edge_probability() {
        for p in [0.1, 0.25, 0.5, 0.75, 1.0] {
            for pc in [0.5, 0.6, 0.7, 0.9] {
                let q = min_q_for_reliability(p, pc).unwrap();
                if q > 0.0 && q < 1.0 {
                    let pe = reliability_edge_probability(p, q);
                    assert!((pe - pc).abs() < 1e-12, "p={p} pc={pc} q={q}");
                } else {
                    assert!(reliability_edge_probability(p, q) >= pc - 1e-12 || q == 1.0);
                }
            }
        }
    }

    #[test]
    fn small_p_needs_no_q() {
        // p <= 1 - pc keeps p_edge above pc even with q = 0.
        assert_eq!(min_q_for_reliability(0.3, 0.6).unwrap(), 0.0);
        assert_eq!(min_q_for_reliability(0.4, 0.6).unwrap(), 0.0);
        assert!(min_q_for_reliability(0.5, 0.6).unwrap() > 0.0);
    }

    #[test]
    fn min_q_is_monotone_in_p_and_reliability() {
        let pc = 0.62;
        let mut prev = -1.0;
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            let q = min_q_for_reliability(p, pc).unwrap();
            assert!(q >= prev);
            prev = q;
        }
        // Higher critical probability (higher reliability) needs higher q.
        assert!(
            min_q_for_reliability(0.75, 0.70).unwrap() > min_q_for_reliability(0.75, 0.55).unwrap()
        );
    }

    #[test]
    fn p_zero_edge_case() {
        assert_eq!(min_q_for_reliability(0.0, 0.99).unwrap(), 0.0);
    }

    #[test]
    fn boundary_on_grid_is_sane() {
        let (grid, base) = (Grid::square(20), SimRng::new(42));
        let ps = [0.05, 0.25, 0.5, 0.75, 1.0];
        let (critical, boundary) = pq_boundary(grid.topology(), grid.center(), 0.9, &ps, 30, &base);
        assert!((0.45..0.75).contains(&critical), "critical {critical}");
        assert_eq!(boundary.len(), 5);
        // q_min grows with p along the boundary.
        for w in boundary.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // Small p requires no staying awake.
        assert_eq!(boundary[0].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_p_panics() {
        let _ = reliability_edge_probability(1.5, 0.0);
    }
}
