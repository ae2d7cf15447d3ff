//! Bond and site percolation on finite grids.
//!
//! Section 4.1 of the paper characterizes PBBF's reliability as a **bond
//! percolation** problem: every directed link of the network is "open" with
//! probability `p_edge = 1 − p·(1 − q)`, and a broadcast reaches the nodes
//! in the open-edge cluster of the source. The paper estimates the critical
//! bond ratio of finite grids with "a fast Monte Carlo algorithm from
//! [Newman & Ziff]" (its Figure 6) and derives from it the `p`–`q`
//! operating boundary for each reliability level (its Figure 7).
//!
//! This crate implements that machinery:
//!
//! * [`UnionFind`] — weighted union-find with path compression, the data
//!   structure underlying the Newman–Ziff sweep.
//! * [`NewmanZiff`] — the microcanonical bond (and site) percolation sweep
//!   over a [`Topology`](pbbf_topology::Topology), plus the binomial
//!   convolution that converts sweep statistics to canonical (fixed-`p`)
//!   reliability curves.
//! * [`critical_bond_ratio`] — the Figure-6 estimator: the fraction of
//!   occupied bonds at which the source's cluster first covers a target
//!   fraction of nodes.
//! * [`pq_boundary`] and [`min_q_for_reliability`] — the Figure-7 map
//!   from a critical edge probability to the minimal `q` for each `p`
//!   via Remark 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod newman_ziff;
mod union_find;

pub use boundary::{min_q_for_reliability, pq_boundary, reliability_edge_probability};
pub use newman_ziff::{
    critical_bond_ratio, critical_bond_ratio_par, BondSweep, NewmanZiff, SweepStats,
};
pub use union_find::UnionFind;
