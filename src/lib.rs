//! # pbbf — Probability-Based Broadcast Forwarding
//!
//! A complete reproduction of *"Exploring the Energy-Latency Trade-off for
//! Broadcasts in Energy-Saving Sensor Networks"* (Miller, Sengul, Gupta —
//! IEEE ICDCS 2005): the PBBF protocol, the percolation-theoretic
//! reliability analysis, the closed-form energy/latency equations, the
//! idealized (Section-4) and realistic (Section-5) simulators, and drivers
//! regenerating every table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API; the
//! [`prelude`] pulls in the names most programs need.
//!
//! ## Quickstart
//!
//! ```
//! use pbbf::prelude::*;
//!
//! // Configure PBBF: forward immediately with probability 0.5, stay awake
//! // through a sleep phase with probability 0.5.
//! let params = PbbfParams::new(0.5, 0.5).unwrap();
//!
//! // Remark 1: the broadcast percolates when 1 − p(1 − q) clears the
//! // lattice's critical bond probability.
//! assert_eq!(params.edge_probability(), 0.75);
//!
//! // Run the paper's idealized simulator on a small grid.
//! let mut cfg = IdealConfig::table1();
//! cfg.grid_side = 15;
//! cfg.updates = 2;
//! let sim = IdealSim::new(cfg, IdealMode::SleepScheduled(params));
//! let stats = sim.run(42);
//! assert!(stats.mean_delivered_fraction() > 0.9);
//! ```
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`core`] | `pbbf-core` | protocol engine, parameters, Eqs. 3–12 |
//! | [`percolation`] | `pbbf-percolation` | Newman–Ziff, p–q boundary |
//! | [`ideal_sim`] | `pbbf-ideal-sim` | Section-4 simulator |
//! | [`net_sim`] | `pbbf-net-sim` | Section-5 ns-2-style simulator |
//! | [`experiments`] | `pbbf-experiments` | every table & figure |
//! | [`fabric`] | `pbbf-fabric` | multi-process sweep supervisor/workers |
//! | [`topology`], [`radio`], [`mac`], [`des`], [`metrics`] | — | substrates |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pbbf_core as core;
pub use pbbf_des as des;
pub use pbbf_experiments as experiments;
pub use pbbf_fabric as fabric;
pub use pbbf_ideal_sim as ideal_sim;
pub use pbbf_mac as mac;
pub use pbbf_metrics as metrics;
pub use pbbf_net_sim as net_sim;
pub use pbbf_percolation as percolation;
pub use pbbf_radio as radio;
pub use pbbf_topology as topology;

/// The names most programs need, importable with one `use`.
pub mod prelude {
    pub use pbbf_core::analysis;
    pub use pbbf_core::operating_point::{Frontier, OperatingPoint};
    pub use pbbf_core::{
        AnalysisParams, ForwardDecision, ParamError, PbbfEngine, PbbfParams, PowerProfile,
        SleepSchedule,
    };
    pub use pbbf_des::{EventQueue, SimDuration, SimRng, SimTime};
    pub use pbbf_experiments::{Effort, Experiment, Output};
    pub use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode as IdealMode, RunStats as IdealRunStats};
    pub use pbbf_metrics::{ConfidenceInterval, Figure, Series, Summary, Table};
    pub use pbbf_net_sim::{
        ActiveSet, CachedDeployment, DeploymentCache, NetConfig, NetMode, NetRunStats, NetSim,
    };
    pub use pbbf_percolation::{
        critical_bond_ratio, min_q_for_reliability, pq_boundary, NewmanZiff,
    };
    pub use pbbf_radio::{BruteChannel, Channel, CollisionChannel, Delivery, Frame};
    pub use pbbf_topology::{
        unit_disk_edges, unit_disk_edges_brute, Grid, NodeId, Point2, RandomDeployment, Topology,
    };
}
