//! Drivers that regenerate every table and figure of the paper.
//!
//! Every exhibit of *"Exploring the Energy-Latency Trade-off for
//! Broadcasts in Energy-Saving Sensor Networks"* (ICDCS 2005) is an
//! [`Experiment`]; [`run_exhibits`] regenerates a list of them as typed
//! [`Table`](pbbf_metrics::Table)s or [`Figure`](pbbf_metrics::Figure)s
//! with the same axes, legends and rows the paper plots. The twelve
//! Monte Carlo figures (4, 5, 8–11 and 13–18) are columns of three
//! sweep tables ([`sweep`]): one call queues each requested table once
//! for one executor (threads for `pbbf reproduce` and
//! [`Experiment::run`], a worker fleet for `pbbf sweep`). The tables and
//! figs 6, 7 and 12 have functions of their own (`table1`, `fig06`, …).
//!
//! Every exhibit takes an [`Effort`] (paper-scale or a scaled-down
//! `quick` preset for benches/CI) and a seed; results are deterministic
//! per `(effort, seed)`. [`Experiment::all`] enumerates all exhibits
//! for harnesses that want to run everything.
//!
//! # Examples
//!
//! ```
//! use pbbf_experiments::{fig07, Effort};
//!
//! let fig = fig07(&Effort::quick(), 1);
//! assert_eq!(fig.series.len(), 4); // 80/90/99/100% reliability curves
//! println!("{}", fig.render_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod effort;
mod extensions;
mod ideal_figs;
mod net_figs;
mod percolation_figs;
mod registry;
pub mod sweep;
mod tables;
mod tradeoff_fig;

pub use effort::Effort;
pub use extensions::{
    ext_adaptive_convergence, ext_gossip_vs_pbbf, ext_k_tradeoff, ext_latency_tail,
};
pub use percolation_figs::{fig06, fig07};
pub use registry::{run_exhibits, Experiment, Output};
pub use tables::{table1, table2};
pub use tradeoff_fig::fig12;

/// Derives a child seed from `seed` and a `salt` (a point index, a run
/// index, a label length) with the splitmix64 finalizer. Every sweep
/// seeds its points and runs through it, so a run's stream depends only
/// on where it sits in the sweep, never on scheduling.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    pbbf_des::mix64(seed ^ salt.wrapping_mul(pbbf_des::GOLDEN_GAMMA))
}
