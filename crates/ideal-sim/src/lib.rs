//! The Section-4 idealized PBBF simulator.
//!
//! The paper's analytical section is backed by "idealized simulations": a
//! grid network with an **ideal MAC and physical layer — no collisions or
//! interference** — running IEEE 802.11 PSM as the sleep-scheduling
//! protocol with PBBF layered on top. This crate reproduces that
//! simulator.
//!
//! # Model
//!
//! Time is divided into frames of `T_frame` seconds. Each frame opens with
//! an active (ATIM) window of `T_active` seconds in which every node is
//! awake; the remainder is the data phase. Within a frame:
//!
//! * A node holding a packet queued for *normal* broadcast announces it in
//!   the ATIM window and transmits at `T_active + L1` (channel access time
//!   `L1`); **all** its neighbors receive it, having heard the ATIM.
//! * A node that decides to forward *immediately* (probability `p`)
//!   transmits `L1` seconds after its own reception, still inside the
//!   current data phase; only neighbors that are **awake** at that instant
//!   receive it — nodes whose `q`-coin kept them on, nodes busy with their
//!   own traffic, and announced receivers still within their listening
//!   window. Immediate forwards can chain multiple hops per frame; a
//!   forward that would overrun the frame is deferred to a normal
//!   broadcast in the next frame.
//! * Duplicate receptions are dropped (each broadcast traverses each link
//!   at most once — the bond-percolation structure of Section 4.1).
//!
//! Energy is billed per node with the Table-1 Mica2 power profile: the
//! active window and `q`-retained data phases at `P_I`, sleep at `P_S`,
//! transmissions at `P_TX`, plus the marginal awake time caused by the
//! update's own traffic. Per-update energy is the steady-state share: one
//! inter-update interval (`1/λ`) of baseline duty-cycle energy plus the
//! full marginal cost of one dissemination.
//!
//! # Examples
//!
//! ```
//! use pbbf_core::PbbfParams;
//! use pbbf_ideal_sim::{IdealConfig, IdealSim, Mode};
//!
//! let mut cfg = IdealConfig::table1();
//! cfg.grid_side = 15; // keep the doctest fast
//! cfg.updates = 2;
//! let sim = IdealSim::new(cfg, Mode::SleepScheduled(PbbfParams::PSM));
//! let stats = sim.run(42);
//! // Plain PSM delivers every update to every node.
//! assert_eq!(stats.fraction_of_updates_with_reliability(1.0), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dissemination;
#[cfg(test)]
mod oracle;
mod sim;
mod stats;

pub use config::{IdealConfig, IdealConfigError, Mode};
pub use sim::IdealSim;
pub use stats::{RunStats, UpdateStats};
