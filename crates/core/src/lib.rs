//! PBBF — Probability-Based Broadcast Forwarding.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Exploring the Energy-Latency Trade-off for Broadcasts in Energy-Saving
//! Sensor Networks"* (Miller, Sengul, Gupta — ICDCS 2005): a MAC-layer
//! probabilistic broadcast forwarding scheme that can be layered onto any
//! sleep-scheduling protocol, plus the paper's closed-form analysis of the
//! energy–latency–reliability trade-off it exposes.
//!
//! # The protocol
//!
//! A sleep-scheduling MAC divides time into frames of length `T_frame`,
//! each with an active window of length `T_active` (in IEEE 802.11 PSM the
//! ATIM window) followed by a data phase in which nodes without announced
//! traffic sleep. PBBF adds two knobs ([`PbbfParams`]):
//!
//! * `p` — on receiving a broadcast, forward it **immediately** with
//!   probability `p` (reaching only currently-awake neighbors); otherwise
//!   announce it in the next active window so every neighbor wakes for it.
//! * `q` — at the end of each active window, stay awake through the data
//!   phase with probability `q` even with no announced traffic, to catch
//!   immediate broadcasts.
//!
//! [`PbbfEngine`] implements the paper's Figure-3 pseudo-code on top of any
//! RNG.
//!
//! # The analysis
//!
//! The [`analysis`] module implements Equations 3–12: relative energy
//! (Eqs. 3–8), expected per-hop latency (Eq. 9), the spanning-tree path
//! bound (Eq. 11), and the energy–latency trade-off (Eq. 12, with the sign
//! inconsistency of the printed equation corrected — see
//! [`analysis::energy_latency_tradeoff`]). The [`operating_point`] module
//! combines the analysis with the percolation boundary of
//! [`pbbf_percolation`] into the designer-facing API the paper's
//! conclusion describes: pick `(p, q)` just across the reliability
//! threshold, then tune along the boundary for the desired energy–latency
//! balance.
//!
//! # Examples
//!
//! ```
//! use pbbf_core::{PbbfEngine, PbbfParams, ForwardDecision, SleepSchedule};
//! use pbbf_des::SimRng;
//!
//! let params = PbbfParams::new(0.5, 0.25).unwrap();
//! let mut engine = PbbfEngine::new(params, SimRng::new(7));
//!
//! // Fig. 3, Receive-Broadcast: forward immediately with probability p.
//! let d = engine.on_receive_broadcast();
//! assert!(matches!(
//!     d,
//!     ForwardDecision::SendImmediately | ForwardDecision::EnqueueForNextActiveWindow
//! ));
//!
//! // Fig. 3, Sleep-Decision-Handler: pending traffic always keeps the
//! // radio on; otherwise stay awake with probability q.
//! assert!(engine.stay_on_after_active(true, false));
//!
//! // Eq. 8: energy grows linearly in q.
//! let sched = SleepSchedule::new(1.0, 10.0).unwrap();
//! let e = pbbf_core::analysis::energy_increase_factor(&sched, 0.25);
//! assert!((e - (1.0 + 0.25 * 9.0)).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
mod engine;
mod error;
pub mod operating_point;
mod params;

pub use engine::{ForwardDecision, PbbfEngine};
pub use error::ParamError;
pub use params::{AnalysisParams, PbbfParams, PowerProfile, SleepSchedule};

/// Re-export of the reliability condition of Remark 1 (Section 4.1): the
/// probability that a PBBF link is open, `p_edge = 1 − p·(1 − q)`.
pub use pbbf_percolation::reliability_edge_probability;
