//! MAC substrate: IEEE 802.11 PSM with PBBF, over CSMA/CA broadcast.
//!
//! The paper implements PBBF "on top of IEEE 802.11 PSM" in ns-2
//! (Section 5). This crate provides the MAC-layer building blocks of that
//! stack, each independently testable:
//!
//! * [`PsmTiming`] — the beacon-interval / ATIM-window clock: which frame
//!   an instant belongs to, whether it is inside the ATIM window, and when
//!   the next boundary events occur. Nodes are perfectly synchronized, the
//!   same assumption the paper makes (its Section 5 discussion of \[2\]).
//! * [`BackoffPolicy`] — contention backoff draws for ATIM and data
//!   transmissions (broadcasts in 802.11 use CSMA/CA without RTS/CTS or
//!   acknowledgments).
//! * [`MacState`] — one node's per-beacon-interval bookkeeping: what to
//!   announce, what to send normally or immediately, whether an ATIM was
//!   heard, the `k`-most-recent-updates packet construction of the
//!   code-distribution application, and the Figure-3 PBBF decisions via
//!   [`pbbf_core::PbbfEngine`].
//!
//! The event-driven composition of these pieces with the
//! collision channel (`pbbf_radio::Channel`) lives in `pbbf-net-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod state;
mod timing;

pub use backoff::BackoffPolicy;
pub use state::{DataIntent, MacState, PendingWork, SkipSummary};
pub use timing::PsmTiming;
