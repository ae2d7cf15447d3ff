//! PHY substrate for the realistic (Section-5) PBBF simulator.
//!
//! The paper evaluates PBBF in ns-2 with an 802.11 MAC over a low-rate
//! sensor radio (Mica2 Motes: 19.2 kbps, 81/30/0.003 mW for TX/idle/sleep).
//! This crate provides the physical-layer pieces that simulator needs:
//!
//! * [`Frame`], [`FrameKind`] — the over-the-air frame types (beacons,
//!   broadcast ATIMs, data packets) with byte sizes and airtime at a
//!   configurable bit rate ([`Phy`]).
//! * [`EnergyMeter`] — per-node radio-state energy accounting over the
//!   Table-1 [`PowerProfile`](pbbf_core::PowerProfile).
//! * [`Channel`] — the shared broadcast medium: unit-disk connectivity from
//!   a [`Topology`](pbbf_topology::Topology), carrier sensing, and
//!   collision/interference resolution (overlapping transmissions corrupt
//!   each other at common receivers; a transmitting radio cannot receive),
//!   kept as a flat list of in-flight transmissions, each holding the
//!   receivers it corrupted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod energy;
mod frame;

pub use channel::{Channel, Delivery};
pub use energy::{EnergyMeter, RadioState};
pub use frame::{Frame, FrameKind, Phy};
