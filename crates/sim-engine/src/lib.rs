//! Deterministic discrete-event simulation engine.
//!
//! This crate is the execution substrate for the PBBF reproduction's two
//! simulators (the idealized Section-4 simulator and the ns-2-style
//! Section-5 simulator). It deliberately contains no networking concepts —
//! just the three things a reproducible discrete-event simulation needs:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation time, so
//!   event ordering never depends on floating-point rounding.
//! * [`EventQueue`] — a binary heap of timestamped events with *stable*
//!   FIFO ordering among simultaneous events. It has no cancellation:
//!   callers guard stale timers with flags instead.
//! * [`SimRng`] — a self-contained xoshiro256** PRNG with splitmix64
//!   seeding and cheap independent substreams, so every node of a simulated
//!   network gets its own reproducible random stream from one `u64` seed.
//!
//! # Examples
//!
//! Drive a queue to completion:
//!
//! ```
//! use pbbf_des::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1.0), Ev::Pong);
//! q.schedule(SimTime::ZERO, Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1, e1), (SimTime::ZERO, Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!(t2.as_secs(), 1.0);
//! assert_eq!(e2, Ev::Pong);
//! assert!(q.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
