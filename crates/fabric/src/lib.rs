//! Fault-tolerant multi-process sweep fabric.
//!
//! The paper's figures are embarrassingly-parallel Monte Carlo sweeps,
//! and every run's values are a pure function of its manifest inputs —
//! so sharding a sweep across worker *processes* is sound by
//! construction: a re-executed shard is bitwise-identical, which makes
//! retry idempotent and lets a supervisor treat workers as disposable.
//!
//! This crate is the generic half of that story; it never interprets
//! the work itself. A [`ShardSpec`] carries an
//! opaque JSON job, workers echo back bit-exact value vectors
//! ([`protocol::ShardResult`], f64s shipped as raw bit patterns with an
//! FNV checksum), and [`run_queue`] assigns shards, enforces
//! wall-clock deadlines, retries failures with bounded exponential
//! backoff, quarantines repeat offenders, degrades to in-process
//! execution when no workers survive, and settles each shard exactly
//! once, so arrival order, duplicates, and worker identity cannot leak
//! into the output bytes. One fleet lives exactly as long as one
//! queue: a queue is one flat list of shards (every table a sweep
//! needs), it keeps remote deployment caches warm from table to table,
//! and it returns every shard's values in queue order with one
//! [`SweepStats`] ledger ([`QueueRun`]). The fleet is killed when the
//! queue is done. The binding to actual figure sweeps (job
//! encoding/execution) lives in `pbbf-experiments::sweep`; the `pbbf`
//! binary wires the two together.
//!
//! Pipes and sockets share everything above the bytes: a worker runs
//! [`worker::serve_session`] on its stdin or on each socket
//! [`tcp::serve_listener`] accepts, and the supervisor spawns local and
//! remote workers through one [`supervisor::FleetFactory`] and splits
//! their replies with one line pump. [`tcp`] adds what sockets need:
//! heartbeat liveness and bounded-backoff reconnection. The wire
//! format is specified in `docs/PROTOCOL.md`; `docs/OPERATIONS.md` is
//! the ops guide.
//!
//! [`fault::FaultPlan`] implements the `PBBF_FAULT` injection hooks the
//! CI fault-injection job drives; only worker processes honor them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod protocol;
pub mod scheduler;
pub mod supervisor;
pub mod tcp;
pub mod worker;

pub use protocol::{CacheTelemetry, ShardResult, ShardSpec, WorkerReply};
pub use scheduler::{run_queue, QueueRun};
pub use supervisor::{
    Endpoint, FleetFactory, ShardInput, SweepOptions, SweepStats, WorkerEvent, WorkerFactory,
    WorkerLink,
};
pub use tcp::{serve_listener, ServeOptions, TcpOptions};
pub use worker::serve_session;
