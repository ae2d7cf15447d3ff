//! The benchmark harness's regression gate.
//!
//! `benches/baseline.rs` times the committed `BENCH_baseline.json`
//! kernels; [`check`] compares a fresh run against that baseline, and
//! the `bench_check` binary is CI's gate over it.

#![forbid(unsafe_code)]

pub mod check;
