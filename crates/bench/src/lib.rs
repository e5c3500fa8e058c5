//! # cla-bench — experiment harness
//!
//! Regenerates **every table and figure** of the paper plus its §3
//! claims, and provides the shared scaffolding for the Criterion
//! scaling benches. The `tables` binary prints everything with
//! paper-vs-measured comparisons (the source of EXPERIMENTS.md);
//! integration tests assert the same checks.

#![forbid(unsafe_code)]

pub mod paper;
pub mod scale;
pub mod tablefmt;

pub use paper::{harness, Harness};
