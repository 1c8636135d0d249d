//! # dais-bench
//!
//! Workload generators and measurement helpers for the paper-figure
//! experiments binary (`src/bin/experiments.rs`; recorded results in
//! `EXPERIMENTS.md`). Performance is measured by the standalone
//! `daisbench` package under `benchmark/`, not here.
//!
//! Everything here is deterministic: workloads are generated from seeded
//! RNGs so experiment output is reproducible run-to-run.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod harness;
pub mod workload;

pub use harness::{measure, Measurement};
pub use workload::{populate_books, populate_items, seeded_rng};
