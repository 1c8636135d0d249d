//! `daisbench` — one seeded, self-checking, closed-loop benchmark for the
//! DAIS stack: six workloads, named end-to-end metrics with regression
//! bounds (`BENCHMARK.json`), and an outside-in per-layer trace.
//!
//! See `benchmark/README.md` for what each workload and metric is for.

pub mod alloc;
pub mod checksum;
pub mod contract;
pub mod engine;
pub mod idle;
pub mod json;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod trace;
pub mod workloads;
