//! # dais-util
//!
//! Dependency-free building blocks shared across the DAIS workspace.
//!
//! The build environment has no access to crates.io, so the handful of
//! external utility crates the stack would normally lean on are realised
//! here instead:
//!
//! - [`sync`] — [`RwLock`]/[`Mutex`] with the `parking_lot` calling
//!   convention (guards returned directly, poisoning absorbed) over the
//!   std primitives.
//! - [`rng`] — [`SplitMix64`], a tiny deterministic PRNG, in place of
//!   `rand`. Every chaos/jitter decision in the stack draws from it so
//!   runs are reproducible from a seed.
//! - [`prop`] — a miniature property-testing harness in place of
//!   `proptest`: seeded case generation with per-case replay seeds.
//! - [`intern`](mod@intern) — a global lock-free-read string interner ([`IStr`])
//!   for the recurring wire vocabulary, in place of `string_cache`.
//! - [`pool`] — thread-local reusable byte buffers ([`PooledBuf`]) for
//!   the serialise/parse hot path, in place of `bytes`-style pooling.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod intern;
#[cfg(debug_assertions)]
pub mod lockorder;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sync;

pub use intern::{intern, IStr};
pub use pool::PooledBuf;
pub use prop::{run_cases, Gen};
pub use rng::SplitMix64;
pub use sync::{Mutex, RwLock};

/// The nesting budget of every recursive reader of a request expression:
/// the SQL parser, the XPath parser and XQuery's element constructors.
/// Each counts one level per nested parenthesis, predicate, argument
/// list, prefix operator, constructor and binary-operator link, which is
/// the depth of the tree it builds, and refuses anything deeper with its
/// own typed error. Evaluating or dropping such a tree then recurses at
/// most this deep, which fits a 2 MiB thread (the std default, and the
/// stack of executor workers and TCP connection threads) even in a debug
/// build, where a parser spends several kilobytes of stack per level.
pub const MAX_EXPRESSION_DEPTH: usize = 128;
