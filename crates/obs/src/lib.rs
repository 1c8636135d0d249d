//! # dais-obs
//!
//! The observability fabric: correlated tracing and latency metrics for
//! the SOAP bus, with no dependencies beyond `dais-util`. Each request
//! is recorded once: as spans while tracing is on, and always in the
//! bus's counters and in these histograms.
//!
//! Three pieces, deliberately small:
//!
//! - [`span`] — a trace-context model ([`TraceContext`]) that travels on
//!   the wire inside WS-Addressing `MessageID`/`RelatesTo` headers, and a
//!   per-bus [`Tracer`] that records [`Span`]s into an in-memory sink.
//!   Tracing is **off by default**: a disabled tracer costs one relaxed
//!   atomic load per instrumentation site and allocates nothing, so the
//!   wire bytes and the allocation ratchet of the fast lane are
//!   untouched. [`Tracer::enable_tailed`] turns on tail-based retention:
//!   only slow, failed, or deterministically sampled traces survive the
//!   sink drain.
//! - [`hist`] and [`metrics`] — fixed log-bucketed latency
//!   [`Histogram`]s, lock-free via atomics, with mergeable
//!   [`HistogramSnapshot`]s and percentile estimation, keyed per
//!   endpoint, action and connection. These are **always on**:
//!   recording is a couple of relaxed `fetch_add`s.
//! - [`render`] — a deterministic text renderer (ids normalised to
//!   per-trace ordinals, durations elided) for experiment output and
//!   golden assertions, plus a raw JSON renderer for machine use.
//!
//! Span names come from the central inventory in [`names::span_names`].
//! The tracer takes a [`names::SpanName`], which only that inventory can
//! build, so an ad-hoc literal at a call site does not compile.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod hist;
pub mod metrics;
pub mod names;
pub mod render;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::Metrics;
pub use render::TraceSink;
pub use span::{Span, SpanHandle, TailPolicy, TraceContext, Tracer};

/// The per-bus observability handle: one tracer and one metrics
/// registry. Cheap to clone (both halves are shared).
#[derive(Clone, Default)]
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: Metrics,
}
