//! # dais-obs
//!
//! The observability fabric: correlated tracing, a flight-recorder
//! event journal, latency metrics, and rolling-window SLOs for the SOAP
//! bus, with no dependencies beyond `dais-util`.
//!
//! Five pieces, deliberately small:
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
//! - [`journal`] — the flight recorder: per-thread ring buffers of
//!   fixed-size request-lifecycle [`journal::Event`]s (admission,
//!   queueing, dispatch, wire legs, retries, sheds, faults), carrying
//!   the same trace/span ids as the spans so a retained trace joins its
//!   journal slice. Same cost discipline as the tracer: disabled, one
//!   relaxed atomic load per site.
//! - [`hist`] — fixed log-bucketed latency [`Histogram`]s, lock-free via
//!   atomics, with mergeable [`HistogramSnapshot`]s and percentile
//!   estimation. These are **always on**: recording is a couple of
//!   relaxed `fetch_add`s.
//! - [`slo`] — rolling-window (1 s/10 s/60 s) service-level objectives
//!   per metrics key: p99 latency, error rate, shed rate, and burn-rate
//!   alerts, computed from periodic cumulative samples of the
//!   histograms and outcome counters.
//! - [`render`] — a deterministic text renderer (ids normalised to
//!   per-trace ordinals, durations elided) for experiment output and
//!   golden assertions, plus a raw JSON renderer for machine use.
//!
//! Span names come from the central inventory in [`names::span_names`]
//! and journal event names from [`names::event_names`]. The emitters take
//! a [`names::SpanName`] / [`names::EventName`], which only those
//! inventories can build, so an ad-hoc literal at a call site does not
//! compile.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod hist;
pub mod journal;
pub mod metrics;
pub mod names;
pub mod render;
pub mod slo;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use journal::{Journal, JournalSink};
pub use metrics::Metrics;
pub use render::TraceSink;
pub use slo::{SloEngine, SloObjective, SloReport, SloSample};
pub use span::{Span, SpanHandle, TailPolicy, TraceContext, Tracer};

/// The per-bus observability handle: one tracer, one flight-recorder
/// journal, one metrics registry, one SLO engine. Cheap to clone (every
/// half is shared).
#[derive(Clone, Default)]
pub struct Obs {
    pub tracer: Tracer,
    pub journal: Journal,
    pub metrics: Metrics,
    pub slo: SloEngine,
}
