//! Spans, trace contexts, and the per-bus tracer.
//!
//! A [`TraceContext`] is the pair of ids that crosses process (here:
//! serialisation) boundaries; it encodes to a WS-Addressing-friendly URI
//! (`urn:dais:trace:<trace>:<span>`) carried in `wsa:MessageID` and
//! echoed back in `wsa:RelatesTo`. A [`Tracer`] mints ids from a seeded
//! [`SplitMix64`] so a whole trace replays byte-for-byte from a seed,
//! and stamps every span with a monotonic sequence number — start order,
//! not wall-clock, is what the deterministic renderer sorts by.
//!
//! Disabled (the default), every instrumentation site costs one relaxed
//! atomic load and performs no allocation: [`Tracer::span`] returns an
//! inert [`SpanHandle`], attribute setters are no-ops, and nothing is
//! written to the wire.
//!
//! # Tail-based retention
//!
//! [`Tracer::enable_tailed`] keeps tracing always-on but retains only
//! the traces worth keeping: the decision is made *after* completion
//! (at sink-drain time, when the whole tree is visible), per
//! [`TailPolicy`] — a trace survives when a top-level span exceeded the
//! latency threshold, when any span recorded a non-`ok` `outcome`
//! attribute (faults, sheds, retries), or when the seeded deterministic
//! sampler elects it as a baseline exemplar. Because trace ids come
//! from the seeded id stream and the sampler hashes the trace id, the
//! same seeded run retains the same trace ids every time.

use dais_util::rng::SplitMix64;
use dais_util::sync::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::names::SpanName;
use crate::render::TraceSink;

/// The on-wire identity of a span: enough for the receiving side to
/// join the sender's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
}

const URI_PREFIX: &str = "urn:dais:trace:";

impl TraceContext {
    /// The wire form: `urn:dais:trace:<16 hex>:<16 hex>`.
    pub fn encode(&self) -> String {
        format!("{URI_PREFIX}{:016x}:{:016x}", self.trace_id, self.span_id)
    }

    /// Parse the wire form back; `None` for anything else (an untraced
    /// or tampered message id joins no trace).
    pub fn decode(uri: &str) -> Option<TraceContext> {
        let rest = uri.strip_prefix(URI_PREFIX)?;
        let (trace, span) = rest.split_once(':')?;
        if trace.len() != 16 || span.len() != 16 {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_str_radix(trace, 16).ok()?,
            span_id: u64::from_str_radix(span, 16).ok()?,
        })
    }
}

/// A finished span, as stored in the sink.
#[derive(Debug, Clone)]
pub struct Span {
    /// Start-order sequence number — the deterministic sort key.
    pub seq: u64,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    /// One of the [`crate::names::span_names`] inventory entries.
    pub name: &'static str,
    /// Attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
    /// Wall-clock duration; real but nondeterministic, so the text
    /// renderer elides it.
    pub duration_ns: u64,
}

/// When to keep a finished trace under tail-based retention.
#[derive(Debug, Clone, Copy)]
pub struct TailPolicy {
    /// Keep the trace when a top-level span (one whose parent is not in
    /// the sink — the local root, or the first span joined from the
    /// wire) ran at least this long.
    pub latency_threshold_ns: u64,
    /// Keep the trace when any span carries an `outcome` attribute
    /// other than `ok` — faults, sheds, retried attempts.
    pub keep_outcomes: bool,
    /// Deterministic baseline sampling: keep roughly this many traces
    /// per million, elected by hashing the trace id with the seed, so
    /// the healthy fast path stays represented in the sink.
    pub sample_per_million: u32,
}

impl Default for TailPolicy {
    fn default() -> Self {
        // Keep failures and a 1-in-1000 healthy baseline; the latency
        // threshold is service-specific, so callers set it explicitly.
        TailPolicy {
            latency_threshold_ns: u64::MAX,
            keep_outcomes: true,
            sample_per_million: 1_000,
        }
    }
}

#[derive(Clone, Copy)]
struct TailConfig {
    policy: TailPolicy,
    salt: u64,
}

impl TailConfig {
    /// The sampler: a pure hash of (trace id, seed), so retention is a
    /// property of the trace, not of evaluation order.
    fn sampled(&self, trace_id: u64) -> bool {
        if self.policy.sample_per_million == 0 {
            return false;
        }
        let hash = SplitMix64::new(trace_id ^ self.salt).next_u64();
        hash % 1_000_000 < self.policy.sample_per_million as u64
    }
}

struct TracerInner {
    enabled: AtomicBool,
    seq: AtomicU64,
    ids: Mutex<SplitMix64>,
    finished: Mutex<Vec<Span>>,
    tail: Mutex<Option<TailConfig>>,
}

impl Default for TracerInner {
    fn default() -> Self {
        TracerInner {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            ids: Mutex::new(SplitMix64::new(0)),
            finished: Mutex::new(Vec::new()),
            tail: Mutex::new(None),
        }
    }
}

/// Records spans into an in-memory sink. Cheap to clone (shared state);
/// disabled by default.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Is tracing on? One relaxed load — the cost a disabled site pays.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn tracing on, reseeding the id stream and clearing the sink so
    /// a run is reproducible from `seed`. Retention is keep-everything.
    pub fn enable(&self, seed: u64) {
        *self.inner.tail.lock() = None;
        *self.inner.ids.lock() = SplitMix64::new(seed);
        self.inner.seq.store(0, Ordering::Relaxed);
        self.inner.finished.lock().clear();
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn tracing on with tail-based retention: spans record exactly
    /// as under [`enable`](Tracer::enable), but [`sink`](Tracer::sink)
    /// and [`take`](Tracer::take) keep only the traces `policy` elects —
    /// slow, failed, or sampled. Same seed, same workload ⇒ same
    /// retained trace ids.
    pub fn enable_tailed(&self, seed: u64, policy: TailPolicy) {
        self.enable(seed);
        let salt = SplitMix64::new(seed).next_u64();
        *self.inner.tail.lock() = Some(TailConfig { policy, salt });
    }

    /// Turn tracing off. Already-recorded spans stay in the sink.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Open a span: a child of `parent` when given, otherwise the root
    /// of a fresh trace. Inert when tracing is disabled.
    pub fn span(&self, name: SpanName, parent: Option<TraceContext>) -> SpanHandle {
        if !self.enabled() {
            return SpanHandle { live: None };
        }
        let (trace_id, span_id) = {
            let mut ids = self.inner.ids.lock();
            match parent {
                Some(p) => (p.trace_id, ids.next_u64()),
                None => (ids.next_u64(), ids.next_u64()),
            }
        };
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        SpanHandle {
            live: Some(LiveSpan {
                tracer: self.clone(),
                span: Span {
                    seq,
                    trace_id,
                    span_id,
                    parent_id: parent.map(|p| p.span_id),
                    name: name.as_str(),
                    attrs: Vec::new(),
                    duration_ns: 0,
                },
                started: Instant::now(),
            }),
        }
    }

    /// Open a span only if there is a parent to join — the propagation
    /// sites use this so a message that carried no (or a mangled) trace
    /// context produces no orphan root.
    pub fn child_span(&self, name: SpanName, parent: Option<TraceContext>) -> SpanHandle {
        match parent {
            Some(_) => self.span(name, parent),
            None => SpanHandle { live: None },
        }
    }

    /// A copy of the finished spans, sorted by start order (tail-
    /// filtered when retention is active).
    pub fn sink(&self) -> TraceSink {
        let mut spans = self.inner.finished.lock().clone();
        spans.sort_by_key(|s| s.seq);
        self.tail_filter(spans)
    }

    /// Drain the finished spans, sorted by start order (tail-filtered
    /// when retention is active; discarded traces are gone for good).
    pub fn take(&self) -> TraceSink {
        let mut spans = std::mem::take(&mut *self.inner.finished.lock());
        spans.sort_by_key(|s| s.seq);
        self.tail_filter(spans)
    }

    /// Apply tail retention to a complete batch. The decision runs over
    /// whole traces: by draining after the workload quiesces, every
    /// span of a trace is present, so "top-level span" and "any span's
    /// outcome" are well defined even for trees whose root lives on a
    /// remote bus.
    fn tail_filter(&self, spans: Vec<Span>) -> TraceSink {
        let tail = *self.inner.tail.lock();
        let Some(tail) = tail else {
            return TraceSink { spans };
        };
        let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for s in &spans {
            if keep.contains(&s.trace_id) {
                continue;
            }
            let top_level = s.parent_id.map(|p| !known.contains(&p)).unwrap_or(true);
            let slow = top_level && s.duration_ns >= tail.policy.latency_threshold_ns;
            let bad_outcome = tail.policy.keep_outcomes
                && s.attrs.iter().any(|(k, v)| *k == "outcome" && v != "ok");
            if slow || bad_outcome || tail.sampled(s.trace_id) {
                keep.insert(s.trace_id);
            }
        }
        TraceSink { spans: spans.into_iter().filter(|s| keep.contains(&s.trace_id)).collect() }
    }

    fn record(&self, span: Span) {
        self.inner.finished.lock().push(span);
    }
}

struct LiveSpan {
    tracer: Tracer,
    span: Span,
    started: Instant,
}

/// A span being recorded — or nothing at all, when tracing is off. The
/// span is finished (duration stamped, pushed to the sink) on drop, so
/// early returns record automatically.
pub struct SpanHandle {
    live: Option<LiveSpan>,
}

impl SpanHandle {
    /// The no-op handle; what every instrumentation site holds when
    /// tracing is disabled.
    pub fn inert() -> SpanHandle {
        SpanHandle { live: None }
    }

    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// This span's wire context, for propagation and for parenting
    /// children. `None` when inert.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.live
            .as_ref()
            .map(|l| TraceContext { trace_id: l.span.trace_id, span_id: l.span.span_id })
    }

    /// Attach an attribute. The value is only formatted when the span is
    /// live, so a disabled site pays nothing.
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(live) = self.live.as_mut() {
            live.span.attrs.push((key, value.to_string()));
        }
    }

    /// Finish now instead of at end of scope.
    pub fn finish(self) {}
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        if let Some(mut live) = self.live.take() {
            live.span.duration_ns = live.started.elapsed().as_nanos() as u64;
            let tracer = live.tracer.clone();
            tracer.record(live.span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::span_names;

    #[test]
    fn context_round_trips_through_the_uri_form() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, span_id: 42 };
        let uri = ctx.encode();
        assert_eq!(uri, "urn:dais:trace:00000000deadbeef:000000000000002a");
        assert_eq!(TraceContext::decode(&uri), Some(ctx));
    }

    #[test]
    fn mangled_contexts_do_not_decode() {
        for bad in [
            "",
            "urn:dais:trace:zz",
            "urn:dais:trace:00000000deadbeef",
            "urn:dais:trace:00000000deadbeef:2a",
            "urn:other:00000000deadbeef:000000000000002a",
            "urn:dais:trace:00000000deadbeeX:000000000000002a",
        ] {
            assert_eq!(TraceContext::decode(bad), None, "{bad:?} decoded");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(!t.enabled());
        let mut s = t.span(span_names::CLIENT_CALL, None);
        assert!(!s.is_recording());
        assert_eq!(s.ctx(), None);
        s.attr("ignored", 1);
        drop(s);
        assert!(t.sink().spans.is_empty());
    }

    #[test]
    fn spans_nest_and_record_in_start_order() {
        let t = Tracer::new();
        t.enable(7);
        let root = t.span(span_names::CLIENT_CALL, None);
        let child = t.span(span_names::BUS_CALL, root.ctx());
        let grandchild = t.child_span(span_names::BUS_REQUEST, child.ctx());
        // Finish out of start order on purpose.
        drop(child);
        drop(grandchild);
        drop(root);
        let sink = t.take();
        let names: Vec<&str> = sink.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["client.call", "bus.call", "bus.request"]);
        assert!(sink.spans.iter().all(|s| s.trace_id == sink.spans[0].trace_id));
        assert_eq!(sink.spans[1].parent_id, Some(sink.spans[0].span_id));
        assert_eq!(sink.spans[2].parent_id, Some(sink.spans[1].span_id));
    }

    #[test]
    fn child_span_without_parent_is_inert() {
        let t = Tracer::new();
        t.enable(7);
        let orphan = t.child_span(span_names::BUS_DISPATCH, None);
        assert!(!orphan.is_recording());
        drop(orphan);
        assert!(t.sink().spans.is_empty());
    }

    #[test]
    fn tail_retention_keeps_failed_and_sampled_traces_only() {
        let t = Tracer::new();
        t.enable_tailed(
            0xBEEF,
            TailPolicy {
                latency_threshold_ns: u64::MAX,
                keep_outcomes: true,
                sample_per_million: 0,
            },
        );
        // A healthy trace: dropped at drain time.
        let mut ok = t.span(span_names::CLIENT_CALL, None);
        ok.attr("outcome", "ok");
        drop(ok);
        // A faulted trace: retained.
        let mut bad = t.span(span_names::CLIENT_CALL, None);
        bad.attr("outcome", "fault");
        let bad_trace = bad.ctx().unwrap().trace_id;
        let _child = t.span(span_names::BUS_CALL, bad.ctx());
        drop(_child);
        drop(bad);
        let sink = t.take();
        assert_eq!(sink.trace_ids().into_iter().collect::<Vec<_>>(), [bad_trace]);
        assert_eq!(sink.len(), 2, "the whole retained trace survives, children included");
    }

    #[test]
    fn tail_latency_threshold_keeps_slow_traces() {
        let t = Tracer::new();
        t.enable_tailed(
            9,
            TailPolicy { latency_threshold_ns: 0, keep_outcomes: false, sample_per_million: 0 },
        );
        // Threshold 0: every top-level span qualifies as slow.
        let root = t.span(span_names::CLIENT_CALL, None);
        drop(root);
        assert_eq!(t.take().len(), 1);

        t.enable_tailed(
            9,
            TailPolicy {
                latency_threshold_ns: u64::MAX,
                keep_outcomes: false,
                sample_per_million: 0,
            },
        );
        let root = t.span(span_names::CLIENT_CALL, None);
        drop(root);
        assert!(t.take().is_empty(), "nothing is that slow");
    }

    #[test]
    fn tail_sampler_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let t = Tracer::new();
            t.enable_tailed(
                seed,
                TailPolicy {
                    latency_threshold_ns: u64::MAX,
                    keep_outcomes: false,
                    sample_per_million: 200_000, // 20 % of traces
                },
            );
            for _ in 0..64 {
                let root = t.span(span_names::CLIENT_CALL, None);
                drop(root);
            }
            t.take().trace_ids()
        };
        let kept = run(0x5EED);
        assert_eq!(kept, run(0x5EED), "same seed, same retained set");
        assert!(!kept.is_empty(), "a 20 % sampler keeps something out of 64");
        assert!(kept.len() < 64, "and drops something");
    }

    #[test]
    fn same_seed_reproduces_the_id_stream() {
        let run = |seed: u64| {
            let t = Tracer::new();
            t.enable(seed);
            let root = t.span(span_names::CLIENT_CALL, None);
            let child = t.span(span_names::BUS_CALL, root.ctx());
            drop(child);
            drop(root);
            t.take().spans.iter().map(|s| (s.trace_id, s.span_id)).collect::<Vec<_>>()
        };
        assert_eq!(run(0xA), run(0xA));
        assert_ne!(run(0xA), run(0xB));
    }
}
