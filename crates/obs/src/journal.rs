//! The flight-recorder event journal: per-thread ring buffers of
//! fixed-size request-lifecycle events.
//!
//! Where spans answer "what did *this* request's tree look like", the
//! journal answers "what did the *machine* do, in order" — admission,
//! queueing, dispatch, wire writes and reads, retries, sheds, faults —
//! without the per-request allocation a span tree costs. Every record is
//! a fixed-size [`Event`]: a monotonic sequence number, a name from the
//! [`crate::names::event_names`] inventory, the WS-Addressing trace/span
//! ids in force at the emission site (zero when untraced), and one
//! event-specific `u64` argument. Because events carry the same ids the
//! tracer writes into `wsa:MessageID`, a tail-retained trace joins its
//! journal slice by trace id — see [`JournalSink::for_trace`].
//!
//! # Cost discipline
//!
//! The journal is **off by default** and follows the tracer's rule: a
//! disabled emission site costs one relaxed atomic load and allocates
//! nothing (`tests/alloc_count.rs` pins the echo round trip with the
//! journal compiled in). Enabled, each thread writes into its own ring,
//! lazily registered on first emission: the per-thread ring is reached
//! through a thread-local cache and guarded by a mutex that only the
//! owning thread and the drain path ever touch, so the hot path never
//! contends. Rings are bounded — when full, the oldest events are
//! overwritten and counted in [`JournalSink::dropped`], so a runaway
//! workload degrades to "recent history only", never to unbounded
//! memory.
//!
//! # Determinism
//!
//! [`JournalSink::render_text`] is deterministic for a serial seeded
//! workload: events sort by sequence number, trace and span ids are
//! replaced by first-appearance ordinals (like the trace renderer), and
//! timing-valued arguments are elided per
//! [`crate::names::event_names::arg_is_timing`].

use dais_util::sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crate::names::{event_names, EventName};
use crate::span::TraceContext;

/// Default per-thread ring capacity (events, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One fixed-size journal record. No heap: the name is a `&'static str`
/// from the inventory, everything else is numeric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Emission-order sequence number — the deterministic sort key.
    pub seq: u64,
    /// One of the [`crate::names::event_names`] inventory entries.
    pub name: &'static str,
    /// Trace id in force at the emission site; 0 when untraced.
    pub trace_id: u64,
    /// Span id in force at the emission site; 0 when untraced.
    pub span_id: u64,
    /// Event-specific argument; meaning fixed per name
    /// ([`crate::names::event_names::arg_label`]).
    pub arg: u64,
}

struct RingBuf {
    slots: Vec<Event>,
    next: usize,
    dropped: u64,
}

/// One thread's ring. Only the owning thread pushes; the drain path
/// reads under the same (never-contended-in-steady-state) lock.
struct Ring {
    buf: Mutex<RingBuf>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Mutex::new(RingBuf { slots: Vec::with_capacity(capacity), next: 0, dropped: 0 }),
        }
    }

    fn push(&self, event: Event, capacity: usize) {
        let mut buf = self.buf.lock();
        if buf.slots.len() < capacity {
            buf.slots.push(event);
        } else {
            let i = buf.next;
            buf.slots[i] = event;
            buf.dropped += 1;
        }
        buf.next = (buf.next + 1) % capacity.max(1);
    }

    fn clear(&self) {
        let mut buf = self.buf.lock();
        buf.slots.clear();
        buf.next = 0;
        buf.dropped = 0;
    }
}

struct JournalInner {
    /// Distinguishes journals in the per-thread ring cache (several
    /// buses — several journals — can live in one process).
    id: u64,
    enabled: AtomicBool,
    seq: AtomicU64,
    capacity: AtomicUsize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

static NEXT_JOURNAL_ID: AtomicU64 = AtomicU64::new(1);

impl Default for JournalInner {
    fn default() -> Self {
        JournalInner {
            id: NEXT_JOURNAL_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            rings: Mutex::new(Vec::new()),
        }
    }
}

thread_local! {
    /// This thread's rings, one per journal it has emitted into. Weak:
    /// the registry owns the ring, so dropping the journal frees it.
    static THREAD_RINGS: RefCell<Vec<(u64, Weak<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// The per-bus flight recorder. Cheap to clone (shared state); disabled
/// by default.
#[derive(Clone, Default)]
pub struct Journal {
    inner: Arc<JournalInner>,
}

impl Journal {
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Is recording on? One relaxed load — the cost a disabled site
    /// pays.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on with the default per-thread ring capacity,
    /// clearing previous history so a run is reproducible.
    pub fn enable(&self) {
        self.enable_with_capacity(DEFAULT_RING_CAPACITY);
    }

    /// Turn recording on with an explicit per-thread ring capacity.
    pub fn enable_with_capacity(&self, capacity: usize) {
        let rings = self.inner.rings.lock();
        self.inner.capacity.store(capacity.max(1), Ordering::Relaxed);
        self.inner.seq.store(0, Ordering::Relaxed);
        for ring in rings.iter() {
            ring.clear();
        }
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn recording off. Already-recorded events stay in the rings.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Record one event. A disabled journal returns after one relaxed
    /// atomic load; an enabled one pushes a fixed-size record into the
    /// calling thread's ring (allocating only the first time a thread
    /// meets this journal).
    pub fn event(&self, name: EventName, trace_id: u64, span_id: u64, arg: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let event = Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            name: name.as_str(),
            trace_id,
            span_id,
            arg,
        };
        let capacity = self.inner.capacity.load(Ordering::Relaxed);
        THREAD_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == self.inner.id) {
                if let Some(ring) = weak.upgrade() {
                    ring.push(event, capacity);
                    return;
                }
            }
            // First emission from this thread into this journal: build
            // and register a ring, then cache it (replacing any stale
            // entry left by a dropped journal with the same slot).
            let ring = Arc::new(Ring::new(capacity));
            ring.push(event, capacity);
            self.inner.rings.lock().push(Arc::clone(&ring));
            cache.retain(|(id, weak)| *id != self.inner.id && weak.strong_count() > 0);
            cache.push((self.inner.id, Arc::downgrade(&ring)));
        });
    }

    /// Record one event under an optional trace context (the common
    /// call shape next to a span site).
    pub fn event_ctx(&self, name: EventName, ctx: Option<TraceContext>, arg: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let (trace_id, span_id) = match ctx {
            Some(c) => (c.trace_id, c.span_id),
            None => (0, 0),
        };
        self.event(name, trace_id, span_id, arg);
    }

    fn collect(&self, drain: bool) -> JournalSink {
        let rings = self.inner.rings.lock();
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings.iter() {
            let mut buf = ring.buf.lock();
            dropped += buf.dropped;
            if drain {
                events.append(&mut buf.slots);
                buf.next = 0;
                buf.dropped = 0;
            } else {
                events.extend_from_slice(&buf.slots);
            }
        }
        events.sort_by_key(|e| e.seq);
        JournalSink { events, dropped }
    }

    /// A copy of the recorded events, in emission order.
    pub fn sink(&self) -> JournalSink {
        self.collect(false)
    }

    /// Drain the recorded events, in emission order.
    pub fn take(&self) -> JournalSink {
        self.collect(true)
    }
}

/// A batch of journal events, sorted by sequence number.
#[derive(Debug, Clone, Default)]
pub struct JournalSink {
    pub events: Vec<Event>,
    /// Events overwritten by ring wrap-around before this drain.
    pub dropped: u64,
}

impl JournalSink {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events with this inventory name, in emission order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// This trace's journal slice: every event emitted under its id, in
    /// emission order. The join key is the same trace id the tracer
    /// writes into `wsa:MessageID`, so a tail-retained trace looks up
    /// its flight-recorder history with its own id.
    pub fn for_trace(&self, trace_id: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.trace_id == trace_id).collect()
    }

    /// The distinct non-zero trace ids that appear in the journal.
    pub fn trace_ids(&self) -> BTreeSet<u64> {
        self.events.iter().map(|e| e.trace_id).filter(|id| *id != 0).collect()
    }

    /// Deterministic text rendering: one line per event in emission
    /// order, ids normalised to first-appearance ordinals (`t0`/`s3`,
    /// `-` when untraced), timing arguments elided.
    pub fn render_text(&self) -> String {
        let mut traces: Vec<u64> = Vec::new();
        let mut spans: Vec<u64> = Vec::new();
        let mut out = String::new();
        for e in &self.events {
            let trace = ordinal(&mut traces, e.trace_id, 't');
            let span = ordinal(&mut spans, e.span_id, 's');
            let label = event_names::arg_label(e.name);
            let value = if event_names::arg_is_timing(e.name) {
                "_".to_string()
            } else {
                e.arg.to_string()
            };
            out.push_str(&format!("{} {trace} {span} {label}={value}\n", e.name));
        }
        out
    }

    /// Raw JSON array, one object per event in emission order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"seq\": {}, \"name\": \"{}\", \"trace\": \"{:016x}\", \
                 \"span\": \"{:016x}\", \"{}\": {}}}",
                e.seq,
                e.name,
                e.trace_id,
                e.span_id,
                event_names::arg_label(e.name),
                e.arg
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

fn ordinal(seen: &mut Vec<u64>, id: u64, prefix: char) -> String {
    if id == 0 {
        return "-".to_string();
    }
    let idx = match seen.iter().position(|s| *s == id) {
        Some(i) => i,
        None => {
            seen.push(id);
            seen.len() - 1
        }
    };
    format!("{prefix}{idx}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::event_names;

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::new();
        assert!(!j.enabled());
        j.event(event_names::REQ_ADMIT, 1, 2, 0);
        j.event_ctx(event_names::REQ_FAULT, None, 3);
        assert!(j.sink().is_empty());
    }

    #[test]
    fn events_drain_in_emission_order_across_threads() {
        let j = Journal::new();
        j.enable();
        j.event(event_names::REQ_ADMIT, 7, 1, 0);
        let j2 = j.clone();
        std::thread::spawn(move || {
            j2.event(event_names::QUEUE_ENQUEUE, 7, 2, 1);
        })
        .join()
        .unwrap();
        j.event(event_names::REQ_DISPATCH, 7, 3, 640);
        let sink = j.take();
        let names: Vec<&str> = sink.events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["req.admit", "queue.enqueue", "req.dispatch"]);
        assert_eq!(sink.events[1].arg, 1);
        assert!(j.sink().is_empty(), "take() drained every ring");
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let j = Journal::new();
        j.enable_with_capacity(4);
        for i in 0..10 {
            j.event(event_names::REQ_ADMIT, 1, i, 0);
        }
        let sink = j.take();
        assert_eq!(sink.len(), 4, "ring keeps only the newest capacity events");
        assert_eq!(sink.dropped, 6);
        let seqs: Vec<u64> = sink.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "the survivors are the most recent");
    }

    #[test]
    fn enable_clears_previous_history() {
        let j = Journal::new();
        j.enable();
        j.event(event_names::REQ_ADMIT, 1, 1, 0);
        j.enable();
        j.event(event_names::REQ_FAULT, 2, 2, 5);
        let sink = j.take();
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events[0].name, "req.fault");
        assert_eq!(sink.events[0].seq, 0, "sequence restarts on enable");
    }

    #[test]
    fn journals_are_isolated_per_instance() {
        let a = Journal::new();
        let b = Journal::new();
        a.enable();
        b.enable();
        a.event(event_names::REQ_ADMIT, 1, 1, 0);
        b.event(event_names::QUEUE_SHED, 2, 2, 64);
        assert_eq!(a.sink().len(), 1);
        assert_eq!(b.sink().len(), 1);
        assert_eq!(b.sink().events[0].name, "queue.shed");
    }

    #[test]
    fn render_text_is_deterministic_and_elides_timing() {
        let run = || {
            let j = Journal::new();
            j.enable();
            j.event(event_names::REQ_ADMIT, 0xAAAA, 0x1, 1);
            j.event(event_names::QUEUE_DEQUEUE, 0xAAAA, 0x2, 123_456);
            j.event_ctx(event_names::WIRE_WRITE, None, 512);
            j.take().render_text()
        };
        let text = run();
        assert_eq!(
            text,
            "req.admit t0 s0 mode=1\n\
             queue.dequeue t0 s1 waitNs=_\n\
             wire.write - - bytes=512\n"
        );
        assert_eq!(text, run(), "identical runs render identical bytes");
    }

    #[test]
    fn trace_slices_join_by_trace_id() {
        let j = Journal::new();
        j.enable();
        j.event(event_names::REQ_ADMIT, 10, 1, 0);
        j.event(event_names::REQ_ADMIT, 20, 2, 0);
        j.event(event_names::REQ_FAULT, 10, 3, 4);
        let sink = j.sink();
        let slice = sink.for_trace(10);
        assert_eq!(slice.len(), 2);
        assert!(slice.iter().all(|e| e.trace_id == 10));
        assert_eq!(sink.trace_ids().len(), 2);
        let json = sink.render_json();
        assert!(json.contains("\"name\": \"req.fault\""));
        assert!(json.contains("\"cause\": 4"));
    }
}
