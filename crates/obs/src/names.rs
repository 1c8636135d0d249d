//! The span-name and journal-event-name inventories.
//!
//! Every span the stack opens is named here, mirroring how SOAP action
//! URIs live in per-crate `mod actions` inventories. The vocabulary is
//! closed by type: [`Tracer::span`](crate::Tracer::span) and
//! [`Tracer::child_span`](crate::Tracer::child_span) take a [`SpanName`],
//! [`Journal::event`](crate::Journal::event) and
//! [`Journal::event_ctx`](crate::Journal::event_ctx) take an
//! [`EventName`], and both types can only be built in this module — so
//! the constants in [`span_names`] and [`event_names`] are the complete
//! vocabulary of a trace and of the flight-recorder journal, readable in
//! one place.

/// A span name from the [`span_names`] inventory; nothing outside this
/// module can make one.
///
/// ```
/// use dais_obs::{names::span_names, Tracer};
/// let _span = Tracer::new().span(span_names::CLIENT_CALL, None);
/// ```
///
/// A string literal is not a span name:
///
/// ```compile_fail
/// use dais_obs::Tracer;
/// let _span = Tracer::new().span("rogue.span", None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(&'static str);

impl SpanName {
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// A journal event name from the [`event_names`] inventory; nothing
/// outside this module can make one.
///
/// ```
/// use dais_obs::{names::event_names, Journal};
/// Journal::new().event(event_names::REQ_ADMIT, 0, 0, 0);
/// ```
///
/// A string literal is not an event name:
///
/// ```compile_fail
/// use dais_obs::Journal;
/// Journal::new().event("rogue.event", 0, 0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventName(&'static str);

impl EventName {
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

pub mod span_names {
    use super::SpanName;

    /// Consumer-side root: one logical request through `ServiceClient`,
    /// covering every retry attempt.
    pub const CLIENT_CALL: SpanName = SpanName("client.call");
    /// One re-sent attempt; a child of `client.call` carrying the
    /// backoff delay and the error that triggered it.
    pub const CLIENT_RETRY: SpanName = SpanName("client.retry");
    /// One `Bus::call`: both wire legs plus dispatch.
    pub const BUS_CALL: SpanName = SpanName("bus.call");
    /// Admission of one queued request into a `BusExecutor` work queue
    /// (the pipelined path's analogue of `bus.call`'s opening). Carries
    /// the queue depth observed at admission; a shed request records
    /// `outcome=shed` and has no `bus.execute` child.
    pub const BUS_ENQUEUE: SpanName = SpanName("bus.enqueue");
    /// Execution of one queued request on an executor worker: both wire
    /// legs plus dispatch, exactly like `bus.call`, plus a
    /// `queue_wait_ns` attribute measuring time spent queued.
    pub const BUS_EXECUTE: SpanName = SpanName("bus.execute");
    /// The request leg: serialise, request interceptor chain, parse.
    pub const BUS_REQUEST: SpanName = SpanName("bus.request");
    /// The service-side dispatch. Its parent comes from the parsed
    /// request's `wsa:MessageID` — the bytes that crossed the wire —
    /// not from the in-process call frame.
    pub const BUS_DISPATCH: SpanName = SpanName("bus.dispatch");
    /// The response leg: serialise, response interceptor chain, parse.
    pub const BUS_RESPONSE: SpanName = SpanName("bus.response");

    /// Every name above, for conformance checks.
    pub const ALL: &[SpanName] = &[
        CLIENT_CALL,
        CLIENT_RETRY,
        BUS_CALL,
        BUS_ENQUEUE,
        BUS_EXECUTE,
        BUS_REQUEST,
        BUS_DISPATCH,
        BUS_RESPONSE,
    ];
}

pub mod event_names {
    //! The journal-event vocabulary: one constant per request-lifecycle
    //! moment the flight recorder can witness. Each event carries a
    //! single `u64` argument whose meaning is fixed per name (see
    //! [`arg_label`]); arguments that measure wall-clock time are elided
    //! by the deterministic journal renderer ([`arg_is_timing`]).

    use super::EventName;

    /// A request entered `Bus::call` / `call_async` and passed endpoint
    /// resolution. Argument: execution mode (0 inline, 1 queued).
    pub const REQ_ADMIT: EventName = EventName("req.admit");
    /// The service-side dispatch ran. Argument: serialised request
    /// bytes handed to the handler's parser.
    pub const REQ_DISPATCH: EventName = EventName("req.dispatch");
    /// An exchange ended in an error or SOAP fault. Argument: the
    /// retry-layer cause code (`dais_soap::retry::cause_code`).
    pub const REQ_FAULT: EventName = EventName("req.fault");
    /// The client retry loop re-sent a request. Argument: the attempt
    /// number of the re-send (2 = first retry).
    pub const REQ_RETRY: EventName = EventName("req.retry");
    /// The executor admitted a request into a work queue. Argument:
    /// queue depth observed after the enqueue.
    pub const QUEUE_ENQUEUE: EventName = EventName("queue.enqueue");
    /// A worker picked the request off its queue. Argument: queued wait
    /// in nanoseconds (timing — elided by the text renderer).
    pub const QUEUE_DEQUEUE: EventName = EventName("queue.dequeue");
    /// Bounded admission refused the request with `Overloaded`.
    /// Argument: queue depth observed at refusal.
    pub const QUEUE_SHED: EventName = EventName("queue.shed");
    /// A serialised request left for a non-local transport, or a
    /// response frame was written back by the TCP server. Argument:
    /// payload bytes written.
    pub const WIRE_WRITE: EventName = EventName("wire.write");
    /// A response arrived from a non-local transport, or a request
    /// frame reached the TCP server. Argument: payload bytes read.
    pub const WIRE_READ: EventName = EventName("wire.read");

    /// Every name above, for conformance checks.
    pub const ALL: &[EventName] = &[
        REQ_ADMIT,
        REQ_DISPATCH,
        REQ_FAULT,
        REQ_RETRY,
        QUEUE_ENQUEUE,
        QUEUE_DEQUEUE,
        QUEUE_SHED,
        WIRE_WRITE,
        WIRE_READ,
    ];

    /// The label the renderers print for an event's argument.
    pub fn arg_label(name: &str) -> &'static str {
        const LABELS: &[(EventName, &str)] = &[
            (REQ_ADMIT, "mode"),
            (REQ_DISPATCH, "bytes"),
            (REQ_FAULT, "cause"),
            (REQ_RETRY, "attempt"),
            (QUEUE_ENQUEUE, "depth"),
            (QUEUE_DEQUEUE, "waitNs"),
            (QUEUE_SHED, "depth"),
            (WIRE_WRITE, "bytes"),
            (WIRE_READ, "bytes"),
        ];
        LABELS.iter().find(|(event, _)| event.0 == name).map_or("arg", |&(_, label)| label)
    }

    /// Does the argument measure wall-clock time? Timing arguments are
    /// real but nondeterministic, so the deterministic text renderer
    /// elides their values (the same rule spans apply to durations).
    pub fn arg_is_timing(name: &str) -> bool {
        name == QUEUE_DEQUEUE.0
    }
}

#[cfg(test)]
mod tests {
    use super::{event_names, span_names};

    #[test]
    fn inventory_is_unique_and_sorted_per_layer() {
        let mut seen = std::collections::BTreeSet::new();
        for name in span_names::ALL.iter().map(|n| n.as_str()) {
            assert!(seen.insert(name), "duplicate span name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "span name '{name}' breaks the lowercase dotted convention"
            );
        }
    }

    #[test]
    fn event_inventory_is_unique_and_fully_described() {
        let mut seen = std::collections::BTreeSet::new();
        for name in event_names::ALL.iter().map(|n| n.as_str()) {
            assert!(seen.insert(name), "duplicate event name {name}");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "event name '{name}' breaks the lowercase dotted convention"
            );
            assert_ne!(event_names::arg_label(name), "arg", "event '{name}' has no argument label");
        }
        // Span names and event names never collide: a journal line and a
        // trace node can always be told apart by name alone.
        for name in span_names::ALL {
            assert!(
                !seen.contains(name.as_str()),
                "'{}' is both a span and an event",
                name.as_str()
            );
        }
    }
}
