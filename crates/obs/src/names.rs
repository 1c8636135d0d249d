//! The span-name inventory.
//!
//! Every span the stack opens is named here, mirroring how SOAP action
//! URIs live in per-crate `mod actions` inventories. The vocabulary is
//! closed by type: [`Tracer::span`](crate::Tracer::span) and
//! [`Tracer::child_span`](crate::Tracer::child_span) take a [`SpanName`],
//! which can only be built in this module — so the constants in
//! [`span_names`] are the complete vocabulary of a trace, readable in
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

pub mod span_names {
    use super::SpanName;

    /// Consumer-side root: one logical request through `ServiceClient`,
    /// covering every retry attempt.
    pub const CLIENT_CALL: SpanName = SpanName("client.call");
    /// One re-sent attempt; a child of `client.call` carrying the
    /// backoff delay and the error that triggered it.
    pub const CLIENT_RETRY: SpanName = SpanName("client.retry");
    /// One `Bus::call`: both wire legs plus dispatch. Its `outcome` is
    /// `ok`, `fault` or `transport-error`; the last also names the
    /// `BusError` kind in an `error` attribute.
    pub const BUS_CALL: SpanName = SpanName("bus.call");
    /// Admission of one queued request into a `BusExecutor` work queue
    /// (the pipelined path's analogue of `bus.call`'s opening). Carries
    /// the queue `depth` observed at admission, or at refusal for a
    /// shed request, which also records `outcome=shed` and has no
    /// `bus.execute` child.
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

#[cfg(test)]
mod tests {
    use super::span_names;

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
}
