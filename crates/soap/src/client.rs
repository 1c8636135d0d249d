//! Consumer-side helper: address a service (optionally via an EPR with
//! reference parameters) and exchange request/response payloads.

use crate::action::Action;
use crate::addressing::{message_headers, Epr};
use crate::bus::{Bus, BusError};
use crate::envelope::Envelope;
use crate::executor::Pending;
use crate::fault::Fault;
use crate::retry::{is_retryable, retry_after_hint, RetryConfig};
use dais_obs::names::{event_names, span_names};
use dais_obs::{SpanHandle, TraceContext};
use dais_util::pool::PooledBuf;
use dais_util::sync::pause;
use dais_xml::{ns, XmlElement};
use std::collections::VecDeque;
use std::time::Duration;

/// How many hint-paced waits [`ServiceClient::request_pipelined`] will
/// sit through for one request when the endpoint keeps shedding and
/// there is nothing in flight left to drain, before giving up and
/// surfacing the [`Overloaded`](BusError::Overloaded) error.
const MAX_SHED_WAITS: u32 = 32;

/// Errors a consumer can observe: transport failures or SOAP faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    Transport(BusError),
    Fault(Fault),
    /// The response parsed but did not contain the expected payload.
    UnexpectedResponse(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Transport(e) => write!(f, "transport error: {e}"),
            CallError::Fault(fault) => write!(f, "{fault}"),
            CallError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<BusError> for CallError {
    fn from(e: BusError) -> Self {
        CallError::Transport(e)
    }
}

impl From<Fault> for CallError {
    fn from(f: Fault) -> Self {
        CallError::Fault(f)
    }
}

impl CallError {
    /// The DAIS fault classification, if this is a classified fault.
    pub fn dais_fault(&self) -> Option<crate::fault::DaisFault> {
        match self {
            CallError::Fault(f) => f.dais,
            _ => None,
        }
    }
}

/// A client bound to one endpoint (by address or EPR), optionally with a
/// retry layer over the transport.
#[derive(Clone)]
pub struct ServiceClient {
    bus: Bus,
    epr: Epr,
    retry: Option<RetryConfig>,
}

impl ServiceClient {
    /// Bind to a bare address.
    pub fn new(bus: Bus, address: impl Into<String>) -> Self {
        ServiceClient { bus, epr: Epr::new(address), retry: None }
    }

    /// Bind to an EPR (indirect access: reference parameters will be
    /// echoed as headers on every request).
    pub fn from_epr(bus: Bus, epr: Epr) -> Self {
        ServiceClient { bus, epr, retry: None }
    }

    /// Layer retry behaviour over this client. Only actions the caller
    /// may re-send are retried: [`Action::resendable`] ones on
    /// [`request`](Self::request), and whatever the caller vouches for on
    /// [`request_bytes`](Self::request_bytes).
    pub fn with_retry(mut self, config: RetryConfig) -> Self {
        self.retry = Some(config);
        self
    }

    /// The active retry configuration, if any.
    pub fn retry_config(&self) -> Option<&RetryConfig> {
        self.retry.as_ref()
    }

    /// The bound EPR.
    pub fn epr(&self) -> &Epr {
        &self.epr
    }

    /// The underlying bus (for chaining clients off returned EPRs).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Send `payload` with the given SOAP action and return the response
    /// payload element. Retries (if configured) apply when the action is
    /// [`resendable`](Action::resendable).
    pub fn request(&self, action: Action, payload: XmlElement) -> Result<XmlElement, CallError> {
        self.request_retrying(action, action.resendable(), |parent| {
            extract_payload(self.attempt(action, &payload, parent)?.wait()??)
        })
    }

    /// Like [`request`](Self::request), but return the serialised
    /// response envelope (the exchange's own pooled reply buffer)
    /// instead of parsing a payload tree — for bulk data the caller
    /// decodes with a streaming parser. `idempotent` is the caller's
    /// verdict on whether this payload may be re-sent: an action's
    /// [`resendable`](Action::resendable), or, for an
    /// [`Access::Statement`](crate::Access::Statement) action, what the
    /// payload does (a `SQLExecute` carrying a SELECT re-sends safely; one
    /// carrying an INSERT must not).
    pub fn request_bytes(
        &self,
        action: Action,
        payload: &XmlElement,
        idempotent: bool,
    ) -> Result<PooledBuf, CallError> {
        self.request_retrying(action, idempotent, |parent| {
            Ok(self.attempt(action, payload, parent)?.wait_bytes()??)
        })
    }

    /// The retry loop shared by every resolving request shape, under the
    /// root span. Every attempt's `wsa:MessageID` carries a context from
    /// this trace, so the bus legs and the service dispatch all
    /// correlate. Each attempt resolves inside `once`, so a reply that
    /// fails to parse is retried like any other transport error.
    fn request_retrying<T>(
        &self,
        action: Action,
        idempotent: bool,
        mut once: impl FnMut(Option<TraceContext>) -> Result<T, CallError>,
    ) -> Result<T, CallError> {
        let call_span = self.call_span(action);
        let Some(config) = self.retry.as_ref().filter(|_| idempotent) else {
            let result = once(call_span.ctx());
            finish_call_span(call_span, result.is_ok(), 1);
            return result;
        };
        let tracer = &self.bus.obs().tracer;
        let mut slept = Duration::ZERO;
        let mut attempt: u32 = 1;
        // The span the in-flight attempt hangs off: the root for attempt
        // 1, then each retry span. Held across the loop so the retry
        // span covers its attempt's bus leg.
        let mut retry_span = SpanHandle::inert();
        loop {
            let parent = retry_span.ctx().or_else(|| call_span.ctx());
            let error = match once(parent) {
                Ok(response) => {
                    drop(retry_span);
                    finish_call_span(call_span, true, attempt);
                    return Ok(response);
                }
                Err(e) => e,
            };
            if !is_retryable(&error) || attempt >= config.policy.max_attempts {
                drop(retry_span);
                finish_call_span(call_span, false, attempt);
                return Err(error);
            }
            // An Overloaded refusal carries the executor's own pacing
            // hint; never re-send sooner than it asked for.
            let pause = match retry_after_hint(&error) {
                Some(hint) => config.policy.backoff_delay(attempt).max(hint),
                None => config.policy.backoff_delay(attempt),
            };
            match slept.checked_add(pause) {
                // Total sleep stays within the deadline budget.
                Some(total) if total <= config.policy.deadline => slept = total,
                _ => {
                    drop(retry_span);
                    finish_call_span(call_span, false, attempt);
                    return Err(error);
                }
            }
            config.sleep(pause);
            self.bus.record_retry(&self.epr.address);
            attempt += 1;
            self.bus.obs().journal.event_ctx(
                event_names::REQ_RETRY,
                call_span.ctx(),
                attempt as u64,
            );
            // Each retry is a child of the root call, tagged with what
            // drove it and the backoff that preceded it.
            retry_span = tracer.child_span(span_names::CLIENT_RETRY, call_span.ctx());
            if retry_span.is_recording() {
                retry_span.attr("attempt", attempt);
                retry_span.attr("backoff_ns", pause.as_nanos());
                retry_span.attr("cause", cause_label(&error));
            }
        }
    }

    /// The root `client.call` span of one operation. Inert (one atomic
    /// load, no allocation) when the bus's tracer is off.
    fn call_span(&self, action: Action) -> SpanHandle {
        let tracer = &self.bus.obs().tracer;
        if !tracer.enabled() {
            return SpanHandle::inert();
        }
        let mut span = tracer.span(span_names::CLIENT_CALL, None);
        span.attr("to", &self.epr.address);
        span.attr("action", action.uri());
        span
    }

    /// One send, the only place a request leaves this client: the
    /// addressed envelope — payload in the body, WS-Addressing headers
    /// (plus the EPR's reference parameters), and, only while tracing,
    /// the caller's context as `wsa:MessageID` so the bus and service
    /// join the caller's trace — handed to [`Bus::call_async`].
    fn attempt(
        &self,
        action: Action,
        payload: &XmlElement,
        trace_parent: Option<TraceContext>,
    ) -> Result<Pending, CallError> {
        let mut env = Envelope::with_body(payload.clone());
        for h in message_headers(&self.epr.address, action.uri(), &self.epr.reference_parameters) {
            env.add_header(h);
        }
        if let Some(ctx) = trace_parent {
            env.add_header(XmlElement::new(ns::WSA, "wsa", "MessageID").with_text(ctx.encode()));
        }
        Ok(self.bus.call_async(&self.epr.address, action.uri(), &env)?)
    }

    /// Send a request without waiting for its reply: the pipelined path.
    /// The returned [`PendingReply`] resolves to exactly what
    /// [`request`](Self::request) without retry would have returned.
    ///
    /// No retry layer applies here — an admission refusal
    /// ([`BusError::Overloaded`], with its retry-after hint) surfaces
    /// immediately so the caller can pace the whole batch; that is what
    /// [`request_pipelined`](Self::request_pipelined) does.
    pub fn call_async(
        &self,
        action: Action,
        payload: &XmlElement,
    ) -> Result<PendingReply, CallError> {
        let mut span = self.call_span(action);
        match self.attempt(action, payload, span.ctx()) {
            Ok(pending) => Ok(PendingReply { pending, span }),
            Err(e) => {
                span.attr("outcome", "error");
                Err(e)
            }
        }
    }

    /// Send one action against many payloads, keeping up to `window`
    /// requests in flight, and return one result per request in input
    /// order, each reply resolved by `resolve` — [`PendingReply::wait`]
    /// for a payload tree, or [`PendingReply::wait_bytes`] plus a
    /// streaming decode for bulk data.
    ///
    /// Backpressure is cooperative: when the endpoint sheds a submit
    /// ([`BusError::Overloaded`]), the oldest in-flight reply is drained
    /// first (freeing queue space and pacing the producer); with nothing
    /// left to drain the client sleeps the refusal's retry-after hint —
    /// a bounded number of times — before giving up on that payload.
    pub fn request_pipelined<T>(
        &self,
        action: Action,
        payloads: Vec<XmlElement>,
        window: usize,
        mut resolve: impl FnMut(PendingReply) -> Result<T, CallError>,
    ) -> Vec<Result<T, CallError>> {
        let window = window.max(1);
        let mut results: Vec<Option<Result<T, CallError>>> =
            (0..payloads.len()).map(|_| None).collect();
        let mut in_flight: VecDeque<(usize, PendingReply)> = VecDeque::new();
        let mut drain_oldest =
            |in_flight: &mut VecDeque<(usize, PendingReply)>,
             results: &mut [Option<Result<T, CallError>>]| {
                if let Some((idx, reply)) = in_flight.pop_front() {
                    results[idx] = Some(resolve(reply));
                }
            };
        for (i, payload) in payloads.into_iter().enumerate() {
            if in_flight.len() >= window {
                drain_oldest(&mut in_flight, &mut results);
            }
            let mut shed_waits: u32 = 0;
            let outcome = loop {
                match self.call_async(action, &payload) {
                    Ok(reply) => break Ok(reply),
                    Err(err) => {
                        let Some(hint) = retry_after_hint(&err) else { break Err(err) };
                        if !in_flight.is_empty() {
                            drain_oldest(&mut in_flight, &mut results);
                            continue;
                        }
                        shed_waits += 1;
                        if shed_waits > MAX_SHED_WAITS {
                            break Err(err);
                        }
                        self.pace(hint);
                    }
                }
            };
            match outcome {
                Ok(reply) => in_flight.push_back((i, reply)),
                Err(err) => results[i] = Some(Err(err)),
            }
            // Replies that are already there (every reply, when the bus
            // executes inline) are taken at once, so their buffers go
            // back to the pool instead of riding out the window.
            while in_flight.front().is_some_and(|(_, reply)| reply.is_ready()) {
                drain_oldest(&mut in_flight, &mut results);
            }
        }
        while !in_flight.is_empty() {
            drain_oldest(&mut in_flight, &mut results);
        }
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(CallError::UnexpectedResponse("request was never submitted".into()))
                })
            })
            .collect()
    }

    /// Sleep out a shed's retry-after hint, through the retry config's
    /// injectable sleeper when one is present (so tests pace for free).
    fn pace(&self, hint: Duration) {
        match &self.retry {
            Some(config) => config.sleep(hint),
            None => pause(hint),
        }
    }
}

/// A reply in flight on the pipelined path; the `client.call` span stays
/// open until the reply is claimed.
pub struct PendingReply {
    pending: Pending,
    span: SpanHandle,
}

impl std::fmt::Debug for PendingReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingReply").field("ready", &self.is_ready()).finish()
    }
}

impl PendingReply {
    /// Has the exchange finished? Never blocks.
    pub fn is_ready(&self) -> bool {
        self.pending.is_ready()
    }

    /// Block until the exchange finishes and extract the response
    /// payload.
    pub fn wait(self) -> Result<XmlElement, CallError> {
        self.resolve(|pending| extract_payload(pending.wait()??))
    }

    /// Block until the exchange finishes and take the serialised
    /// response envelope.
    pub fn wait_bytes(self) -> Result<PooledBuf, CallError> {
        self.resolve(|pending| Ok(pending.wait_bytes()??))
    }

    fn resolve<T>(
        self,
        take: impl FnOnce(Pending) -> Result<T, CallError>,
    ) -> Result<T, CallError> {
        let result = take(self.pending);
        finish_call_span(self.span, result.is_ok(), 1);
        result
    }
}

/// The response payload, or the error every request shape shares.
/// Consumes the envelope so the payload is moved out, never deep-cloned.
fn extract_payload(response: Envelope) -> Result<XmlElement, CallError> {
    response
        .into_payload()
        .ok_or_else(|| CallError::UnexpectedResponse("empty response body".into()))
}

/// Stamp the root span with how the operation ended.
fn finish_call_span(mut span: SpanHandle, ok: bool, attempts: u32) {
    if span.is_recording() {
        span.attr("outcome", if ok { "ok" } else { "error" });
        span.attr("attempts", attempts);
    }
}

/// Compact, deterministic label for what failed an attempt.
fn cause_label(error: &CallError) -> String {
    match error {
        CallError::Fault(f) => match f.dais {
            Some(kind) => format!("{kind:?}"),
            None => "fault".to_string(),
        },
        CallError::Transport(BusError::Timeout(_)) => "timeout".to_string(),
        CallError::Transport(BusError::Overloaded { .. }) => "overloaded".to_string(),
        CallError::Transport(BusError::ConnectionLost(_)) => "connection-lost".to_string(),
        CallError::Transport(_) => "transport".to_string(),
        CallError::UnexpectedResponse(_) => "unexpected-response".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SoapDispatcher;
    use dais_xml::ns;
    use std::sync::Arc;

    mod actions {
        crate::actions! {
            PROBE = "urn:probe", Read;
            FAIL = "urn:f", Read;
            MISSING = "urn:x", Read;
            READ = "urn:read", Read;
            WRITE = "urn:write", Write;
            ECHO = "urn:echo", Read;
        }
    }

    #[test]
    fn client_attaches_addressing_headers() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::PROBE, |req: &Envelope| {
            // Echo back what headers we saw.
            let mut out = XmlElement::new_local("seen");
            if req.header_block(ns::WSA, "To").is_some() {
                out.set_attr("to", "1");
            }
            if req.header_block(ns::WSA, "Action").is_some() {
                out.set_attr("action", "1");
            }
            if req.header_block(ns::WSDAI, "DataResourceAbstractName").is_some() {
                out.set_attr("refparam", "1");
            }
            Ok(Envelope::with_body(out))
        });
        bus.register("bus://svc", Arc::new(d));

        let client = ServiceClient::from_epr(bus, Epr::for_resource("bus://svc", "urn:r1"));
        let resp = client.request(actions::PROBE, XmlElement::new_local("q")).unwrap();
        assert_eq!(resp.attribute("to"), Some("1"));
        assert_eq!(resp.attribute("action"), Some("1"));
        assert_eq!(resp.attribute("refparam"), Some("1"));
    }

    #[test]
    fn faults_surface_as_call_errors() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::FAIL, |_: &Envelope| {
            Err(Fault::dais(crate::fault::DaisFault::InvalidResourceName, "nope"))
        });
        bus.register("bus://svc", Arc::new(d));
        let client = ServiceClient::new(bus, "bus://svc");
        let err = client.request(actions::FAIL, XmlElement::new_local("q")).unwrap_err();
        assert_eq!(err.dais_fault(), Some(crate::fault::DaisFault::InvalidResourceName));
    }

    #[test]
    fn transport_error_for_missing_service() {
        let client = ServiceClient::new(Bus::new(), "bus://ghost");
        let err = client.request(actions::MISSING, XmlElement::new_local("q")).unwrap_err();
        assert!(matches!(err, CallError::Transport(BusError::NoSuchEndpoint(_))));
    }

    use crate::fault::DaisFault;
    use crate::retry::{RetryConfig, RetryPolicy};
    use dais_util::sync::{Condvar, Mutex};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    /// A service that answers ServiceBusy `failures` times, then succeeds.
    fn flaky_bus(failures: u32) -> Bus {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        let remaining = Arc::new(AtomicU32::new(failures));
        for action in [actions::READ, actions::WRITE] {
            let remaining = remaining.clone();
            d.register(action, move |_: &Envelope| {
                if remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err(Fault::dais(DaisFault::ServiceBusy, "busy"))
                } else {
                    Ok(Envelope::with_body(XmlElement::new_local("ok")))
                }
            });
        }
        bus.register("bus://flaky", Arc::new(d));
        bus
    }

    fn retrying_client(bus: Bus, attempts: u32) -> (ServiceClient, Arc<Mutex<Vec<Duration>>>) {
        let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let recorder = sleeps.clone();
        let config =
            RetryConfig::new(RetryPolicy::new(attempts).base_delay(Duration::from_nanos(1)))
                .with_sleep(Arc::new(move |d| recorder.lock().push(d)));
        (ServiceClient::new(bus, "bus://flaky").with_retry(config), sleeps)
    }

    #[test]
    fn idempotent_actions_retry_until_success() {
        let bus = flaky_bus(2);
        let (client, sleeps) = retrying_client(bus.clone(), 4);
        let response = client.request(actions::READ, XmlElement::new_local("q")).unwrap();
        assert_eq!(response.name.local, "ok");
        assert_eq!(sleeps.lock().len(), 2);
        let s = bus.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.messages, 3);
        assert_eq!(s.faults, 2);
    }

    #[test]
    fn non_idempotent_actions_fail_fast() {
        let bus = flaky_bus(1);
        let (client, sleeps) = retrying_client(bus.clone(), 4);
        let err = client.request(actions::WRITE, XmlElement::new_local("q")).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
        assert!(sleeps.lock().is_empty());
        assert_eq!(bus.stats().retries, 0);
        // The very next read succeeds — the failure budget was not spent.
        assert!(client.request(actions::READ, XmlElement::new_local("q")).is_ok());
    }

    #[test]
    fn attempts_stop_at_the_policy_maximum() {
        let bus = flaky_bus(u32::MAX);
        let (client, sleeps) = retrying_client(bus.clone(), 3);
        let err = client.request(actions::READ, XmlElement::new_local("q")).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
        assert_eq!(sleeps.lock().len(), 2); // 3 attempts, 2 pauses
        assert_eq!(bus.stats().messages, 3);
    }

    #[test]
    fn deadline_budget_stops_retrying_early() {
        let bus = flaky_bus(u32::MAX);
        let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let recorder = sleeps.clone();
        let config = RetryConfig::new(
            RetryPolicy::new(100)
                .base_delay(Duration::from_millis(10))
                .deadline(Duration::from_millis(25)),
        )
        .with_sleep(Arc::new(move |d| recorder.lock().push(d)));
        let client = ServiceClient::new(bus, "bus://flaky").with_retry(config);
        client.request(actions::READ, XmlElement::new_local("q")).unwrap_err();
        let total: Duration = sleeps.lock().iter().sum();
        assert!(total <= Duration::from_millis(25), "slept {total:?}");
        assert!(!sleeps.lock().is_empty());
    }

    #[test]
    fn traced_retry_builds_one_correlated_trace() {
        let bus = flaky_bus(1);
        bus.enable_tracing(0xAB);
        let (client, _) = retrying_client(bus.clone(), 4);
        client.request(actions::READ, XmlElement::new_local("q")).unwrap();
        let sink = bus.obs().tracer.take();

        let root = sink.first("client.call").expect("root span");
        assert!(sink.spans.iter().all(|s| s.trace_id == root.trace_id), "one trace");
        assert_eq!(sink.spans_named("bus.call").len(), 2, "one bus leg per attempt");
        assert_eq!(sink.spans_named("bus.dispatch").len(), 2, "context crossed the wire");
        let retry = sink.first("client.retry").expect("retry span");
        assert_eq!(retry.parent_id, Some(root.span_id));
        // The second attempt's bus leg hangs off the retry span.
        assert_eq!(sink.spans_named("bus.call")[1].parent_id, Some(retry.span_id));
        assert!(retry.attrs.iter().any(|(k, v)| *k == "cause" && v == "ServiceBusy"));
        assert!(retry.attrs.iter().any(|(k, _)| *k == "backoff_ns"));
        assert!(root.attrs.iter().any(|(k, v)| *k == "outcome" && v == "ok"));
        assert!(root.attrs.iter().any(|(k, v)| *k == "attempts" && v == "2"));
    }

    use crate::executor::ExecutorConfig;

    #[test]
    fn pipelined_requests_preserve_input_order() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        bus.install_executor(ExecutorConfig::new(4).seed(11));
        let client = ServiceClient::new(bus.clone(), "bus://svc");
        let payloads: Vec<XmlElement> =
            (0..24).map(|i| XmlElement::new_local("q").with_text(format!("{i}"))).collect();
        let results =
            client.request_pipelined(actions::ECHO, payloads.clone(), 8, PendingReply::wait);
        assert_eq!(results.len(), 24);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap().text(), format!("{i}"));
        }
        assert_eq!(bus.stats().messages, 24);
        bus.shutdown_executor();
    }

    #[test]
    fn pipelined_batch_survives_backpressure() {
        // A tiny queue forces sheds mid-batch; the client drains and
        // paces instead of failing, and every payload still answers.
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        bus.install_executor(
            ExecutorConfig::new(1)
                .queue_capacity(2)
                .max_in_flight(1)
                .retry_after(Duration::from_micros(50))
                .seed(13),
        );
        let client = ServiceClient::new(bus.clone(), "bus://svc");
        let payloads: Vec<XmlElement> =
            (0..40).map(|i| XmlElement::new_local("q").with_text(format!("{i}"))).collect();
        let results = client.request_pipelined(actions::ECHO, payloads, 8, PendingReply::wait);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap().text(), format!("{i}"));
        }
        bus.shutdown_executor();
    }

    #[test]
    fn retry_pause_respects_the_overload_hint() {
        let bus = Bus::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU32::new(0));
        let mut d = SoapDispatcher::new();
        {
            let gate = gate.clone();
            let entered = entered.clone();
            d.register(actions::READ, move |req: &Envelope| {
                entered.fetch_add(1, Ordering::SeqCst);
                let mut open = gate.0.lock();
                while !*open {
                    open = gate.1.wait(open);
                }
                Ok(req.clone())
            });
        }
        bus.register("bus://svc", Arc::new(d));
        let hint = Duration::from_millis(40);
        bus.install_executor(
            ExecutorConfig::new(1).queue_capacity(1).max_in_flight(1).retry_after(hint).seed(17),
        );
        // Occupy the worker and fill the queue, so the retrying call's
        // first attempt is shed.
        let busy = bus.call_async(
            "bus://svc",
            "urn:read",
            &Envelope::with_body(XmlElement::new_local("q")),
        );
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let queued = bus.call_async(
            "bus://svc",
            "urn:read",
            &Envelope::with_body(XmlElement::new_local("q")),
        );
        let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let config = RetryConfig::new(
            // Policy backoff is 1ns — far below the hint, which must win.
            RetryPolicy::new(4).base_delay(Duration::from_nanos(1)),
        )
        .with_sleep(Arc::new({
            let sleeps = sleeps.clone();
            let gate = gate.clone();
            move |d| {
                sleeps.lock().push(d);
                // Unblock the service, then genuinely wait the pause so
                // the worker drains before the re-send.
                *gate.0.lock() = true;
                gate.1.notify_all();
                pause(d.min(Duration::from_millis(50)));
            }
        }));
        let client = ServiceClient::new(bus.clone(), "bus://svc").with_retry(config);
        let response = client.request(actions::READ, XmlElement::new_local("q")).unwrap();
        assert_eq!(response.name.local, "q");
        {
            let sleeps = sleeps.lock();
            assert!(!sleeps.is_empty());
            assert!(sleeps[0] >= hint, "pause {:?} ignored the {hint:?} hint", sleeps[0]);
        }
        assert!(bus.stats().shed >= 1);
        for p in [busy, queued].into_iter().flatten() {
            let _ = p.wait();
        }
        bus.shutdown_executor();
    }

    #[test]
    fn per_call_idempotency_override_retries() {
        let bus = flaky_bus(1);
        let (client, _) = retrying_client(bus, 4);
        // `urn:write` is a write, but the caller vouches for this
        // particular payload.
        let reply =
            client.request_bytes(actions::WRITE, &XmlElement::new_local("q"), true).unwrap();
        assert_eq!(Envelope::from_bytes(&reply).unwrap().payload().unwrap().name.local, "ok");
    }
}
