//! The in-process message bus — the transport substitute.
//!
//! Endpoints register under logical addresses (`bus://orders-service`).
//! One exchange serialises the request envelope to bytes, routes to the
//! endpoint, parses the bytes back, invokes the service, and brings the
//! reply back as bytes too; [`Bus::call`] parses them, bulk-data callers
//! decode them as they are. Faults become fault envelopes, exactly as an
//! HTTP SOAP stack would put them in a 500 response body.
//!
//! The bus meters traffic per endpoint and in total ([`BusStats`]); the
//! paper-figure experiments (E1/E5) use those counters to show how the
//! indirect access pattern avoids moving result data through intermediate
//! consumers.

use crate::envelope::Envelope;
use crate::executor::{self, BusExecutor, ExchangeOutcome, ExecMode, ExecutorConfig, Pending};
use crate::fault::{DaisFault, Fault};
use crate::interceptor::{CallInfo, InjectorSnapshot, Intercept, Interceptor};
use crate::service::SoapService;
use crate::transport::Transport;
use dais_obs::names::span_names;
use dais_obs::{Histogram, Obs, SpanHandle, TraceContext};
use dais_util::pool::PooledBuf;
use dais_util::sync::RwLock;
use dais_xml::{ns, XmlElement};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// A registered endpoint. Carries its own stats and latency-histogram
/// handles so the per-call accounting path never takes a registry lock.
#[derive(Clone)]
pub struct Endpoint {
    pub address: String,
    service: Arc<dyn SoapService>,
    stats: Arc<BusStats>,
    latency: Arc<Histogram>,
}

impl Endpoint {
    /// The endpoint's traffic counters (shared with the bus registry, so
    /// the executor's queue gauges land in the same snapshot).
    pub(crate) fn stats(&self) -> &BusStats {
        &self.stats
    }
}

/// The service slot of a transport-routed [`Endpoint`] with no local
/// registration. Never invoked on the routed path (the transport carries
/// the bytes before dispatch reaches a service); if routing changes
/// between resolve and dispatch, it answers with a server fault rather
/// than panicking.
struct RemoteStub;

impl SoapService for RemoteStub {
    fn handle(&self, action: &str, _request: &Envelope) -> Result<Envelope, Fault> {
        Err(Fault::server(format!("remote endpoint cannot serve '{action}' locally")))
    }
}

/// Traffic counters. Byte counts measure the serialised envelope size in
/// each direction — the quantity a network transport would move.
#[derive(Debug, Default)]
pub struct BusStats {
    pub messages: AtomicU64,
    pub request_bytes: AtomicU64,
    pub response_bytes: AtomicU64,
    pub faults: AtomicU64,
    /// Calls an interceptor interfered with (tampered, answered, aborted).
    pub injected: AtomicU64,
    /// Sends that repeat a failed one within a single call: a client
    /// retry, or a federation re-send to the same or another replica.
    /// Each is billed to the endpoint that receives it.
    pub retries: AtomicU64,
    /// Bumped on every [`reset`](BusStats::reset), so a reader can tell
    /// "freshly zeroed" from "never touched" and detect a reset racing
    /// its measurement.
    pub epoch: AtomicU64,
    /// Requests the executor refused at admission (queue at capacity).
    pub shed: AtomicU64,
    /// Live gauge: requests currently sitting in the executor's work
    /// queue (enqueued, not yet picked by a worker).
    pub queue_depth: AtomicU64,
    /// High-water mark of [`queue_depth`](BusStats::queue_depth) since
    /// the last reset.
    pub queue_peak: AtomicU64,
}

/// A point-in-time copy of [`BusStats`], with the interceptor chain's
/// fault-injection ledger folded in by [`Bus::stats`] /
/// [`Bus::endpoint_stats`] — one snapshot tells the whole story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub messages: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub faults: u64,
    pub injected: u64,
    pub retries: u64,
    /// Reset generation of the counters behind this snapshot.
    pub epoch: u64,
    /// Requests shed at executor admission ([`BusError::Overloaded`]).
    pub shed: u64,
    /// Requests queued and not yet executing at snapshot time.
    pub queue_depth: u64,
    /// Deepest the work queue has been since the last reset.
    pub queue_peak: u64,
    /// What the chain's fault injectors did (summed across the chain).
    pub fault_injection: InjectorSnapshot,
}

impl StatsSnapshot {
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

impl BusStats {
    fn record(&self, request: u64, response: u64, fault: bool) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.request_bytes.fetch_add(request, Ordering::Relaxed);
        self.response_bytes.fetch_add(response, Ordering::Relaxed);
        if fault {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn record_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Zero every counter and open a new epoch. Measurement harnesses
    /// reset before the workload and read after, so deltas need no
    /// manual subtraction. The `queue_depth` gauge is *not* touched: it
    /// tracks live queued work, which a measurement epoch does not own.
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.request_bytes.store(0, Ordering::Relaxed);
        self.response_bytes.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.injected.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.queue_peak.store(self.queue_depth.load(Ordering::Relaxed), Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            request_bytes: self.request_bytes.load(Ordering::Relaxed),
            response_bytes: self.response_bytes.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            fault_injection: InjectorSnapshot::default(),
        }
    }
}

/// The in-process transport. Cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Bus {
    inner: Arc<BusInner>,
}

/// A handle that does not keep its bus alive, for anything the bus
/// itself (transitively) owns: executor workers, transports, servers,
/// and resources registered behind the bus's own endpoints. Holding a
/// [`Bus`] there would be a reference cycle that leaks the whole bus.
#[derive(Clone)]
pub struct WeakBus(Weak<BusInner>);

impl WeakBus {
    /// The bus, unless its last [`Bus`] handle has dropped.
    pub fn upgrade(&self) -> Option<Bus> {
        self.0.upgrade().map(|inner| Bus { inner })
    }

    /// Has the last [`Bus`] handle dropped? Unlike a probing upgrade,
    /// this never makes the caller the one that drops the bus (and runs
    /// its teardown) — executor workers ask while holding a shard lock
    /// that the teardown takes.
    pub(crate) fn is_dropped(&self) -> bool {
        self.0.strong_count() == 0
    }
}

#[derive(Default)]
struct BusInner {
    endpoints: RwLock<HashMap<String, Endpoint>>,
    per_endpoint: RwLock<HashMap<String, Arc<BusStats>>>,
    /// Copy-on-write chain: `call` takes one `Arc` clone, so an empty
    /// chain costs nothing and mutation never blocks in-flight calls.
    interceptors: RwLock<Arc<Vec<Arc<dyn Interceptor>>>>,
    total: BusStats,
    /// The observability fabric: tracer (off by default) and latency
    /// metrics (always on). Per-bus, so parallel tests never share.
    obs: Obs,
    /// The installed request executor, if any. `None` means every call
    /// executes inline on the caller's thread (the seed behaviour).
    executor: RwLock<Option<Arc<BusExecutor>>>,
    /// The installed [`Transport`] below the serialise→route→parse
    /// boundary. `None` (the default) serves every address from the
    /// local registry — the seed behaviour, and the hot path the
    /// allocation ratchet measures.
    transport: RwLock<Option<Arc<dyn Transport>>>,
}

/// Transport-level errors (distinct from SOAP faults, which are
/// application-level and travel in envelopes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// No endpoint registered at the address.
    NoSuchEndpoint(String),
    /// The peer produced bytes that do not parse as an envelope.
    MalformedEnvelope(String),
    /// The request was sent but no response ever arrived (only ever
    /// produced by interceptors — the in-process transport itself
    /// cannot lose messages).
    Timeout(String),
    /// The executor refused the request at admission: the endpoint's
    /// bounded work queue was at capacity. Carries a retry-after hint
    /// the retry layer folds into its backoff schedule.
    Overloaded {
        /// The endpoint whose queue was full.
        endpoint: String,
        /// How long the executor suggests waiting before re-sending.
        retry_after: Duration,
    },
    /// The connection carrying the request died before a response
    /// arrived (peer closed mid-frame, write failed, connect refused).
    /// Only produced by real network transports; retryable, because the
    /// client pool reconnects lazily on the next send.
    ConnectionLost(String),
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::NoSuchEndpoint(a) => write!(f, "no endpoint registered at '{a}'"),
            BusError::MalformedEnvelope(m) => write!(f, "malformed envelope: {m}"),
            BusError::Timeout(m) => write!(f, "timeout: {m}"),
            BusError::Overloaded { endpoint, retry_after } => write!(
                f,
                "endpoint '{endpoint}' overloaded: work queue at capacity, retry after {retry_after:?}"
            ),
            BusError::ConnectionLost(m) => write!(f, "connection lost: {m}"),
        }
    }
}

impl std::error::Error for BusError {}

impl BusError {
    /// The variant as a short, stable label (the `error` attribute of a
    /// `transport-error` span).
    pub fn kind(&self) -> &'static str {
        match self {
            BusError::NoSuchEndpoint(_) => "no-such-endpoint",
            BusError::MalformedEnvelope(_) => "malformed-envelope",
            BusError::Timeout(_) => "timeout",
            BusError::Overloaded { .. } => "overloaded",
            BusError::ConnectionLost(_) => "connection-lost",
        }
    }
}

impl Bus {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a service at a logical address.
    pub fn register(&self, address: impl Into<String>, service: Arc<dyn SoapService>) {
        let address = address.into();
        // The stats slot outlives registration churn: re-registering the
        // same address keeps accumulating into the same counters, and the
        // resolved `Endpoint` carries the `Arc` so `call` never touches
        // the `per_endpoint` map again.
        let stats = Arc::clone(self.inner.per_endpoint.write().entry(address.clone()).or_default());
        // Same longevity story for the latency histogram: the endpoint
        // caches the `Arc`, so the hot path records without a map lookup.
        let latency = self.inner.obs.metrics.endpoint_histogram(&address);
        self.inner
            .endpoints
            .write()
            .insert(address.clone(), Endpoint { address, service, stats, latency });
    }

    /// Remove an endpoint. Subsequent calls to it fail with
    /// [`BusError::NoSuchEndpoint`].
    pub fn unregister(&self, address: &str) -> bool {
        self.inner.endpoints.write().remove(address).is_some()
    }

    /// The service registered at `address`, if any. Conformance tests
    /// use this to interrogate a live endpoint's advertised actions
    /// without issuing wire calls.
    pub fn endpoint(&self, address: &str) -> Option<Arc<dyn SoapService>> {
        self.inner.endpoints.read().get(address).map(|e| e.service.clone())
    }

    /// Addresses currently registered, sorted.
    pub fn addresses(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.endpoints.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Append an interceptor to the transport chain. Requests traverse
    /// the chain in this order; responses traverse it in reverse.
    pub fn add_interceptor(&self, interceptor: Arc<dyn Interceptor>) {
        let mut chain = self.inner.interceptors.write();
        let mut next = Vec::clone(&chain);
        next.push(interceptor);
        *chain = Arc::new(next);
    }

    /// Drop every interceptor, restoring the bare transport.
    pub fn clear_interceptors(&self) {
        *self.inner.interceptors.write() = Arc::new(Vec::new());
    }

    /// Number of interceptors currently installed.
    pub fn interceptor_count(&self) -> usize {
        self.inner.interceptors.read().len()
    }

    /// Count one re-send against the endpoint that receives it (called
    /// by the client retry layer and by federation failover, which sit
    /// above the bus).
    pub fn record_retry(&self, to: &str) {
        self.inner.total.record_retry();
        if let Some(stats) = self.inner.per_endpoint.read().get(to) {
            stats.record_retry();
        }
    }

    /// Send a request and parse the reply. Both envelopes always cross
    /// the wire as bytes; a service fault is returned as `Ok(Err(fault))`
    /// after travelling through a fault envelope, mirroring
    /// SOAP-over-HTTP semantics.
    ///
    /// This is [`Bus::call_async`] plus [`Pending::wait`]: the one
    /// exchange runs (inline, or on an executor worker behind admission
    /// control) and the calling thread parses the reply bytes it
    /// resolved to.
    #[allow(clippy::type_complexity)]
    pub fn call(
        &self,
        to: &str,
        action: &str,
        request: &Envelope,
    ) -> Result<Result<Envelope, Fault>, BusError> {
        self.call_async(to, action, request)?.wait()
    }

    /// Send a request without waiting for the reply: the one entry point
    /// every call shape goes through. The returned [`Pending`] resolves
    /// to the reply bytes of the exchange (or the fault they carried).
    ///
    /// With an executor installed the request is admitted to the
    /// endpoint's bounded work queue (or refused with
    /// [`BusError::Overloaded`]); without one — or when called from an
    /// executor worker, where queueing could starve the pool — the
    /// exchange runs on the caller's thread and the handle comes back
    /// already resolved.
    pub fn call_async(
        &self,
        to: &str,
        action: &str,
        request: &Envelope,
    ) -> Result<Pending, BusError> {
        #[cfg(debug_assertions)]
        dais_util::lockorder::assert_no_guard_held("a bus call");
        let (endpoint, chain) = self.resolve(to)?;
        match self.queued_mode() {
            Some(exec) => self.enqueue(&exec, endpoint, chain, to, action, request),
            None => Ok(Pending::ready(self.call_inline(&endpoint, &chain, to, action, request))),
        }
    }

    /// Resolve an address to its endpoint and the current chain. An
    /// address with no local registration still resolves when the
    /// installed transport routes it (a split client/server deployment
    /// registers services only on the serving side).
    #[allow(clippy::type_complexity)]
    fn resolve(&self, to: &str) -> Result<(Endpoint, Arc<Vec<Arc<dyn Interceptor>>>), BusError> {
        let endpoint = match self.inner.endpoints.read().get(to).cloned() {
            Some(endpoint) => endpoint,
            None => self.remote_endpoint(to)?,
        };
        let chain = Arc::clone(&self.inner.interceptors.read());
        Ok((endpoint, chain))
    }

    /// An endpoint handle for a transport-routed address that is not in
    /// the local registry. Stats and latency land in the same
    /// per-address slots a local registration would use, so client-side
    /// billing is deployment-independent; the carried service is a stub
    /// that never runs (the transport serves the request remotely).
    fn remote_endpoint(&self, to: &str) -> Result<Endpoint, BusError> {
        let routed = self.inner.transport.read().as_ref().is_some_and(|t| t.routes(to));
        if !routed {
            return Err(BusError::NoSuchEndpoint(to.to_string()));
        }
        static STUB: OnceLock<Arc<RemoteStub>> = OnceLock::new();
        let service = Arc::clone(STUB.get_or_init(|| Arc::new(RemoteStub)));
        let stats = Arc::clone(self.inner.per_endpoint.write().entry(to.to_string()).or_default());
        let latency = self.inner.obs.metrics.endpoint_histogram(to);
        Ok(Endpoint { address: to.to_string(), service, stats, latency })
    }

    /// The executor to queue onto, unless this thread *is* an executor
    /// worker — a nested call from a service handler runs inline so a
    /// finite worker pool can never deadlock on its own queue.
    fn queued_mode(&self) -> Option<Arc<BusExecutor>> {
        if executor::on_worker_thread() {
            return None;
        }
        self.inner.executor.read().clone()
    }

    /// The inline execution mode: open the `bus.call` span and run the
    /// exchange on the caller's thread.
    fn call_inline(
        &self,
        endpoint: &Endpoint,
        chain: &[Arc<dyn Interceptor>],
        to: &str,
        action: &str,
        request: &Envelope,
    ) -> ExchangeOutcome {
        // Tracing: one relaxed atomic load when disabled, nothing else.
        // The span's parent is the caller's `wsa:MessageID` header, so a
        // traced client call and its bus leg share one trace.
        let tracer = &self.inner.obs.tracer;
        let mut call_span = if tracer.enabled() {
            let parent = request
                .header_block(ns::WSA, "MessageID")
                .and_then(|h| TraceContext::decode(h.text().trim()));
            let mut span = tracer.span(span_names::BUS_CALL, parent);
            span.attr("to", to);
            span.attr("action", action);
            span
        } else {
            SpanHandle::inert()
        };
        self.perform(endpoint, chain, to, action, request, &mut call_span)
    }

    /// Admit one request to the executor: open the `bus.enqueue` span,
    /// submit, and account a shed on refusal.
    #[allow(clippy::type_complexity)]
    fn enqueue(
        &self,
        exec: &BusExecutor,
        endpoint: Endpoint,
        chain: Arc<Vec<Arc<dyn Interceptor>>>,
        to: &str,
        action: &str,
        request: &Envelope,
    ) -> Result<Pending, BusError> {
        let tracer = &self.inner.obs.tracer;
        let mut enqueue_span = if tracer.enabled() {
            let parent = request
                .header_block(ns::WSA, "MessageID")
                .and_then(|h| TraceContext::decode(h.text().trim()));
            let mut span = tracer.span(span_names::BUS_ENQUEUE, parent);
            span.attr("to", to);
            span.attr("action", action);
            span
        } else {
            SpanHandle::inert()
        };
        exec.submit(self, endpoint, chain, to, action, request, &mut enqueue_span).map_err(
            |(endpoint, err)| {
                endpoint.stats.record_shed();
                self.inner.total.record_shed();
                enqueue_span.attr("outcome", "shed");
                err
            },
        )
    }

    /// One timed exchange plus its observability bookkeeping: latency
    /// histograms and the outcome attributes on the carrying span. Both
    /// execution modes (inline `bus.call`, worker `bus.execute`) funnel
    /// through here.
    pub(crate) fn perform(
        &self,
        endpoint: &Endpoint,
        chain: &[Arc<dyn Interceptor>],
        to: &str,
        action: &str,
        request: &Envelope,
        span: &mut SpanHandle,
    ) -> ExchangeOutcome {
        let started = Instant::now();
        let result = self.exchange(endpoint, chain, to, action, request, span);
        let nanos = started.elapsed().as_nanos() as u64;
        // Latency metrics are always on: two lock-free histogram records.
        endpoint.latency.record(nanos);
        self.inner.obs.metrics.observe_action(action, nanos);

        if span.is_recording() {
            match &result {
                Ok(Ok(_)) => span.attr("outcome", "ok"),
                Ok(Err(_)) => span.attr("outcome", "fault"),
                Err(e) => {
                    span.attr("outcome", "transport-error");
                    span.attr("error", e.kind());
                }
            }
        }
        result
    }

    /// The exchange itself — the one serialise→intercept→route→classify
    /// code path: the request envelope goes out as bytes, the reply
    /// comes back as bytes, and the outcome says whether those bytes
    /// carry data or a fault. Every leg consumed, by an early return or
    /// the completed exchange, is billed here.
    fn exchange(
        &self,
        endpoint: &Endpoint,
        chain: &[Arc<dyn Interceptor>],
        to: &str,
        action: &str,
        request: &Envelope,
        call_span: &mut SpanHandle,
    ) -> ExchangeOutcome {
        let tracer = &self.inner.obs.tracer;
        let info = CallInfo { to, action };
        let record = |request: u64, response: u64, fault: bool| {
            self.inner.total.record(request, response, fault);
            endpoint.stats.record(request, response, fault);
        };
        let note_injected = || {
            self.inner.total.record_injected();
            endpoint.stats.record_injected();
        };

        // Request wire trip, through the chain. Both legs serialise into
        // thread-local pooled buffers (the pool is a stack, so reentrant
        // calls from a handler get their own buffers); with an empty
        // chain the pooled bytes flow straight into the parser — no
        // extra copy. An interceptor swapping in owned bytes via
        // `Tamper`/`Reply` replaces the buffer contents outright.
        // The reply buffer is taken first and outlives the call, so it is
        // also the last one returned: the pool hands the same (already
        // reply-sized) buffer to the next exchange's reply.
        let mut response_bytes = PooledBuf::take();
        let mut request_span = tracer.child_span(span_names::BUS_REQUEST, call_span.ctx());
        let mut request_bytes = PooledBuf::take();
        request.to_bytes_into(&mut request_bytes);
        // `Reply` at position i answers on the service's behalf; only the
        // interceptors outside it (0..i) then see the response.
        let mut replied: Option<(Vec<u8>, usize)> = None;
        for (i, interceptor) in chain.iter().enumerate() {
            match interceptor.on_request(&info, &request_bytes) {
                Intercept::Pass => {}
                Intercept::Tamper(bytes) => {
                    note_injected();
                    request_span.attr("tampered", true);
                    request_bytes.replace_with(bytes);
                }
                Intercept::Reply(bytes) => {
                    note_injected();
                    request_span.attr("replied-by-interceptor", true);
                    replied = Some((bytes, i));
                    break;
                }
                Intercept::Abort(err) => {
                    note_injected();
                    request_span.attr("aborted", true);
                    record(request_bytes.len() as u64, 0, false);
                    return Err(err);
                }
            }
        }
        request_span.attr("bytes", request_bytes.len());
        request_span.finish();

        let response_chain_len = match replied {
            Some((bytes, i)) => {
                response_bytes.replace_with(bytes);
                i
            }
            None => {
                // The serialise→route→parse boundary: bytes go below
                // the line here and come back as response bytes. Any
                // routing failure — local parse error, remote error
                // frame, dead connection — bills the request leg it
                // consumed, identically on every transport.
                if let Err(err) =
                    self.route(endpoint, to, action, &request_bytes, &mut response_bytes)
                {
                    record(request_bytes.len() as u64, 0, false);
                    return Err(err);
                }
                chain.len()
            }
        };

        let mut response_span = tracer.child_span(span_names::BUS_RESPONSE, call_span.ctx());
        for interceptor in chain[..response_chain_len].iter().rev() {
            match interceptor.on_response(&info, &response_bytes) {
                Intercept::Pass => {}
                Intercept::Tamper(bytes) => {
                    note_injected();
                    response_span.attr("tampered", true);
                    response_bytes.replace_with(bytes);
                }
                Intercept::Reply(bytes) => {
                    note_injected();
                    response_span.attr("replied-by-interceptor", true);
                    response_bytes.replace_with(bytes);
                    break;
                }
                Intercept::Abort(err) => {
                    note_injected();
                    response_span.attr("aborted", true);
                    // A response leg was consumed before the abort: bill
                    // it, like the malformed-response path below does.
                    record(request_bytes.len() as u64, response_bytes.len() as u64, false);
                    return Err(err);
                }
            }
        }
        response_span.attr("bytes", response_bytes.len());
        response_span.finish();

        // Classify the reply so the caller only ever sees an outcome
        // that crossed the "wire". A recognisably canonical data
        // envelope is vouched for by the sniff; anything else — a fault,
        // a tampered frame, a foreign serialisation — takes a full parse.
        let (request_len, response_len) = (request_bytes.len() as u64, response_bytes.len() as u64);
        let fault = if sniff_canonical_data_reply(&response_bytes) {
            None
        } else {
            match Envelope::from_bytes(&response_bytes) {
                Ok(env) => env.payload().and_then(Fault::from_xml),
                Err(e) => {
                    record(request_len, response_len, false);
                    return Err(BusError::MalformedEnvelope(e.to_string()));
                }
            }
        };
        record(request_len, response_len, fault.is_some());
        Ok(match fault {
            Some(f) => Err(f),
            None => Ok(response_bytes),
        })
    }

    /// Route serialised request bytes to whoever serves `to` and write
    /// the serialised response into `out`. With a transport installed
    /// that routes the address, the bytes cross it; otherwise they are
    /// served from the local registry on the calling thread. This is the
    /// entire per-call cost of the transport seam on the default path:
    /// one `RwLock` read and one `Option<Arc>` clone, no allocation.
    fn route(
        &self,
        endpoint: &Endpoint,
        to: &str,
        action: &str,
        request: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let transport = self.inner.transport.read().clone();
        match transport {
            Some(t) if t.routes(to) => t.call(to, action, request, out),
            _ => self.serve_local(endpoint, action, request, out),
        }
    }

    /// The service side of the boundary: parse the request bytes, invoke
    /// the handler under a `bus.dispatch` span, and serialise the
    /// response (fault envelopes included) into `out`. Performs no
    /// billing — the caller above the transport seam owns that, so local
    /// and remote service legs account identically.
    fn serve_local(
        &self,
        endpoint: &Endpoint,
        action: &str,
        request: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let tracer = &self.inner.obs.tracer;
        let parsed_request = match Envelope::from_bytes(request) {
            Ok(env) => env,
            Err(e) => return Err(BusError::MalformedEnvelope(e.to_string())),
        };
        // The dispatch span joins the trace through the *parsed*
        // request: only a context that survived the wire (not
        // dropped, not tampered beyond recognition) correlates.
        // `child_span` is inert when the header is absent or
        // undecodable, so broken propagation shows up as a
        // missing dispatch node, never a bogus root.
        let mut dispatch_span = SpanHandle::inert();
        let mut relates_to = None;
        if tracer.enabled() {
            if let Some(id) = parsed_request.header_block(ns::WSA, "MessageID") {
                let id = id.text().trim().to_string();
                dispatch_span =
                    tracer.child_span(span_names::BUS_DISPATCH, TraceContext::decode(&id));
                dispatch_span.attr("action", action);
                relates_to = Some(id);
            }
        }
        // A panicking handler answers with a fault and leaves its worker
        // alive; the engine's statement guard has already undone its writes.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            endpoint.service.handle(action, &parsed_request)
        }))
        .unwrap_or_else(|_| {
            Err(Fault::dais(DaisFault::ServiceError, format!("handler for {action} panicked")))
        });
        dispatch_span.attr("outcome", if outcome.is_ok() { "ok" } else { "fault" });
        dispatch_span.finish();
        // Fault or success both serialise for the return trip.
        let mut response_env = match outcome {
            Ok(resp) => resp,
            Err(fault) => Envelope::with_body(fault.to_xml()),
        };
        // WS-Addressing reply correlation: echo the request's
        // MessageID (fault envelopes included). Only added while
        // tracing, keeping the tracing-off wire byte-identical.
        if let Some(id) = relates_to {
            response_env.add_header(XmlElement::new(ns::WSA, "wsa", "RelatesTo").with_text(id));
        }
        response_env.to_bytes_into(out);
        Ok(())
    }

    /// Serve one framed request arriving from a transport's server side:
    /// resolve `to` in the local registry and run the service leg. The
    /// transport carries the returned [`BusError`] back to the caller,
    /// whose own bus bills it — no stats are touched here, so a request
    /// crossing a wire is billed exactly once, on the client side, like
    /// every in-process call.
    pub(crate) fn serve_wire(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        let endpoint = self
            .inner
            .endpoints
            .read()
            .get(to)
            .cloned()
            .ok_or_else(|| BusError::NoSuchEndpoint(to.to_string()))?;
        self.serve_local(&endpoint, action, request, out)
    }

    /// Totals across all endpoints, with the chain's fault-injection
    /// ledger folded in.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.inner.total.snapshot();
        snap.fault_injection = self.chain_ledger(None);
        snap
    }

    /// Per-endpoint counters (zero snapshot if never registered),
    /// including the faults injected against that endpoint.
    pub fn endpoint_stats(&self, address: &str) -> StatsSnapshot {
        let mut snap =
            self.inner.per_endpoint.read().get(address).map(|s| s.snapshot()).unwrap_or_default();
        snap.fault_injection = self.chain_ledger(Some(address));
        snap
    }

    /// Zero every traffic counter — total, per-endpoint, and the chain's
    /// injection ledgers — opening a new measurement epoch. Latency
    /// histograms are *not* cleared; reset those through
    /// [`Bus::obs`]`().metrics` if a measurement needs it.
    pub fn reset_stats(&self) {
        self.inner.total.reset();
        for stats in self.inner.per_endpoint.read().values() {
            stats.reset();
        }
        for interceptor in self.inner.interceptors.read().iter() {
            interceptor.reset_injection_ledger();
        }
    }

    /// The bus's observability fabric (tracer + latency metrics).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Turn on tracing with a deterministic id stream; clears any spans
    /// already in the sink.
    pub fn enable_tracing(&self, seed: u64) {
        self.inner.obs.tracer.enable(seed);
    }

    pub fn disable_tracing(&self) {
        self.inner.obs.tracer.disable();
    }

    fn chain_ledger(&self, endpoint: Option<&str>) -> InjectorSnapshot {
        let mut total = InjectorSnapshot::default();
        for interceptor in self.inner.interceptors.read().iter() {
            total.merge(interceptor.injection_ledger(endpoint));
        }
        total
    }

    /// Install (or replace) a request executor: worker threads start
    /// immediately and every subsequent [`Bus::call`] /
    /// [`Bus::call_async`] goes through its bounded per-endpoint queues.
    /// Replacing an executor shuts the old one down (queues drained,
    /// workers joined) first.
    pub fn install_executor(&self, config: ExecutorConfig) {
        let exec = Arc::new(BusExecutor::start(config, self.downgrade()));
        let previous = self.inner.executor.write().replace(exec);
        if let Some(previous) = previous {
            previous.shutdown();
        }
    }

    /// Remove the executor, returning the bus to inline execution.
    /// Outstanding queued requests resolve with [`BusError::Timeout`];
    /// worker threads are joined before this returns.
    pub fn shutdown_executor(&self) {
        let exec = self.inner.executor.write().take();
        if let Some(exec) = exec {
            exec.shutdown();
        }
    }

    /// The installed executor's configuration — the admission-control
    /// knobs the monitoring document publishes. `None` in inline mode.
    pub fn executor_config(&self) -> Option<ExecutorConfig> {
        self.inner.executor.read().as_ref().map(|e| e.config())
    }

    /// Which execution mode [`Bus::call`] currently uses.
    pub fn exec_mode(&self) -> ExecMode {
        if self.inner.executor.read().is_some() {
            ExecMode::Queued
        } else {
            ExecMode::Inline
        }
    }

    /// Install (or replace) the transport below the serialise→route→
    /// parse boundary. Addresses the transport [`routes`](Transport::routes)
    /// cross it; everything else keeps serving from the local registry.
    pub fn set_transport(&self, transport: Arc<dyn Transport>) {
        *self.inner.transport.write() = Some(transport);
    }

    /// Remove the transport, returning every address to local serving
    /// (the seed behaviour).
    pub fn clear_transport(&self) {
        *self.inner.transport.write() = None;
    }

    /// The installed transport's diagnostic name, if any.
    pub fn transport_name(&self) -> Option<&'static str> {
        self.inner.transport.read().as_ref().map(|t| t.name())
    }

    /// Is a service registered locally at `to`? (Transport routing does
    /// not count — this is the registry the serving side consults.)
    pub(crate) fn has_endpoint(&self, to: &str) -> bool {
        self.inner.endpoints.read().contains_key(to)
    }

    /// A handle that does not keep this bus alive (see [`WeakBus`]).
    pub fn downgrade(&self) -> WeakBus {
        WeakBus(Arc::downgrade(&self.inner))
    }

    /// The whole-bus counters (the executor bills sheds and queue gauges
    /// against both the endpoint's stats and these totals).
    pub(crate) fn total_stats(&self) -> &BusStats {
        &self.inner.total
    }
}

/// Can `bytes` be classified as a data reply without a tree parse?
/// True only for a reply that starts with the *canonical* envelope tag
/// this stack serialises (the `soap` prefix provably bound to the SOAP
/// 1.1 namespace before the first `>`) and whose first body child is an
/// element outside that prefix and not named `Fault` under any prefix —
/// i.e. data, not a fault however it is spelled. Header blocks are fine
/// as long as no comment, CDATA section or processing instruction comes
/// before the matched `<soap:Body>`: escaping keeps a raw `<soap:Body>`
/// out of text and attributes, but not out of those, so a `<!` or `<?`
/// ahead of the match could hide a decoy. (A header block nesting an
/// element literally spelled `<soap:Body>` would still mislead it; this
/// stack never writes one.) Everything else — faults, empty bodies,
/// foreign serialisations — answers `false` and gets a full parse.
fn sniff_canonical_data_reply(bytes: &[u8]) -> bool {
    const START: &[u8] = b"<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\"";
    const BODY: &[u8] = b"<soap:Body>";
    if !bytes.starts_with(START) {
        return false;
    }
    let Some(at) = bytes.windows(BODY.len()).position(|w| w == BODY) else {
        return false;
    };
    if bytes[..at].windows(2).any(|w| w == b"<!" || w == b"<?") {
        return false;
    }
    let rest = &bytes[at + BODY.len()..];
    let Some(tag) = rest.strip_prefix(b"<") else {
        return false;
    };
    let name_len = tag.iter().position(|b| matches!(b, b'>' | b'/' | b' ' | b'\t' | b'\r' | b'\n'));
    let qname = &tag[..name_len.unwrap_or(tag.len())];
    let local = qname.rsplit(|&b| b == b':').next().unwrap_or(qname);
    !qname.starts_with(b"soap:") && local != b"Fault"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SoapDispatcher;
    use dais_xml::XmlElement;

    mod actions {
        crate::actions! {
            ECHO = "urn:echo", Read;
            FAIL = "urn:fail", Write;
        }
    }

    fn echo_bus() -> Bus {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        d.register(actions::FAIL, |_: &Envelope| Err(Fault::server("boom")));
        bus.register("bus://svc", Arc::new(d));
        bus
    }

    #[test]
    fn round_trips_through_serialisation() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("payload"));
        let out = bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        assert_eq!(out, env);
    }

    #[test]
    fn wait_bytes_matches_call_wire_bytes() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("payload"));
        let raw =
            bus.call_async("bus://svc", "urn:echo", &env).unwrap().wait_bytes().unwrap().unwrap();
        let parsed = bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        let mut expected = Vec::new();
        parsed.to_bytes_into(&mut expected);
        assert_eq!(*raw, expected);
        assert_eq!(Envelope::from_bytes(&raw).unwrap(), parsed);
        // Both lanes billed the same traffic.
        let s = bus.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.request_bytes, s.response_bytes);
    }

    #[test]
    fn wait_bytes_classifies_faults_like_call() {
        let bus = echo_bus();
        let pending = bus.call_async("bus://svc", "urn:fail", &Envelope::default()).unwrap();
        // A fault resolves to the fault alone: no reply bytes reach the
        // caller.
        let Err(fault) = pending.wait_bytes().unwrap() else { panic!("fault read as data") };
        assert_eq!(fault.reason, "boom");
        assert_eq!(bus.stats().faults, 1);
    }

    #[test]
    fn wait_bytes_under_executor_matches_inline() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("queued"));
        let bytes = |bus: &Bus| {
            bus.call_async("bus://svc", "urn:echo", &env).unwrap().wait_bytes().unwrap().unwrap()
        };
        let inline = bytes(&bus);
        bus.install_executor(ExecutorConfig { workers: 2, ..Default::default() });
        let queued = bytes(&bus);
        bus.shutdown_executor();
        assert_eq!(*queued, *inline);
        assert_eq!(Envelope::from_bytes(&queued).unwrap(), env);
    }

    #[test]
    fn sniff_accepts_only_canonical_data_replies() {
        let mut data = Vec::new();
        Envelope::with_body(XmlElement::new_local("m").with_text("x")).to_bytes_into(&mut data);
        assert!(sniff_canonical_data_reply(&data));

        let mut empty = Vec::new();
        Envelope::default().to_bytes_into(&mut empty);
        assert!(!sniff_canonical_data_reply(&empty));

        assert!(!sniff_canonical_data_reply(b"<env:Envelope xmlns:env=\"urn:x\"/>"));
        assert!(!sniff_canonical_data_reply(b"not xml at all"));

        // The tracing `RelatesTo` header keeps a data reply vouched for.
        let mut traced = Vec::new();
        let mut env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
        env.add_header(XmlElement::new(ns::WSA, "wsa", "RelatesTo").with_text("urn:msg"));
        env.to_bytes_into(&mut traced);
        assert!(sniff_canonical_data_reply(&traced));

        for fault in fault_replies() {
            let text = String::from_utf8_lossy(&fault);
            assert!(!sniff_canonical_data_reply(&fault), "vouched for a fault: {text}");
        }
    }

    /// Fault replies, each parsing as a genuine SOAP fault: the canonical
    /// serialisation, then two the first-match sniff once took for data —
    /// a decoy body tag in a header comment, and the fault under a prefix
    /// other than `soap`.
    fn fault_replies() -> Vec<Vec<u8>> {
        let mut canonical = Vec::new();
        Envelope::with_body(Fault::server("synthetic").to_xml()).to_bytes_into(&mut canonical);
        let canonical = String::from_utf8(canonical).unwrap();
        let decoy = canonical.replacen(
            "<soap:Body>",
            "<soap:Header><!--<soap:Body><x/>--></soap:Header><soap:Body>",
            1,
        );
        let prefixed = canonical
            .replace("<soap:Fault>", &format!("<env:Fault xmlns:env=\"{}\">", ns::SOAP_ENV))
            .replace("</soap:Fault>", "</env:Fault>");
        for reply in [&canonical, &decoy, &prefixed] {
            let env = Envelope::from_bytes(reply.as_bytes()).unwrap();
            assert!(env.payload().and_then(Fault::from_xml).is_some(), "not a fault: {reply}");
        }
        vec![canonical.into_bytes(), decoy.into_bytes(), prefixed.into_bytes()]
    }

    /// A lock guard held across a bus exchange: the callee can stall on a
    /// queue or a remote peer while every contender waits behind it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock guard held across a bus call")]
    fn a_guard_held_across_a_call_panics() {
        let bus = echo_bus();
        let state = dais_util::sync::Mutex::new(0u64);
        let guard = state.lock();
        let _ = bus.call("bus://svc", "urn:echo", &Envelope::default());
        drop(guard);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock guard held across a queued reply wait")]
    fn a_guard_held_across_a_queued_reply_wait_panics() {
        let bus = echo_bus();
        bus.install_executor(ExecutorConfig { workers: 1, ..Default::default() });
        let pending = bus.call_async("bus://svc", "urn:echo", &Envelope::default()).unwrap();
        let state = dais_util::sync::Mutex::new(0u64);
        let _guard = state.lock();
        let _ = pending.wait_bytes();
    }

    /// The clean shape: the guard drops before the exchange.
    #[test]
    fn a_guard_dropped_before_the_call_is_fine() {
        let bus = echo_bus();
        let state = dais_util::sync::Mutex::new(7u64);
        let request = {
            let guard = state.lock();
            Envelope::with_body(XmlElement::new_local("m").with_text(guard.to_string()))
        };
        assert_eq!(bus.call("bus://svc", "urn:echo", &request).unwrap().unwrap(), request);
    }

    #[test]
    fn faults_travel_as_envelopes() {
        let bus = echo_bus();
        let out = bus.call("bus://svc", "urn:fail", &Envelope::default()).unwrap();
        let fault = out.unwrap_err();
        assert_eq!(fault.reason, "boom");
        assert_eq!(bus.stats().faults, 1);
    }

    #[test]
    fn unknown_endpoint_is_transport_error() {
        let bus = echo_bus();
        assert_eq!(
            bus.call("bus://nope", "urn:echo", &Envelope::default()).unwrap_err(),
            BusError::NoSuchEndpoint("bus://nope".into())
        );
    }

    #[test]
    fn unknown_action_is_client_fault() {
        let bus = echo_bus();
        let fault =
            bus.call("bus://svc", "urn:unknown", &Envelope::default()).unwrap().unwrap_err();
        assert_eq!(fault.code, crate::fault::FaultCode::Client);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("0123456789"));
        bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        let s = bus.stats();
        assert_eq!(s.messages, 2);
        assert!(s.request_bytes > 0 && s.response_bytes > 0);
        assert_eq!(s.request_bytes, s.response_bytes); // echo
        let e = bus.endpoint_stats("bus://svc");
        assert_eq!(e.messages, 2);
        assert_eq!(e.total_bytes(), s.total_bytes());
    }

    #[test]
    fn unregister_removes_endpoint() {
        let bus = echo_bus();
        assert!(bus.unregister("bus://svc"));
        assert!(!bus.unregister("bus://svc"));
        assert!(matches!(
            bus.call("bus://svc", "urn:echo", &Envelope::default()),
            Err(BusError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn addresses_lists_registered() {
        let bus = echo_bus();
        assert_eq!(bus.addresses(), vec!["bus://svc"]);
    }

    type VisitLog = Arc<dais_util::sync::Mutex<Vec<(u8, char)>>>;

    /// Tags request bytes on the way in and response bytes on the way
    /// out, appending to a log shared by the whole chain.
    struct Tagger {
        id: u8,
        log: VisitLog,
    }

    impl crate::interceptor::Interceptor for Tagger {
        fn on_request(
            &self,
            _: &crate::interceptor::CallInfo<'_>,
            _: &[u8],
        ) -> crate::interceptor::Intercept {
            self.log.lock().push((self.id, 'q'));
            crate::interceptor::Intercept::Pass
        }

        fn on_response(
            &self,
            _: &crate::interceptor::CallInfo<'_>,
            _: &[u8],
        ) -> crate::interceptor::Intercept {
            self.log.lock().push((self.id, 's'));
            crate::interceptor::Intercept::Pass
        }
    }

    #[test]
    fn chain_runs_in_order_and_reversed() {
        let bus = echo_bus();
        let log: VisitLog = Arc::default();
        bus.add_interceptor(Arc::new(Tagger { id: 1, log: log.clone() }));
        bus.add_interceptor(Arc::new(Tagger { id: 2, log: log.clone() }));
        assert_eq!(bus.interceptor_count(), 2);
        bus.call("bus://svc", "urn:echo", &Envelope::default()).unwrap().unwrap();
        assert_eq!(*log.lock(), vec![(1, 'q'), (2, 'q'), (2, 's'), (1, 's')]);
        bus.clear_interceptors();
        assert_eq!(bus.interceptor_count(), 0);
    }

    struct AbortAll;
    impl crate::interceptor::Interceptor for AbortAll {
        fn on_request(
            &self,
            call: &crate::interceptor::CallInfo<'_>,
            _: &[u8],
        ) -> crate::interceptor::Intercept {
            crate::interceptor::Intercept::Abort(BusError::Timeout(call.to.to_string()))
        }
    }

    #[test]
    fn abort_surfaces_as_transport_error_and_bills_request_leg() {
        let bus = echo_bus();
        bus.add_interceptor(Arc::new(AbortAll));
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("payload"));
        let err = bus.call("bus://svc", "urn:echo", &env).unwrap_err();
        assert_eq!(err, BusError::Timeout("bus://svc".into()));
        let s = bus.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.injected, 1);
        assert!(s.request_bytes > 0);
        assert_eq!(s.response_bytes, 0);
        assert_eq!(s.faults, 0);
    }

    struct AbortResponses;
    impl crate::interceptor::Interceptor for AbortResponses {
        fn on_response(
            &self,
            call: &crate::interceptor::CallInfo<'_>,
            _: &[u8],
        ) -> crate::interceptor::Intercept {
            crate::interceptor::Intercept::Abort(BusError::Timeout(call.to.to_string()))
        }
    }

    #[test]
    fn response_abort_bills_the_consumed_response_leg() {
        let bus = echo_bus();
        bus.add_interceptor(Arc::new(AbortResponses));
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("payload"));
        let err = bus.call("bus://svc", "urn:echo", &env).unwrap_err();
        assert_eq!(err, BusError::Timeout("bus://svc".into()));
        let s = bus.stats();
        assert_eq!(s.messages, 1);
        // The service ran and produced a response before the abort: both
        // legs moved bytes and both are billed (this is an echo, so the
        // legs are equal).
        assert!(s.request_bytes > 0);
        assert_eq!(s.response_bytes, s.request_bytes);
    }

    struct ReplyCanned(Vec<u8>);
    impl crate::interceptor::Interceptor for ReplyCanned {
        fn on_request(
            &self,
            _: &crate::interceptor::CallInfo<'_>,
            _: &[u8],
        ) -> crate::interceptor::Intercept {
            crate::interceptor::Intercept::Reply(self.0.clone())
        }
    }

    #[test]
    fn reply_short_circuits_the_service() {
        for canned in fault_replies() {
            let bus = echo_bus();
            bus.add_interceptor(Arc::new(ReplyCanned(canned)));
            // The echo service never runs; the canned fault comes back.
            let fault =
                bus.call("bus://svc", "urn:echo", &Envelope::default()).unwrap().unwrap_err();
            assert_eq!(fault.reason, "synthetic");
            let s = bus.stats();
            assert_eq!((s.messages, s.faults, s.injected), (1, 1, 1));
        }
    }

    struct CorruptRequests;
    impl crate::interceptor::Interceptor for CorruptRequests {
        fn on_request(
            &self,
            _: &crate::interceptor::CallInfo<'_>,
            bytes: &[u8],
        ) -> crate::interceptor::Intercept {
            crate::interceptor::Intercept::Tamper(bytes[..bytes.len() / 2].to_vec())
        }
    }

    #[test]
    fn tampered_request_fails_to_parse() {
        let bus = echo_bus();
        bus.add_interceptor(Arc::new(CorruptRequests));
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("payload"));
        let err = bus.call("bus://svc", "urn:echo", &env).unwrap_err();
        assert!(matches!(err, BusError::MalformedEnvelope(_)));
        assert_eq!(bus.stats().injected, 1);
    }

    #[test]
    fn empty_chain_leaves_stats_identical() {
        let with_chain = echo_bus();
        with_chain.add_interceptor(Arc::new(Tagger { id: 9, log: Arc::default() }));
        with_chain.clear_interceptors();
        let without = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("same"));
        with_chain.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        without.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        assert_eq!(with_chain.stats(), without.stats());
    }

    #[test]
    fn reset_stats_zeroes_counters_and_bumps_epoch() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
        bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        bus.record_retry("bus://svc");
        assert_eq!(bus.stats().epoch, 0);
        bus.reset_stats();
        let s = bus.stats();
        assert_eq!((s.messages, s.total_bytes(), s.retries), (0, 0, 0));
        assert_eq!(s.epoch, 1);
        assert_eq!(bus.endpoint_stats("bus://svc").epoch, 1);
        // Counters keep accumulating in the new epoch.
        bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        assert_eq!(bus.stats().messages, 1);
    }

    #[test]
    fn stats_fold_in_the_chain_injection_ledger() {
        use crate::interceptor::{FaultInjector, FaultPolicy, InjectorSnapshot};
        let bus = echo_bus();
        let inj = FaultInjector::new(1);
        inj.set_policy("bus://svc", FaultPolicy::default().busy(1.0));
        bus.add_interceptor(Arc::new(inj));
        let fault = bus.call("bus://svc", "urn:echo", &Envelope::default()).unwrap().unwrap_err();
        assert!(fault.is(crate::fault::DaisFault::ServiceBusy));
        assert_eq!(bus.stats().fault_injection.busy, 1);
        assert_eq!(bus.endpoint_stats("bus://svc").fault_injection.busy, 1);
        assert_eq!(bus.endpoint_stats("bus://other").fault_injection, InjectorSnapshot::default());
        bus.reset_stats();
        assert_eq!(bus.stats().fault_injection.total(), 0);
    }

    #[test]
    fn latency_histograms_record_every_call() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
        for _ in 0..3 {
            bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        }
        let snap = bus.obs().metrics.snapshot();
        assert_eq!(snap["endpoint:bus://svc"].count, 3);
        assert_eq!(snap["action:urn:echo"].count, 3);
    }

    #[test]
    fn traced_call_records_correlated_spans_and_echoes_relates_to() {
        let bus = echo_bus();
        bus.enable_tracing(0xE13);
        // Stand in for a traced client: open a root span and carry its
        // context in `wsa:MessageID`, exactly as `ServiceClient` does.
        let root = bus.obs().tracer.span(span_names::CLIENT_CALL, None);
        let ctx = root.ctx().unwrap();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"))
            .with_header(XmlElement::new(ns::WSA, "wsa", "MessageID").with_text(ctx.encode()));
        let out = bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        let relates = out.header_block(ns::WSA, "RelatesTo").expect("RelatesTo echoed");
        assert_eq!(relates.text(), ctx.encode());
        drop(root);

        let sink = bus.obs().tracer.take();
        let names: Vec<&str> = sink.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["client.call", "bus.call", "bus.request", "bus.dispatch", "bus.response"]
        );
        assert!(sink.spans.iter().all(|s| s.trace_id == ctx.trace_id));
        // Both the bus leg and the dispatch hang off the client span:
        // the former from the request argument, the latter from the
        // MessageID that crossed the wire.
        assert_eq!(sink.first("bus.call").unwrap().parent_id, Some(ctx.span_id));
        assert_eq!(sink.first("bus.dispatch").unwrap().parent_id, Some(ctx.span_id));
        let call_id = sink.first("bus.call").unwrap().span_id;
        assert_eq!(sink.first("bus.request").unwrap().parent_id, Some(call_id));
        assert_eq!(sink.first("bus.response").unwrap().parent_id, Some(call_id));
    }

    #[test]
    fn untraced_wire_gains_no_correlation_headers() {
        let bus = echo_bus();
        let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
        let out = bus.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        assert!(out.header_block(ns::WSA, "RelatesTo").is_none());
        assert!(bus.obs().tracer.sink().is_empty());
    }

    #[test]
    fn record_retry_counts_total_and_endpoint() {
        let bus = echo_bus();
        bus.record_retry("bus://svc");
        bus.record_retry("bus://svc");
        bus.record_retry("bus://unknown"); // total only; endpoint never registered
        assert_eq!(bus.stats().retries, 3);
        assert_eq!(bus.endpoint_stats("bus://svc").retries, 2);
        assert_eq!(bus.endpoint_stats("bus://unknown").retries, 0);
    }
}
