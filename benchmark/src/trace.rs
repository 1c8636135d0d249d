//! Outside-in tracing: spans recorded from the benchmark's own files at
//! the stack's public seams, kept in memory, analysed after the run.
//!
//! Five nested levels describe one op:
//!
//! ```text
//! op          the consumer's whole operation (engine brackets it)
//!  call       one typed-client call (`Probe::call` in the workload)
//!   wire      on_request → on_response of the pass-through interceptor
//!    transport  `Transport::call` behind a `TimedTransport`
//!     handle    `SoapService::handle` behind a `TimedService`
//!      wire …   a federation gateway's handler calling its shards
//! ```
//!
//! Nothing here is installed on an untraced run: the gated metrics are
//! measured with an empty interceptor chain, the workload's own
//! transport and the services as launched.

use dais_soap::interceptor::{CallInfo, Intercept, Interceptor};
use dais_soap::{Bus, BusError, Envelope, Fault, InProcessTransport, SoapService, Transport};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one clock for every
/// thread, so client, connection and scatter threads' spans compare.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-thread number, stable for the thread's life.
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static INDEX: Cell<u32> = const { Cell::new(0) };
    }
    INDEX.with(|i| {
        if i.get() == 0 {
            i.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        i.get()
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Op,
    Call,
    Wire,
    Transport,
    Handle,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Op => "op",
            Level::Call => "client.call",
            Level::Wire => "soap.wire",
            Level::Transport => "soap.transport",
            Level::Handle => "core.service_handle",
        }
    }
}

#[derive(Clone, Copy)]
struct Event {
    t: u64,
    thread: u32,
    level: Level,
    start: bool,
    /// Address index for wire/transport/handle events; op kind for ops.
    tag: u16,
    bytes: u32,
    /// One-based index into the captured buffers; 0 when not captured.
    capture: u32,
}

#[derive(Default)]
struct Log {
    events: Vec<Event>,
    addrs: Vec<String>,
    captures: Vec<Vec<u8>>,
}

/// The in-memory span log shared by every seam wrapper.
pub struct Recorder {
    log: Mutex<Log>,
    /// While set, the interceptor keeps a copy of the wire bytes it sees
    /// (the shadow calls' inputs). The engine sets it for a fixed sample
    /// of ops only, so most traced ops pay no copy.
    capturing: AtomicBool,
}

impl Recorder {
    pub fn new(expected_events: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            log: Mutex::new(Log { events: Vec::with_capacity(expected_events), ..Log::default() }),
            capturing: AtomicBool::new(false),
        })
    }

    /// Append one event. `addr` names the endpoint for seam events and
    /// is `None` for op and call events, whose `tag` and `flag` the
    /// caller supplies (op kind; "this op is in the captured sample").
    fn record(
        &self,
        level: Level,
        start: bool,
        addr: Option<&str>,
        tag: u16,
        flag: bool,
        payload: &[u8],
    ) {
        let keep_bytes = level == Level::Wire && self.capturing.load(Ordering::Relaxed);
        let thread = thread_index();
        let mut log = self.log.lock().expect("a seam wrapper panicked while recording");
        let tag = match addr {
            Some(addr) => match log.addrs.iter().position(|a| a == addr) {
                Some(i) => i as u16,
                None => {
                    log.addrs.push(addr.to_string());
                    (log.addrs.len() - 1) as u16
                }
            },
            None => tag,
        };
        let capture = if keep_bytes {
            log.captures.push(payload.to_vec());
            log.captures.len() as u32
        } else {
            u32::from(flag)
        };
        // Stamp last, under the lock: log order is time order.
        let t = now_ns();
        log.events.push(Event {
            t,
            thread,
            level,
            start,
            tag,
            bytes: payload.len() as u32,
            capture,
        });
    }

    /// Open an op span. `capture` marks it as one of the fixed sample
    /// whose wire bytes are kept for the shadow calls.
    pub fn op_begin(&self, kind: usize, capture: bool) {
        self.capturing.store(capture, Ordering::Relaxed);
        self.record(Level::Op, true, None, kind as u16, capture, &[]);
    }

    pub fn op_end(&self, kind: usize) {
        self.record(Level::Op, false, None, kind as u16, false, &[]);
        self.capturing.store(false, Ordering::Relaxed);
    }

    /// Close the log and resolve it into spans.
    pub fn finish(&self) -> Result<Trace, String> {
        let log = std::mem::take(&mut *self.log.lock().expect("recorder lock poisoned"));
        Trace::build(log)
    }
}

/// What a workload holds to mark its typed-client calls. Off (the
/// default) it is a branch on a `None`.
#[derive(Clone, Default)]
pub struct Probe(Option<Arc<Recorder>>);

impl Probe {
    pub fn on(recorder: Arc<Recorder>) -> Probe {
        Probe(Some(recorder))
    }

    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.0.as_ref()
    }

    /// Bracket one typed-client call.
    pub fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(r) => {
                r.record(Level::Call, true, None, 0, false, &[]);
                let out = f();
                r.record(Level::Call, false, None, 0, false, &[]);
                out
            }
        }
    }
}

/// The pass-through capture interceptor: stamps both directions of every
/// exchange on the bus it is installed on and never alters a byte.
pub struct CaptureInterceptor(Arc<Recorder>);

impl Interceptor for CaptureInterceptor {
    fn on_request(&self, call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        self.0.record(Level::Wire, true, Some(call.to), 0, false, bytes);
        Intercept::Pass
    }

    fn on_response(&self, call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        self.0.record(Level::Wire, false, Some(call.to), 0, false, bytes);
        Intercept::Pass
    }
}

/// What a bus reports as its transport's name while the timing wrapper
/// is installed (the self-tests use it to show an untraced run has none).
pub const TIMED_TRANSPORT_NAME: &str = "daisbench-timed";

/// A timing wrapper around whatever transport the workload uses.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    recorder: Arc<Recorder>,
}

impl Transport for TimedTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        self.recorder.record(Level::Transport, true, Some(to), 0, false, &[]);
        let result = self.inner.call(to, action, request, response);
        self.recorder.record(Level::Transport, false, Some(to), 0, false, &[]);
        result
    }

    fn routes(&self, to: &str) -> bool {
        self.inner.routes(to)
    }

    fn name(&self) -> &'static str {
        TIMED_TRANSPORT_NAME
    }
}

/// A timing wrapper around one registered endpoint.
pub struct TimedService {
    inner: Arc<dyn SoapService>,
    address: String,
    recorder: Arc<Recorder>,
}

impl SoapService for TimedService {
    fn handle(&self, action: &str, request: &Envelope) -> Result<Envelope, Fault> {
        self.recorder.record(Level::Handle, true, Some(&self.address), 0, false, &[]);
        let result = self.inner.handle(action, request);
        self.recorder.record(Level::Handle, false, Some(&self.address), 0, false, &[]);
        result
    }

    fn actions(&self) -> Vec<String> {
        self.inner.actions()
    }
}

/// Install the three seam wrappers: the capture interceptor and a timed
/// transport on the bus the clients call through, and a timed service
/// in front of every endpoint registered on the serving bus (the same
/// bus in process, the far side of the socket over TCP). `transport` is
/// the workload's own transport, if it installed one; in process the
/// wrapper goes around an explicit [`InProcessTransport`].
pub fn install(
    recorder: &Arc<Recorder>,
    client_bus: &Bus,
    service_bus: &Bus,
    transport: Option<Arc<dyn Transport>>,
) {
    for address in service_bus.addresses() {
        let inner = service_bus.endpoint(&address).expect("address was just listed");
        let timed =
            TimedService { inner, address: address.clone(), recorder: Arc::clone(recorder) };
        service_bus.register(address, Arc::new(timed));
    }
    let inner = transport.unwrap_or_else(|| Arc::new(InProcessTransport::new(client_bus)));
    client_bus.set_transport(Arc::new(TimedTransport { inner, recorder: Arc::clone(recorder) }));
    client_bus.add_interceptor(Arc::new(CaptureInterceptor(Arc::clone(recorder))));
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Span {
    pub level: Level,
    pub start: u64,
    pub end: u64,
    pub thread: u32,
    /// Address index (wire/transport/handle) or op kind (op).
    pub tag: u16,
    pub parent: Option<usize>,
    /// Index of the op span this span belongs to.
    pub op: Option<usize>,
    pub request_bytes: u32,
    pub response_bytes: u32,
    pub request_capture: Option<usize>,
    pub response_capture: Option<usize>,
    /// Op spans only: one of the fixed sample kept for shadow calls.
    pub captured_op: bool,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Trace {
    pub spans: Vec<Span>,
    pub children: Vec<Vec<usize>>,
    pub addrs: Vec<String>,
    pub captures: Vec<Vec<u8>>,
    /// Span indices of the op spans, in start order.
    pub ops: Vec<usize>,
}

/// Total length covered by `intervals` (which may overlap).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

impl Trace {
    fn build(log: Log) -> Result<Trace, String> {
        // Pair starts with ends per thread; a thread's events nest.
        let mut spans: Vec<Span> = Vec::with_capacity(log.events.len() / 2);
        let mut stacks: Vec<(u32, Vec<usize>)> = Vec::new();
        for e in &log.events {
            let pos = match stacks.iter().position(|(t, _)| *t == e.thread) {
                Some(pos) => pos,
                None => {
                    stacks.push((e.thread, Vec::new()));
                    stacks.len() - 1
                }
            };
            let stack = &mut stacks[pos].1;
            if e.start {
                spans.push(Span {
                    level: e.level,
                    start: e.t,
                    end: e.t,
                    thread: e.thread,
                    tag: e.tag,
                    parent: stack.last().copied(),
                    op: None,
                    request_bytes: e.bytes,
                    response_bytes: 0,
                    request_capture: (e.level == Level::Wire && e.capture > 0)
                        .then(|| e.capture as usize - 1),
                    response_capture: None,
                    captured_op: e.level == Level::Op && e.capture > 0,
                });
                stack.push(spans.len() - 1);
            } else {
                let open =
                    stack.pop().ok_or_else(|| format!("{} end without a start", e.level.name()))?;
                let span = &mut spans[open];
                if span.level != e.level || span.tag != e.tag {
                    return Err(format!(
                        "{} end closes a {} span",
                        e.level.name(),
                        span.level.name()
                    ));
                }
                span.end = e.t;
                span.response_bytes = e.bytes;
                span.response_capture = (e.capture > 0).then(|| e.capture as usize - 1);
            }
        }
        if let Some((thread, _)) = stacks.iter().find(|(_, s)| !s.is_empty()) {
            return Err(format!("thread {thread} left a span open"));
        }

        // A span with no enclosing span on its own thread ran on a helper
        // thread: a service handle on a TCP connection thread, caused by
        // the transport span around it, or a scatter leg's wire span,
        // caused by the gateway's handle. Handles resolve first, so that
        // "a handle the consumer's call reached" is known when the legs
        // look for their gateway (a sibling leg's shard handle may also
        // contain a leg in time, and must not adopt it).
        let reaches_op = |spans: &[Span], mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            spans[i].level == Level::Op
        };
        for (orphan_level, cause_level) in
            [(Level::Handle, Level::Transport), (Level::Wire, Level::Handle)]
        {
            let mut causes: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].level == cause_level && reaches_op(&spans, i))
                .collect();
            causes.sort_by_key(|&i| spans[i].start);
            for i in 0..spans.len() {
                if spans[i].level != orphan_level || spans[i].parent.is_some() {
                    continue;
                }
                // One client runs one op at a time, so the causes are
                // sequential: the last one started before the orphan is
                // the only one that can contain it.
                let at = causes.partition_point(|&c| spans[c].start <= spans[i].start);
                if let Some(&c) = at.checked_sub(1).and_then(|j| causes.get(j)) {
                    if spans[c].end >= spans[i].end {
                        spans[i].parent = Some(c);
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut ops = Vec::new();
        for i in 0..spans.len() {
            let mut root = i;
            while let Some(p) = spans[root].parent {
                root = p;
            }
            if spans[root].level == Level::Op {
                spans[i].op = Some(root);
                if root == i {
                    ops.push(i);
                }
            }
        }
        Ok(Trace { spans, children, addrs: log.addrs, captures: log.captures, ops })
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, span: usize) -> u64 {
        let s = &self.spans[span];
        let mut covered: Vec<(u64, u64)> = self.children[span]
            .iter()
            .map(|&c| (self.spans[c].start.max(s.start), self.spans[c].end.min(s.end)))
            .collect();
        s.duration() - union_len(&mut covered)
    }

    fn children_at(&self, span: usize, level: Level) -> impl Iterator<Item = usize> + '_ {
        self.children[span].iter().copied().filter(move |&c| self.spans[c].level == level)
    }

    /// Partition one op's wall time over the seams, and assert the
    /// partition is exact: Σ self == root, to the nanosecond.
    pub fn breakdown(&self, op: usize) -> Result<OpBreakdown, String> {
        let root = &self.spans[op];
        let mut b = OpBreakdown {
            kind: root.tag as usize,
            root_ns: root.duration(),
            between_calls_ns: self.self_time(op),
            ..OpBreakdown::default()
        };
        for call in self.children_at(op, Level::Call) {
            let c = &self.spans[call];
            let wires: Vec<usize> = self.children_at(call, Level::Wire).collect();
            let Some(&first) = wires.first() else {
                return Err("a typed-client call crossed no wire".into());
            };
            b.request_path_ns += self.spans[first].start - c.start;
            // Anything between two wire trips of one call is a retry's
            // back-off; it is the client's response-side work.
            b.response_path_ns += self.self_time(call) - (self.spans[first].start - c.start);
            for wire in wires {
                let w = &self.spans[wire];
                b.messages += 1;
                b.request_bytes += u64::from(w.request_bytes);
                b.response_bytes += u64::from(w.response_bytes);
                b.transport_self_ns += self.self_time(wire);
                for transport in self.children_at(wire, Level::Transport) {
                    b.transport_self_ns += self.self_time(transport);
                    for handle in self.children_at(transport, Level::Handle) {
                        b.handle_ns += self.spans[handle].duration();
                        self.legs_of(handle, &mut b);
                    }
                }
            }
        }
        let parts = b.between_calls_ns
            + b.request_path_ns
            + b.transport_self_ns
            + b.handle_ns
            + b.response_path_ns;
        if parts != b.root_ns {
            return Err(format!(
                "seam self times sum to {parts} ns but the op took {} ns",
                b.root_ns
            ));
        }
        Ok(b)
    }

    /// Scatter legs under a gateway's handle span: concurrent wire spans
    /// whose union, not sum, is what the gateway waited for.
    fn legs_of(&self, handle: usize, b: &mut OpBreakdown) {
        let legs: Vec<usize> = self.children_at(handle, Level::Wire).collect();
        if legs.is_empty() {
            return;
        }
        b.gather_self_ns += self.self_time(handle);
        for leg in legs {
            let l = &self.spans[leg];
            b.leg_ns.push(l.duration());
            b.leg_wire_bytes += u64::from(l.request_bytes) + u64::from(l.response_bytes);
        }
    }
}

/// One traced op's wall time, split at the seams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpBreakdown {
    pub kind: usize,
    pub root_ns: u64,
    /// Op time outside any typed-client call (consumer glue).
    pub between_calls_ns: u64,
    /// Call start → on_request: payload build, addressing, envelope
    /// encode, admission, interceptor chain.
    pub request_path_ns: u64,
    /// on_request → on_response minus the service handle: routing,
    /// framing, sockets, server-side envelope parse and reply encode.
    pub transport_self_ns: u64,
    /// `SoapService::handle`: dispatch, registry, engine, reply build.
    pub handle_ns: u64,
    /// on_response → call end: reply parse, rowset decode.
    pub response_path_ns: u64,
    pub messages: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Federated ops only: each scatter leg's wire time.
    pub leg_ns: Vec<u64>,
    pub leg_wire_bytes: u64,
    /// Gateway handle time not covered by any leg: analyse, spawn, merge.
    pub gather_self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, thread: u32, level: Level, start: bool, tag: u16) -> Event {
        Event { t, thread, level, start, tag, bytes: 10, capture: 0 }
    }

    fn log(events: Vec<Event>) -> Log {
        Log {
            events,
            addrs: vec!["bus://gw".into(), "bus://s0".into(), "bus://s1".into()],
            captures: vec![],
        }
    }

    #[test]
    fn union_ignores_overlap_and_order() {
        assert_eq!(union_len(&mut [(5, 10), (0, 3), (2, 6)]), 10);
        assert_eq!(union_len(&mut [(0, 4), (10, 12)]), 6);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn single_call_partitions_exactly() {
        use Level::*;
        let trace = Trace::build(log(vec![
            ev(100, 1, Op, true, 2),
            ev(110, 1, Call, true, 0),
            ev(150, 1, Wire, true, 0),
            ev(155, 1, Transport, true, 0),
            ev(170, 1, Handle, true, 0),
            ev(270, 1, Handle, false, 0),
            ev(290, 1, Transport, false, 0),
            ev(300, 1, Wire, false, 0),
            ev(380, 1, Call, false, 0),
            ev(400, 1, Op, false, 2),
        ]))
        .unwrap();
        assert_eq!(trace.ops.len(), 1);
        let b = trace.breakdown(trace.ops[0]).unwrap();
        assert_eq!(b.kind, 2);
        assert_eq!(b.root_ns, 300);
        assert_eq!(b.between_calls_ns, 30);
        assert_eq!(b.request_path_ns, 40);
        assert_eq!(b.transport_self_ns, 15 + 35);
        assert_eq!(b.handle_ns, 100);
        assert_eq!(b.response_path_ns, 80);
        assert_eq!((b.messages, b.request_bytes, b.response_bytes), (1, 10, 10));
        assert!(b.leg_ns.is_empty());
    }

    #[test]
    fn helper_thread_spans_find_their_cause() {
        use Level::*;
        // A gateway handle on thread 1 scatters two concurrent legs on
        // threads 2 and 3; the handle's self time excludes their union.
        let trace = Trace::build(log(vec![
            ev(0, 1, Op, true, 0),
            ev(0, 1, Call, true, 0),
            ev(10, 1, Wire, true, 0),
            ev(10, 1, Transport, true, 0),
            ev(20, 1, Handle, true, 0),
            ev(30, 2, Wire, true, 1),
            ev(35, 3, Wire, true, 2),
            ev(36, 2, Transport, true, 1),
            ev(37, 2, Handle, true, 1),
            ev(50, 2, Handle, false, 1),
            ev(52, 2, Transport, false, 1),
            ev(60, 2, Wire, false, 1),
            ev(80, 3, Wire, false, 2),
            ev(100, 1, Handle, false, 0),
            ev(100, 1, Transport, false, 0),
            ev(105, 1, Wire, false, 0),
            ev(120, 1, Call, false, 0),
            ev(120, 1, Op, false, 0),
        ]))
        .unwrap();
        let b = trace.breakdown(trace.ops[0]).unwrap();
        assert_eq!(b.handle_ns, 80);
        assert_eq!(b.leg_ns, vec![30, 45]);
        assert_eq!(b.gather_self_ns, 80 - 50);
        assert_eq!(b.leg_wire_bytes, 40);
        assert_eq!(b.messages, 1, "legs are not consumer messages");
        // Every span, helper threads included, belongs to the one op.
        assert!(trace.spans.iter().all(|s| s.op == Some(trace.ops[0])));
    }

    #[test]
    fn unbalanced_logs_are_rejected() {
        use Level::*;
        assert!(Trace::build(log(vec![ev(0, 1, Op, true, 0)])).is_err());
        assert!(Trace::build(log(vec![ev(0, 1, Call, false, 0)])).is_err());
        assert!(Trace::build(log(vec![ev(0, 1, Op, true, 0), ev(1, 1, Call, false, 0)])).is_err());
    }
}
