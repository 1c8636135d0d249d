//! Cross-transport conformance: every guarantee built above the
//! serialise→route→parse boundary must be transport-invariant.
//!
//! Each suite here runs once per [`Transport`] — the in-process
//! transport and real loopback TCP — and asserts that the two produce
//! *identical* observable behaviour: the same rendered span trees, the
//! same `StatsSnapshot` deltas, the same fault-injection ledgers, and
//! byte-identical wire images. The interceptor chain, fault injector,
//! tracer, WS-Addressing correlation and billing all sit above the
//! transport seam, so any divergence is a seam leak.

use dais::prelude::*;
use dais::soap::bus::{BusError, StatsSnapshot};
use dais::soap::interceptor::{CallInfo, InjectorSnapshot, Intercept, Interceptor};
use dais::soap::retry::{RetryConfig, SleepFn};
use dais::soap::tcp::{TcpServer, TcpTransport};
use dais::soap::{Envelope, InProcessTransport, SoapDispatcher};
use dais::xml::XmlElement;
use dais_util::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

mod actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
        BLOCK = "urn:block", Read;
    }
}

const SQL_ADDR: &str = "bus://conf/sql";

/// The two transports under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    InProcess,
    Tcp,
}

const BOTH: [Kind; 2] = [Kind::InProcess, Kind::Tcp];

/// Install the transport under test on `bus`. The returned server (TCP
/// only) must stay alive for the duration of the run.
fn install(bus: &Bus, kind: Kind) -> Option<TcpServer> {
    match kind {
        Kind::InProcess => {
            bus.set_transport(Arc::new(InProcessTransport::new(bus)));
            None
        }
        Kind::Tcp => {
            let server = TcpServer::bind(bus, "127.0.0.1:0").expect("bind loopback server");
            let transport = TcpTransport::default();
            transport.set_default_route(server.local_addr());
            bus.set_transport(Arc::new(transport));
            Some(server)
        }
    }
}

/// Retry hard with zero real sleeping (pacing is tested elsewhere).
fn sweep_retry(seed: u64) -> RetryConfig {
    let no_sleep: SleepFn = Arc::new(|_| {});
    let policy = RetryPolicy::new(30)
        .base_delay(Duration::from_micros(1))
        .max_delay(Duration::from_millis(1))
        .deadline(Duration::from_secs(5))
        .jitter_seed(seed);
    RetryConfig::new(policy).with_sleep(no_sleep)
}

/// One relational service with fixed seed data; the client retries.
fn sql_stack(retry_seed: u64) -> (Bus, SqlClient, AbstractName) {
    let bus = Bus::new();
    let db = Database::new("conf");
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR)", &[]).unwrap();
    for (k, v) in [(1, "alpha"), (2, "beta"), (3, "gamma")] {
        db.execute("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Str(v.into())]).unwrap();
    }
    let svc = RelationalService::launch(&bus, SQL_ADDR, db, Default::default());
    let sql = SqlClient::builder()
        .bus(bus.clone())
        .address(SQL_ADDR)
        .retry_config(sweep_retry(retry_seed))
        .build();
    (bus, sql, svc.db_resource)
}

// ---------------------------------------------------------------------------
// Suite 1: chaos recovery
// ---------------------------------------------------------------------------

/// Everything observable about a finished chaos run.
#[derive(Debug, PartialEq, Eq)]
struct RunSignature {
    total: StatsSnapshot,
    sql: StatsSnapshot,
    injected: InjectorSnapshot,
}

fn chaos_run(kind: Kind, seed: u64) -> RunSignature {
    let (bus, sql, db) = sql_stack(seed);
    let _server = install(&bus, kind);
    bus.reset_stats();

    let injector = FaultInjector::new(seed);
    injector.set_default_policy(
        FaultPolicy::default().drop(0.15).busy(0.10).unavailable(0.05).corrupt(0.15),
    );
    bus.add_interceptor(Arc::new(injector.clone()));

    for _ in 0..6 {
        let data = sql.execute(&db, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));
        let props = sql.core().get_property_document(&db).unwrap();
        assert!(props.readable);
    }

    RunSignature {
        total: bus.stats(),
        sql: bus.endpoint_stats(SQL_ADDR),
        injected: injector.snapshot(),
    }
}

#[test]
fn chaos_recovery_is_transport_invariant() {
    for seed in [0x01u64, 0xBEEF, 0xDA15] {
        let in_process = chaos_run(Kind::InProcess, seed);
        let tcp = chaos_run(Kind::Tcp, seed);
        assert_eq!(
            in_process, tcp,
            "seed {seed:#x}: the two transports disagree about a chaos run"
        );
        assert_eq!(in_process.total.injected, in_process.injected.total());
    }
    // The chaos was real: at least one seed injected a corruption, which
    // is the only fault class that actually crosses the TCP wire (drops
    // and synthetic replies act above the seam).
    let corruptions: u64 = [0x01u64, 0xBEEF, 0xDA15]
        .iter()
        .map(|s| chaos_run(Kind::Tcp, *s).injected.corruptions)
        .sum();
    assert!(corruptions > 0, "no corrupted envelope ever crossed the wire");
}

// ---------------------------------------------------------------------------
// Suite 2: trace propagation
// ---------------------------------------------------------------------------

/// Applies a scripted sequence of request-phase faults, then passes.
struct ScriptedFaults(Mutex<VecDeque<&'static str>>);

impl ScriptedFaults {
    fn new(steps: &[&'static str]) -> Self {
        Self(Mutex::new(steps.iter().copied().collect()))
    }
}

impl Interceptor for ScriptedFaults {
    fn on_request(&self, _call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        match self.0.lock().pop_front() {
            Some("drop") => Intercept::Abort(BusError::Timeout("scripted drop".into())),
            Some("tamper") => Intercept::Tamper(bytes[..bytes.len() / 2].to_vec()),
            _ => Intercept::Pass,
        }
    }
}

fn traced_run(kind: Kind) -> (String, StatsSnapshot) {
    let (bus, sql, db) = sql_stack(9);
    let _server = install(&bus, kind);
    bus.reset_stats();
    bus.enable_tracing(0x0B5);
    // Attempt 1 is dropped before the wire; attempt 2 is truncated in
    // flight (on TCP the mangled bytes really cross the socket and are
    // rejected by the far side's parser); attempt 3 goes through clean.
    bus.add_interceptor(Arc::new(ScriptedFaults::new(&["drop", "tamper"])));

    let data = sql.execute(&db, "SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));

    let sink = bus.obs().tracer.take();
    // Structural invariants, independent of the render comparison: the
    // clean attempt's dispatch joined the trace through bytes that
    // survived the transport.
    let retries = sink.spans_named("client.retry");
    let dispatches = sink.spans_named("bus.dispatch");
    assert_eq!(sink.spans_named("bus.call").len(), 3);
    assert_eq!(retries.len(), 2);
    assert_eq!(dispatches.len(), 1, "dropped/tampered requests must not reach the service");
    assert_eq!(dispatches[0].parent_id, Some(retries[1].span_id));

    (sink.render_text(), bus.stats())
}

#[test]
fn trace_render_is_transport_invariant() {
    let (in_process_render, in_process_stats) = traced_run(Kind::InProcess);
    let (tcp_render, tcp_stats) = traced_run(Kind::Tcp);
    assert!(!in_process_render.is_empty());
    assert_eq!(
        in_process_render, tcp_render,
        "the rendered span tree leaks which transport carried the bytes"
    );
    assert_eq!(in_process_stats, tcp_stats);
}

// ---------------------------------------------------------------------------
// Suite 3: Overloaded ⇔ at-capacity (admission control above the seam)
// ---------------------------------------------------------------------------

/// A service whose handler blocks until the test opens the gate, and
/// reports how many handlers have started.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    started: Mutex<u64>,
    started_cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            started: Mutex::new(0),
            started_cv: Condvar::new(),
        })
    }

    fn enter(&self) {
        *self.started.lock() += 1;
        self.started_cv.notify_all();
        let mut open = self.open.lock();
        while !*open {
            open = self.opened.wait(open);
        }
    }

    fn wait_started(&self, n: u64) {
        let mut started = self.started.lock();
        while *started < n {
            started = self.started_cv.wait(started);
        }
    }

    fn release(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }
}

/// Strip the non-deterministic queue-wait measurement so renders from
/// different runs can be compared structurally.
fn normalise_render(render: &str) -> String {
    let mut out = String::with_capacity(render.len());
    for line in render.lines() {
        match line.find("queue_wait_ns=") {
            Some(at) => {
                let (head, tail) = line.split_at(at + "queue_wait_ns=".len());
                out.push_str(head);
                out.push('_');
                out.push_str(tail.trim_start_matches(|c: char| c.is_ascii_digit()));
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn overload_run(kind: Kind) -> (String, StatsSnapshot, StatsSnapshot) {
    let bus = Bus::new();
    let gate = Gate::new();
    let handler_gate = Arc::clone(&gate);
    let mut d = SoapDispatcher::new();
    d.register(actions::BLOCK, move |req: &Envelope| {
        handler_gate.enter();
        Ok(req.clone())
    });
    bus.register("bus://gate", Arc::new(d));
    let _server = install(&bus, kind);
    bus.enable_tracing(0xCAFE);

    let hint = Duration::from_millis(7);
    bus.install_executor(
        ExecutorConfig::new(1).queue_capacity(1).max_in_flight(1).retry_after(hint).seed(0xCAFE),
    );

    let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
    // First request occupies the single worker...
    let executing = bus.call_async("bus://gate", "urn:block", &env).unwrap();
    gate.wait_started(1);
    // ...second fills the queue...
    let queued = bus.call_async("bus://gate", "urn:block", &env).unwrap();
    // ...third and fourth are refused at admission, with the hint.
    for _ in 0..2 {
        match bus.call("bus://gate", "urn:block", &env) {
            Err(BusError::Overloaded { endpoint, retry_after }) => {
                assert_eq!(endpoint, "bus://gate");
                assert_eq!(retry_after, hint);
            }
            other => panic!("expected Overloaded at capacity, got {other:?}"),
        }
    }
    gate.release();
    assert!(executing.wait().is_ok());
    assert!(queued.wait().is_ok());
    bus.shutdown_executor();

    let render = normalise_render(&bus.obs().tracer.take().render_text());
    (render, bus.stats(), bus.endpoint_stats("bus://gate"))
}

#[test]
fn overload_refusal_is_transport_invariant() {
    let (in_process_render, in_process_total, in_process_ep) = overload_run(Kind::InProcess);
    let (tcp_render, tcp_total, tcp_ep) = overload_run(Kind::Tcp);
    assert_eq!(in_process_render, tcp_render);
    assert_eq!(in_process_total, tcp_total);
    assert_eq!(in_process_ep, tcp_ep);
    // And the suite really exercised admission control: two sheds, two
    // served messages.
    assert_eq!(in_process_ep.shed, 2);
    assert_eq!(in_process_ep.messages, 2);
}

// ---------------------------------------------------------------------------
// Suite 4: byte-identical wire goldens
// ---------------------------------------------------------------------------

/// Records every wire image crossing the chain, both directions.
#[derive(Default)]
struct CaptureWire {
    requests: Mutex<Vec<Vec<u8>>>,
    responses: Mutex<Vec<Vec<u8>>>,
}

impl Interceptor for CaptureWire {
    fn on_request(&self, _call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        self.requests.lock().push(bytes.to_vec());
        Intercept::Pass
    }

    fn on_response(&self, _call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        self.responses.lock().push(bytes.to_vec());
        Intercept::Pass
    }
}

fn wire_golden_run(kind: Kind) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let (bus, sql, db) = sql_stack(0);
    let _server = install(&bus, kind);
    let wires = Arc::new(CaptureWire::default());
    bus.add_interceptor(wires.clone());

    // A success, a rowset read and a service fault — all with tracing
    // off, so the wire carries no correlation headers and must be
    // byte-stable.
    sql.execute(&db, "SELECT v FROM t WHERE k = 2", &[]).unwrap();
    sql.core().get_property_document(&db).unwrap();
    let ghost = AbstractName::new("urn:dais:ghost:db:0").unwrap();
    sql.core().get_property_document(&ghost).unwrap_err();

    let requests = wires.requests.lock().clone();
    let responses = wires.responses.lock().clone();
    (requests, responses)
}

#[test]
fn wire_bytes_are_byte_identical_across_transports() {
    let (in_process_req, in_process_resp) = wire_golden_run(Kind::InProcess);
    let (tcp_req, tcp_resp) = wire_golden_run(Kind::Tcp);
    assert_eq!(in_process_req.len(), 3);
    assert_eq!(in_process_req, tcp_req, "request wire images differ between transports");
    assert_eq!(in_process_resp, tcp_resp, "response wire images differ between transports");
    assert!(in_process_resp
        .iter()
        .any(|r| { std::str::from_utf8(r).map(|s| s.contains("Fault")).unwrap_or(false) }));
}

// ---------------------------------------------------------------------------
// Suite 5: response-abort billing parity (the PR 5 regression, on TCP)
// ---------------------------------------------------------------------------

/// Rejects every response on its way back to the caller.
struct AbortReplies;

impl Interceptor for AbortReplies {
    fn on_response(&self, _call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
        Intercept::Abort(BusError::Timeout("scripted response abort".into()))
    }
}

fn response_abort_run(kind: Option<Kind>, queued: bool) -> StatsSnapshot {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
    bus.register("bus://bill", Arc::new(d));
    let _server = kind.and_then(|kind| install(&bus, kind));
    bus.add_interceptor(Arc::new(AbortReplies));
    if queued {
        bus.install_executor(ExecutorConfig::new(2).seed(5));
    }
    for n in 0..3 {
        let envelope = Envelope::with_body(XmlElement::new_local("m").with_text(n.to_string()));
        let err = bus.call("bus://bill", "urn:echo", &envelope).unwrap_err();
        assert!(matches!(err, BusError::Timeout(_)), "the abort surfaces: {err:?}");
    }
    let stats = bus.endpoint_stats("bus://bill");
    if queued {
        bus.shutdown_executor();
    }
    stats
}

#[test]
fn response_abort_billing_parity_holds_on_every_transport() {
    // The PR 5 parity held between inline and queued execution; it must
    // also hold between transports, on both execution paths: a consumed
    // response leg is billed no matter what carried it.
    let traffic = |s: &StatsSnapshot| {
        (s.messages, s.request_bytes, s.response_bytes, s.faults, s.injected, s.retries, s.shed)
    };
    let baseline = response_abort_run(None, false);
    assert_eq!(baseline.messages, 3);
    for queued in [false, true] {
        for kind in BOTH {
            let run = response_abort_run(Some(kind), queued);
            assert_eq!(
                traffic(&run),
                traffic(&baseline),
                "billing diverges on {kind:?} (queued={queued})"
            );
        }
    }
}
