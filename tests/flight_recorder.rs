//! The flight recorder end to end: tail retention keeps exactly the
//! slow and failed traces, retention is deterministic per seed on every
//! transport, the per-connection monitoring view travels the wire, and a
//! launched service does not outlive its bus.

use dais::obs::TailPolicy;
use dais::soap::bus::BusError;
use dais::soap::client::ServiceClient;
use dais::soap::fault::Fault;
use dais::soap::interceptor::{CallInfo, Intercept, Interceptor};
use dais::soap::retry::{RetryConfig, RetryPolicy, SleepFn};
use dais::soap::tcp::{TcpServer, TcpTransport};
use dais::soap::{Bus, Envelope, InProcessTransport, SoapDispatcher};
use dais::xml::XmlElement;
use dais_util::sync::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

mod actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
        SLOW = "urn:slow", Write;
        FAIL = "urn:fail", Write;
    }
}

const ADDR: &str = "bus://flight";

fn flight_bus() -> Bus {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
    d.register(actions::SLOW, |req: &Envelope| {
        dais_util::sync::pause(Duration::from_millis(10));
        Ok(req.clone())
    });
    d.register(actions::FAIL, |_req: &Envelope| Err(Fault::client("scripted failure")));
    bus.register(ADDR, Arc::new(d));
    bus
}

fn payload() -> XmlElement {
    XmlElement::new_local("m").with_text("x")
}

fn attr<'a>(span: &'a dais::obs::Span, key: &str) -> &'a str {
    span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str()).unwrap_or("")
}

// ---------------------------------------------------------------------------
// Tail retention
// ---------------------------------------------------------------------------

#[test]
fn tail_retention_keeps_slow_and_failed_traces() {
    let bus = flight_bus();
    let client = ServiceClient::new(bus.clone(), ADDR);
    bus.obs().tracer.enable_tailed(
        0xF11,
        TailPolicy {
            latency_threshold_ns: 2_000_000, // 2 ms; the slow handler sleeps 10 ms
            keep_outcomes: true,
            sample_per_million: 0,
        },
    );

    client.request(actions::ECHO, payload()).unwrap();
    client.request(actions::SLOW, payload()).unwrap();
    client.request(actions::FAIL, payload()).unwrap_err();

    let traces = bus.obs().tracer.take();

    // Only the slow and the failed request survive tail retention.
    let kept = traces.trace_ids();
    assert_eq!(kept.len(), 2, "the fast clean request must be dropped, kept {kept:?}");

    // Every retained trace tells the request's lifecycle story whole:
    // the bus leg that admitted it and the dispatch that served it.
    for tid in &kept {
        let names: BTreeSet<&str> =
            traces.spans.iter().filter(|s| s.trace_id == *tid).map(|s| s.name).collect();
        assert!(names.contains("bus.call"), "trace {tid:#x} has no bus leg: {names:?}");
        assert!(names.contains("bus.dispatch"), "trace {tid:#x} has no dispatch: {names:?}");
    }

    // The failed request's bus leg carries its outcome.
    let failed: Vec<_> =
        traces.spans_named("bus.call").into_iter().filter(|s| attr(s, "outcome") != "ok").collect();
    assert_eq!(failed.len(), 1, "exactly one failed bus leg");
    assert_eq!(attr(failed[0], "outcome"), "fault");
}

// ---------------------------------------------------------------------------
// Determinism per seed, on both transports
// ---------------------------------------------------------------------------

/// The two transports under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    InProcess,
    Tcp,
}

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

fn fast_retry(seed: u64) -> RetryConfig {
    let no_sleep: SleepFn = Arc::new(|_| {});
    let policy = RetryPolicy::new(10)
        .base_delay(Duration::from_micros(1))
        .max_delay(Duration::from_millis(1))
        .deadline(Duration::from_secs(5))
        .jitter_seed(seed);
    RetryConfig::new(policy).with_sleep(no_sleep)
}

/// Applies a scripted sequence of request-phase faults — the "chaos
/// schedule" — then passes everything else.
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

/// One chaos run: ten echo requests through a scripted fault schedule,
/// with tail-sampled tracing on. Returns the retained trace ids and
/// their render.
fn chaos_flight_run(kind: Kind, seed: u64) -> (BTreeSet<u64>, String) {
    let bus = flight_bus();
    let client = ServiceClient::new(bus.clone(), ADDR).with_retry(fast_retry(seed));
    let _server = install(&bus, kind);
    bus.obs().tracer.enable_tailed(
        seed,
        TailPolicy {
            latency_threshold_ns: u64::MAX,
            keep_outcomes: true,
            sample_per_million: 250_000,
        },
    );
    // Request 2's first attempt is dropped before the wire; request 4's
    // is truncated in flight (on TCP the mangled bytes really cross the
    // socket). Retries absorb both.
    bus.add_interceptor(Arc::new(ScriptedFaults::new(&[
        "pass", "drop", "pass", "pass", "tamper", "pass",
    ])));

    for _ in 0..10 {
        client.request(actions::ECHO, payload()).unwrap();
    }

    let traces = bus.obs().tracer.take();
    (traces.trace_ids(), traces.render_text())
}

#[test]
fn tail_retention_is_deterministic_per_seed_on_every_transport() {
    for kind in [Kind::InProcess, Kind::Tcp] {
        let (ids_a, traces_a) = chaos_flight_run(kind, 0xDA15);
        let (ids_b, traces_b) = chaos_flight_run(kind, 0xDA15);
        assert_eq!(ids_a, ids_b, "{kind:?}: retained trace ids differ between identical runs");
        assert_eq!(traces_a, traces_b, "{kind:?}: rendered traces differ between identical runs");

        // Retention is real: the two chaos-struck requests are always
        // kept, the clean ones only when the seeded sampler says so.
        assert!(ids_a.len() >= 2, "{kind:?}: the faulted traces must be retained");
        assert!(ids_a.len() < 10, "{kind:?}: tail retention kept everything");

        // Each failed attempt's bus leg names the transport error behind
        // it, and the retry that followed names its attempt number.
        for (error, attempt) in [("timeout", 2), ("malformed-envelope", 2)] {
            assert!(
                traces_a.contains(&format!("outcome=transport-error error={error}")),
                "{kind:?}: no {error} leg in\n{traces_a}"
            );
            assert!(traces_a.contains(&format!("client.retry attempt={attempt} ")));
        }

        // A different seed retains a different set (sampler salt and
        // trace ids both derive from it).
        let (ids_c, _) = chaos_flight_run(kind, 0x5EED);
        assert_ne!(ids_a, ids_c, "{kind:?}: two seeds agreed on every retained id");
    }
}

// ---------------------------------------------------------------------------
// Monitoring over the wire, and a service's lifetime
// ---------------------------------------------------------------------------

/// A launched relational service over a one-row table.
fn sql_service(bus: &Bus) -> dais::prelude::RelationalService {
    use dais::prelude::*;
    let db = Database::new("flight");
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)", &[]).unwrap();
    db.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
    RelationalService::launch(bus, "bus://flight/sql", db, Default::default())
}

#[test]
fn connection_histograms_travel_the_wire() {
    use dais::core::monitoring::MON_NS;
    use dais::prelude::*;

    let bus = Bus::new();
    let svc = sql_service(&bus);
    let sql = SqlClient::builder().bus(bus.clone()).address("bus://flight/sql").build();

    let server = TcpServer::bind(&bus, "127.0.0.1:0").unwrap();
    let transport = TcpTransport::default();
    transport.set_default_route(server.local_addr());
    bus.set_transport(Arc::new(transport));

    for _ in 0..3 {
        let data = sql.execute(&svc.db_resource, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(1));
    }

    let doc = sql.core().get_property_document_xml(&svc.monitoring).unwrap();
    let mon = doc.child(MON_NS, "BusMonitoring").expect("mon:BusMonitoring extension");

    // The server billed wire-level service time per connection, and the
    // conn:-prefixed histogram crossed the wire inside the document.
    let conn_count: u64 = mon
        .children_named(MON_NS, "LatencyHistogram")
        .filter(|h| h.attribute("key").is_some_and(|k| k.starts_with("conn:tcp#")))
        .map(|h| h.attribute("count").unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(conn_count >= 3, "three SELECTs were served over TCP, saw {conn_count}");

    // The endpoint's rates are one division away: its fault and shed
    // counters over its histogram's count.
    let endpoint = mon
        .children_named(MON_NS, "LatencyHistogram")
        .find(|h| h.attribute("key") == Some("endpoint:bus://flight/sql"))
        .expect("a histogram for the SQL endpoint");
    let completed: u64 = endpoint.attribute("count").unwrap().parse().unwrap();
    assert!(completed >= 3, "the endpoint histogram covers the SELECT traffic, saw {completed}");
    assert_eq!(mon.child(MON_NS, "Traffic").unwrap().attribute("faults"), Some("0"));
    assert_eq!(mon.child(MON_NS, "Queue").unwrap().attribute("shed"), Some("0"));
}

#[test]
fn a_service_does_not_outlive_its_bus() {
    let bus = Bus::new();
    let svc = sql_service(&bus);
    let ctx = Arc::downgrade(&svc.ctx);
    drop(svc);
    assert!(ctx.upgrade().is_some(), "the bus keeps its registered service alive");
    drop(bus);
    assert!(ctx.upgrade().is_none(), "the service's state outlived its last bus handle");
}
