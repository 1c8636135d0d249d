//! The flight recorder end to end: tail-retained traces join their
//! journal slices by trace id, retention is deterministic per seed on
//! every transport, and the SLO / per-connection monitoring view
//! travels the wire.

use dais::obs::names::event_names;
use dais::obs::TailPolicy;
use dais::soap::bus::BusError;
use dais::soap::client::ServiceClient;
use dais::soap::fault::Fault;
use dais::soap::interceptor::{CallInfo, Intercept, Interceptor};
use dais::soap::retry::{RetryConfig, RetryPolicy, SleepFn, CAUSE_FAULT};
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
// Trace ↔ journal join
// ---------------------------------------------------------------------------

#[test]
fn retained_trace_joins_its_journal_slice() {
    let bus = flight_bus();
    let client = ServiceClient::new(bus.clone(), ADDR);
    bus.obs().journal.enable();
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
    let journal = bus.obs().journal.take();

    // Only the slow and the failed request survive tail retention.
    let kept = traces.trace_ids();
    assert_eq!(kept.len(), 2, "the fast clean request must be dropped, kept {kept:?}");

    // Every retained trace joins a journal slice by trace id, and the
    // slice tells the request's lifecycle story: admission and service
    // dispatch at minimum.
    for tid in &kept {
        let slice = journal.for_trace(*tid);
        let names: BTreeSet<&str> = slice.iter().map(|e| e.name).collect();
        assert!(
            names.contains(event_names::REQ_ADMIT.as_str()),
            "trace {tid:#x} has no admission event: {names:?}"
        );
        assert!(
            names.contains(event_names::REQ_DISPATCH.as_str()),
            "trace {tid:#x} has no dispatch event: {names:?}"
        );
    }

    // The failed request's slice carries the fault record with its
    // numeric cause.
    let failed = traces
        .spans_named("bus.call")
        .into_iter()
        .find(|s| attr(s, "outcome") == "fault")
        .expect("the failed bus.call span is retained");
    let faults: Vec<_> = journal
        .for_trace(failed.trace_id)
        .into_iter()
        .filter(|e| e.name == event_names::REQ_FAULT.as_str())
        .cloned()
        .collect();
    assert_eq!(faults.len(), 1, "exactly one fault event for the failed request");
    assert_eq!(faults[0].arg, CAUSE_FAULT);

    // And the dropped trace's journal events are still there (the
    // journal is always-on history, not tail-sampled): three admissions
    // for three requests.
    assert_eq!(journal.events_named(event_names::REQ_ADMIT.as_str()).len(), 3);
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
/// with tail-sampled tracing and the journal on. Returns everything the
/// flight recorder kept.
fn chaos_flight_run(kind: Kind, seed: u64) -> (BTreeSet<u64>, String, String) {
    let bus = flight_bus();
    let client = ServiceClient::new(bus.clone(), ADDR).with_retry(fast_retry(seed));
    let _server = install(&bus, kind);
    bus.obs().journal.enable();
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
    let journal = bus.obs().journal.take();
    (traces.trace_ids(), traces.render_text(), journal.render_text())
}

#[test]
fn tail_retention_is_deterministic_per_seed_on_every_transport() {
    for kind in [Kind::InProcess, Kind::Tcp] {
        let (ids_a, traces_a, journal_a) = chaos_flight_run(kind, 0xDA15);
        let (ids_b, traces_b, journal_b) = chaos_flight_run(kind, 0xDA15);
        assert_eq!(ids_a, ids_b, "{kind:?}: retained trace ids differ between identical runs");
        assert_eq!(traces_a, traces_b, "{kind:?}: rendered traces differ between identical runs");
        assert_eq!(journal_a, journal_b, "{kind:?}: rendered journal differs between runs");

        // Retention is real: the two chaos-struck requests are always
        // kept, the clean ones only when the seeded sampler says so.
        assert!(ids_a.len() >= 2, "{kind:?}: the faulted traces must be retained");
        assert!(ids_a.len() < 10, "{kind:?}: tail retention kept everything");
        assert!(!journal_a.is_empty());

        // A different seed retains a different set (sampler salt and
        // trace ids both derive from it).
        let (ids_c, _, _) = chaos_flight_run(kind, 0x5EED);
        assert_ne!(ids_a, ids_c, "{kind:?}: two seeds agreed on every retained id");
    }
}

// ---------------------------------------------------------------------------
// SLO + per-connection monitoring over the wire
// ---------------------------------------------------------------------------

#[test]
fn service_levels_and_connection_histograms_travel_the_wire() {
    use dais::core::monitoring::MON_NS;
    use dais::prelude::*;

    let bus = Bus::new();
    let db = Database::new("flight");
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)", &[]).unwrap();
    db.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
    let svc = RelationalService::launch(&bus, "bus://flight/sql", db, Default::default());
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

    // The SLO engine published one mon:ServiceLevel per metrics key,
    // each with the three rolling windows.
    let levels: Vec<_> = mon.children_named(MON_NS, "ServiceLevel").collect();
    let endpoint_level = levels
        .iter()
        .find(|l| l.attribute("key") == Some("endpoint:bus://flight/sql"))
        .expect("a service level for the SQL endpoint");
    assert_eq!(endpoint_level.attribute("burnAlert"), Some("false"));
    let windows: Vec<_> = endpoint_level.children_named(MON_NS, "Window").collect();
    assert_eq!(windows.len(), 3, "1 s / 10 s / 60 s windows");
    let w60 = windows.last().unwrap();
    assert_eq!(w60.attribute("seconds"), Some("60"));
    let completed: u64 = w60.attribute("completed").unwrap().parse().unwrap();
    assert!(completed >= 3, "the 60 s window covers the SELECT traffic, saw {completed}");
    assert_eq!(w60.attribute("faults"), Some("0"));
    assert!(
        levels.iter().any(|l| l.attribute("key").is_some_and(|k| k.starts_with("conn:tcp#"))),
        "per-connection keys get service levels too"
    );
}
