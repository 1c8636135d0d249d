//! Chaos recovery: the whole stack (relational, XML and file
//! realisations on one bus) driven through a fault-injecting transport.
//!
//! Proves the three contracts of the chaos layer:
//! * retrying clients absorb every retryable fault (drops, synthetic
//!   busy/unavailable answers, corrupted envelopes) within their
//!   attempt budget — the seeded sweep completes with correct results;
//! * non-idempotent operations are never re-sent, no matter the policy;
//! * the whole run is deterministic — the same seed yields *identical*
//!   bus statistics, and an idle chaos layer yields statistics
//!   byte-identical to a bus that never heard of interceptors.

use dais::obs::Span;
use dais::prelude::*;
use dais::soap::bus::{BusError, StatsSnapshot};
use dais::soap::fault::DaisFault;
use dais::soap::interceptor::{CallInfo, InjectorSnapshot, Intercept, Interceptor};
use dais::soap::retry::{RetryConfig, RetryPolicy, SleepFn};
use dais::xml::parse;
use dais_util::sync::Mutex;
use std::sync::Arc;
use std::time::Duration;

const SQL_ADDR: &str = "bus://chaos/sql";
const XML_ADDR: &str = "bus://chaos/xml";
const FILE_ADDR: &str = "bus://chaos/files";

struct Stack {
    bus: Bus,
    sql: SqlClient,
    db: AbstractName,
    /// The relational service's live monitoring resource.
    monitoring: AbstractName,
    xml: XmlClient,
    collection: AbstractName,
    files: FileClient,
    root: AbstractName,
}

/// Retry hard enough that a sweep policy cannot exhaust the budget, and
/// never actually sleep — pacing is property-tested separately.
fn sweep_retry(seed: u64) -> RetryConfig {
    let no_sleep: SleepFn = Arc::new(|_| {});
    let policy = RetryPolicy::new(30)
        .base_delay(Duration::from_micros(1))
        .max_delay(Duration::from_millis(1))
        .deadline(Duration::from_secs(1))
        .jitter_seed(seed);
    RetryConfig::new(policy).with_sleep(no_sleep)
}

/// E11's consumer: twelve attempts on the default sleeper, which really
/// pauses 10 µs to 1 ms between them.
fn paced_retry(seed: u64) -> RetryConfig {
    let policy = RetryPolicy::new(12)
        .base_delay(Duration::from_micros(10))
        .max_delay(Duration::from_millis(1))
        .deadline(Duration::from_secs(5))
        .jitter_seed(seed);
    RetryConfig::new(policy)
}

/// Launch all three realisations with fixed seed data. No chaos yet —
/// callers install the injector after setup so the workload under test
/// is exactly the read sweep.
fn build_stack(retry: Option<RetryConfig>) -> Stack {
    let bus = Bus::new();

    let db = Database::new("chaos");
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR)", &[]).unwrap();
    for (k, v) in [(1, "alpha"), (2, "beta"), (3, "gamma")] {
        db.execute("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Str(v.into())]).unwrap();
    }
    let sql_svc = RelationalService::launch(&bus, SQL_ADDR, db, Default::default());

    let xml_svc = XmlService::launch(&bus, XML_ADDR, XmlDatabase::new("chaos"), Default::default());
    let setup_xml = XmlClient::builder().bus(bus.clone()).address(XML_ADDR).build();
    setup_xml
        .add_documents(
            &xml_svc.root_collection,
            &[
                ("b1".into(), parse("<book><price>50</price></book>").unwrap()),
                ("b2".into(), parse("<book><price>40</price></book>").unwrap()),
            ],
        )
        .unwrap();

    let store = FileStore::new();
    store.write("data/a.csv", b"1,2,3".to_vec()).unwrap();
    store.write("readme.txt", b"hello".to_vec()).unwrap();
    let file_svc = FileService::launch(&bus, FILE_ADDR, store, Default::default());

    let mut sql = SqlClient::builder().bus(bus.clone()).address(SQL_ADDR);
    let mut xml = XmlClient::builder().bus(bus.clone()).address(XML_ADDR);
    let mut files = FileClient::builder().bus(bus.clone()).address(FILE_ADDR);
    if let Some(config) = retry {
        sql = sql.retry_config(config.clone());
        xml = xml.retry_config(config.clone());
        files = files.retry_config(config);
    }
    let (sql, xml, files) = (sql.build(), xml.build(), files.build());

    Stack {
        bus,
        sql,
        db: sql_svc.db_resource,
        monitoring: sql_svc.monitoring,
        xml,
        collection: xml_svc.root_collection,
        files,
        root: file_svc.root,
    }
}

/// The read sweep: every operation is idempotent and its result is
/// asserted, so an unabsorbed fault fails the test immediately.
fn run_read_sweep(stack: &Stack) {
    for _ in 0..3 {
        let data = stack.sql.execute(&stack.db, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));
        let props = stack.sql.core().get_property_document(&stack.db).unwrap();
        assert!(props.readable);

        let docs = stack.xml.get_documents(&stack.collection, &[]).unwrap();
        assert_eq!(docs.len(), 2);
        let hits = stack.xml.xpath(&stack.collection, "/book[price > 45]/price").unwrap();
        assert_eq!(hits.len(), 1);

        assert_eq!(stack.files.read_file(&stack.root, "readme.txt").unwrap(), b"hello");
        let listing = stack.files.list_files(&stack.root, "data/*").unwrap();
        assert_eq!(listing, vec![("data/a.csv".to_string(), 5)]);
    }
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq, Eq)]
struct RunSignature {
    total: StatsSnapshot,
    sql: StatsSnapshot,
    xml: StatsSnapshot,
    files: StatsSnapshot,
    injected: InjectorSnapshot,
}

fn chaos_run(seed: u64, retry: RetryConfig) -> RunSignature {
    let stack = build_stack(Some(retry));
    let injector = FaultInjector::new(seed);
    injector.set_default_policy(
        FaultPolicy::default().drop(0.15).busy(0.10).unavailable(0.05).corrupt(0.15),
    );
    stack.bus.add_interceptor(Arc::new(injector.clone()));

    run_read_sweep(&stack);

    // The injector's per-endpoint ledger arrives folded into the bus
    // snapshot — no separate accessor needed.
    let total = stack.bus.stats();
    RunSignature {
        total,
        sql: stack.bus.endpoint_stats(SQL_ADDR),
        xml: stack.bus.endpoint_stats(XML_ADDR),
        files: stack.bus.endpoint_stats(FILE_ADDR),
        injected: total.fault_injection,
    }
}

#[test]
fn seeded_sweep_absorbs_retryable_faults() {
    let mut faults_seen = 0u64;
    let sweeps = [0x01, 0xBEEF, 0xDA15, 0xF00D, 0x7777].map(|seed| (seed, sweep_retry(seed)));
    for (seed, retry) in sweeps.into_iter().chain([(0xC4A05, paced_retry(0xC4A05))]) {
        let run = chaos_run(seed, retry);
        // The sweep asserted every result; here we check the chaos was real.
        faults_seen += run.injected.total();
        assert_eq!(
            run.total.injected,
            run.injected.total(),
            "bus and injector ledgers disagree for seed {seed:#x}"
        );
        assert_eq!(
            run.total.retries,
            run.injected.drops
                + run.injected.busy
                + run.injected.unavailable
                + run.injected.corruptions,
            "every injected failure costs exactly one retry for seed {seed:#x}"
        );
        assert!(run.total.retries > 0, "seed {seed:#x} never retried");
    }
    assert!(faults_seen > 20, "the sweep barely injected anything ({faults_seen} events)");
}

#[test]
fn same_seed_means_identical_statistics() {
    let first = chaos_run(0xD5EED, sweep_retry(0xD5EED));
    let second = chaos_run(0xD5EED, sweep_retry(0xD5EED));
    assert_eq!(first, second);
    // And a different seed really takes a different path.
    let other = chaos_run(0x0DD5EED, sweep_retry(0x0DD5EED));
    assert_ne!(first.injected, other.injected);
}

#[test]
fn non_idempotent_operations_are_never_retried() {
    let stack = build_stack(Some(sweep_retry(42)));
    let injector = FaultInjector::new(42);
    stack.bus.add_interceptor(Arc::new(injector.clone()));

    // Every call answered with ServiceBusy: a retryable fault...
    injector.set_default_policy(FaultPolicy::default().busy(1.0));

    // ...but writes must fail on the first answer, without a re-send.
    let err = stack.sql.execute(&stack.db, "INSERT INTO t VALUES (9, 'nine')", &[]).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
    let err = stack
        .xml
        .add_documents(&stack.collection, &[("b9".into(), parse("<book/>").unwrap())])
        .unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
    let err = stack.files.write_file(&stack.root, "new.txt", b"x").unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
    let err = stack.files.delete_file(&stack.root, "readme.txt").unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));

    assert_eq!(stack.bus.stats().retries, 0, "a non-idempotent operation was re-sent");
    assert_eq!(injector.snapshot().busy, 4);

    // The same fault on a read is retried to the attempt limit.
    let err = stack.sql.execute(&stack.db, "SELECT * FROM t", &[]).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));
    assert_eq!(stack.bus.stats().retries, 29); // max_attempts - 1

    // Chaos off again: the uncommitted insert really never happened.
    injector.clear_default_policy();
    let data = stack.sql.execute(&stack.db, "SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));
}

/// Look up one span attribute, empty when absent.
fn attr<'s>(span: &'s Span, key: &str) -> &'s str {
    span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str()).unwrap_or("")
}

/// Applies a scripted sequence of request-phase faults, then passes
/// everything — deterministic chaos for trace assertions.
struct ScriptedFaults(Mutex<std::collections::VecDeque<&'static str>>);

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

/// Records every response wire image so tests can inspect the bytes that
/// actually crossed.
#[derive(Default)]
struct CaptureResponses(Mutex<Vec<Vec<u8>>>);

impl Interceptor for CaptureResponses {
    fn on_response(&self, _call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        self.0.lock().push(bytes.to_vec());
        Intercept::Pass
    }
}

#[test]
fn trace_context_survives_retries_drop_and_tamper() {
    let stack = build_stack(Some(sweep_retry(9)));
    stack.bus.enable_tracing(0x0B5);
    // Attempt 1 is dropped, attempt 2 is corrupted in flight, attempt 3
    // goes through clean.
    stack.bus.add_interceptor(Arc::new(ScriptedFaults::new(&["drop", "tamper"])));

    let data = stack.sql.execute(&stack.db, "SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));

    let sink = stack.bus.obs().tracer.take();
    // Everything belongs to the one client-rooted trace.
    let root = sink.first("client.call").unwrap();
    assert!(root.parent_id.is_none());
    assert!(sink.spans.iter().all(|s| s.trace_id == root.trace_id));
    assert_eq!(attr(root, "outcome"), "ok");
    assert_eq!(attr(root, "attempts"), "3");

    // Three attempts, two retries, and each attempt's bus leg hangs off
    // the span whose context rode its `wsa:MessageID`.
    let bus_calls = sink.spans_named("bus.call");
    let retries = sink.spans_named("client.retry");
    assert_eq!((bus_calls.len(), retries.len()), (3, 2));
    assert_eq!(bus_calls[0].parent_id, Some(root.span_id));
    assert_eq!(bus_calls[1].parent_id, Some(retries[0].span_id));
    assert_eq!(bus_calls[2].parent_id, Some(retries[1].span_id));
    assert_eq!([attr(retries[0], "cause"), attr(retries[1], "cause")], ["timeout", "transport"]);

    // Only the clean attempt reaches the dispatcher, and its wire-decoded
    // parent is the second retry: the context survived the re-send.
    let dispatches = sink.spans_named("bus.dispatch");
    assert_eq!(dispatches.len(), 1, "dropped/tampered requests must not reach the service");
    assert_eq!(dispatches[0].parent_id, Some(retries[1].span_id));

    // The fault legs are visible on the request spans.
    let requests = sink.spans_named("bus.request");
    assert_eq!(requests.len(), 3);
    assert_eq!(attr(requests[0], "aborted"), "true");
    assert_eq!(attr(requests[1], "tampered"), "true");
    assert_eq!(sink.spans_named("bus.response").len(), 1);

    // The span ledger and the billing counters agree.
    let stats = stack.bus.stats();
    assert_eq!(stats.retries, retries.len() as u64);
    assert_eq!(stats.injected, 2);
}

#[test]
fn pipelined_requests_trace_enqueue_and_execute_under_chaos() {
    // The E5-style batch on the executor path: with tracing on, every
    // pipelined request's span tree must contain bus.enqueue →
    // bus.execute (with the queue wait measured) even while the fault
    // injector is dropping and delaying traffic.
    let stack = build_stack(None);
    stack.bus.enable_tracing(0xE5);
    let injector = FaultInjector::new(0xE5);
    injector.set_default_policy(
        FaultPolicy::default().drop(0.25).delay(0.25, Duration::from_micros(300)),
    );
    stack.bus.add_interceptor(Arc::new(injector.clone()));
    stack.bus.install_executor(ExecutorConfig::new(4).seed(0xE5));

    let paths = vec!["readme.txt"; 24];
    let results = stack.files.read_files(&stack.root, &paths, 6);
    stack.bus.shutdown_executor();

    // Every slot resolves: to the file's bytes or to the injected drop.
    assert_eq!(results.len(), 24);
    let failed = results.iter().filter(|r| r.is_err()).count() as u64;
    for contents in results.iter().filter_map(|r| r.as_deref().ok()) {
        assert_eq!(contents, b"hello");
    }
    let injected = injector.snapshot();
    assert_eq!(failed, injected.drops, "exactly the dropped requests fail their slot");
    assert!(injected.drops > 0 && injected.delays > 0, "the chaos was real: {injected:?}");

    let sink = stack.bus.obs().tracer.take();
    let roots = sink.spans_named("client.call");
    let enqueues = sink.spans_named("bus.enqueue");
    let executes = sink.spans_named("bus.execute");
    assert_eq!(roots.len(), 24);
    assert_eq!(enqueues.len(), executes.len(), "everything admitted was executed");
    for root in &roots {
        let enqueue = enqueues
            .iter()
            .find(|e| e.parent_id == Some(root.span_id))
            .expect("every pipelined call carries its context onto the queue");
        let execute = executes
            .iter()
            .find(|x| x.parent_id == Some(enqueue.span_id))
            .expect("every enqueued request reaches a worker");
        assert_eq!(execute.trace_id, root.trace_id, "one trace per request");
        assert!(attr(execute, "queue_wait_ns").parse::<u64>().is_ok());
        assert!(!attr(execute, "to").is_empty() && !attr(execute, "action").is_empty());
    }
}

#[test]
fn fault_envelopes_carry_the_correlation_header() {
    let stack = build_stack(None);
    let wires = Arc::new(CaptureResponses::default());
    stack.bus.add_interceptor(wires.clone());
    stack.bus.enable_tracing(0x0F);

    // A service-generated fault: the resource does not exist.
    let ghost = AbstractName::new("urn:dais:ghost:db:0").unwrap();
    let err = stack.sql.core().get_property_document(&ghost).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidResourceName));

    let sink = stack.bus.obs().tracer.take();
    let root = sink.first("client.call").unwrap();
    assert_eq!(attr(root, "outcome"), "error");
    assert_eq!(attr(sink.first("bus.call").unwrap(), "outcome"), "fault");
    assert_eq!(attr(sink.first("bus.dispatch").unwrap(), "outcome"), "fault");

    // The fault envelope that crossed the wire echoes the request's
    // trace context in `wsa:RelatesTo`.
    let expected = format!("urn:dais:trace:{:016x}:{:016x}", root.trace_id, root.span_id);
    let captured = wires.0.lock();
    let fault_wire = std::str::from_utf8(captured.last().unwrap()).unwrap();
    assert!(fault_wire.contains("Fault"), "expected a fault envelope, got: {fault_wire}");
    assert!(fault_wire.contains("RelatesTo"));
    assert!(fault_wire.contains(&expected));
}

#[test]
fn synthetic_replies_do_not_forge_correlation() {
    let stack = build_stack(Some(sweep_retry(5)));
    let injector = FaultInjector::new(5);
    injector.set_default_policy(FaultPolicy::default().busy(1.0));
    stack.bus.add_interceptor(Arc::new(injector.clone()));
    stack.bus.enable_tracing(0x5EED);

    // Non-idempotent write: one attempt, answered by the interceptor
    // before the service ever sees it.
    let err = stack.sql.execute(&stack.db, "INSERT INTO t VALUES (7, 'seven')", &[]).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::ServiceBusy));

    let sink = stack.bus.obs().tracer.take();
    assert!(sink.first("bus.dispatch").is_none(), "the service was never reached");
    assert_eq!(attr(sink.first("bus.request").unwrap(), "replied-by-interceptor"), "true");
    let root = sink.first("client.call").unwrap();
    assert_eq!(attr(root, "outcome"), "error");
    assert_eq!(attr(root, "attempts"), "1");
    assert_eq!(attr(sink.first("bus.call").unwrap(), "outcome"), "fault");

    // The injector's synthetic fault is folded into the bus snapshot.
    let stats = stack.bus.stats();
    assert_eq!(stats.fault_injection.busy, 1);
    assert_eq!(stats.fault_injection.total(), stats.injected);
    assert_eq!(stack.bus.endpoint_stats(SQL_ADDR).fault_injection.busy, 1);
}

#[test]
fn monitoring_document_travels_the_wire_with_live_histograms() {
    use dais::core::monitoring::MON_NS;

    let stack = build_stack(None);
    run_read_sweep(&stack);

    let doc = stack.sql.core().get_property_document_xml(&stack.monitoring).unwrap();
    let mon = doc.child(MON_NS, "BusMonitoring").expect("mon:BusMonitoring extension");

    let traffic = mon.child(MON_NS, "Traffic").unwrap();
    let messages: u64 = traffic.attribute("messages").unwrap().parse().unwrap();
    assert!(messages >= 6, "the sweep sent at least six messages to the SQL endpoint");

    // The always-on latency histogram for the SQL endpoint crossed the
    // wire with real observations in its buckets.
    let sql_key = format!("endpoint:{SQL_ADDR}");
    let hist = mon
        .children_named(MON_NS, "LatencyHistogram")
        .find(|h| h.attribute("key") == Some(sql_key.as_str()))
        .expect("a histogram for the SQL endpoint");
    let count: u64 = hist.attribute("count").unwrap().parse().unwrap();
    assert!(count >= messages, "every bus call records one latency sample");
    let bucketed: u64 = hist
        .children_named(MON_NS, "Bucket")
        .map(|b| b.attribute("observations").unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(bucketed, count, "bucket observations add up to the recorded count");
    assert!(hist.attribute("p95Ns").unwrap().parse::<u64>().unwrap() > 0);
}

#[test]
fn idle_chaos_layer_is_invisible_in_the_statistics() {
    // Plain bus, plain clients — the pre-chaos baseline.
    let baseline = build_stack(None);
    run_read_sweep(&baseline);

    // Retry-configured clients on a healthy bus: no visible difference.
    let with_retry = build_stack(Some(sweep_retry(7)));
    run_read_sweep(&with_retry);

    // An installed injector with no policies: still no difference.
    let with_idle_injector = build_stack(Some(sweep_retry(7)));
    let injector = FaultInjector::new(7);
    with_idle_injector.bus.add_interceptor(Arc::new(injector.clone()));
    run_read_sweep(&with_idle_injector);

    let base = baseline.bus.stats();
    assert_eq!(base, with_retry.bus.stats());
    assert_eq!(base, with_idle_injector.bus.stats());
    assert_eq!(injector.snapshot(), InjectorSnapshot::default());
    assert_eq!(
        baseline.bus.endpoint_stats(SQL_ADDR),
        with_idle_injector.bus.endpoint_stats(SQL_ADDR)
    );
    assert_eq!(base.injected, 0);
    assert_eq!(base.retries, 0);
    assert!(base.faults == 0 && base.messages > 0);
}
