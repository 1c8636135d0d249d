//! A whole-fabric concurrency test: relational, XML and file services on
//! one bus, hammered by concurrent consumers of every kind. Exercises the
//! `ConcurrentAccess=true` promise across realisations and the bus's
//! thread-safety under mixed load.

use dais::dair::{actions, messages};
use dais::obs::Span;
use dais::prelude::*;
use dais::soap::bus::{BusError, StatsSnapshot};
use dais::soap::interceptor::{CallInfo, Intercept, Interceptor};
use dais::soap::{CallError, Envelope, RetryConfig, ServiceClient, SoapDispatcher};
use dais::xml::parse;
use dais::xml::XmlElement;
use dais_util::sync::{pause, Condvar, Mutex};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod test_actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
        BLOCK = "urn:block", Read;
    }
}

#[test]
fn mixed_fabric_under_concurrency() {
    let bus = Bus::new();

    // Relational service.
    let db = Database::new("fabric");
    db.execute("CREATE TABLE hits (worker INTEGER, n INTEGER)", &[]).unwrap();
    let rel = RelationalService::launch(&bus, "bus://rel", db, Default::default());

    // XML service.
    let xml = XmlService::launch(&bus, "bus://xml", XmlDatabase::new("fabric"), Default::default());

    // File service.
    let files = FileService::launch(&bus, "bus://files", FileStore::new(), Default::default());

    let workers = 9;
    let iterations = 20;
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let bus = bus.clone();
            let rel_name = rel.db_resource.clone();
            let xml_name = xml.root_collection.clone();
            let files_name = files.root.clone();
            std::thread::spawn(move || {
                match w % 3 {
                    0 => {
                        // Relational consumer: insert then aggregate.
                        let c = SqlClient::builder().bus(bus).address("bus://rel").build();
                        for i in 0..iterations {
                            c.execute(
                                &rel_name,
                                "INSERT INTO hits VALUES (?, ?)",
                                &[Value::Int(w as i64), Value::Int(i as i64)],
                            )
                            .unwrap();
                        }
                        let data = c
                            .execute(
                                &rel_name,
                                "SELECT COUNT(*) FROM hits WHERE worker = ?",
                                &[Value::Int(w as i64)],
                            )
                            .unwrap();
                        assert_eq!(
                            data.rowset().unwrap().rows[0][0],
                            Value::Int(iterations as i64)
                        );
                    }
                    1 => {
                        // XML consumer: documents + queries.
                        let c = XmlClient::builder().bus(bus).address("bus://xml").build();
                        for i in 0..iterations {
                            c.add_documents(
                                &xml_name,
                                &[(
                                    format!("w{w}_{i}"),
                                    parse(&format!("<e worker='{w}'><n>{i}</n></e>")).unwrap(),
                                )],
                            )
                            .unwrap();
                        }
                        let hits = c.xpath(&xml_name, &format!("/e[@worker = {w}]")).unwrap();
                        assert_eq!(hits.len(), iterations);
                    }
                    _ => {
                        // File consumer: write + list through the wire.
                        let c = dais::soap::ServiceClient::new(bus, "bus://files");
                        for i in 0..iterations {
                            let body =
                                dais::core::messages::request("WriteFileRequest", &files_name)
                                    .with_child(
                                        dais::xml::XmlElement::new(
                                            dais::daif::WSDAIF_NS,
                                            "wsdaif",
                                            "Path",
                                        )
                                        .with_text(format!("w{w}/f{i}.bin")),
                                    )
                                    .with_child(
                                        dais::xml::XmlElement::new(
                                            dais::daif::WSDAIF_NS,
                                            "wsdaif",
                                            "Contents",
                                        )
                                        .with_text(dais::daif::base64::encode(&[w as u8, i as u8])),
                                    );
                            c.request(dais::daif::actions::WRITE_FILE, body).unwrap();
                        }
                        let body = dais::core::messages::request("ListFilesRequest", &files_name)
                            .with_child(
                                dais::xml::XmlElement::new(
                                    dais::daif::WSDAIF_NS,
                                    "wsdaif",
                                    "Pattern",
                                )
                                .with_text(format!("w{w}/*")),
                            );
                        let resp = c.request(dais::daif::actions::LIST_FILES, body).unwrap();
                        assert_eq!(
                            resp.children_named(dais::daif::WSDAIF_NS, "File").count(),
                            iterations
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Fabric-wide invariants.
    let c = SqlClient::builder().bus(bus.clone()).address("bus://rel").build();
    let total = c.execute(&rel.db_resource, "SELECT COUNT(*) FROM hits", &[]).unwrap();
    assert_eq!(total.rowset().unwrap().rows[0][0], Value::Int(3 * iterations as i64));
    let xc = XmlClient::builder().bus(bus.clone()).address("bus://xml").build();
    assert_eq!(xc.get_documents(&xml.root_collection, &[]).unwrap().len(), 3 * iterations);
    let stats = bus.stats();
    assert_eq!(stats.faults, 0, "no faults under the mixed workload");
    assert!(stats.messages >= (workers * iterations) as u64);
}

#[test]
fn concurrent_derivation_and_destruction() {
    // Factories and destroys racing on one service must never corrupt the
    // registry or leak resources.
    let bus = Bus::new();
    let db = Database::new("race");
    db.execute("CREATE TABLE t (a INTEGER)", &[]).unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)", &[]).unwrap();
    let svc = RelationalService::launch(&bus, "bus://race", db, Default::default());

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let bus = bus.clone();
            let name = svc.db_resource.clone();
            std::thread::spawn(move || {
                let c = SqlClient::builder().bus(bus).address("bus://race").build();
                for _ in 0..15 {
                    let epr = c.execute_factory(&name, "SELECT * FROM t", &[], None, None).unwrap();
                    let derived = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
                    let rowset = c.get_sql_rowset(&derived, 1).unwrap();
                    assert_eq!(rowset.row_count(), 3);
                    c.core().destroy(&derived).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Only the database and monitoring resources remain.
    assert_eq!(svc.ctx.registry.len(), 2);
    assert!(svc.ctx.registry.get(&svc.db_resource).is_some());
    assert!(svc.ctx.registry.get(&svc.monitoring).is_some());
}

// ---------------------------------------------------------------------
// The sharded executor under load: backpressure, billing and tracing.
// ---------------------------------------------------------------------

fn message(text: &str) -> XmlElement {
    XmlElement::new_local("m").with_text(text)
}

/// Look up one span attribute, empty when absent.
fn attr<'s>(span: &'s Span, key: &str) -> &'s str {
    span.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str()).unwrap_or("")
}

/// An echo dispatcher whose handler parks until the shared gate opens,
/// counting entries so tests can wait for a worker to pick a job up.
fn gated_echo(gate: &Arc<(Mutex<bool>, Condvar)>, entered: &Arc<AtomicU32>) -> SoapDispatcher {
    let mut d = SoapDispatcher::new();
    let gate = Arc::clone(gate);
    let entered = Arc::clone(entered);
    d.register(test_actions::BLOCK, move |req: &Envelope| {
        entered.fetch_add(1, Ordering::SeqCst);
        let (flag, cvar) = &*gate;
        let mut open = flag.lock();
        while !*open {
            open = cvar.wait(open);
        }
        Ok(req.clone())
    });
    d
}

#[test]
fn seeded_stress_run_loses_no_replies_and_keeps_trace_trees() {
    let bus = Bus::new();
    for i in 0..4 {
        let mut d = SoapDispatcher::new();
        d.register(test_actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register(format!("bus://stress/{i}"), Arc::new(d));
    }
    bus.enable_tracing(0xFAB);
    let injector = FaultInjector::new(0xFAB);
    injector.set_default_policy(
        FaultPolicy::default().drop(0.10).delay(0.25, Duration::from_micros(400)),
    );
    bus.add_interceptor(Arc::new(injector.clone()));
    bus.install_executor(ExecutorConfig::new(8).queue_capacity(256).seed(0xFAB));

    // One pipelined consumer per endpoint, submissions interleaved so
    // every shard sees load at once.
    let clients: Vec<ServiceClient> =
        (0..4).map(|i| ServiceClient::new(bus.clone(), format!("bus://stress/{i}"))).collect();
    let total = 160usize;
    let replies: Vec<_> = (0..total)
        .map(|n| clients[n % 4].call_async(test_actions::ECHO, &message(&n.to_string())).unwrap())
        .collect();

    // No lost replies: every handle resolves, to the echo or to the
    // injected drop — nothing hangs and nothing vanishes.
    let mut ok = 0u64;
    let mut failed = 0u64;
    for (n, reply) in replies.into_iter().enumerate() {
        match reply.wait() {
            Ok(echoed) => {
                assert_eq!(echoed.text(), n.to_string(), "replies stay bound to their request");
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    assert_eq!(ok + failed, total as u64);
    let injected = injector.snapshot();
    assert_eq!(failed, injected.drops, "exactly the dropped requests fail");
    assert!(injected.drops > 0 && injected.delays > 0, "the chaos was real: {injected:?}");
    assert_eq!(bus.stats().queue_depth, 0, "the queues drained");
    bus.shutdown_executor();

    // Trace-tree integrity: every request's tree is client.call →
    // bus.enqueue → bus.execute, with the queue wait measured.
    let sink = bus.obs().tracer.take();
    let roots = sink.spans_named("client.call");
    let enqueues = sink.spans_named("bus.enqueue");
    let executes = sink.spans_named("bus.execute");
    assert_eq!(roots.len(), total);
    assert_eq!(enqueues.len(), total);
    assert_eq!(executes.len(), total);
    for execute in &executes {
        let enqueue = enqueues
            .iter()
            .find(|e| Some(e.span_id) == execute.parent_id)
            .expect("every execute hangs off its enqueue");
        let root = roots
            .iter()
            .find(|r| Some(r.span_id) == enqueue.parent_id)
            .expect("every enqueue hangs off a client root");
        assert_eq!(execute.trace_id, root.trace_id, "one trace per request");
        assert!(attr(execute, "queue_wait_ns").parse::<u64>().is_ok());
    }
}

#[test]
fn overloaded_is_returned_exactly_when_the_queue_is_at_capacity() {
    // Property over capacities: with the one worker parked in the
    // handler, admission accepts exactly `capacity` further requests and
    // sheds the rest — `Overloaded` if and only if the queue is full.
    for (capacity, submits) in [(1usize, 6usize), (2, 6), (4, 6), (4, 3)] {
        let bus = Bus::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU32::new(0));
        bus.register("bus://gate", Arc::new(gated_echo(&gate, &entered)));
        let hint = Duration::from_millis(2);
        bus.install_executor(
            ExecutorConfig::new(1)
                .queue_capacity(capacity)
                .max_in_flight(1)
                .retry_after(hint)
                .seed(9),
        );

        // Park the worker, then race `submits` more requests at the queue.
        let first =
            bus.call_async("bus://gate", "urn:block", &Envelope::with_body(message("0"))).unwrap();
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let mut admitted = vec![first];
        let mut shed = 0usize;
        for n in 1..=submits {
            let envelope = Envelope::with_body(message(&n.to_string()));
            match bus.call_async("bus://gate", "urn:block", &envelope) {
                Ok(pending) => admitted.push(pending),
                Err(BusError::Overloaded { endpoint, retry_after }) => {
                    assert_eq!(endpoint, "bus://gate");
                    assert_eq!(retry_after, hint, "the hint echoes the configuration");
                    assert_eq!(
                        bus.endpoint_stats("bus://gate").queue_depth,
                        capacity as u64,
                        "a shed request found the queue genuinely full"
                    );
                    shed += 1;
                }
                Err(other) => panic!("unexpected admission error: {other:?}"),
            }
        }
        assert_eq!(shed, submits.saturating_sub(capacity), "capacity {capacity}");
        assert_eq!(bus.endpoint_stats("bus://gate").shed, shed as u64);

        // Open the gate: everything admitted completes; nothing is lost.
        *gate.0.lock() = true;
        gate.1.notify_all();
        for pending in admitted {
            assert!(pending.wait().is_ok(), "an admitted request was lost");
        }
        assert_eq!(bus.endpoint_stats("bus://gate").queue_depth, 0);
        bus.shutdown_executor();
    }
}

/// Wait, for at most five seconds, until `entered` reaches `n`.
fn await_entered(entered: &AtomicU32, n: u32) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while entered.load(Ordering::SeqCst) < n && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

fn open(gate: &(Mutex<bool>, Condvar)) {
    *gate.0.lock() = true;
    gate.1.notify_all();
}

/// E14's throughput-vs-workers table in deterministic form: N workers
/// on one shard run N blocked requests at once — exactly N handlers are
/// entered before the gate opens, with the rest of the burst queued.
#[test]
fn e14_workers_overlap_blocked_requests() {
    for workers in [1u32, 2, 4, 8] {
        let bus = Bus::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU32::new(0));
        bus.register("bus://e14", Arc::new(gated_echo(&gate, &entered)));
        bus.install_executor(
            ExecutorConfig::new(workers as usize).shards(1).queue_capacity(64).seed(0xE14),
        );
        let replies: Vec<_> = (0..16)
            .map(|n| {
                let envelope = Envelope::with_body(message(&n.to_string()));
                bus.call_async("bus://e14", "urn:block", &envelope).unwrap()
            })
            .collect();
        await_entered(&entered, workers);
        // Room for a worker beyond the N-th to enter, were there one.
        pause(Duration::from_millis(20));
        assert_eq!(entered.load(Ordering::SeqCst), workers, "{workers} worker(s)");

        open(&gate);
        for reply in replies {
            assert!(reply.wait().is_ok(), "an admitted request was lost");
        }
        assert_eq!(entered.load(Ordering::SeqCst), 16);
        bus.shutdown_executor();
    }
}

/// Run a pipelined batch into a queue another consumer has filled, with
/// the worker parked until the batch's first submit is shed. With
/// nothing of its own in flight to drain, the batch must sleep out the
/// `Overloaded` hint and resubmit; every request completes.
fn paced_batch(retry: Option<RetryConfig>, hint: Duration) {
    let bus = Bus::new();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new(AtomicU32::new(0));
    bus.register("bus://e14", Arc::new(gated_echo(&gate, &entered)));
    let capacity = 2;
    bus.install_executor(
        ExecutorConfig::new(1)
            .shards(1)
            .queue_capacity(capacity)
            .max_in_flight(1)
            .retry_after(hint)
            .seed(0xE14),
    );
    let held: Vec<_> = (0..=capacity)
        .map(|n| {
            let envelope = Envelope::with_body(message(&format!("held{n}")));
            let pending = bus.call_async("bus://e14", "urn:block", &envelope).unwrap();
            await_entered(&entered, 1);
            pending
        })
        .collect();
    let opener = std::thread::spawn({
        let (bus, gate) = (bus.clone(), Arc::clone(&gate));
        move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            while bus.stats().shed == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            open(&gate);
        }
    });

    let mut client = ServiceClient::new(bus.clone(), "bus://e14");
    if let Some(config) = retry {
        client = client.with_retry(config);
    }
    let payloads = (0..8).map(|n| message(&n.to_string())).collect();
    let results = client.request_pipelined(test_actions::BLOCK, payloads, 4, PendingReply::wait);
    opener.join().unwrap();
    for (n, result) in results.into_iter().enumerate() {
        assert_eq!(result.expect("every request completes").text(), n.to_string());
    }
    for pending in held {
        assert!(pending.wait().is_ok());
    }
    assert!(bus.endpoint_stats("bus://e14").shed >= 1);
    bus.shutdown_executor();
}

/// E14's pacing: `request_pipelined` absorbs `Overloaded` by sleeping
/// the hint, through the real pause when the client has no retry
/// config and through the config's sleeper when it has one.
#[test]
fn e14_pipelined_requests_pace_through_overloaded() {
    let hint = Duration::from_micros(500);
    paced_batch(None, hint);

    let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&slept);
    let recording = RetryConfig::new(RetryPolicy::new(3)).with_sleep(Arc::new(move |d| {
        recorder.lock().push(d);
        pause(d);
    }));
    paced_batch(Some(recording), hint);
    let slept = slept.lock();
    assert!(!slept.is_empty(), "the batch paced through the config's sleeper");
    assert!(slept.iter().all(|&d| d >= hint), "never sooner than the hint: {slept:?}");
}

/// Holds every request leg until the gate opens, parking whichever
/// executor worker runs it — without touching the service's handlers.
struct HoldRequests {
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: Arc<AtomicU32>,
}

impl Interceptor for HoldRequests {
    fn on_request(&self, _call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (flag, cvar) = &*self.gate;
        let mut open = flag.lock();
        while !*open {
            open = cvar.wait(open);
        }
        Intercept::Pass
    }
}

#[test]
fn queued_get_tuples_pages_resolve_to_their_rows_or_overloaded() {
    // `GetTuples` replies take the raw-body lane; under the queued
    // executor a worker produces the bytes and the submitting thread
    // decodes them. Fired without waiting at a small queue, every
    // submission must resolve to exactly the page it asked for or be
    // refused at admission — none lost, none decoded wrong.
    const ADDR: &str = "bus://paged";
    const ROWS: usize = 200;
    const PAGE: usize = 20;
    let bus = Bus::new();
    let db = Database::new("paged");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)", &[]).unwrap();
    let values: Vec<String> = (0..ROWS).map(|id| format!("({id}, 'r{id}')")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")), &[]).unwrap();
    let svc = RelationalService::launch(&bus, ADDR, db, Default::default());
    let sql = SqlClient::builder().bus(bus.clone()).address(ADDR).build();
    let derived = |epr: Epr| AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let response = derived(
        sql.execute_factory(&svc.db_resource, "SELECT id, v FROM t ORDER BY id", &[], None, None)
            .unwrap(),
    );
    let rowset = derived(sql.rowset_factory(&response, None, None).unwrap());

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new(AtomicU32::new(0));
    bus.add_interceptor(Arc::new(HoldRequests {
        gate: Arc::clone(&gate),
        entered: Arc::clone(&entered),
    }));
    let capacity = 4;
    bus.install_executor(ExecutorConfig::new(2).shards(1).queue_capacity(capacity).seed(0x9A6E));

    let client = ServiceClient::new(bus.clone(), ADDR);
    // One submission: the reply with the page start it asked for, or
    // `None` when admission refused it.
    let submit = |n: usize| {
        let start = (n * PAGE) % ROWS;
        let request = messages::get_tuples_request(&rowset, start, PAGE);
        match client.call_async(actions::GET_TUPLES, &request) {
            Ok(reply) => Some((start, reply)),
            Err(CallError::Transport(BusError::Overloaded { .. })) => None,
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    };
    let shed = |outcomes: &[Option<(usize, PendingReply)>]| {
        outcomes.iter().filter(|o| o.is_none()).count()
    };

    // Phase 1, gate shut: park both workers on a page each, then burst.
    // The queue takes exactly `capacity` more; everything else sheds.
    let mut outcomes = Vec::new();
    for n in 0..2 {
        outcomes.push(submit(n));
        while entered.load(Ordering::SeqCst) <= n as u32 {
            std::thread::yield_now();
        }
    }
    let burst = 40;
    outcomes.extend((2..burst).map(submit));
    assert_eq!(shed(&outcomes), burst - 2 - capacity, "a full queue refuses, a free slot admits");
    *gate.0.lock() = true;
    gate.1.notify_all();

    // Phase 2, gate open: a second burst races the workers.
    let submitted = 2 * burst;
    outcomes.extend((burst..submitted).map(submit));

    let shed = shed(&outcomes);
    let mut completed = 0usize;
    for (start, reply) in outcomes.into_iter().flatten() {
        let bytes = reply.wait_bytes().expect("an admitted page resolves");
        let page = messages::rowset_from_reply_bytes(&bytes).expect("the page decodes");
        let expected: Vec<Vec<Value>> = (start..start + PAGE)
            .map(|id| vec![Value::Int(id as i64), Value::Str(format!("r{id}"))])
            .collect();
        assert_eq!(page.rows, expected, "page at {start}");
        completed += 1;
    }
    assert_eq!(completed + shed, submitted, "every submission is a page or a refusal");
    assert_eq!(bus.endpoint_stats(ADDR).shed, shed as u64);
    bus.shutdown_executor();
}

/// Rejects every response on its way back to the caller.
struct AbortReplies;

impl Interceptor for AbortReplies {
    fn on_response(&self, _call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
        Intercept::Abort(BusError::Timeout("scripted response abort".into()))
    }
}

fn response_abort_run(queued: bool) -> StatsSnapshot {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(test_actions::ECHO, |req: &Envelope| Ok(req.clone()));
    bus.register("bus://bill", Arc::new(d));
    bus.add_interceptor(Arc::new(AbortReplies));
    if queued {
        bus.install_executor(ExecutorConfig::new(2).seed(5));
    }
    for n in 0..3 {
        let envelope = Envelope::with_body(message(&n.to_string()));
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
fn response_abort_billing_is_identical_on_queued_and_inline_paths() {
    // Regression: per-call statistics are billed inside `Bus::perform`,
    // so a response-phase `Intercept::Abort` costs exactly the same on
    // the executor path as it does inline — only the queue gauges (peak
    // depth) may legitimately differ between the two modes.
    let inline = response_abort_run(false);
    let queued = response_abort_run(true);
    let traffic = |s: &StatsSnapshot| {
        (s.messages, s.request_bytes, s.response_bytes, s.faults, s.injected, s.retries, s.shed)
    };
    assert_eq!(traffic(&inline), traffic(&queued));
    assert_eq!(inline.messages, 3);
    assert_eq!(inline.queue_peak, 0);
    assert!(queued.queue_peak >= 1, "the queued path really went through the queue");
}
