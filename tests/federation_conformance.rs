//! Federation conformance: a consumer must not be able to tell a
//! federated resource from a plain one.
//!
//! The same workload runs over three topologies — one shard inline (the
//! oracle), four shards in-process, and four shards behind the TCP
//! transport — and every reply must agree: ordered results byte-for-row
//! identical, unordered results identical as multisets, the indirect
//! factory→rowset→GetTuples path paging the same windows, and the empty
//! result carrying the same `02000` communication area a plain service
//! sends. A second group injects seeded faults: losing one replica of a
//! shard must be invisible (failover to the sibling, complete results),
//! and losing *every* replica of a shard must surface a well-formed
//! `ServiceBusyFault` — never a torn rowset.

use std::sync::Arc;

use dais::core::{AbstractName, DaisClient, ResourceRef};
use dais::dair::{SqlClient, SqlResponseData};
use dais::daix::XmlClient;
use dais::federation::{FleetOptions, RelationalFleet, ShardScheme, XmlFleet};
use dais::soap::fault::DaisFault;
use dais::soap::retry::SleepFn;
use dais::soap::tcp::{TcpServer, TcpTransport};
use dais::soap::{Bus, CallError, FaultInjector, FaultPolicy, RetryConfig, RetryPolicy};
use dais::sql::{Rowset, Value};

const SCHEMA: &str = "CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR)";
const ROWS: i64 = 40;

/// The topologies under test. `Inline1` is the oracle: one shard, one
/// replica, indistinguishable from wrapping a single plain service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    Inline1,
    InProc4,
    Tcp4,
}

const ALL: [Topology; 3] = [Topology::Inline1, Topology::InProc4, Topology::Tcp4];

fn options(topology: Topology) -> FleetOptions {
    let (shards, replicas) = match topology {
        Topology::Inline1 => (1, 1),
        Topology::InProc4 | Topology::Tcp4 => (4, 2),
    };
    // Tests never wait out a real backoff: pacing is covered by the
    // scatter unit tests.
    let no_sleep: SleepFn = Arc::new(|_| {});
    FleetOptions {
        shards,
        replicas,
        failover: RetryConfig::new(RetryPolicy::new(3)).with_sleep(no_sleep),
        ..FleetOptions::default()
    }
}

/// Launch a fleet over `topology` and ingest the fixed seed rows.
///
/// The returned bus is the *consumer's* bus. For `Tcp4` it is a second
/// bus whose transport routes to the fleet's TCP server — the split
/// deployment, where the consumer is another process. (It must be: the
/// fleet bus's own transport carries the federation's nested shard
/// calls, and a consumer sharing that pooled connection would be read
/// by the very connection thread its request is blocking.) The server
/// (TCP only) must outlive the queries.
fn sql_fleet(topology: Topology) -> (Bus, Option<TcpServer>, RelationalFleet) {
    let fleet_bus = Bus::new();
    let (consumer_bus, server) = match topology {
        Topology::Tcp4 => {
            let server = TcpServer::bind(&fleet_bus, "127.0.0.1:0").expect("bind loopback server");
            let fleet_transport = TcpTransport::default();
            fleet_transport.set_default_route(server.local_addr());
            fleet_bus.set_transport(Arc::new(fleet_transport));
            let consumer_bus = Bus::new();
            let consumer_transport = TcpTransport::default();
            consumer_transport.set_default_route(server.local_addr());
            consumer_bus.set_transport(Arc::new(consumer_transport));
            (consumer_bus, Some(server))
        }
        _ => (fleet_bus.clone(), None),
    };
    let fleet = RelationalFleet::launch(
        &fleet_bus,
        "fedconf",
        SCHEMA,
        ShardScheme::Hash { column: "k".into() },
        options(topology),
    );
    for k in 0..ROWS {
        fleet
            .ingest(
                &Value::Int(k),
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(k), Value::Str(format!("row{k:02}"))],
            )
            .expect("seed row must ingest");
    }
    (consumer_bus, server, fleet)
}

fn sql_client(bus: &Bus, fleet: &RelationalFleet) -> SqlClient {
    SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build()
}

/// One canonical line per row; display rendering is the same one the
/// WebRowSet encoder uses, so equal lines mean equal wire rows.
fn canon(rowset: &Rowset) -> Vec<String> {
    rowset
        .rows
        .iter()
        .map(|row| row.iter().map(Value::to_display_string).collect::<Vec<_>>().join("\u{1f}"))
        .collect()
}

fn execute(client: &SqlClient, resource: &ResourceRef, sql: &str) -> SqlResponseData {
    client.execute(resource.resource(), sql, &[]).expect("query must succeed")
}

#[test]
fn ordered_results_identical_across_topologies() {
    let mut per_topology = Vec::new();
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let data = execute(&client, fleet.resource(), "SELECT k, v FROM t ORDER BY k");
        let rowset = data.rowset().expect("a SELECT returns a rowset");
        assert_eq!(rowset.row_count() as i64, ROWS, "{topology:?} dropped rows");
        per_topology.push((topology, canon(rowset)));
    }
    let (_, oracle) = &per_topology[0];
    assert_eq!(oracle[0], format!("0\u{1f}row00"));
    for (topology, rows) in &per_topology[1..] {
        assert_eq!(rows, oracle, "{topology:?} disagrees with the single-shard oracle");
    }
}

#[test]
fn unordered_results_identical_as_multisets() {
    let mut per_topology = Vec::new();
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let data = execute(&client, fleet.resource(), "SELECT v FROM t");
        let mut rows = canon(data.rowset().expect("a SELECT returns a rowset"));
        rows.sort_unstable();
        per_topology.push((topology, rows));
    }
    let (_, oracle) = &per_topology[0];
    for (topology, rows) in &per_topology[1..] {
        assert_eq!(rows, oracle, "{topology:?} disagrees as a multiset");
    }
}

#[test]
fn empty_result_reports_the_plain_communication_area() {
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let data = execute(&client, fleet.resource(), "SELECT k FROM t WHERE k < 0 ORDER BY k");
        let rowset = data.rowset().expect("an empty SELECT still returns a rowset");
        assert_eq!(rowset.row_count(), 0);
        assert_eq!(
            data.communication_area.sqlstate, "02000",
            "{topology:?} must report no-data exactly like a plain service"
        );
    }
}

#[test]
fn indirect_access_pages_identically() {
    let mut per_topology = Vec::new();
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let response_epr = client
            .execute_factory(
                fleet.resource().resource(),
                "SELECT k, v FROM t ORDER BY k",
                &[],
                None,
                None,
            )
            .expect("factory must mint a response resource");
        let response = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
        let rowset_epr = client.rowset_factory(&response, Some(25), None).expect("rowset factory");
        let rowset = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

        let mut rows = Vec::new();
        for (start, count, expect) in [(0, 10, 10), (10, 10, 10), (20, 10, 5)] {
            let page = client.get_tuples(&rowset, start, count).expect("page must stream");
            assert_eq!(page.row_count(), expect, "{topology:?} page [{start}, +{count})");
            rows.extend(canon(&page));
        }
        per_topology.push((topology, rows));
    }
    let (_, oracle) = &per_topology[0];
    assert_eq!(oracle.len(), 25, "the Count cap bounds the rowset");
    for (topology, rows) in &per_topology[1..] {
        assert_eq!(rows, oracle, "{topology:?} pages disagree with the oracle");
    }
}

/// The statement's own `LIMIT`/`OFFSET` window applies to the *merged*
/// result, exactly once — not once per shard, which would return up to
/// `n × shards` rows and skip `k` rows per shard.
#[test]
fn limit_offset_window_applies_globally_across_topologies() {
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let data =
            execute(&client, fleet.resource(), "SELECT k, v FROM t ORDER BY k LIMIT 7 OFFSET 5");
        let expect: Vec<String> = (5..12).map(|k| format!("{k}\u{1f}row{k:02}")).collect();
        assert_eq!(canon(data.rowset().unwrap()), expect, "{topology:?} window diverged");

        let data = execute(&client, fleet.resource(), "SELECT k FROM t ORDER BY k DESC LIMIT 3");
        assert_eq!(
            canon(data.rowset().unwrap()),
            ["39", "38", "37"],
            "{topology:?} LIMIT must cap the merged result, not each shard"
        );
    }
}

/// The indirect path honours the statement window too: the derived
/// response remembers `LIMIT`/`OFFSET`, the rowset caps at the tighter
/// of the factory `Count` and the statement `LIMIT`, and `GetTuples`
/// pages within the shifted window.
#[test]
fn windowed_factory_rowsets_page_identically() {
    let mut per_topology = Vec::new();
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let response_epr = client
            .execute_factory(
                fleet.resource().resource(),
                "SELECT k, v FROM t ORDER BY k LIMIT 20 OFFSET 4",
                &[],
                None,
                None,
            )
            .expect("factory must admit a windowed query");
        let response = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
        let rowset_epr = client.rowset_factory(&response, Some(10), None).expect("rowset factory");
        let rowset = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

        let mut rows = Vec::new();
        for (start, count, expect) in [(0, 6, 6), (6, 10, 4)] {
            let page = client.get_tuples(&rowset, start, count).expect("page must stream");
            assert_eq!(page.row_count(), expect, "{topology:?} page [{start}, +{count})");
            rows.extend(canon(&page));
        }
        per_topology.push((topology, rows));
    }
    let (_, oracle) = &per_topology[0];
    let expect: Vec<String> = (4..14).map(|k| format!("{k}\u{1f}row{k:02}")).collect();
    assert_eq!(oracle, &expect, "Count ∧ LIMIT cap the rowset after the OFFSET");
    for (topology, rows) in &per_topology[1..] {
        assert_eq!(rows, oracle, "{topology:?} windowed pages disagree with the oracle");
    }
}

/// A query whose global answer is not the merge of per-shard answers —
/// aggregates, DISTINCT, GROUP BY, UNION, an ORDER BY the output cannot
/// resolve — must be *refused* with an `InvalidExpressionFault`, never
/// silently answered wrong (`COUNT(*)` would otherwise return one row
/// per shard).
#[test]
fn non_distributable_queries_are_refused_never_answered_wrong() {
    let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
    let client = sql_client(&bus, &fleet);
    let shapes = [
        "SELECT COUNT(*) FROM t",
        "SELECT MAX(k) FROM t",
        "SELECT DISTINCT v FROM t",
        "SELECT v FROM t GROUP BY v",
        "SELECT k FROM t UNION SELECT k FROM t",
        "SELECT k FROM t ORDER BY k + 1",
    ];
    for sql in shapes {
        let err = client
            .execute(fleet.resource().resource(), sql, &[])
            .expect_err("a non-distributable shape must not scatter");
        match err {
            CallError::Fault(f) => {
                assert_eq!(f.dais, Some(DaisFault::InvalidExpression), "{sql}: got {f:?}")
            }
            other => panic!("{sql}: expected an InvalidExpressionFault, got {other:?}"),
        }
    }
    let err = client
        .execute_factory(fleet.resource().resource(), "SELECT COUNT(*) FROM t", &[], None, None)
        .expect_err("the factory path admits the same shapes as direct access");
    match err {
        CallError::Fault(f) => assert_eq!(f.dais, Some(DaisFault::InvalidExpression), "got {f:?}"),
        other => panic!("expected an InvalidExpressionFault, got {other:?}"),
    }
}

/// A join pairs rows that may live on different shards, so each shard's
/// half-answer is not a piece of the whole: with 20 rows,
/// `b.k = a.k + 1` pairs 19 rows on one node but only the pairs that
/// happen to share a shard on four. It is refused on every topology —
/// the refusal itself must not tell a consumer the topology.
#[test]
fn joins_are_refused_on_every_topology() {
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        for sql in [
            "SELECT a.k, b.k FROM t a JOIN t b ON b.k = a.k + 1",
            "SELECT a.k FROM t a CROSS JOIN t b WHERE a.k = 1",
        ] {
            let err = client
                .execute(fleet.resource().resource(), sql, &[])
                .expect_err("a join must not scatter");
            match err {
                CallError::Fault(f) => assert_eq!(
                    f.dais,
                    Some(DaisFault::InvalidExpression),
                    "{topology:?} {sql}: got {f:?}"
                ),
                other => {
                    panic!("{topology:?} {sql}: expected InvalidExpressionFault, got {other:?}")
                }
            }
        }
    }
}

/// A `SELECT` with no `FROM` reads no table, so no shard owns its row:
/// it must answer once, as a plain service does, not once per shard —
/// directly and through the factory → rowset → `GetTuples` path.
#[test]
fn a_select_without_from_answers_once_on_every_topology() {
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        let client = sql_client(&bus, &fleet);
        let data = execute(&client, fleet.resource(), "SELECT 1, 'one'");
        assert_eq!(
            canon(data.rowset().unwrap()),
            vec!["1\u{1f}one".to_string()],
            "{topology:?} must answer a table-less SELECT once"
        );

        let response_epr = client
            .execute_factory(fleet.resource().resource(), "SELECT 2", &[], None, None)
            .unwrap();
        let response = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
        let rowset_epr = client.rowset_factory(&response, None, None).unwrap();
        let rowset = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
        let page = client.get_tuples(&rowset, 0, 10).unwrap();
        assert_eq!(canon(&page), vec!["2".to_string()], "{topology:?} factory path");
    }
}

/// `ORDER BY a, b` with first-key duplicates spanning shards: ties must
/// fall to the remaining sort terms — exactly as a single node sorts —
/// not to the shard index.
#[test]
fn secondary_sort_keys_order_like_a_single_node() {
    let mut per_topology = Vec::new();
    for topology in ALL {
        let (bus, _server, fleet) = sql_fleet(topology);
        // Sixteen extra rows in three duplicate groups, spread over the
        // shards by the k-hash.
        for k in 100..116 {
            fleet
                .ingest(
                    &Value::Int(k),
                    "INSERT INTO t VALUES (?, ?)",
                    &[Value::Int(k), Value::Str(format!("dup{}", k % 3))],
                )
                .expect("duplicate-group row must ingest");
        }
        let client = sql_client(&bus, &fleet);
        let data = execute(
            &client,
            fleet.resource(),
            "SELECT k, v FROM t WHERE k >= 100 ORDER BY v, k DESC",
        );
        per_topology.push((topology, canon(data.rowset().unwrap())));
    }
    let (_, oracle) = &per_topology[0];
    // Group dup0 leads (v ascending) with its largest k first (k DESC).
    assert_eq!(oracle[0], format!("114\u{1f}dup0"));
    assert_eq!(oracle.len(), 16);
    for (topology, rows) in &per_topology[1..] {
        assert_eq!(rows, oracle, "{topology:?} breaks first-key ties away from the oracle order");
    }
}

/// A transient failure during the factory fan-out must not permanently
/// cost the derived resource a replica's redundancy: the fan-out
/// retries the blip, so even when the shard's *other* replica later
/// dies outright, the derived rowset still streams complete.
#[test]
fn factory_fanout_retries_transient_replica_failures() {
    use dais::soap::interceptor::{CallInfo, Intercept, Interceptor};

    /// Drops the next `remaining` requests to one endpoint, then passes.
    struct FailFirst {
        endpoint: String,
        remaining: dais_util::sync::Mutex<u32>,
    }

    impl Interceptor for FailFirst {
        fn on_request(&self, call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
            if call.to == self.endpoint {
                let mut remaining = self.remaining.lock();
                if *remaining > 0 {
                    *remaining -= 1;
                    return Intercept::Abort(dais::soap::BusError::Timeout(call.to.to_string()));
                }
            }
            Intercept::Pass
        }
    }

    let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
    let client = sql_client(&bus, &fleet);
    // Replica 0 of shard 1 drops exactly one request: the factory
    // fan-out's first attempt at it.
    bus.add_interceptor(Arc::new(FailFirst {
        endpoint: fleet.router.replica_address(1, 0).into(),
        remaining: dais_util::sync::Mutex::new(1),
    }));
    let response_epr = client
        .execute_factory(
            fleet.resource().resource(),
            "SELECT k, v FROM t ORDER BY k",
            &[],
            None,
            None,
        )
        .expect("factory must ride out a transient replica blip");
    let response = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response, None, None).expect("rowset factory");
    let rowset = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

    // Now the sibling replica dies for good. Had the fan-out recorded a
    // permanent miss for replica 0, shard 1 would have no copy left and
    // the page would fault; the retried fan-out kept both.
    let injector = FaultInjector::new(7);
    injector.set_policy(fleet.router.replica_address(1, 1), FaultPolicy::default().drop(1.0));
    bus.add_interceptor(Arc::new(injector));
    let page = client
        .get_tuples(&rowset, 0, ROWS as usize)
        .expect("the retried replica must hold the derived rowset");
    assert_eq!(page.row_count() as i64, ROWS, "the surviving replica streams the full window");
}

#[test]
fn property_document_aggregates_the_fleet() {
    let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
    let client = sql_client(&bus, &fleet);
    let doc =
        client.get_sql_property_document(fleet.resource().resource()).expect("property document");
    let fleet_el = doc
        .child(dais::core::monitoring::MON_NS, "Fleet")
        .expect("the logical property document must carry the fleet extension");
    assert_eq!(fleet_el.attribute("shards"), Some("4"));
    let members: Vec<_> =
        fleet_el.children_named(dais::core::monitoring::MON_NS, "Member").collect();
    assert_eq!(members.len(), 8, "one member per shard × replica");
    assert!(
        members.iter().all(|m| m.attribute("endpoint").is_some()
            && m.attribute("healthy").is_some()
            && m.attribute("messages").is_some()),
        "each member advertises endpoint, health and traffic"
    );
}

#[test]
fn logical_resource_refuses_writes_like_a_readonly_service() {
    let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
    let client = sql_client(&bus, &fleet);
    let err = client
        .execute(fleet.resource().resource(), "INSERT INTO t VALUES (99, 'smuggled')", &[])
        .expect_err("the logical resource is not writeable");
    match err {
        CallError::Fault(f) => {
            assert_eq!(f.dais, Some(DaisFault::NotAuthorized), "got {f:?}")
        }
        other => panic!("expected a DAIS fault, got {other:?}"),
    }
    // The write never reached a shard.
    let data = execute(&client, fleet.resource(), "SELECT k FROM t WHERE k = 99");
    assert_eq!(data.rowset().unwrap().row_count(), 0);
}

/// Losing one replica of a shard mid-run must be invisible: the router
/// fails over to the sibling and results stay complete.
#[test]
fn killed_replica_is_invisible_to_the_consumer() {
    for seed in [1_u64, 7, 42] {
        let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
        let client = sql_client(&bus, &fleet);
        let before = execute(&client, fleet.resource(), "SELECT k, v FROM t ORDER BY k");

        let injector = FaultInjector::new(seed);
        // Shard 2 loses replica 0: every call to it now times out.
        injector.set_policy(fleet.router.replica_address(2, 0), FaultPolicy::default().drop(1.0));
        bus.add_interceptor(Arc::new(injector));

        // Rotation decides which replica answers first, so a single
        // query may never touch the dead one — every query must still be
        // complete, and within a few turns the router must notice.
        for _ in 0..6 {
            let after = execute(&client, fleet.resource(), "SELECT k, v FROM t ORDER BY k");
            assert_eq!(
                canon(after.rowset().unwrap()),
                canon(before.rowset().unwrap()),
                "failover must keep results complete (seed {seed})"
            );
            if !fleet.router.is_healthy(2, 0) {
                break;
            }
        }
        assert!(
            !fleet.router.is_healthy(2, 0),
            "the dead replica should be marked down (seed {seed})"
        );
    }
}

/// Losing *every* replica of a shard cannot be hidden: the reply must be
/// a well-formed `ServiceBusyFault` — and never a torn rowset with the
/// surviving shards' rows.
#[test]
fn killed_shard_surfaces_service_busy_never_a_torn_rowset() {
    for seed in [1_u64, 7, 42] {
        let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
        let client = sql_client(&bus, &fleet);

        let injector = FaultInjector::new(seed);
        for r in 0..2 {
            injector
                .set_policy(fleet.router.replica_address(1, r), FaultPolicy::default().drop(1.0));
        }
        bus.add_interceptor(Arc::new(injector));

        let err = client
            .execute(fleet.resource().resource(), "SELECT k, v FROM t ORDER BY k", &[])
            .expect_err("a whole dead shard cannot produce a complete result");
        match err {
            CallError::Fault(f) => {
                assert_eq!(f.dais, Some(DaisFault::ServiceBusy), "seed {seed}: got {f:?}")
            }
            other => panic!("seed {seed}: expected a ServiceBusyFault, got {other:?}"),
        }
    }
}

/// Kill a shard *between* pages of a streamed rowset: the page that can
/// no longer be assembled faults whole; once the shard heals the same
/// window streams complete again.
#[test]
fn killing_a_shard_mid_stream_faults_the_page_then_heals() {
    let (bus, _server, fleet) = sql_fleet(Topology::InProc4);
    let client = sql_client(&bus, &fleet);
    let response_epr = client
        .execute_factory(
            fleet.resource().resource(),
            "SELECT k, v FROM t ORDER BY k",
            &[],
            None,
            None,
        )
        .unwrap();
    let response = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response, None, None).unwrap();
    let rowset = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

    let first = client.get_tuples(&rowset, 0, 10).expect("healthy fleet pages fine");
    assert_eq!(first.row_count(), 10);

    // The stream breaks: shard 3 goes away entirely.
    let injector = FaultInjector::new(0xDEAD);
    for r in 0..2 {
        injector.set_policy(fleet.router.replica_address(3, r), FaultPolicy::default().drop(1.0));
    }
    bus.add_interceptor(Arc::new(injector.clone()));
    let err = client.get_tuples(&rowset, 10, 10).expect_err("dead shard must fault the page");
    match err {
        CallError::Fault(f) => assert_eq!(f.dais, Some(DaisFault::ServiceBusy), "got {f:?}"),
        other => panic!("expected a ServiceBusyFault, got {other:?}"),
    }

    // Heal and the very same window streams complete — the fault tore
    // nothing down.
    for r in 0..2 {
        injector.set_policy(fleet.router.replica_address(3, r), FaultPolicy::default());
    }
    let page = client.get_tuples(&rowset, 10, 10).expect("healed fleet pages again");
    assert_eq!(page.row_count(), 10);
    let data = execute(&client, fleet.resource(), "SELECT k, v FROM t ORDER BY k");
    let oracle = canon(data.rowset().unwrap());
    assert_eq!(canon(&page), oracle[10..20], "the healed window matches the oracle ordering");
}

/// The XML realisation: XPath fan-out unions shard hits; the union must
/// match the single-shard oracle as a multiset.
#[test]
fn xpath_union_identical_across_shardings() {
    let mut per_topology = Vec::new();
    for shards in [1_usize, 4] {
        let bus = Bus::new();
        let no_sleep: SleepFn = Arc::new(|_| {});
        let fleet = XmlFleet::launch(
            &bus,
            "fedxml",
            FleetOptions {
                shards,
                replicas: 2,
                failover: RetryConfig::new(RetryPolicy::new(3)).with_sleep(no_sleep),
                ..FleetOptions::default()
            },
        );
        for i in 0..12 {
            let doc =
                dais::xml::parse(&format!("<record id=\"{i}\"><group>{}</group></record>", i % 3))
                    .unwrap();
            let status = fleet.ingest(&format!("doc{i}"), &doc).expect("document must ingest");
            assert_eq!(status, "Success");
        }
        let client = XmlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
        let hits = client
            .xpath(fleet.resource().resource(), "/record[group = 1]")
            .expect("fan-out query must succeed");
        let mut ids: Vec<String> = hits
            .iter()
            .map(|el| el.attribute("id").expect("hit keeps its attributes").to_string())
            .collect();
        ids.sort_unstable();
        per_topology.push((shards, ids));
    }
    let (_, oracle) = &per_topology[0];
    assert_eq!(oracle.len(), 4, "groups 1 are ids 1, 4, 7, 10");
    for (shards, ids) in &per_topology[1..] {
        assert_eq!(ids, oracle, "{shards}-shard union disagrees with the oracle");
    }
}

/// E18, the grid-warehouse premise at fleet scale: the same rows on one
/// node and spread over 16 shards × 3 replicas give the same answer to
/// every ordered range scan — healthy, and again after a quarter of the
/// run, when replica 0 of every even shard dies and replica 1 of every
/// odd shard answers only `ServiceBusy`. Each shard keeps one healthy
/// replica, so every query must fail over and stay complete, and every
/// injected fault costs exactly one failover re-send.
#[test]
fn e18_sixteen_by_three_fleet_matches_one_node_through_a_mid_run_kill_and_overload() {
    use dais::dair::RelationalService;
    use dais::sql::Database;

    const SHARDS: usize = 16;
    const REPLICAS: usize = 3;
    const ROWS: i64 = 400;
    const QUERIES: usize = 48;
    let sql = "SELECT k, v FROM t WHERE k >= ? ORDER BY k";
    let lo_of = |i: usize| Value::Int((i as i64 * 37) % ROWS);
    let row = |k: i64| [Value::Int(k), Value::Str(format!("row{k:05}"))];

    let oracle_bus = Bus::new();
    let oracle_db = Database::new("e18one");
    oracle_db.execute_script(SCHEMA).unwrap();
    for k in 0..ROWS {
        oracle_db.execute("INSERT INTO t VALUES (?, ?)", &row(k)).unwrap();
    }
    let single =
        RelationalService::launch(&oracle_bus, "bus://e18one", oracle_db, Default::default());
    let oracle_client =
        SqlClient::builder().bus(oracle_bus.clone()).address("bus://e18one").build();
    let oracle: Vec<Vec<String>> = (0..QUERIES)
        .map(|i| {
            let data = oracle_client.execute(&single.db_resource, sql, &[lo_of(i)]).unwrap();
            canon(data.rowset().unwrap())
        })
        .collect();
    assert!(oracle.iter().all(|rows| !rows.is_empty()));

    let bus = Bus::new();
    let no_sleep: SleepFn = Arc::new(|_| {});
    let fleet = RelationalFleet::launch(
        &bus,
        "e18",
        SCHEMA,
        ShardScheme::Hash { column: "k".into() },
        FleetOptions {
            shards: SHARDS,
            replicas: REPLICAS,
            failover: RetryConfig::new(RetryPolicy::new(6)).with_sleep(no_sleep),
            ..FleetOptions::default()
        },
    );
    for k in 0..ROWS {
        fleet.ingest(&Value::Int(k), "INSERT INTO t VALUES (?, ?)", &row(k)).unwrap();
    }
    let client = sql_client(&bus, &fleet);
    let name = fleet.resource().resource();
    let scan = |i: usize| {
        let data = client.execute(name, sql, &[lo_of(i)]).expect("a query must fail over");
        canon(data.rowset().unwrap())
    };

    for (i, expected) in oracle.iter().enumerate() {
        assert_eq!(&scan(i), expected, "healthy fleet diverged from the oracle on query {i}");
    }

    let injector = FaultInjector::new(0xF1EE7);
    bus.add_interceptor(Arc::new(injector.clone()));
    bus.reset_stats();
    for (i, expected) in oracle.iter().enumerate() {
        if i == QUERIES / 4 {
            for s in 0..SHARDS {
                let (replica, policy) = if s % 2 == 0 {
                    (0, FaultPolicy::default().drop(1.0))
                } else {
                    (1, FaultPolicy::default().busy(1.0))
                };
                injector.set_policy(fleet.router.replica_address(s, replica), policy);
            }
        }
        assert_eq!(&scan(i), expected, "chaos pass diverged from the oracle on query {i}");
    }
    let stats = bus.stats();
    assert!(stats.injected > 0, "the chaos was real");
    assert_eq!(stats.retries, stats.injected, "every injected fault costs one failover re-send");
    let down = (0..SHARDS)
        .flat_map(|s| (0..REPLICAS).map(move |r| (s, r)))
        .filter(|&(s, r)| !fleet.router.is_healthy(s, r))
        .count();
    assert!(down > 0, "the router noticed the dead and busy replicas");
}
