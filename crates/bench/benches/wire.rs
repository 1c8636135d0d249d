//! The `wire` benchmark group: the wire path measured end to end — a
//! full `Bus::call` echo (plain, traced, and busy inline vs pipelined
//! through the executor), WebRowSet encoding of 1 000 rows, and
//! `GetTuples` pages with and without pushdown.
//!
//! CI's bench-smoke job runs this target with `DAIS_BENCH_QUICK=1`
//! (fewer iterations, same benches). The gated trajectory lives in
//! `daisbench` (`benchmark/README.md`), not here.

use dais_bench::workload::populate_items;
use dais_core::{AbstractName, DaisClient};
use dais_dair::{messages, RelationalService, SqlClient};
use dais_soap::envelope::Envelope;
use dais_soap::service::SoapDispatcher;
use dais_soap::{Bus, ExecutorConfig, Pending};
use dais_sql::{Database, Rowset, Value};
use dais_util::PooledBuf;
use dais_xml::{ns, XmlWriter};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    bench: String,
    iters: u64,
    ns_per_iter: f64,
    bytes_per_iter: u64,
}

fn quick() -> bool {
    std::env::var_os("DAIS_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Scale a full-run iteration count down for the CI smoke mode.
fn iters(full: u64) -> u64 {
    if quick() {
        (full / 100).clamp(2, 10)
    } else {
        full
    }
}

/// Time `iters` calls of `f` (after a short warm-up) and report ns/iter.
fn time_iters(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn item_rowset(rows: usize) -> Rowset {
    let db = Database::new("wire");
    populate_items(&db, rows, 32);
    db.execute("SELECT * FROM item", &[]).unwrap().rowset().unwrap().clone()
}

/// End-to-end `Bus::call` echo: both legs serialised, routed and parsed.
fn bus_echo(out: &mut Vec<Row>) {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register("urn:echo", |req: &Envelope| Ok(req.clone()));
    bus.register("bus://wire", Arc::new(d));
    let name = AbstractName::new("urn:dais:b:db:0").unwrap();
    let env = Envelope::with_body(messages::sql_execute_request(
        &name,
        ns::ROWSET,
        "SELECT * FROM item WHERE category = ? AND price > ?",
        &[Value::Int(3), Value::Double(10.0)],
    ));
    let n = iters(2000);
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        black_box(bus.call("bus://wire", "urn:echo", &env).unwrap().unwrap());
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: "bus_echo/sql_execute_request".into(),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / (n + 2), // warm-up iterations also hit the bus
    });
}

/// The same echo with correlated tracing enabled: every call opens the
/// bus.call/bus.request/bus.dispatch/bus.response span quartet and the
/// response gains a `wsa:RelatesTo` header. Reported next to `bus_echo`
/// so the baseline bounds the enabled-tracing overhead.
fn bus_echo_traced(out: &mut Vec<Row>) {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register("urn:echo", |req: &Envelope| Ok(req.clone()));
    bus.register("bus://wire", Arc::new(d));
    bus.enable_tracing(0xB13);
    let name = AbstractName::new("urn:dais:b:db:0").unwrap();
    let env = Envelope::with_body(messages::sql_execute_request(
        &name,
        ns::ROWSET,
        "SELECT * FROM item WHERE category = ? AND price > ?",
        &[Value::Int(3), Value::Double(10.0)],
    ))
    // A `wsa:MessageID` carrying a trace context, as `ServiceClient`
    // sends: the dispatch span joins it and the response echoes it back
    // in `wsa:RelatesTo`.
    .with_header(
        dais_xml::XmlElement::new(ns::WSA, "wsa", "MessageID")
            .with_text("urn:dais:trace:00000000000000ab:00000000000000cd"),
    );
    let n = iters(2000);
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        black_box(bus.call("bus://wire", "urn:echo", &env).unwrap().unwrap());
        // Drain the sink every iteration, like a live exporter would, so
        // span storage stays flat and its cost is part of the figure.
        black_box(bus.obs().tracer.take());
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: "bus_echo_traced/sql_execute_request".into(),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / (n + 2),
    });
}

/// Simulated per-request service time for the pipelining pair. A real
/// data service blocks per request (query evaluation, page faults, lock
/// waits); the executor's job is to overlap exactly that. The pure-echo
/// benches above keep measuring the bare wire cost.
const SERVICE_TIME: std::time::Duration = std::time::Duration::from_micros(40);

fn busy_bus() -> (Bus, Envelope) {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register("urn:echo", |req: &Envelope| {
        std::thread::sleep(SERVICE_TIME);
        Ok(req.clone())
    });
    bus.register("bus://wire", Arc::new(d));
    let name = AbstractName::new("urn:dais:b:db:0").unwrap();
    let env = Envelope::with_body(messages::sql_execute_request(
        &name,
        ns::ROWSET,
        "SELECT * FROM item WHERE category = ? AND price > ?",
        &[Value::Int(3), Value::Double(10.0)],
    ));
    (bus, env)
}

/// The busy echo taken inline: every call pays the full service time on
/// the caller's thread. The baseline the executor is judged against.
fn bus_echo_busy(out: &mut Vec<Row>) {
    let (bus, env) = busy_bus();
    let n = iters(1000);
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        black_box(bus.call("bus://wire", "urn:echo", &env).unwrap().unwrap());
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: "bus_echo_busy/service40us".into(),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / (n + 2),
    });
}

/// The same busy echo through the sharded executor with a sliding window
/// of eight requests in flight (`Bus::call_async`), final drain included
/// in the timed region. Four workers overlap the per-request service
/// time, so ns/iter here is the *throughput* figure the executor buys
/// over `bus_echo_busy` — the pure-CPU wire cost stays serial on a
/// single-core host, the blocking service time does not.
fn bus_pipelined(out: &mut Vec<Row>) {
    let (bus, env) = busy_bus();
    // One endpoint lives on one shard; a single shard puts all four
    // workers behind it instead of the round-robin default of two.
    bus.install_executor(ExecutorConfig::new(4).shards(1).queue_capacity(64).seed(0xB15));
    let window = 8;
    let n = iters(1000);
    // Warm-up rides the queued path too.
    for _ in 0..2 {
        bus.call("bus://wire", "urn:echo", &env).unwrap().unwrap();
    }
    let before = bus.stats();
    let start = Instant::now();
    let mut in_flight: std::collections::VecDeque<Pending> = std::collections::VecDeque::new();
    for _ in 0..n {
        if in_flight.len() == window {
            let oldest = in_flight.pop_front().unwrap();
            black_box(oldest.wait().unwrap().unwrap());
        }
        in_flight.push_back(bus.call_async("bus://wire", "urn:echo", &env).unwrap());
    }
    for pending in in_flight {
        black_box(pending.wait().unwrap().unwrap());
    }
    let ns_per_iter = start.elapsed().as_nanos() as f64 / n as f64;
    let after = bus.stats();
    bus.shutdown_executor();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: "bus_pipelined/service40us_workers4_window8".into(),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / n,
    });
}

/// WebRowSet encoding of a held rowset into a pooled buffer.
fn rowset_stream(out: &mut Vec<Row>, rows: usize) {
    let rowset = item_rowset(rows);
    let mut buf = PooledBuf::take();
    let encode = |buf: &mut Vec<u8>| {
        buf.clear();
        let mut w = XmlWriter::new(buf);
        rowset.write_into(&mut w);
        w.finish();
    };
    encode(&mut buf);
    let bytes_per_iter = buf.len() as u64;
    let n = iters(200);
    let ns_per_iter = time_iters(n, || {
        encode(&mut buf);
        black_box(buf.len());
    });
    out.push(Row { bench: format!("rowset_stream/{rows}"), iters: n, ns_per_iter, bytes_per_iter });
}

/// A `GetTuples` page of 1 000 rows through the full indirect-access
/// pipeline: rowset resource derived from a response resource.
fn get_tuples_page(out: &mut Vec<Row>, rows: usize) {
    let bus = Bus::new();
    let db = Database::new("wire");
    populate_items(&db, rows, 32);
    let svc = RelationalService::launch(&bus, "bus://wire", db, Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://wire").build();
    let epr = client
        .execute_factory(&svc.db_resource, "SELECT * FROM item ORDER BY id", &[], None, None)
        .unwrap();
    let response_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response_name, None, None).unwrap();
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    let n = iters(30);
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        let page = client.get_tuples(&rowset_name, 0, rows).unwrap();
        assert_eq!(page.row_count(), rows);
        black_box(page);
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: format!("get_tuples/{rows}"),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / (n + 2),
    });
}

/// `GetTuples` paging over a response whose factory statement pushed its
/// projection (and, in the `projection_` variant, its selection) into
/// the table scan: the wide 256-byte `payload` column is never copied
/// into the materialised response rowset, and pages stream a fraction
/// of the stored bytes.
fn get_tuples_pushdown(out: &mut Vec<Row>, bench: &str, rows: usize, sql: &str) {
    let bus = Bus::new();
    let db = Database::new("wire");
    populate_items(&db, rows, 256);
    let svc = RelationalService::launch(&bus, "bus://wire", db, Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://wire").build();
    let epr = client.execute_factory(&svc.db_resource, sql, &[], None, None).unwrap();
    let response_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response_name, None, None).unwrap();
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    let n = iters(if rows > 2000 { 10 } else { 30 });
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        let page = client.get_tuples(&rowset_name, 0, rows).unwrap();
        black_box(page.row_count());
        black_box(page);
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row { bench: bench.into(), iters: n, ns_per_iter, bytes_per_iter: moved / (n + 2) });
}

fn main() {
    let mut rows = Vec::new();
    println!("== wire{}", if quick() { " (quick mode)" } else { "" });
    bus_echo(&mut rows);
    bus_echo_traced(&mut rows);
    bus_echo_busy(&mut rows);
    bus_pipelined(&mut rows);
    rowset_stream(&mut rows, 1000);
    get_tuples_page(&mut rows, 1000);
    get_tuples_pushdown(
        &mut rows,
        "get_tuples_pushdown/1000",
        1000,
        "SELECT id, category, price FROM item ORDER BY id",
    );
    get_tuples_pushdown(
        &mut rows,
        "get_tuples_pushdown/10000",
        10_000,
        "SELECT id, category, price FROM item ORDER BY id",
    );
    get_tuples_pushdown(
        &mut rows,
        "get_tuples_pushdown/projection_1000",
        1000,
        "SELECT id FROM item WHERE category < 3 ORDER BY id",
    );
    for r in &rows {
        println!(
            "  wire/{}: {:>12.1} ns/iter  {:>8} bytes/iter  ({} iters)",
            r.bench, r.ns_per_iter, r.bytes_per_iter, r.iters
        );
    }
    let plain = rows.iter().find(|r| r.bench.starts_with("bus_echo/")).unwrap();
    let traced = rows.iter().find(|r| r.bench.starts_with("bus_echo_traced/")).unwrap();
    println!(
        "  tracing overhead: {:+.1}% per echo round trip",
        (traced.ns_per_iter / plain.ns_per_iter - 1.0) * 100.0
    );
    let busy = rows.iter().find(|r| r.bench.starts_with("bus_echo_busy/")).unwrap();
    let pipelined = rows.iter().find(|r| r.bench.starts_with("bus_pipelined/")).unwrap();
    println!(
        "  pipelining speed-up: {:.2}x echo throughput (4 workers, window 8, 40us service)",
        busy.ns_per_iter / pipelined.ns_per_iter
    );
    let stream = rows.iter().find(|r| r.bench == "rowset_stream/1000").unwrap();
    let page = rows.iter().find(|r| r.bench == "get_tuples/1000").unwrap();
    println!(
        "  get_tuples/1000 vs rowset_stream/1000: {:.2}x (streamed page over bare encoding)",
        page.ns_per_iter / stream.ns_per_iter
    );
}
