//! The `wire/tcp_echo` benchmark group: the same SQLExecute echo the
//! `wire` group measures in process, taken over the real TCP transport
//! on loopback — one frame round trip per call — plus a many-connection
//! echo storm exercising the connection pool and the server's
//! per-connection threads together.
//!
//! The in-process echo is re-measured in the same run so the TCP column
//! is read against a baseline from the same build and host. CI's
//! bench-smoke job runs this target with `DAIS_BENCH_QUICK=1`.

use dais_core::AbstractName;
use dais_dair::messages;
use dais_soap::envelope::Envelope;
use dais_soap::service::SoapDispatcher;
use dais_soap::{Bus, TcpConfig, TcpServer, TcpTransport};
use dais_sql::Value;
use dais_xml::ns;
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

fn iters(full: u64) -> u64 {
    if quick() {
        (full / 100).clamp(2, 10)
    } else {
        full
    }
}

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

fn echo_bus() -> (Bus, Envelope) {
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
    (bus, env)
}

/// One serial echo over a transport already installed on `bus` (or the
/// in-process path when none is). Bytes are billed identically on every
/// transport, so `bytes_per_iter` doubles as a parity check against the
/// `wire` group's `bus_echo` row.
fn echo(out: &mut Vec<Row>, bus: &Bus, env: &Envelope, label: &str) {
    let n = iters(2000);
    let before = bus.stats();
    let ns_per_iter = time_iters(n, || {
        black_box(bus.call("bus://wire", "urn:echo", env).unwrap().unwrap());
    });
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: format!("{label}/sql_execute_request"),
        iters: n,
        ns_per_iter,
        bytes_per_iter: moved / (n + 2),
    });
}

/// The echo storm: `threads` caller threads share one bus and one pooled
/// transport against a single server, every call a full frame round
/// trip. Reported ns/iter is aggregate wall time over total calls, i.e.
/// the throughput figure for a many-connection client.
fn tcp_echo_storm(out: &mut Vec<Row>, threads: usize) {
    let (bus, env) = echo_bus();
    let server = TcpServer::bind(&bus, "127.0.0.1:0").unwrap();
    let transport =
        Arc::new(TcpTransport::new(TcpConfig { pool_size: threads, ..TcpConfig::default() }));
    transport.set_default_route(server.local_addr());
    bus.set_transport(transport);

    let per_thread = iters(500);
    let total = per_thread * threads as u64;
    let before = bus.stats();
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let bus = bus.clone();
            let env = env.clone();
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    black_box(bus.call("bus://wire", "urn:echo", &env).unwrap().unwrap());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let ns_per_iter = start.elapsed().as_nanos() as f64 / total as f64;
    let after = bus.stats();
    let moved = (after.request_bytes + after.response_bytes)
        - (before.request_bytes + before.response_bytes);
    out.push(Row {
        bench: format!("tcp_echo_storm/threads{threads}"),
        iters: total,
        ns_per_iter,
        bytes_per_iter: moved / total,
    });
    assert!(
        server.connections_accepted() >= threads as u64,
        "the storm should fan out over the whole pool"
    );
}

fn main() {
    let mut rows = Vec::new();
    println!("== wire/tcp_echo{}", if quick() { " (quick mode)" } else { "" });

    // In-process baseline from this same build and host.
    let (bus, env) = echo_bus();
    echo(&mut rows, &bus, &env, "inproc_echo");

    // The same echo through a loopback TCP frame round trip.
    let (bus, env) = echo_bus();
    let server = TcpServer::bind(&bus, "127.0.0.1:0").unwrap();
    let transport = Arc::new(TcpTransport::default());
    transport.set_default_route(server.local_addr());
    bus.set_transport(transport);
    echo(&mut rows, &bus, &env, "tcp_echo");
    drop(server);

    tcp_echo_storm(&mut rows, 4);
    tcp_echo_storm(&mut rows, 16);

    for r in &rows {
        println!(
            "  wire/{}: {:>12.1} ns/iter  {:>8} bytes/iter  ({} iters)",
            r.bench, r.ns_per_iter, r.bytes_per_iter, r.iters
        );
    }
    let inproc = rows.iter().find(|r| r.bench.starts_with("inproc_echo/")).unwrap();
    let tcp = rows.iter().find(|r| r.bench.starts_with("tcp_echo/")).unwrap();
    println!(
        "  loopback TCP cost: {:.2}x the in-process echo ({:+.1} us per round trip)",
        tcp.ns_per_iter / inproc.ns_per_iter,
        (tcp.ns_per_iter - inproc.ns_per_iter) / 1000.0
    );
    assert_eq!(
        inproc.bytes_per_iter, tcp.bytes_per_iter,
        "stats billing must be transport-invariant"
    );
}
