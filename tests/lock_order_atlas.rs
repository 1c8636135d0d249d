//! The lock-order atlas: drive the fabric's concurrent machinery —
//! executor queues, TCP transport + server, retry/chaos interceptors,
//! and a representative two-level resource hierarchy — then pin the
//! acquisition-order graph the lock-order detector observed as a golden
//! artifact.
//!
//! The golden is the *file-level* nesting contract: which modules hold
//! whose locks while taking others, and in which RwLock modes. A new
//! edge here is a design decision (extend the golden deliberately with
//! `DAIS_ATLAS_BLESS=1 cargo test --test lock_order_atlas`), not noise —
//! an inversion of an existing edge panics in the detector long before
//! this test diffs.
//!
//! Everything in one `#[test]` in its own integration binary: the edge
//! graph is process-global, and first-observed RwLock modes are part of
//! the pinned output, so observation order must be ours alone.
#![cfg(debug_assertions)]

use dais::soap::interceptor::{FaultInjector, FaultPolicy};
use dais::soap::retry::{RetryConfig, RetryPolicy};
use dais::soap::tcp::{TcpConfig, TcpServer, TcpServerConfig, TcpTransport};
use dais::soap::{Bus, Envelope, ExecutorConfig, ServiceClient, SoapDispatcher};
use dais::xml::XmlElement;
use dais_util::lockorder;
use dais_util::sync::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

mod actions {
    dais::soap::actions! {
        ECHO = "urn:atlas:echo", Read;
    }
}

use actions::ECHO;

fn payload(n: u64) -> XmlElement {
    XmlElement::new_local("m").with_text(n.to_string())
}

fn echo_bus() -> Bus {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(ECHO, |req: &Envelope| Ok(req.clone()));
    bus.register("bus://atlas", Arc::new(d));
    bus
}

/// In-process calls through the executor: shard queues, reply slots,
/// worker wakeups.
fn executor_workload() {
    let bus = echo_bus();
    bus.install_executor(ExecutorConfig::default());
    for n in 0..4 {
        let reply = bus.call("bus://atlas", ECHO.uri(), &Envelope::with_body(payload(n))).unwrap();
        assert!(reply.is_ok());
    }
    let pending: Vec<_> = (0..8)
        .map(|n| {
            bus.call_async("bus://atlas", ECHO.uri(), &Envelope::with_body(payload(n))).unwrap()
        })
        .collect();
    for p in pending {
        assert!(p.wait().unwrap().is_ok());
    }
    bus.shutdown_executor();
}

/// Chaos interceptor on the dispatch path plus the monitoring fold that
/// reads every interceptor's injection ledger under the chain lock.
fn interceptor_workload() {
    let bus = echo_bus();
    let injector = FaultInjector::new(7);
    injector
        .set_policy("bus://atlas", FaultPolicy { busy_probability: 1.0, ..FaultPolicy::default() });
    bus.add_interceptor(Arc::new(injector.clone()));
    let retry =
        RetryConfig::new(RetryPolicy::new(2).base_delay(std::time::Duration::from_nanos(1)))
            .with_sleep(Arc::new(|_| {}));
    let client = ServiceClient::new(bus.clone(), "bus://atlas").with_retry(retry);
    // Every attempt is answered with an injected ServiceBusy fault; the
    // point is the lock traffic, not the outcome.
    let _ = client.request(ECHO, payload(1));
    injector.set_policy("bus://atlas", FaultPolicy::default());
    let reply = client.request(ECHO, payload(2)).expect("clean call after chaos");
    assert_eq!(reply.text(), "2");
    // The monitoring fold: chain read lock held across each ledger lock.
    assert!(bus.stats().messages >= 1);
    bus.reset_stats();
}

/// Real sockets: server-side conn handling, client-side pool checkout
/// and reply slots.
fn tcp_workload() {
    let server_bus = echo_bus();
    let server =
        TcpServer::bind_with(&server_bus, "127.0.0.1:0", TcpServerConfig::default()).unwrap();
    let client_bus = Bus::new();
    let transport = Arc::new(TcpTransport::new(TcpConfig { pool_size: 1, ..TcpConfig::default() }));
    transport.set_default_route(server.local_addr());
    client_bus.set_transport(transport);
    for n in 0..3 {
        let reply =
            client_bus.call("bus://atlas", ECHO.uri(), &Envelope::with_body(payload(n))).unwrap();
        assert!(reply.is_ok());
    }
    server.shutdown();
}

/// A representative two-level resource hierarchy — a catalog RwLock over
/// per-table Mutexes — pinning the RwLock mode semantics: shared-shared
/// nesting never edges, everything else does (and the first-observed
/// mode pair is what the golden shows).
fn hierarchy_workload() {
    let catalog = RwLock::new(vec!["orders"]);
    let manifest = RwLock::new(0u64);
    let table = Mutex::new(0u64);

    // Reader → table (recorded as R->W; the later writer → table nesting
    // reuses the same class pair, first observation wins).
    {
        let names = catalog.read();
        assert_eq!(names.len(), 1);
        *table.lock() += 1;
    }
    {
        let _names = catalog.write();
        *table.lock() += 1;
    }
    // Shared-shared: two read guards nested — must leave NO edge.
    {
        let _names = catalog.read();
        let _rev = manifest.read();
    }
    let snap = lockorder::snapshot();
    assert!(
        !snap.iter().any(|e| e.from.file.ends_with("lock_order_atlas.rs")
            && e.to.file.ends_with("lock_order_atlas.rs")
            && e.from_mode == lockorder::Mode::Shared
            && e.to_mode == lockorder::Mode::Shared),
        "read-read nesting must not record an edge: {snap:?}"
    );
}

/// Collapse the site-level snapshot to sorted, deduped file-level lines:
/// `<holder-file> [R|W] -> <acquired-file> [R|W]`.
fn normalise() -> String {
    let lines: BTreeSet<String> = lockorder::snapshot()
        .iter()
        .map(|e| format!("{} [{}] -> {} [{}]", e.from.file, e.from_mode, e.to.file, e.to_mode))
        .collect();
    let mut out: String = lines.into_iter().collect::<Vec<_>>().join("\n");
    out.push('\n');
    out
}

#[test]
fn atlas_matches_golden() {
    executor_workload();
    interceptor_workload();
    tcp_workload();
    hierarchy_workload();

    let atlas = normalise();

    // The Graphviz export renders the same graph: every atlas file shows
    // up as a node and the digraph is syntactically complete.
    let dot = lockorder::dot();
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
    assert!(dot.ends_with("}\n"), "{dot}");
    for file in ["bus.rs", "interceptor.rs", "lock_order_atlas.rs"] {
        assert!(dot.contains(file), "dot export is missing {file}:\n{dot}");
    }

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lock_order_atlas.txt");
    if std::env::var_os("DAIS_ATLAS_BLESS").is_some() {
        std::fs::write(&golden_path, &atlas).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/lock_order_atlas.txt (run with DAIS_ATLAS_BLESS=1 to create)");
    assert_eq!(
        atlas, golden,
        "\nlock-order atlas drifted. If the new nesting is intentional, re-pin with\n\
         DAIS_ATLAS_BLESS=1 cargo test --test lock_order_atlas\n"
    );
}
