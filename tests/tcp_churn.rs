//! Connection churn: the TCP client pool against a server that drops
//! every Nth connection (after dispatch, before the reply — the
//! worst-case failure for idempotency, because the work happened and
//! only the acknowledgement is lost).
//!
//! Proves three things:
//! * a retrying client survives the churn — idempotent reads reconnect
//!   lazily and complete;
//! * access-class semantics hold across reconnects — a
//!   non-idempotent write whose reply is lost surfaces
//!   [`BusError::ConnectionLost`] *without* a re-send, so the service
//!   dispatches it exactly once;
//! * a server past its in-flight cap refuses with the same
//!   `Overloaded` + retry-after taxonomy the executor uses.

use dais::soap::bus::BusError;
use dais::soap::retry::{RetryConfig, SleepFn};
use dais::soap::tcp::{TcpConfig, TcpServer, TcpServerConfig, TcpTransport};
use dais::soap::{
    Bus, CallError, Envelope, Fault, RetryPolicy, ServiceClient, SoapDispatcher, Transport,
};
use dais::xml::XmlElement;
use dais_util::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ADDR: &str = "bus://churn";
mod actions {
    dais::soap::actions! {
        READ = "urn:read", Read;
        WRITE = "urn:write", Write;
    }
}

use actions::{READ, WRITE};

/// A service counting how many times each action was really dispatched.
fn counting_bus() -> (Bus, Arc<AtomicU64>, Arc<AtomicU64>) {
    let bus = Bus::new();
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let mut d = SoapDispatcher::new();
    let r = Arc::clone(&reads);
    d.register(READ, move |req: &Envelope| {
        r.fetch_add(1, Ordering::SeqCst);
        Ok(req.clone())
    });
    let w = Arc::clone(&writes);
    d.register(WRITE, move |req: &Envelope| {
        w.fetch_add(1, Ordering::SeqCst);
        Ok(req.clone())
    });
    bus.register(ADDR, Arc::new(d));
    (bus, reads, writes)
}

/// Single-connection pool, so the server's drop-every-Nth schedule maps
/// deterministically onto the request sequence.
fn serial_transport(server: &TcpServer) -> Arc<TcpTransport> {
    let transport = Arc::new(TcpTransport::new(TcpConfig { pool_size: 1, ..TcpConfig::default() }));
    transport.set_default_route(server.local_addr());
    transport
}

fn retry_client(bus: Bus) -> ServiceClient {
    let no_sleep: SleepFn = Arc::new(|_| {});
    let policy = RetryPolicy::new(10)
        .base_delay(Duration::from_micros(1))
        .max_delay(Duration::from_millis(1))
        .deadline(Duration::from_secs(5))
        .jitter_seed(0xC0FF);
    ServiceClient::new(bus, ADDR).with_retry(RetryConfig::new(policy).with_sleep(no_sleep))
}

fn payload(n: u64) -> XmlElement {
    XmlElement::new_local("m").with_text(n.to_string())
}

#[test]
fn retrying_reads_survive_the_server_dropping_every_third_connection() {
    let (bus, reads, _) = counting_bus();
    let server = TcpServer::bind_with(
        &bus,
        "127.0.0.1:0",
        TcpServerConfig { drop_every: 3, ..TcpServerConfig::default() },
    )
    .unwrap();
    bus.set_transport(serial_transport(&server));
    let client = retry_client(bus.clone());

    for n in 0..30u64 {
        let echoed = client.request(READ, payload(n)).unwrap_or_else(|e| {
            panic!("read {n} did not survive the churn: {e:?}");
        });
        assert_eq!(echoed.text(), n.to_string());
    }

    // The churn was real: replies were dropped, retries re-sent them on
    // fresh connections, and the pool reconnected at least once per
    // dropped connection.
    let retries = bus.stats().retries;
    assert!(retries >= 8, "expected roughly one retry per third response, saw {retries}");
    assert!(
        server.connections_accepted() > retries,
        "every dropped connection forces a reconnect ({} accepted, {retries} retries)",
        server.connections_accepted()
    );
    // Every successful read dispatched once, every dropped-reply attempt
    // dispatched once more before its retry.
    assert_eq!(reads.load(Ordering::SeqCst), 30 + retries);
}

#[test]
fn lost_replies_never_double_dispatch_non_idempotent_writes() {
    let (bus, _, writes) = counting_bus();
    let server = TcpServer::bind_with(
        &bus,
        "127.0.0.1:0",
        TcpServerConfig { drop_every: 3, ..TcpServerConfig::default() },
    )
    .unwrap();
    bus.set_transport(serial_transport(&server));
    // Only read actions retry: WRITE must never re-send.
    let client = retry_client(bus.clone());

    let mut ok = 0u64;
    let mut lost = 0u64;
    for n in 0..20u64 {
        match client.request(WRITE, payload(n)) {
            Ok(echoed) => {
                assert_eq!(echoed.text(), n.to_string());
                ok += 1;
            }
            Err(CallError::Transport(BusError::ConnectionLost(_))) => lost += 1,
            Err(other) => panic!("write {n} failed with a non-churn error: {other:?}"),
        }
    }

    // Serial single-connection schedule: every third reply is dropped.
    assert_eq!((ok, lost), (14, 6), "the drop schedule drifted");
    assert_eq!(bus.stats().retries, 0, "a non-idempotent write was re-sent across a reconnect");
    // THE invariant: each write reached the service exactly once —
    // including the six whose acknowledgements were destroyed.
    assert_eq!(writes.load(Ordering::SeqCst), 20);
}

#[test]
fn pool_reconnects_lazily_after_total_connection_loss() {
    let (bus, _, _) = counting_bus();
    let server = TcpServer::bind_with(
        &bus,
        "127.0.0.1:0",
        // Drop EVERY connection after its first response.
        TcpServerConfig { drop_every: 1, ..TcpServerConfig::default() },
    )
    .unwrap();
    bus.set_transport(serial_transport(&server));
    let client = retry_client(bus.clone());

    // Every reply is dropped: reads exhaust their attempt budget.
    let err = client.request(READ, payload(0)).unwrap_err();
    assert!(matches!(err, CallError::Transport(BusError::ConnectionLost(_))), "got {err:?}");
    assert_eq!(bus.stats().retries, 9, "budget of 10 attempts = 9 retries");
    assert!(server.connections_accepted() >= 10, "each attempt reconnected");
}

/// A handler that parks until released, reporting arrivals.
struct ParkedHandler {
    arrivals: Mutex<u64>,
    arrived: Condvar,
    open: Mutex<bool>,
    opened: Condvar,
}

impl ParkedHandler {
    fn new() -> Arc<ParkedHandler> {
        Arc::new(ParkedHandler {
            arrivals: Mutex::new(0),
            arrived: Condvar::new(),
            open: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    fn park(&self) {
        *self.arrivals.lock() += 1;
        self.arrived.notify_all();
        let mut open = self.open.lock();
        while !*open {
            open = self.opened.wait(open);
        }
    }

    fn wait_arrival(&self) {
        let mut n = self.arrivals.lock();
        while *n == 0 {
            n = self.arrived.wait(n);
        }
    }

    fn release(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }
}

#[test]
fn server_past_its_in_flight_cap_refuses_with_overloaded() {
    let bus = Bus::new();
    let parked = ParkedHandler::new();
    let handler = Arc::clone(&parked);
    let mut d = SoapDispatcher::new();
    d.register(READ, move |req: &Envelope| {
        handler.park();
        Ok(req.clone())
    });
    bus.register(ADDR, Arc::new(d));
    let hint = Duration::from_millis(9);
    let server = TcpServer::bind_with(
        &bus,
        "127.0.0.1:0",
        TcpServerConfig { max_in_flight: 1, retry_after: hint, ..TcpServerConfig::default() },
    )
    .unwrap();
    // Two connections, so the second request is not stuck behind the
    // first on a serial connection.
    let transport = Arc::new(TcpTransport::new(TcpConfig { pool_size: 2, ..TcpConfig::default() }));
    transport.set_default_route(server.local_addr());

    let occupier = {
        let transport = Arc::clone(&transport);
        std::thread::spawn(move || {
            let mut request = Vec::new();
            Envelope::with_body(payload(1)).to_bytes_into(&mut request);
            let mut response = Vec::new();
            transport.call(ADDR, READ.uri(), &request, &mut response)
        })
    };
    parked.wait_arrival();

    // The cap is occupied: the concurrent request is refused with the
    // executor's own taxonomy, hint included.
    let mut request = Vec::new();
    Envelope::with_body(payload(2)).to_bytes_into(&mut request);
    let mut response = Vec::new();
    match transport.call(ADDR, READ.uri(), &request, &mut response) {
        Err(BusError::Overloaded { endpoint, retry_after }) => {
            assert_eq!(endpoint, ADDR);
            assert_eq!(retry_after, hint);
        }
        other => panic!("expected Overloaded past the cap, got {other:?}"),
    }

    parked.release();
    assert!(occupier.join().unwrap().is_ok(), "the occupying request completes normally");

    // With the cap free again, the same request is served.
    let mut response = Vec::new();
    transport.call(ADDR, READ.uri(), &request, &mut response).unwrap();
    let env = Envelope::from_bytes(&response).unwrap();
    assert!(env.payload().and_then(Fault::from_xml).is_none());
}
