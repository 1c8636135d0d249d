//! Connection churn: the TCP client pool against a server that drops
//! every Nth connection (after dispatch, before the reply — the
//! worst-case failure for idempotency, because the work happened and
//! only the acknowledgement is lost).
//!
//! Proves two things:
//! * a retrying client survives the churn — idempotent reads reconnect
//!   lazily and complete;
//! * access-class semantics hold across reconnects — a
//!   non-idempotent write whose reply is lost surfaces
//!   [`BusError::ConnectionLost`] *without* a re-send, so the service
//!   dispatches it exactly once.

use dais::soap::bus::BusError;
use dais::soap::retry::{RetryConfig, SleepFn};
use dais::soap::tcp::{TcpConfig, TcpServer, TcpServerConfig, TcpTransport};
use dais::soap::{Bus, CallError, Envelope, RetryPolicy, ServiceClient, SoapDispatcher};
use dais::xml::XmlElement;
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
    let server =
        TcpServer::bind_with(&bus, "127.0.0.1:0", TcpServerConfig { drop_every: 3 }).unwrap();
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
    let server =
        TcpServer::bind_with(&bus, "127.0.0.1:0", TcpServerConfig { drop_every: 3 }).unwrap();
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
        TcpServerConfig { drop_every: 1 },
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
