//! A dropped fleet leaves nothing behind: once its last `Bus` handle and
//! the fleet itself are gone, every replica's service state is freed and
//! its leg helpers have stopped.
//!
//! This is the only test in its binary, so no sibling test's threads
//! move the process's thread count while it reads it.

use dais_core::{DaisClient, ServiceContext};
use dais_dair::SqlClient;
use dais_daix::XmlClient;
use dais_federation::{FleetOptions, RelationalFleet, ShardScheme, XmlFleet};
use dais_soap::Bus;
use dais_sql::Value;
use dais_xml::XmlElement;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status carries a thread count")
}

/// Wait until the thread count reads `want` (a joined thread leaves the
/// count when the kernel reaps it, a moment after `join` returns), and
/// say whether it did within a few seconds.
fn threads_settle_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != want {
        if Instant::now() >= deadline {
            return false;
        }
        dais_util::sync::pause(Duration::from_millis(1));
    }
    true
}

fn options() -> FleetOptions {
    FleetOptions { shards: 2, replicas: 1, ..FleetOptions::default() }
}

/// Launch a 2 × 1 relational fleet, answer one scatter, and hand back a
/// weak handle to a replica's service state.
fn relational_round() -> Weak<ServiceContext> {
    let bus = Bus::new();
    let fleet = RelationalFleet::launch(
        &bus,
        "drop-sql",
        "CREATE TABLE t (k INTEGER PRIMARY KEY)",
        ShardScheme::Hash { column: "k".into() },
        options(),
    );
    for k in 0..4 {
        fleet.ingest(&Value::Int(k), "INSERT INTO t VALUES (?)", &[Value::Int(k)]).unwrap();
    }
    let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
    let data = client.execute(fleet.resource().resource(), "SELECT k FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().row_count(), 4);
    Arc::downgrade(&fleet.services[1][0].ctx)
}

/// The same for a 2 × 1 XML fleet.
fn xml_round() -> Weak<ServiceContext> {
    let bus = Bus::new();
    let fleet = XmlFleet::launch(&bus, "drop-xml", options());
    for i in 0..4 {
        let book = XmlElement::new_local("book").with_attr("id", i.to_string());
        assert_eq!(fleet.ingest(&format!("b{i}"), &book).unwrap(), "Success");
    }
    let client = XmlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
    assert_eq!(client.xpath(fleet.resource().resource(), "/book").unwrap().len(), 4);
    Arc::downgrade(&fleet.services[1][0].ctx)
}

#[test]
fn a_dropped_fleet_frees_its_replicas_and_stops_its_helpers() {
    let start = threads();
    for round in 0..20 {
        for (kind, replica) in [("relational", relational_round()), ("XML", xml_round())] {
            assert!(
                replica.upgrade().is_none(),
                "round {round}: a replica of the dropped {kind} fleet is still alive"
            );
            assert!(
                threads_settle_at(start),
                "round {round}: {} threads after dropping the {kind} fleet, want {start}",
                threads()
            );
        }
    }
}
