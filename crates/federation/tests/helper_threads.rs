//! A federation's leg helpers live exactly as long as the service that
//! started them.
//!
//! This is the only test in its binary, so no sibling test's threads
//! move the process's thread count while it reads it.

use dais_core::DaisClient;
use dais_dair::SqlClient;
use dais_federation::{FleetOptions, RelationalFleet, ShardScheme};
use dais_soap::Bus;
use dais_sql::Value;
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

/// Wait until the thread count reads `want`, and say whether it did
/// within a few seconds. A joined thread can still be counted for a
/// moment: `join` returns once the thread has finished running, and the
/// kernel drops it from `Threads:` a little later, when it reaps it.
fn threads_settle_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if threads() == want {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        dais_util::sync::pause(Duration::from_millis(1));
    }
}

/// Launching and dropping 20 four-shard fleets, each answering one
/// scatter on its helpers, leaves the thread count where it started;
/// while a fleet lives it holds exactly its three helpers.
#[test]
fn dropping_a_fleet_stops_its_helpers() {
    let start = threads();
    for round in 0..20 {
        let bus = Bus::new();
        let fleet = RelationalFleet::launch(
            &bus,
            "threads",
            "CREATE TABLE t (k INTEGER PRIMARY KEY)",
            ShardScheme::Hash { column: "k".into() },
            FleetOptions { shards: 4, replicas: 1, ..FleetOptions::default() },
        );
        assert!(
            threads_settle_at(start + 3),
            "round {round}: {} threads, want {} (one helper per shard beyond the first)",
            threads(),
            start + 3
        );
        for k in 0..8 {
            fleet.ingest(&Value::Int(k), "INSERT INTO t VALUES (?)", &[Value::Int(k)]).unwrap();
        }
        let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
        let data = client.execute(fleet.resource().resource(), "SELECT k FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().row_count(), 8);
        drop(client);
        drop(fleet);
        assert!(
            threads_settle_at(start),
            "round {round}: {} threads, want {start}: the helpers outlived their fleet",
            threads()
        );
    }
}
