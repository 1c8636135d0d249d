//! E1 (paper Figure 1): direct vs indirect access.
//!
//! The figure's point: with direct access, result data flows back to the
//! requesting consumer; with indirect access the requesting consumer only
//! receives an EPR, and the data is pulled later (possibly by someone
//! else). We verify both the mechanics and the quantitative claim —
//! "avoids unnecessary data movement" — using the bus byte meters.

mod common;

use common::populate_items;
use dais::prelude::*;

fn service_with_rows(bus: &Bus, address: &str, rows: usize) -> RelationalService {
    let db = Database::new("e1");
    populate_items(&db, rows, 32);
    RelationalService::launch(bus, address, db, Default::default())
}

#[test]
fn direct_access_returns_data_in_response() {
    let bus = Bus::new();
    let svc = service_with_rows(&bus, "bus://e1a", 200);
    let client = SqlClient::builder().bus(bus.clone()).address("bus://e1a").build();

    bus.reset_stats();
    let data = client.execute(&svc.db_resource, "SELECT * FROM item", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().row_count(), 200);
    let m = bus.stats();
    // One request/response pair; the response carries the rows.
    assert_eq!(m.messages, 1);
    assert!(
        m.response_bytes > 200 * 32,
        "direct response must carry the payload ({} B)",
        m.response_bytes
    );
}

#[test]
fn indirect_access_returns_only_an_epr() {
    let bus = Bus::new();
    let svc = service_with_rows(&bus, "bus://e1b", 200);
    let consumer1 = SqlClient::builder().bus(bus.clone()).address("bus://e1b").build();

    // Consumer 1 pays only for the factory exchange.
    bus.reset_stats();
    let epr =
        consumer1.execute_factory(&svc.db_resource, "SELECT * FROM item", &[], None, None).unwrap();
    let m1 = bus.stats();
    assert_eq!(m1.messages, 1);
    assert!(
        m1.response_bytes < 2048,
        "factory response is an EPR, not data ({} B)",
        m1.response_bytes
    );

    // Consumer 2 pulls the actual rows.
    let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let consumer2 = SqlClient::builder().bus(bus.clone()).epr(epr).build();
    bus.reset_stats();
    let rowset = consumer2.get_sql_rowset(&name, 1).unwrap();
    assert_eq!(rowset.row_count(), 200);
    let m2 = bus.stats();
    assert!(m2.response_bytes > m1.response_bytes * 10, "the data dwarfs the EPR");
}

/// The crossover claim: as result size grows, the indirect pattern's
/// per-consumer1 cost stays flat while direct access grows linearly. The
/// factory reply is an EPR, so at equal-length addresses it is the same
/// number of bytes whatever the result size.
#[test]
fn indirect_cost_at_consumer1_is_size_independent() {
    let bus = Bus::new();
    let small = service_with_rows(&bus, "bus://e1small", 10);
    let large = service_with_rows(&bus, "bus://e1large", 1000);
    let response_bytes = |address: &str, svc: &RelationalService, factory: bool| {
        let client = SqlClient::builder().bus(bus.clone()).address(address).build();
        bus.reset_stats();
        if factory {
            client
                .execute_factory(&svc.db_resource, "SELECT * FROM item", &[], None, None)
                .unwrap();
        } else {
            client.execute(&svc.db_resource, "SELECT * FROM item", &[]).unwrap();
        }
        bus.stats().response_bytes
    };

    // Direct grows ~linearly with rows (100x rows ⇒ ≫10x bytes).
    let direct_small = response_bytes("bus://e1small", &small, false);
    let direct_large = response_bytes("bus://e1large", &large, false);
    assert!(direct_large > direct_small * 10);
    // Indirect's consumer-1 response does not grow at all.
    let factory_small = response_bytes("bus://e1small", &small, true);
    let factory_large = response_bytes("bus://e1large", &large, true);
    assert_eq!(factory_small, factory_large, "the factory reply must not scale with the result");
}

/// Third-party delivery: the EPR is a plain value that consumer 1 can hand
/// to consumer 2; consumer 2 needs no prior relationship with the service.
#[test]
fn epr_transfers_between_consumers() {
    let bus = Bus::new();
    let svc = service_with_rows(&bus, "bus://e1c", 50);
    let consumer1 = SqlClient::builder().bus(bus.clone()).address("bus://e1c").build();
    let epr = consumer1
        .execute_factory(
            &svc.db_resource,
            "SELECT id FROM item WHERE category = 0",
            &[],
            None,
            None,
        )
        .unwrap();

    // Serialise the EPR (as consumer 1 would to send it to consumer 2),
    // then reconstruct it on the other side.
    let wire = dais::xml::to_string(&epr.to_xml());
    let revived = Epr::from_xml(&dais::xml::parse(&wire).unwrap()).unwrap();
    assert_eq!(revived, epr);

    let name = AbstractName::new(revived.resource_abstract_name().unwrap()).unwrap();
    let consumer2 = SqlClient::builder().bus(bus).epr(revived).build();
    let rowset = consumer2.get_sql_rowset(&name, 1).unwrap();
    assert!(rowset.row_count() > 0);
}
