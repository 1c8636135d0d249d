//! E7 (paper Figure 7 and §5): WSRF layering over core DAIS.
//!
//! The claims under test:
//! 1. WSRF is strictly additive — the core operations behave identically
//!    with and without the layer (the "upgrade path").
//! 2. Only WSRF deployments offer fine-grained property access.
//! 3. Only WSRF deployments offer soft-state lifetime; without it,
//!    resources live until explicit destroy.
//! 4. The abstract name stays in the message body in both deployments.

use dais::prelude::*;
use dais::soap::fault::DaisFault;
use dais::wsrf::LifetimeRegistry;
use dais::xml::ns;
use std::sync::Arc;

fn seeded() -> Database {
    let db = Database::new("w");
    db.execute_script(
        "CREATE TABLE t (a INTEGER PRIMARY KEY); INSERT INTO t VALUES (1), (2), (3);",
    )
    .unwrap();
    db
}

fn plain_service(bus: &Bus, address: &str) -> RelationalService {
    RelationalService::launch(bus, address, seeded(), Default::default())
}

fn wsrf_service(bus: &Bus, address: &str) -> (RelationalService, Arc<ManualClock>) {
    let clock = ManualClock::new();
    let svc = RelationalService::launch(
        bus,
        address,
        seeded(),
        RelationalServiceOptions {
            wsrf: Some(Arc::new(LifetimeRegistry::new(clock.clone()))),
            ..Default::default()
        },
    );
    (svc, clock)
}

#[test]
fn core_behaviour_is_identical_across_deployments() {
    let bus = Bus::new();
    // Addresses of equal length, so equal behaviour means equal bytes.
    let plain = plain_service(&bus, "bus://core");
    let (wsrf, _) = wsrf_service(&bus, "bus://wsrf");
    let cp = SqlClient::builder().bus(bus.clone()).address("bus://core").build();
    let cw = SqlClient::builder().bus(bus.clone()).address("bus://wsrf").build();

    // Same query, same result shape, same bytes on the wire both ways.
    bus.reset_stats();
    let rp = cp.execute(&plain.db_resource, "SELECT * FROM t ORDER BY a", &[]).unwrap();
    let rw = cw.execute(&wsrf.db_resource, "SELECT * FROM t ORDER BY a", &[]).unwrap();
    assert_eq!(rp.rowset().unwrap().rows, rw.rowset().unwrap().rows);
    let billed = |address: &str| {
        let s = bus.endpoint_stats(address);
        (s.messages, s.request_bytes, s.response_bytes)
    };
    assert_eq!(billed("bus://core").0, 1);
    assert_eq!(billed("bus://core"), billed("bus://wsrf"), "the WSRF layer is additive");

    // Same property documents (modulo the abstract name / description).
    let pp = cp.core().get_property_document(&plain.db_resource).unwrap();
    let pw = cw.core().get_property_document(&wsrf.db_resource).unwrap();
    assert_eq!(pp.readable, pw.readable);
    assert_eq!(pp.generic_query_languages, pw.generic_query_languages);
    assert_eq!(pp.dataset_maps, pw.dataset_maps);
}

#[test]
fn fine_grained_properties_require_wsrf() {
    let bus = Bus::new();
    let plain = plain_service(&bus, "bus://plain");
    let (wsrf, _) = wsrf_service(&bus, "bus://wsrf");
    let cp = SqlClient::builder().bus(bus.clone()).address("bus://plain").build();
    let cw = SqlClient::builder().bus(bus.clone()).address("bus://wsrf").build();

    // Plain: the operation does not exist.
    assert!(cp.core().get_resource_property(&plain.db_resource, "wsdai:Readable").is_err());

    // WSRF: single-property retrieval, and its value agrees with the
    // whole document.
    let prop = cw.core().get_resource_property(&wsrf.db_resource, "wsdai:Readable").unwrap();
    let whole = cw.core().get_property_document_xml(&wsrf.db_resource).unwrap();
    assert_eq!(prop[0].text(), whole.child_text(ns::WSDAI, "Readable").unwrap());

    // The single property is much smaller on the wire.
    let prop_bytes = dais::xml::to_string(&prop[0]).len();
    let whole_bytes = dais::xml::to_string(&whole).len();
    assert!(prop_bytes * 5 < whole_bytes, "{prop_bytes} vs {whole_bytes}");

    // XPath queries over the property document.
    let result = cw
        .core()
        .query_resource_properties(&wsrf.db_resource, "//wsdai:DatasetMap/wsdai:DatasetFormatURI")
        .unwrap();
    assert_eq!(result.elements().count(), 1);

    // As the catalog grows from 1 to 50 tables the whole document grows
    // with it, while the one property costs the same bytes.
    let catalog = |address: &str, tables: usize| {
        let db = Database::new("w");
        for t in 0..tables {
            db.execute(
                &format!(
                    "CREATE TABLE t{t} (id INTEGER PRIMARY KEY, a VARCHAR, b DOUBLE, c INTEGER)"
                ),
                &[],
            )
            .unwrap();
        }
        let options = RelationalServiceOptions {
            wsrf: Some(Arc::new(LifetimeRegistry::new(ManualClock::new()))),
            ..Default::default()
        };
        let svc = RelationalService::launch(&bus, address, db, options);
        let client = SqlClient::builder().bus(bus.clone()).address(address).build();
        bus.reset_stats();
        client.core().get_resource_property(&svc.db_resource, "wsdai:Readable").unwrap();
        let property = bus.stats().response_bytes;
        bus.reset_stats();
        client.core().get_property_document_xml(&svc.db_resource).unwrap();
        (property, bus.stats().response_bytes)
    };
    let (property_1, whole_1) = catalog("bus://cat01", 1);
    let (property_50, whole_50) = catalog("bus://cat50", 50);
    assert_eq!(property_1, property_50, "one property does not grow with the catalog");
    assert!(whole_50 > whole_1 * 5, "the whole document does: {whole_1} B vs {whole_50} B");
}

#[test]
fn soft_state_requires_wsrf() {
    let bus = Bus::new();
    let plain = plain_service(&bus, "bus://plain");
    let cp = SqlClient::builder().bus(bus.clone()).address("bus://plain").build();
    let epr = cp.execute_factory(&plain.db_resource, "SELECT 1", &[], None, None).unwrap();
    let derived = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    // No lifetime port on the plain service.
    assert!(cp.core().set_termination_time(&derived, Some(100)).is_err());
    // Explicit destroy is the only lifecycle mechanism, and it works.
    cp.core().destroy(&derived).unwrap();
}

#[test]
fn soft_state_expiry_and_renewal() {
    let bus = Bus::new();
    let (wsrf, clock) = wsrf_service(&bus, "bus://wsrf");
    let c = SqlClient::builder().bus(bus.clone()).address("bus://wsrf").build();

    let epr = c.execute_factory(&wsrf.db_resource, "SELECT * FROM t", &[], None, None).unwrap();
    let derived = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();

    // Lease, renew, lapse.
    assert_eq!(c.core().set_termination_time(&derived, Some(1_000)).unwrap(), Some(1_000));
    clock.advance(900);
    c.get_sql_rowset(&derived, 1).unwrap();
    c.core().set_termination_time(&derived, Some(1_000)).unwrap();
    clock.advance(900);
    c.get_sql_rowset(&derived, 1).unwrap(); // renewed, still alive
    clock.advance(200);
    let err = c.get_sql_rowset(&derived, 1).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::DataResourceUnavailable));

    // Clearing the termination time makes a resource permanent.
    let epr = c.execute_factory(&wsrf.db_resource, "SELECT 1", &[], None, None).unwrap();
    let forever = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    c.core().set_termination_time(&forever, Some(10)).unwrap();
    assert_eq!(c.core().set_termination_time(&forever, None).unwrap(), None);
    clock.advance(1_000_000);
    c.get_sql_rowset(&forever, 1).unwrap();
}

#[test]
fn sweeper_reaps_in_bulk() {
    let bus = Bus::new();
    let (wsrf, clock) = wsrf_service(&bus, "bus://wsrf");
    let c = SqlClient::builder().bus(bus.clone()).address("bus://wsrf").build();

    let mut names = Vec::new();
    for i in 0..5 {
        let epr = c.execute_factory(&wsrf.db_resource, "SELECT 1", &[], None, None).unwrap();
        let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        c.core().set_termination_time(&name, Some(100 * (i + 1))).unwrap();
        names.push(name);
    }
    assert_eq!(wsrf.ctx.registry.len(), 7); // db + monitoring + 5 derived
    clock.advance(250);
    let mut swept = wsrf.ctx.sweep_expired();
    swept.sort();
    assert_eq!(swept.len(), 2); // the 100ms and 200ms leases
    assert_eq!(wsrf.ctx.registry.len(), 5);
    clock.advance(10_000);
    assert_eq!(wsrf.ctx.sweep_expired().len(), 3);
    // The database and monitoring resources never had termination
    // times: still there.
    assert_eq!(wsrf.ctx.registry.len(), 2);
}

#[test]
fn wsrf_destroy_and_core_destroy_interchangeable() {
    let bus = Bus::new();
    let (wsrf, _) = wsrf_service(&bus, "bus://wsrf");
    let c = SqlClient::builder().bus(bus.clone()).address("bus://wsrf").build();

    let epr = c.execute_factory(&wsrf.db_resource, "SELECT 1", &[], None, None).unwrap();
    let a = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    c.core().wsrf_destroy(&a).unwrap();
    assert!(c.get_sql_rowset(&a, 1).is_err());

    let epr = c.execute_factory(&wsrf.db_resource, "SELECT 1", &[], None, None).unwrap();
    let b = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    c.core().destroy(&b).unwrap();
    assert!(c.get_sql_rowset(&b, 1).is_err());
}
