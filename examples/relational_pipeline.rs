//! The Figure 5 scenario, faithfully: three data services, three
//! consumers, two factory hops and a paged pull.
//!
//! * Data Service 1 (SQLAccess + SQLFactory) wraps the relational
//!   database. Consumer 1 calls `SQLExecuteFactory`, creating a derived
//!   SQL-response resource **on Data Service 2**.
//! * Consumer 2, given the EPR, calls `SQLRowsetFactory` on Data Service
//!   2, deriving a web-rowset resource **on Data Service 3**.
//! * Consumer 3, given that EPR, pages tuples out with `GetTuples`.
//!
//! Note how the result set never travels through consumers 1 or 2 — the
//! indirect access pattern as "an indirect form of third party delivery"
//! (paper §3).
//!
//! Run with: `cargo run --example relational_pipeline`

use dais::core::properties::names;
use dais::core::{register_core_ops, NameGenerator, ResourceRegistry, ServiceContext};
use dais::dair::resources::SqlDataResource;
use dais::dair::service as dair_service;
use dais::prelude::*;
use dais::soap::service::SoapDispatcher;
use std::sync::Arc;

fn main() {
    let bus = Bus::new();

    // ---- The substrate: an order database -------------------------------
    let db = Database::new("orders");
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, customer VARCHAR, total DOUBLE)", &[])
        .unwrap();
    let mut rows = Vec::new();
    for i in 0..500 {
        rows.push(format!("({i}, 'customer{}', {}.50)", i % 40, (i * 7) % 900));
    }
    db.execute(&format!("INSERT INTO orders VALUES {}", rows.join(", ")), &[]).unwrap();

    // ---- Three data services, as in Figure 5 ----------------------------
    let names = Arc::new(NameGenerator::new("pipeline"));

    let svc3 = Arc::new(ServiceContext {
        address: "bus://data-service-3".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d3 = SoapDispatcher::new();
    register_core_ops(&mut d3, svc3.clone());
    dair_service::register_rowset_access(&mut d3, svc3.clone()); // SQLRowsetAccess
    bus.register(&svc3.address, Arc::new(d3));

    let svc2 = Arc::new(ServiceContext {
        address: "bus://data-service-2".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d2 = SoapDispatcher::new();
    register_core_ops(&mut d2, svc2.clone());
    dair_service::register_response_access(&mut d2, svc2.clone()); // SQLResponseAccess
    dair_service::register_response_factory(&mut d2, svc2.clone(), svc3.clone(), names.clone()); // → svc3
    bus.register(&svc2.address, Arc::new(d2));

    let svc1 = Arc::new(ServiceContext {
        address: "bus://data-service-1".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d1 = SoapDispatcher::new();
    register_core_ops(&mut d1, svc1.clone());
    dair_service::register_sql_access(&mut d1, svc1.clone()); // SQLAccess
    dair_service::register_sql_factory(&mut d1, svc1.clone(), svc2.clone(), names.clone()); // → svc2
    bus.register(&svc1.address, Arc::new(d1));

    let db_name = names.mint("db");
    svc1.add_resource(Arc::new(SqlDataResource::new(db_name.clone(), db)));
    println!("three services up; database resource {db_name} on {}", svc1.address);

    // ---- Consumer 1: SQLExecuteFactory on Data Service 1 ----------------
    let consumer1 = SqlClient::builder().bus(bus.clone()).address(svc1.address.clone()).build();
    let response_epr = consumer1
        .execute_factory(
            &db_name,
            "SELECT customer, total FROM orders WHERE total > 500 ORDER BY total DESC",
            &[],
            Some("wsdair:SQLResponseAccessPT"),
            None,
        )
        .unwrap();
    println!(
        "\nconsumer 1: factory returned EPR → {} (resource {})",
        response_epr.address,
        response_epr.resource_abstract_name().unwrap()
    );
    assert_eq!(response_epr.address, svc2.address, "derived resource lives on Data Service 2");

    // Consumer 1 passes the EPR to consumer 2 (a plain value — that's the
    // whole point of third-party delivery).

    // ---- Consumer 2: SQLRowsetFactory on Data Service 2 -----------------
    let response_name = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    let consumer2 = SqlClient::builder().bus(bus.clone()).epr(response_epr).build();
    let props = consumer2.get_response_property_document(&response_name).unwrap();
    println!(
        "consumer 2: response has {} rowset(s)",
        names::NUMBER_OF_SQL_ROWSETS.text_in(&props).unwrap()
    );
    let rowset_epr = consumer2
        .rowset_factory(&response_name, Some(100), Some("wsdair:SQLRowsetAccessPT"))
        .unwrap();
    println!(
        "consumer 2: rowset factory returned EPR → {} (resource {})",
        rowset_epr.address,
        rowset_epr.resource_abstract_name().unwrap()
    );
    assert_eq!(rowset_epr.address, svc3.address, "rowset lives on Data Service 3");

    // ---- Consumer 3: GetTuples on Data Service 3 -------------------------
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    let consumer3 = SqlClient::builder().bus(bus.clone()).epr(rowset_epr).build();
    let mut fetched = 0;
    let mut page_no = 0;
    loop {
        let page = consumer3.get_tuples(&rowset_name, fetched, 30).unwrap();
        if page.row_count() == 0 {
            break;
        }
        page_no += 1;
        fetched += page.row_count();
        println!(
            "consumer 3: page {page_no}: {} tuples (first: {} / {})",
            page.row_count(),
            page.rows[0][0],
            page.rows[0][1]
        );
    }
    println!("consumer 3: fetched {fetched} tuples in {page_no} pages");

    // ---- Traffic accounting ----------------------------------------------
    let s1 = bus.endpoint_stats(&svc1.address);
    let s2 = bus.endpoint_stats(&svc2.address);
    let s3 = bus.endpoint_stats(&svc3.address);
    println!("\ntraffic per service (messages / bytes):");
    println!(
        "  data-service-1: {:>3} msgs, {:>8} B  (factory only — no rows)",
        s1.messages,
        s1.total_bytes()
    );
    println!(
        "  data-service-2: {:>3} msgs, {:>8} B  (response hop)",
        s2.messages,
        s2.total_bytes()
    );
    println!(
        "  data-service-3: {:>3} msgs, {:>8} B  (where the tuples flow)",
        s3.messages,
        s3.total_bytes()
    );
}
