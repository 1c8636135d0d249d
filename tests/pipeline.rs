//! E5 (paper Figure 5): the three-service relational pipeline, asserted
//! end to end — including the routing of derived resources to the right
//! services and the "no data through intermediaries" property.

mod common;

use dais::core::{register_core_ops, NameGenerator, ResourceRegistry, ServiceContext};
use dais::dair::resources::SqlDataResource;
use dais::dair::service as dair;
use dais::prelude::*;
use dais::soap::service::SoapDispatcher;
use std::sync::Arc;

struct Pipeline {
    bus: Bus,
    svc1: Arc<ServiceContext>,
    svc2: Arc<ServiceContext>,
    svc3: Arc<ServiceContext>,
    db_resource: AbstractName,
}

fn build_pipeline(rows: usize) -> Pipeline {
    let bus = Bus::new();
    let names = Arc::new(NameGenerator::new("pipe"));

    let svc3 = Arc::new(ServiceContext {
        address: "bus://p3".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d3 = SoapDispatcher::new();
    register_core_ops(&mut d3, svc3.clone());
    dair::register_rowset_access(&mut d3, svc3.clone());
    bus.register("bus://p3", Arc::new(d3));

    let svc2 = Arc::new(ServiceContext {
        address: "bus://p2".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d2 = SoapDispatcher::new();
    register_core_ops(&mut d2, svc2.clone());
    dair::register_response_access(&mut d2, svc2.clone());
    dair::register_response_factory(&mut d2, svc2.clone(), svc3.clone(), names.clone());
    bus.register("bus://p2", Arc::new(d2));

    let svc1 = Arc::new(ServiceContext {
        address: "bus://p1".into(),
        registry: ResourceRegistry::new(),
        lifetime: None,
        query_rewriter: None,
    });
    let mut d1 = SoapDispatcher::new();
    register_core_ops(&mut d1, svc1.clone());
    dair::register_sql_access(&mut d1, svc1.clone());
    dair::register_sql_factory(&mut d1, svc1.clone(), svc2.clone(), names.clone());
    bus.register("bus://p1", Arc::new(d1));

    let db = Database::new("pipe");
    common::populate_items(&db, rows, 24);
    let db_resource = names.mint("db");
    svc1.add_resource(Arc::new(SqlDataResource::new(db_resource.clone(), db)));

    Pipeline { bus, svc1, svc2, svc3, db_resource }
}

#[test]
fn full_figure5_flow() {
    let p = build_pipeline(300);

    // Consumer 1 → Data Service 1: SQLExecuteFactory.
    let c1 = SqlClient::builder().bus(p.bus.clone()).address("bus://p1").build();
    let response_epr = c1
        .execute_factory(
            &p.db_resource,
            "SELECT id, payload FROM item ORDER BY id",
            &[],
            Some("wsdair:SQLResponseAccessPT"),
            None,
        )
        .unwrap();
    assert_eq!(response_epr.address, "bus://p2", "response resource lives on Data Service 2");
    let response_name = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    assert_eq!(p.svc2.registry.len(), 1);
    assert_eq!(p.svc1.registry.len(), 1, "Data Service 1 keeps only the database");

    // Consumer 2 → Data Service 2: SQLRowsetFactory.
    let c2 = SqlClient::builder().bus(p.bus.clone()).epr(response_epr).build();
    let rowset_epr =
        c2.rowset_factory(&response_name, None, Some("wsdair:SQLRowsetAccessPT")).unwrap();
    assert_eq!(rowset_epr.address, "bus://p3", "rowset resource lives on Data Service 3");
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    assert_eq!(p.svc3.registry.len(), 1);

    // Consumer 3 → Data Service 3: GetTuples pages through everything.
    let c3 = SqlClient::builder().bus(p.bus.clone()).epr(rowset_epr).build();
    let mut total = 0;
    let mut last_id = -1i64;
    loop {
        let page = c3.get_tuples(&rowset_name, total, 64).unwrap();
        if page.row_count() == 0 {
            break;
        }
        // Pages arrive in order without overlap.
        for row in &page.rows {
            let id = match row[0] {
                Value::Int(i) => i,
                ref other => panic!("{other:?}"),
            };
            assert!(id > last_id);
            last_id = id;
        }
        total += page.row_count();
    }
    assert_eq!(total, 300);
}

#[test]
fn data_flows_only_where_pulled() {
    let p = build_pipeline(400);
    let c1 = SqlClient::builder().bus(p.bus.clone()).address("bus://p1").build();
    let response_epr =
        c1.execute_factory(&p.db_resource, "SELECT * FROM item", &[], None, None).unwrap();
    let response_name = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    let c2 = SqlClient::builder().bus(p.bus.clone()).epr(response_epr).build();
    let rowset_epr = c2.rowset_factory(&response_name, None, None).unwrap();
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    let c3 = SqlClient::builder().bus(p.bus.clone()).epr(rowset_epr.clone()).build();
    let mut got = 0;
    while got < 400 {
        got += c3.get_tuples(&rowset_name, got, 100).unwrap().row_count();
    }

    let s1 = p.bus.endpoint_stats("bus://p1");
    let s2 = p.bus.endpoint_stats("bus://p2");
    let s3 = p.bus.endpoint_stats("bus://p3");
    // Figure 5's economics: the factory hops are cheap; the data flows at
    // the final service only.
    assert!(s1.total_bytes() < 4096, "service 1 should see only the factory exchange");
    assert!(
        s3.total_bytes() > s1.total_bytes() * 5,
        "service 3 carries the tuples (s1={}, s3={})",
        s1.total_bytes(),
        s3.total_bytes()
    );
    assert!(s2.total_bytes() < s3.total_bytes());

    // A second consumer pages the same rowset in 250-row pages: the
    // shared rowset serves it, so service 1 sees not one more byte.
    let c4 = SqlClient::builder().bus(p.bus.clone()).epr(rowset_epr).build();
    let pages: Vec<usize> = [0, 250, 400]
        .into_iter()
        .map(|start| c4.get_tuples(&rowset_name, start, 250).unwrap().row_count())
        .collect();
    assert_eq!(pages, [250, 150, 0]);
    assert_eq!(p.bus.endpoint_stats("bus://p1").total_bytes(), s1.total_bytes());
    assert!(p.bus.endpoint_stats("bus://p3").total_bytes() > s3.total_bytes());
}

#[test]
fn shortcut_single_service_deployment_matches() {
    // "Clearly it is not necessary to go through all the steps … all that
    // would be required is for Data Service 1 to support the
    // SQLResponseFactory interface" (§4.2). The single-address deployment
    // provides every interface; the same flow works with one service.
    let bus = Bus::new();
    let db = Database::new("single");
    common::populate_items(&db, 50, 16);
    let svc = RelationalService::launch(&bus, "bus://single", db, Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://single").build();

    let response_epr =
        client.execute_factory(&svc.db_resource, "SELECT id FROM item", &[], None, None).unwrap();
    assert_eq!(response_epr.address, "bus://single");
    let response_name = AbstractName::new(response_epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response_name, None, None).unwrap();
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
    assert_eq!(client.get_tuples(&rowset_name, 0, 100).unwrap().row_count(), 50);
    // All three data resources coexist in one registry (plus the
    // service's monitoring resource).
    assert_eq!(svc.ctx.registry.len(), 4);
}
