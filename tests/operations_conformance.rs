//! E6 (paper Figure 6): the operation inventory.
//!
//! Every operation named in Figure 6 — the WS-DAI core interfaces and the
//! WS-DAIR extensions — plus the WS-DAIX inventory must be registered and
//! dispatchable on an assembled data service. Also checks the message
//! framing rules of §3/§5 (abstract name in every request body).

use dais::core::messages as core_messages;
use dais::prelude::*;
use dais::soap::fault::DaisFault;
use dais::xml::{ns, XmlElement};

fn relational_bus() -> (Bus, RelationalService) {
    let bus = Bus::new();
    let db = Database::new("conf");
    db.execute_script("CREATE TABLE t (a INTEGER PRIMARY KEY); INSERT INTO t VALUES (1), (2);")
        .unwrap();
    let svc = RelationalService::launch(&bus, "bus://conf", db, Default::default());
    (bus, svc)
}

/// Figure 6, CoreDataAccess + CoreResourceList: all five core operations.
#[test]
fn core_operations_inventory() {
    let (bus, svc) = relational_bus();
    let client = SqlClient::builder().bus(bus).address("bus://conf").build();

    // GetDataResourcePropertyDocument
    client.core().get_property_document(&svc.db_resource).unwrap();
    // GenericQuery
    client
        .core()
        .generic_query(&svc.db_resource, dais::dair::resources::SQL_LANGUAGE_URI, "SELECT 1")
        .unwrap();
    // GetResourceList
    assert!(!client.core().get_resource_list().unwrap().is_empty());
    // Resolve
    let epr = client.core().resolve(&svc.db_resource).unwrap();
    assert_eq!(epr.address, "bus://conf");
    // DestroyDataResource
    let derived = client.execute_factory(&svc.db_resource, "SELECT 1", &[], None, None).unwrap();
    let derived_name = AbstractName::new(derived.resource_abstract_name().unwrap()).unwrap();
    client.core().destroy(&derived_name).unwrap();
}

/// Figure 6, the WS-DAIR interfaces: every action registered.
#[test]
fn dair_action_inventory_registered() {
    let (bus, _svc) = relational_bus();
    // Probe each action with an intentionally empty body: a registered
    // action must answer with a *DAIS-level* fault (bad request), not the
    // dispatcher's "unknown SOAP action" client fault.
    for action in dais::dair::actions::ALL {
        let out = bus
            .call(
                "bus://conf",
                action.uri(),
                &dais::soap::Envelope::with_body(XmlElement::new_local("probe")),
            )
            .unwrap();
        let fault = out.expect_err("probe with empty body should fault");
        assert!(
            !fault.reason.contains("unknown SOAP action"),
            "action {action} is not registered: {fault}"
        );
    }
}

/// The complete WS-DAIX inventory on an XML service.
#[test]
fn daix_action_inventory_registered() {
    let bus = Bus::new();
    XmlService::launch(&bus, "bus://xconf", XmlDatabase::new("x"), Default::default());
    for action in dais::daix::actions::ALL {
        let out = bus
            .call(
                "bus://xconf",
                action.uri(),
                &dais::soap::Envelope::with_body(XmlElement::new_local("probe")),
            )
            .unwrap();
        let fault = out.expect_err("probe with empty body should fault");
        assert!(
            !fault.reason.contains("unknown SOAP action"),
            "action {action} is not registered: {fault}"
        );
    }
}

/// §3/§5: the abstract name is mandatory in the body; a request without
/// it faults with InvalidResourceName even when addressed via EPR
/// reference parameters.
#[test]
fn abstract_name_required_in_body() {
    let (bus, svc) = relational_bus();
    // Build a property-document request with NO name in the body...
    let body = XmlElement::new(ns::WSDAI, "wsdai", "GetDataResourcePropertyDocumentRequest");
    // ...sent through an EPR that names the resource in reference params.
    let epr = Epr::for_resource("bus://conf", svc.db_resource.as_str());
    let client = dais::soap::ServiceClient::from_epr(bus, epr);
    let err = client
        .request(dais::core::messages::actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT, body)
        .unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidResourceName));
}

/// E2 (Figure 2): the WS-DAIR direct-access message embeds the WS-DAI
/// template fields — abstract name + format URI — and the response embeds
/// the SQL communication area.
#[test]
fn direct_access_message_pattern_conformance() {
    let (bus, svc) = relational_bus();
    let request = dais::dair::messages::sql_execute_request(
        &svc.db_resource,
        ns::ROWSET,
        "SELECT * FROM t",
        &[],
    );
    // WS-DAI core fields present in the realisation's request:
    assert!(request.child(ns::WSDAI, "DataResourceAbstractName").is_some());
    assert!(request.child(ns::WSDAI, "DataFormatURI").is_some());
    // The SQL extension field:
    assert!(request.child(ns::WSDAIR, "SQLExpression").is_some());

    let response = bus
        .call(
            "bus://conf",
            dais::dair::actions::SQL_EXECUTE.uri(),
            &dais::soap::Envelope::with_body(request),
        )
        .unwrap()
        .unwrap();
    let payload = response.payload().unwrap();
    assert!(payload.name.is(ns::WSDAIR, "SQLExecuteResponse"));
    let sql_response = payload.child(ns::WSDAIR, "SQLResponse").unwrap();
    assert!(sql_response.child(ns::WSDAIR, "SQLRowset").is_some());
    assert!(
        sql_response.child(ns::WSDAIR, "SQLCommunicationArea").is_some(),
        "Figure 2: the SQL realisation includes the communication area"
    );
}

/// E3 (Figure 3): the factory response carries an EPR whose reference
/// parameters hold the new resource's abstract name, and the derived
/// resource honours the configuration document.
#[test]
fn indirect_access_message_pattern_conformance() {
    let (bus, svc) = relational_bus();
    let client = SqlClient::builder().bus(bus).address("bus://conf").build();
    let config = ConfigurationDocument {
        description: Some("my derived view".into()),
        sensitivity: Some(Sensitivity::Sensitive),
        ..Default::default()
    };
    let epr = client
        .execute_factory(
            &svc.db_resource,
            "SELECT * FROM t",
            &[],
            Some("wsdair:SQLResponseAccessPT"),
            Some(&config),
        )
        .unwrap();
    // Reference parameters carry the abstract name (§3).
    let name = epr.resource_abstract_name().expect("abstract name in reference parameters");
    let name = AbstractName::new(name).unwrap();
    // The configuration document was applied to the derived resource.
    let props = client.core().get_property_document(&name).unwrap();
    assert_eq!(props.description, "my derived view");
    assert_eq!(props.sensitivity, Sensitivity::Sensitive);
    assert_eq!(props.parent.as_ref(), Some(&svc.db_resource));
    assert_eq!(props.management, dais::core::properties::ResourceManagementKind::ServiceManaged);
}

/// §4.3: destroy semantics differ by management class — destroying the
/// externally managed database resource severs the relationship but the
/// data survives (observable by re-wrapping the same database).
#[test]
fn destroy_semantics_by_management_class() {
    let bus = Bus::new();
    let db = Database::new("persist");
    db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (42);").unwrap();
    let svc = RelationalService::launch(&bus, "bus://persist", db.clone(), Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://persist").build();

    client.core().destroy(&svc.db_resource).unwrap();
    // The service no longer knows the resource...
    assert!(client.execute(&svc.db_resource, "SELECT * FROM t", &[]).is_err());
    // ...but the externally managed data is intact.
    let again = RelationalService::launch(&bus, "bus://persist2", db, Default::default());
    let client2 = SqlClient::builder().bus(bus).address("bus://persist2").build();
    let data = client2.execute(&again.db_resource, "SELECT a FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(42));
}

/// §4.2: a requested dataset format not advertised in the DatasetMap
/// faults with InvalidDatasetFormat.
#[test]
fn dataset_map_governs_return_formats() {
    let (bus, svc) = relational_bus();
    let client = SqlClient::builder().bus(bus).address("bus://conf").build();
    let err = client
        .execute_with_format(&svc.db_resource, "urn:example:csv", "SELECT 1", &[])
        .unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidDatasetFormat));
    // The advertised WebRowSet format works.
    client.execute_with_format(&svc.db_resource, ns::ROWSET, "SELECT 1", &[]).unwrap();
}

/// Property documents parse into the typed model and back identically
/// whether observed as XML or through the typed client (field-set
/// conformance for Figure 4).
#[test]
fn property_document_field_sets() {
    let (bus, svc) = relational_bus();
    let client = SqlClient::builder().bus(bus).address("bus://conf").build();
    let xml_doc = client.core().get_property_document_xml(&svc.db_resource).unwrap();
    for p in dais::dair::properties::CORE_PROPERTIES {
        assert!(p.find_in(&xml_doc).is_some(), "missing core property {p:?}");
    }
    for p in dais::dair::properties::SQL_ACCESS_PROPERTIES {
        assert!(p.find_in(&xml_doc).is_some(), "missing WS-DAIR property {p:?}");
    }
    // Typed parse agrees with the raw document.
    let typed = client.core().get_property_document(&svc.db_resource).unwrap();
    assert_eq!(typed.abstract_name, svc.db_resource);
    assert_eq!(
        typed.to_xml().child_text(ns::WSDAI, "Writeable"),
        xml_doc.child_text(ns::WSDAI, "Writeable")
    );
    let probe = core_messages::request("x", &svc.db_resource);
    assert_eq!(core_messages::extract_resource_name(&probe).unwrap(), svc.db_resource);
}

/// The batch operations answer the same with and without an installed
/// executor: the execution mode decides which thread runs an exchange,
/// never what a reply decodes to — faults included.
#[test]
fn batch_operations_agree_with_and_without_an_executor() {
    let (bus, svc) = relational_bus();
    let client = SqlClient::builder().bus(bus.clone()).address("bus://conf").build();
    let db = &svc.db_resource;
    let epr = client.execute_factory(db, "SELECT a FROM t ORDER BY a", &[], None, None).unwrap();
    let response = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let epr = client.rowset_factory(&response, None, None).unwrap();
    let rowset = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();

    let statements =
        ["SELECT a FROM t ORDER BY a", "SELECT a FROM t WHERE a > 9", "SELECT nope FROM t"];
    let pages = [(0, 1), (1, 5), (0, 0), (7, 2)];
    let run =
        || (client.execute_many(db, &statements, 2), client.get_tuples_many(&rowset, &pages, 3));

    let inline = run();
    bus.install_executor(dais::soap::ExecutorConfig::new(2).seed(6));
    let queued = run();
    bus.shutdown_executor();

    assert_eq!(inline, queued);
    assert_eq!(inline.0[0].as_ref().unwrap().rowset().unwrap().row_count(), 2);
    assert_eq!(inline.0[1].as_ref().unwrap().communication_area.sqlstate, "02000");
    assert_eq!(inline.0[2].as_ref().unwrap_err().dais_fault(), Some(DaisFault::InvalidExpression));
    let page_rows: Vec<usize> = inline.1.iter().map(|p| p.as_ref().unwrap().row_count()).collect();
    assert_eq!(page_rows, [1, 1, 0, 0]);
}
