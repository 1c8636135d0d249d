//! The DAIS fault taxonomy, end to end: every fault class the WS-DAI
//! family defines must be raisable through the wire, correctly classified
//! (client vs server), and carry its DAIS name in the detail section so
//! consumers can dispatch on it.

use dais::prelude::*;
use dais::soap::fault::{DaisFault, FaultCode};
use dais::soap::tcp::{TcpServer, TcpTransport};
use dais::soap::{CallError, Envelope, Fault, ServiceClient, SoapDispatcher};
use dais::xml::{ns, XmlElement};
use std::sync::Arc;
use std::time::Duration;

mod test_actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
        PANIC = "urn:panic", Read;
    }
}

fn setup() -> (Bus, SqlClient, AbstractName) {
    let bus = Bus::new();
    let db = Database::new("faults");
    db.execute_script("CREATE TABLE t (a INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);").unwrap();
    let svc = RelationalService::launch(&bus, "bus://faults", db, Default::default());
    (bus.clone(), SqlClient::builder().bus(bus).address("bus://faults").build(), svc.db_resource)
}

#[test]
fn invalid_resource_name_fault() {
    let (_, client, _) = setup();
    let ghost = AbstractName::new("urn:dais:faults:db:999").unwrap();
    let err = client.execute(&ghost, "SELECT 1", &[]).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidResourceName));
    match err {
        dais::soap::client::CallError::Fault(f) => assert_eq!(f.code, FaultCode::Client),
        other => panic!("{other:?}"),
    }
}

#[test]
fn invalid_expression_fault_carries_sqlstate() {
    let (_, client, db) = setup();
    for (sql, state) in [
        ("SELEKT", "42601"),
        ("SELECT * FROM ghost", "42P01"),
        ("SELECT ghost FROM t", "42703"),
        ("SELECT 1 / 0", "22012"),
        ("SELECT a, COUNT(*) FROM t", "42803"),
        ("SELECT 9223372036854775807 + 1", "22003"),
    ] {
        let err = client.execute(&db, sql, &[]).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::InvalidExpression), "{sql}");
        match err {
            dais::soap::client::CallError::Fault(f) => {
                assert!(f.reason.contains(state), "{sql}: {}", f.reason)
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn invalid_language_fault() {
    let (_, client, db) = setup();
    let err = client.core().generic_query(&db, "urn:made-up", "whatever").unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidLanguage));
}

#[test]
fn invalid_dataset_format_fault() {
    let (_, client, db) = setup();
    let err = client.execute_with_format(&db, "urn:csv", "SELECT 1", &[]).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidDatasetFormat));
}

#[test]
fn invalid_port_type_fault() {
    let (_, client, db) = setup();
    let err =
        client.execute_factory(&db, "SELECT 1", &[], Some("wsdair:NoSuchPT"), None).unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidPortType));
}

#[test]
fn invalid_configuration_document_fault() {
    let (bus, _, db) = setup();
    // Hand-build a factory request with a malformed configuration value.
    let mut body = dais::core::messages::request("SQLExecuteFactoryRequest", &db);
    body.push(XmlElement::new(ns::WSDAIR, "wsdair", "SQLExpression").with_text("SELECT 1"));
    body.push(
        XmlElement::new(ns::WSDAI, "wsdai", "ConfigurationDocument").with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "Sensitivity").with_text("Clairvoyant"),
        ),
    );
    let out = bus
        .call(
            "bus://faults",
            dais::dair::actions::SQL_EXECUTE_FACTORY.uri(),
            &Envelope::with_body(body),
        )
        .unwrap();
    let fault = out.unwrap_err();
    assert!(fault.is(DaisFault::InvalidConfigurationDocument));
}

#[test]
fn fault_envelopes_parse_like_any_message() {
    // A fault is itself a SOAP message: serialise one, re-parse it, and
    // recover the classification — the consumer-side dispatch path.
    let fault = dais::soap::Fault::dais(DaisFault::DataResourceUnavailable, "expired");
    let env = Envelope::with_body(fault.to_xml());
    let mut bytes = Vec::new();
    env.to_bytes_into(&mut bytes);
    let rt = Envelope::from_bytes(&bytes).unwrap();
    let parsed = dais::soap::Fault::from_xml(rt.payload().unwrap()).unwrap();
    assert_eq!(parsed, fault);
    assert_eq!(parsed.code, FaultCode::Server);
}

#[test]
fn constraint_violations_do_not_poison_the_service() {
    // A burst of failing statements leaves the service fully usable —
    // faults are responses, not crashes.
    let (_, client, db) = setup();
    for _ in 0..20 {
        let _ = client.execute(&db, "INSERT INTO t VALUES (1)", &[]).unwrap_err(); // PK dup
        let _ = client.execute(&db, "SELEKT", &[]).unwrap_err();
    }
    let data = client.execute(&db, "SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(1));
}

#[test]
fn unknown_action_is_plain_client_fault() {
    let (bus, _, _) = setup();
    let out = bus
        .call(
            "bus://faults",
            "urn:completely-unknown-action",
            &Envelope::with_body(XmlElement::new_local("x")),
        )
        .unwrap();
    let fault = out.unwrap_err();
    assert_eq!(fault.code, FaultCode::Client);
    assert!(fault.dais.is_none(), "unknown actions are not DAIS-classified");
}

#[test]
fn transport_vs_application_errors_are_distinct() {
    let (bus, client, db) = setup();
    // Application-level: resource fault through a live endpoint.
    let err = client.execute(&AbstractName::new("urn:x:y").unwrap(), "SELECT 1", &[]).unwrap_err();
    assert!(matches!(err, dais::soap::client::CallError::Fault(_)));
    // Transport-level: no endpoint at all.
    let dead = SqlClient::builder().bus(bus).address("bus://nowhere").build();
    let err = dead.execute(&db, "SELECT 1", &[]).unwrap_err();
    assert!(matches!(err, dais::soap::client::CallError::Transport(_)));
}

/// A handler that panics is a `ServiceErrorFault`, a server fault, and
/// its endpoint keeps serving: behind a 1-worker executor whose one
/// worker must survive, inline, and over TCP. The watchdog turns a hang (a
/// dead worker whose caller waits forever) into a failure.
#[test]
fn panicking_handler_is_a_service_error_fault() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(test_actions::ECHO, |req: &Envelope| Ok(req.clone()));
        d.register(test_actions::PANIC, |_: &Envelope| -> Result<Envelope, Fault> {
            panic!("handler bug")
        });
        bus.register("bus://panics", Arc::new(d));
        let server = TcpServer::bind(&bus, "127.0.0.1:0").unwrap();
        let remote = Bus::new();
        let transport = TcpTransport::default();
        transport.set_default_route(server.local_addr());
        remote.set_transport(Arc::new(transport));
        let probe = |bus: &Bus| {
            let client = ServiceClient::new(bus.clone(), "bus://panics");
            for _ in 0..2 {
                let err = client.request(test_actions::PANIC, XmlElement::new_local("m"));
                match err.unwrap_err() {
                    CallError::Fault(f) => {
                        assert_eq!(f.dais, Some(DaisFault::ServiceError));
                        assert_eq!(f.code, FaultCode::Server);
                    }
                    other => panic!("{other:?}"),
                }
            }
            let echo = XmlElement::new_local("m").with_text("alive");
            assert_eq!(client.request(test_actions::ECHO, echo).unwrap().text(), "alive");
        };
        bus.install_executor(ExecutorConfig::new(1).seed(11));
        probe(&bus);
        bus.shutdown_executor();
        assert_eq!(bus.endpoint_stats("bus://panics").faults, 2);
        probe(&bus);
        probe(&remote);
        done.send(()).unwrap();
    });
    finished.recv_timeout(Duration::from_secs(30)).expect("a panicking handler hung or escaped");
}
