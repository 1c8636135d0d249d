//! The WS-DAI access policy, one row per family action.
//!
//! Every action declares the access it needs from its target — nothing,
//! `Readable` or `Writeable` (DESIGN.md §5) — and one resolution path in
//! `dais-core` enforces it. Each row sends its action to a target with
//! `Readable=false` and `Writeable=false`: data reads and writes must
//! answer `NotAuthorizedFault`, metadata operations (every
//! `Get…PropertyDocument`) must still succeed. Derived targets take their
//! flags from the consumer's `ConfigurationDocument`, exactly as a
//! factory request sets them; externally managed ones are wrapped
//! `configured` read- and write-locked.

use dais::core::messages as core_messages;
use dais::core::{AbstractName, ConfigurationDocument, Requires};
use dais::daif::{actions as daif_actions, DirectoryResource, FileService, FileStore};
use dais::dair::messages::{self as dair_messages, actions as dair_actions};
use dais::dair::{RelationalService, SqlDataResource};
use dais::daix::messages::actions as daix_actions;
use dais::daix::{XmlCollectionResource, XmlService};
use dais::federation::{FleetOptions, RelationalFleet, ShardScheme, XmlFleet};
use dais_soap::{Action, Bus, CallError, ServiceClient};
use dais_xml::{ns, XmlElement};
use dais_xmldb::XmlDatabase;
use std::sync::Arc;

const SCHEMA: &str = "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR);
                      INSERT INTO t VALUES (1, 'a'), (2, 'b');";

fn locked() -> ConfigurationDocument {
    ConfigurationDocument { readable: Some(false), writeable: Some(false), ..Default::default() }
}

fn name_of(reply: &XmlElement) -> AbstractName {
    let epr = dais::core::factory::parse_factory_response(reply).expect("factory reply");
    AbstractName::new(epr.resource_abstract_name().expect("abstract name")).unwrap()
}

/// Send a factory request, optionally carrying `configuration`, and
/// return the derived resource's name.
fn derive(
    client: &ServiceClient,
    action: Action,
    mut body: XmlElement,
    configuration: Option<&ConfigurationDocument>,
) -> AbstractName {
    if let Some(c) = configuration {
        body.push(c.to_xml());
    }
    name_of(&client.request(action, body).expect("factory request must succeed"))
}

fn plain(target: &AbstractName) -> XmlElement {
    core_messages::request("Request", target)
}

fn sql(target: &AbstractName, statement: &str) -> XmlElement {
    dair_messages::sql_execute_request(target, ns::ROWSET, statement, &[])
}

fn factory_sql(target: &AbstractName, statement: &str) -> XmlElement {
    let mut body = sql(target, statement);
    body.name = dais_xml::QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
    body
}

fn xpath(target: &AbstractName) -> XmlElement {
    dais::daix::messages::query_request("Request", target, "/doc")
}

struct Row {
    action: Action,
    address: &'static str,
    target: AbstractName,
    body: XmlElement,
    requires: Requires,
}

fn row(
    action: Action,
    address: &'static str,
    target: &AbstractName,
    body: XmlElement,
    requires: Requires,
) -> Row {
    Row { action, address, target: target.clone(), body, requires }
}

#[test]
fn every_family_action_enforces_its_declared_access() {
    use Requires::{Nothing, Readable, Writeable};
    let bus = Bus::new();

    // WS-DAIR: a locked database, and a response and a rowset derived
    // with Readable=false.
    let db = dais_sql::Database::new("policy");
    db.execute_script(SCHEMA).unwrap();
    let rel = RelationalService::launch(&bus, "bus://rel", db.clone(), Default::default());
    let locked_db = AbstractName::new("urn:dais:policy:db:locked").unwrap();
    rel.ctx
        .add_resource(Arc::new(SqlDataResource::new(locked_db.clone(), db).configured(&locked())));
    let c = ServiceClient::new(bus.clone(), "bus://rel");
    let select = "SELECT id FROM t";
    let factory = factory_sql(&rel.db_resource, select);
    let response = derive(&c, dair_actions::SQL_EXECUTE_FACTORY, factory.clone(), Some(&locked()));
    let readable = derive(&c, dair_actions::SQL_EXECUTE_FACTORY, factory, None);
    let rowset = derive(&c, dair_actions::SQL_ROWSET_FACTORY, plain(&readable), Some(&locked()));

    // WS-DAIX: a locked collection and a sequence derived Readable=false.
    let xdb = XmlDatabase::new("policy");
    xdb.add_document("", "d1", "<doc>1</doc>").unwrap();
    let xml = XmlService::launch(&bus, "bus://xml", xdb.clone(), Default::default());
    let locked_coll = AbstractName::new("urn:dais:policy:collection:locked").unwrap();
    let coll = XmlCollectionResource::new(locked_coll.clone(), xdb, "").configured(&locked());
    xml.ctx.add_resource(Arc::new(coll));
    let c = ServiceClient::new(bus.clone(), "bus://xml");
    let sequence = dais::daix::messages::query_request(
        "XPathExecuteFactoryRequest",
        &xml.root_collection,
        "/doc",
    );
    let sequence = derive(&c, daix_actions::XPATH_EXECUTE_FACTORY, sequence, Some(&locked()));

    // WS-DAIF: a locked directory and a file set derived Readable=false.
    let store = FileStore::new();
    store.write("a.txt", b"a".to_vec()).unwrap();
    let files = FileService::launch(&bus, "bus://files", store.clone(), Default::default());
    let locked_dir = AbstractName::new("urn:dais:policy:directory:locked").unwrap();
    let dir = DirectoryResource::new(locked_dir.clone(), store, "").configured(&locked());
    files.ctx.add_resource(Arc::new(dir));
    let c = ServiceClient::new(bus.clone(), "bus://files");
    let file_set =
        derive(&c, daif_actions::FILE_SELECT_FACTORY, plain(&files.root), Some(&locked()));

    // Federated: the logical resources (never Writeable), and a response
    // and a rowset derived Readable=false.
    let small = FleetOptions { shards: 2, replicas: 1, ..Default::default() };
    let scheme = ShardScheme::Hash { column: "id".into() };
    let fleet = RelationalFleet::launch(&bus, "fedrel", SCHEMA, scheme, small.clone());
    let xml_fleet = XmlFleet::launch(&bus, "fedxml", small);
    let logical = fleet.resource().resource().clone();
    let logical_xml = xml_fleet.resource().resource().clone();
    let c = ServiceClient::new(bus.clone(), "bus://fedrel");
    let factory = factory_sql(&logical, select);
    let fed_response =
        derive(&c, dair_actions::SQL_EXECUTE_FACTORY, factory.clone(), Some(&locked()));
    let fed_readable = derive(&c, dair_actions::SQL_EXECUTE_FACTORY, factory, None);
    let fed_rowset =
        derive(&c, dair_actions::SQL_ROWSET_FACTORY, plain(&fed_readable), Some(&locked()));

    let generic = core_messages::generic_query_request(
        &locked_db,
        dais::dair::resources::SQL_LANGUAGE_URI,
        select,
    );
    let insert = "INSERT INTO t VALUES (9, 'z')";
    let (r, x, f, fr, fx) =
        ("bus://rel", "bus://xml", "bus://files", "bus://fedrel", "bus://fedxml");
    let rows = [
        // WS-DAI core.
        row(dais::core::messages::actions::GENERIC_QUERY, r, &locked_db, generic, Readable),
        row(dais::core::messages::actions::RESOLVE, r, &locked_db, plain(&locked_db), Nothing),
        row(
            dais::core::messages::actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
            r,
            &locked_db,
            plain(&locked_db),
            Nothing,
        ),
        // WS-DAIR.
        row(dair_actions::SQL_EXECUTE, r, &locked_db, sql(&locked_db, select), Readable),
        row(dair_actions::SQL_EXECUTE, r, &locked_db, sql(&locked_db, insert), Writeable),
        row(dair_actions::GET_SQL_PROPERTY_DOCUMENT, r, &locked_db, plain(&locked_db), Nothing),
        row(
            dair_actions::SQL_EXECUTE_FACTORY,
            r,
            &locked_db,
            factory_sql(&locked_db, select),
            Readable,
        ),
        row(
            dair_actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT,
            r,
            &response,
            plain(&response),
            Nothing,
        ),
        row(dair_actions::GET_SQL_ROWSET, r, &response, plain(&response), Readable),
        row(dair_actions::GET_SQL_UPDATE_COUNT, r, &response, plain(&response), Readable),
        row(dair_actions::GET_SQL_RETURN_VALUE, r, &response, plain(&response), Readable),
        row(dair_actions::GET_SQL_OUTPUT_PARAMETER, r, &response, plain(&response), Readable),
        row(dair_actions::GET_SQL_COMMUNICATION_AREA, r, &response, plain(&response), Readable),
        row(dair_actions::GET_SQL_RESPONSE_ITEM, r, &response, plain(&response), Readable),
        row(dair_actions::SQL_ROWSET_FACTORY, r, &response, plain(&response), Readable),
        row(dair_actions::GET_TUPLES, r, &rowset, plain(&rowset), Readable),
        row(dair_actions::GET_ROWSET_PROPERTY_DOCUMENT, r, &rowset, plain(&rowset), Nothing),
        // WS-DAIX.
        row(daix_actions::ADD_DOCUMENTS, x, &locked_coll, plain(&locked_coll), Writeable),
        row(daix_actions::GET_DOCUMENTS, x, &locked_coll, plain(&locked_coll), Readable),
        row(daix_actions::REMOVE_DOCUMENTS, x, &locked_coll, plain(&locked_coll), Writeable),
        row(daix_actions::CREATE_SUBCOLLECTION, x, &locked_coll, plain(&locked_coll), Writeable),
        row(daix_actions::REMOVE_SUBCOLLECTION, x, &locked_coll, plain(&locked_coll), Writeable),
        row(
            daix_actions::GET_COLLECTION_PROPERTY_DOCUMENT,
            x,
            &locked_coll,
            plain(&locked_coll),
            Nothing,
        ),
        row(daix_actions::XPATH_EXECUTE, x, &locked_coll, xpath(&locked_coll), Readable),
        row(daix_actions::XQUERY_EXECUTE, x, &locked_coll, xpath(&locked_coll), Readable),
        row(daix_actions::XUPDATE_EXECUTE, x, &locked_coll, plain(&locked_coll), Writeable),
        row(daix_actions::XPATH_EXECUTE_FACTORY, x, &locked_coll, xpath(&locked_coll), Readable),
        row(daix_actions::XQUERY_EXECUTE_FACTORY, x, &locked_coll, xpath(&locked_coll), Readable),
        row(daix_actions::GET_ITEMS, x, &sequence, plain(&sequence), Readable),
        row(daix_actions::GET_SEQUENCE_PROPERTY_DOCUMENT, x, &sequence, plain(&sequence), Nothing),
        // WS-DAIF.
        row(daif_actions::READ_FILE, f, &locked_dir, plain(&locked_dir), Readable),
        row(daif_actions::WRITE_FILE, f, &locked_dir, plain(&locked_dir), Writeable),
        row(daif_actions::DELETE_FILE, f, &locked_dir, plain(&locked_dir), Writeable),
        row(daif_actions::LIST_FILES, f, &locked_dir, plain(&locked_dir), Readable),
        row(daif_actions::GET_FILE_PROPERTY_DOCUMENT, f, &locked_dir, plain(&locked_dir), Nothing),
        row(daif_actions::FILE_SELECT_FACTORY, f, &locked_dir, plain(&locked_dir), Readable),
        row(daif_actions::GET_FILE_SET_MEMBERS, f, &file_set, plain(&file_set), Readable),
        // Federated WS-DAIR and WS-DAIX.
        row(dair_actions::SQL_EXECUTE, fr, &logical, sql(&logical, insert), Writeable),
        row(dair_actions::GET_SQL_PROPERTY_DOCUMENT, fr, &logical, plain(&logical), Nothing),
        row(
            dair_actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT,
            fr,
            &fed_response,
            plain(&fed_response),
            Nothing,
        ),
        row(dair_actions::SQL_ROWSET_FACTORY, fr, &fed_response, plain(&fed_response), Readable),
        row(dair_actions::GET_TUPLES, fr, &fed_rowset, plain(&fed_rowset), Readable),
        row(
            dair_actions::GET_ROWSET_PROPERTY_DOCUMENT,
            fr,
            &fed_rowset,
            plain(&fed_rowset),
            Nothing,
        ),
        row(
            daix_actions::GET_COLLECTION_PROPERTY_DOCUMENT,
            fx,
            &logical_xml,
            plain(&logical_xml),
            Nothing,
        ),
        // Last: it ends the locked database's relationship with the service.
        row(
            dais::core::messages::actions::DESTROY_DATA_RESOURCE,
            r,
            &locked_db,
            plain(&locked_db),
            Nothing,
        ),
    ];

    // Every action of the single-node families has a row.
    for action in dais::core::messages::actions::ALL
        .iter()
        .chain(dair_actions::ALL)
        .chain(daix_actions::ALL)
        .chain(daif_actions::ALL)
    {
        let covered = rows.iter().any(|row| row.action == *action);
        let untargeted = *action == dais::core::messages::actions::GET_RESOURCE_LIST;
        assert!(covered || untargeted, "no policy row for {}", action.uri());
    }

    let mut wrong = Vec::new();
    for row in rows {
        let client = ServiceClient::new(bus.clone(), row.address);
        let outcome = client.request(row.action, row.body);
        let expected = match row.requires {
            Nothing => "success".to_string(),
            Readable => "Some(NotAuthorized): resource is not readable".to_string(),
            Writeable => "Some(NotAuthorized): resource is not writeable".to_string(),
        };
        let got = match outcome {
            Ok(_) => "success".to_string(),
            Err(CallError::Fault(f)) => format!("{:?}: {}", f.dais, f.reason),
            Err(other) => format!("{other:?}"),
        };
        if got != expected {
            wrong.push(format!(
                "{} on {}: expected {expected}, got {got}",
                row.action.uri(),
                row.target
            ));
        }
    }
    assert!(wrong.is_empty(), "access policy violated:\n{}", wrong.join("\n"));
}

/// Resolution checks the target's kind before its access: an action sent
/// to a resource of another kind is an `InvalidResourceNameFault`, even
/// when that resource could never grant the access.
#[test]
fn a_target_of_another_kind_is_an_invalid_resource_name() {
    let bus = Bus::new();
    let db = dais_sql::Database::new("kinds");
    db.execute_script(SCHEMA).unwrap();
    let rel = RelationalService::launch(&bus, "bus://kinds", db, Default::default());
    let client = ServiceClient::new(bus, "bus://kinds");
    for (action, target) in [
        (dair_actions::GET_TUPLES, &rel.db_resource),
        (dair_actions::GET_SQL_ROWSET, &rel.db_resource),
        (dair_actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT, &rel.db_resource),
        (dair_actions::SQL_EXECUTE, &rel.monitoring),
        (dair_actions::GET_SQL_PROPERTY_DOCUMENT, &rel.monitoring),
    ] {
        let err = client.request(action, plain(target)).unwrap_err();
        assert_eq!(
            err.dais_fault(),
            Some(dais_soap::DaisFault::InvalidResourceName),
            "{} on {target}",
            action.uri()
        );
    }
}
