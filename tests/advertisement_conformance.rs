//! Advertisement ↔ dispatch conformance.
//!
//! The `actions::ALL` inventories are the machine-readable versions of
//! the paper's Figure 6 operation tables. Clients can only send, and
//! dispatchers only register, members of an inventory — the `Action`
//! type sees to that. This test closes the remaining dynamic gap: on
//! *launched* services, everything advertised must actually dispatch,
//! and everything each realisation's inventory promises must be
//! advertised by the corresponding endpoint.

use dais::dair::RelationalServiceOptions;
use dais::prelude::*;
use dais::soap::{Access, Action, Envelope};
use dais::xml::XmlElement;
use std::collections::BTreeSet;
use std::sync::Arc;

fn launch_all() -> Bus {
    let bus = Bus::new();
    let db = Database::new("ads");
    db.execute_script("CREATE TABLE t (a INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);").unwrap();
    // WSRF layering is optional (paper §5); enable it on the relational
    // endpoint so the WSRF inventory is part of what must dispatch.
    let options = RelationalServiceOptions {
        wsrf: Some(Arc::new(LifetimeRegistry::new(Arc::new(SystemClock::new())))),
        ..Default::default()
    };
    RelationalService::launch(&bus, "bus://rel", db, options);
    XmlService::launch(&bus, "bus://xml", XmlDatabase::new("ads"), Default::default());
    FileService::launch(&bus, "bus://files", FileStore::new(), Default::default());
    bus
}

fn advertised(bus: &Bus, address: &str) -> BTreeSet<String> {
    bus.endpoint(address)
        .unwrap_or_else(|| panic!("no endpoint at {address}"))
        .actions()
        .into_iter()
        .collect()
}

/// Every action a live endpoint advertises must dispatch to a real
/// handler: probing with an empty body must never produce the
/// dispatcher's "unknown SOAP action" fault.
#[test]
fn every_advertisement_is_dispatchable() {
    let bus = launch_all();
    for address in bus.addresses() {
        for action in advertised(&bus, &address) {
            let probe = Envelope::with_body(XmlElement::new_local("probe"));
            match bus.call(&address, &action, &probe).unwrap() {
                Ok(_) => {}
                Err(fault) => {
                    assert!(
                        !fault.reason.contains("unknown SOAP action"),
                        "{address} advertises `{action}` but cannot dispatch it"
                    );
                }
            }
        }
    }
}

/// Each realisation's `ALL` inventory is fully advertised by its
/// launched service (the service also carries the core + WSRF layers,
/// so advertisement is a superset).
#[test]
fn inventories_are_advertised_per_realisation() {
    let bus = launch_all();
    let cases: &[(&str, &[Action])] = &[
        ("bus://rel", dais::dair::actions::ALL),
        ("bus://xml", dais::daix::actions::ALL),
        ("bus://files", dais::daif::actions::ALL),
    ];
    for (address, inventory) in cases {
        let ads = advertised(&bus, address);
        for action in *inventory {
            assert!(ads.contains(action.uri()), "{address} does not advertise `{action}`");
        }
        // The shared layers ride along on every data service.
        for action in dais::core::messages::actions::ALL {
            assert!(ads.contains(action.uri()), "{address} does not advertise core `{action}`");
        }
    }
}

/// WSRF layering is optional per the paper (§5); when enabled, the full
/// WSRF inventory must be advertised.
#[test]
fn wsrf_inventory_advertised_when_layered() {
    let bus = launch_all();
    let ads = advertised(&bus, "bus://rel");
    for action in dais::wsrf::actions::ALL {
        assert!(ads.contains(action.uri()), "WSRF `{action}` not advertised");
    }
}

/// Each inventory line declares its access class. Reads are re-sent,
/// writes and factories never are, and `SQLExecute` alone lets the
/// payload decide.
#[test]
fn inventory_lines_declare_their_access_class() {
    use dais::{core::messages::actions as core, daif::actions as daif};
    use dais::{dair::actions as dair, daix::actions as daix, wsrf::actions as wsrf};
    let cases = [
        (dair::GET_SQL_ROWSET, Access::Read),
        (core::GENERIC_QUERY, Access::Read),
        (daif::READ_FILE, Access::Read),
        (dair::SQL_EXECUTE_FACTORY, Access::Write),
        (daix::ADD_DOCUMENTS, Access::Write),
        (daix::XUPDATE_EXECUTE, Access::Write),
        (wsrf::DESTROY, Access::Write),
        (wsrf::SET_TERMINATION_TIME, Access::Write),
        (dair::SQL_EXECUTE, Access::Statement),
    ];
    for (action, access) in cases {
        assert_eq!(action.access(), access, "`{action}`");
    }
    let statements: Vec<Action> = [dais::core::messages::actions::ALL, dais::wsrf::actions::ALL]
        .into_iter()
        .chain([dais::dair::actions::ALL, dais::daix::actions::ALL, dais::daif::actions::ALL])
        .flatten()
        .copied()
        .filter(|action| action.access() == Access::Statement)
        .collect();
    assert_eq!(statements, [dair::SQL_EXECUTE]);
}

/// What each typed client used to list by hand as safe to re-send,
/// captured before those lists were retired: the core and WSRF reads
/// every client shares, then each realisation's own.
const SHARED_READS: &[&str] = &[
    "http://www.ggf.org/namespaces/2005/12/WS-DAI/GetDataResourcePropertyDocument",
    "http://www.ggf.org/namespaces/2005/12/WS-DAI/GenericQuery",
    "http://www.ggf.org/namespaces/2005/12/WS-DAI/GetResourceList",
    "http://www.ggf.org/namespaces/2005/12/WS-DAI/Resolve",
    "http://docs.oasis-open.org/wsrf/rpw-2/GetResourceProperty",
    "http://docs.oasis-open.org/wsrf/rpw-2/GetMultipleResourceProperties",
    "http://docs.oasis-open.org/wsrf/rpw-2/QueryResourceProperties",
];
const DAIR_READS: &[&str] = &[
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLPropertyDocument",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLResponsePropertyDocument",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLRowset",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLUpdateCount",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLReturnValue",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLOutputParameter",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLCommunicationArea",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLResponseItem",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetTuples",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetRowsetPropertyDocument",
];
const DAIX_READS: &[&str] = &[
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetDocuments",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetCollectionPropertyDocument",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XPathExecute",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XQueryExecute",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetItems",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetSequencePropertyDocument",
];
const DAIF_READS: &[&str] = &[
    "http://www.ggf.org/namespaces/2005/12/WS-DAIF/ReadFile",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIF/ListFiles",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIF/GetFilePropertyDocument",
    "http://www.ggf.org/namespaces/2005/12/WS-DAIF/GetFileSetMembers",
];

/// Retry eligibility now comes from each action's access class. Per
/// client, the `Read` members of the inventories it can send — core,
/// WSRF and its own realisation's — are exactly what its retired list
/// named.
#[test]
fn read_access_reproduces_the_retired_retry_lists() {
    let shared = [dais::core::messages::actions::ALL, dais::wsrf::actions::ALL];
    let cases: [(&str, &[Action], &[&str]); 4] = [
        ("core", &[], &[]),
        ("dair", dais::dair::actions::ALL, DAIR_READS),
        ("daix", dais::daix::actions::ALL, DAIX_READS),
        ("daif", dais::daif::actions::ALL, DAIF_READS),
    ];
    for (client, family, own_reads) in cases {
        let reads: BTreeSet<&str> = shared
            .iter()
            .chain([&family])
            .flat_map(|inventory| inventory.iter())
            .filter(|action| action.access() == Access::Read)
            .map(|action| action.uri())
            .collect();
        let retired: BTreeSet<&str> = SHARED_READS.iter().chain(own_reads).copied().collect();
        assert_eq!(reads, retired, "{client}: read actions differ from the retired retry list");
    }
}
