//! # dais — a Rust realisation of the GGF DAIS specification family
//!
//! This umbrella crate re-exports the whole stack described in
//! `DESIGN.md`, reproducing *An Outline of the Global Grid Forum Data
//! Access and Integration Service Specifications* (Antonioletti, Krause &
//! Paton, VLDB DMG 2005):
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | WS-DAI core | [`core`] | abstract names, property documents, direct/indirect access, core operations |
//! | WS-DAIR | [`dair`] | the relational realisation (SQLAccess/SQLFactory/ResponseAccess/ResponseFactory/RowsetAccess) |
//! | WS-DAIX | [`daix`] | the XML realisation (collections, XPath/XQuery/XUpdate, sequences) |
//! | federation | [`federation`] | sharded logical resources: scatter-gather, streaming k-way merge, replica failover |
//! | WSRF | [`wsrf`] | WS-ResourceProperties + WS-ResourceLifetime layering |
//! | messaging | [`soap`] | SOAP envelopes, WS-Addressing EPRs, the in-process bus |
//! | observability | [`obs`] | correlated tracing, latency histograms, trace rendering |
//! | substrates | [`sql`], [`xmldb`], [`xml`], [`cim`] | the embedded relational engine, the XML store, the XML/XPath toolkit, CIM metadata rendering |
//!
//! ## Quickstart
//!
//! ```
//! use dais::prelude::*;
//!
//! // A bus plays the role of the network; a relational data service
//! // wraps an embedded database.
//! let bus = Bus::new();
//! let db = Database::new("demo");
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR)", &[]).unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')", &[]).unwrap();
//! let service = RelationalService::launch(&bus, "bus://demo", db, Default::default());
//!
//! // Direct access (paper Figure 2). A `dais://` resource ref names the
//! // endpoint and the data resource in one address.
//! let r = ResourceRef::from_parts("bus://demo", &service.db_resource).unwrap();
//! let client = SqlClient::builder().bus(bus.clone()).resource(&r).build();
//! let data = client.execute(r.resource(), "SELECT name FROM t ORDER BY id", &[]).unwrap();
//! assert_eq!(data.rowset().unwrap().row_count(), 2);
//!
//! // Indirect access (paper Figure 3): factory → EPR → pull.
//! let epr = client.execute_factory(r.resource(), "SELECT * FROM t", &[], None, None).unwrap();
//! let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
//! let consumer2 = SqlClient::builder().bus(bus).epr(epr).build();
//! assert_eq!(consumer2.get_sql_rowset(&name, 1).unwrap().row_count(), 2);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub use dais_cim as cim;
pub use dais_core as core;
pub use dais_daif as daif;
pub use dais_dair as dair;
pub use dais_daix as daix;
pub use dais_federation as federation;
pub use dais_obs as obs;
pub use dais_soap as soap;
pub use dais_sql as sql;
pub use dais_wsrf as wsrf;
pub use dais_xml as xml;
pub use dais_xmldb as xmldb;

/// The most common imports for building and consuming DAIS services.
pub mod prelude {
    pub use dais_core::{
        AbstractName, ClientBuilder, ConfigurationDocument, CoreClient, CoreProperties, DaisClient,
        DataResource, NameGenerator, ResourceRef, ResourceRegistry, Sensitivity, ServiceContext,
    };
    pub use dais_daif::{FileClient, FileService, FileServiceOptions, FileStore};
    pub use dais_dair::{RelationalService, RelationalServiceOptions, SqlClient};
    pub use dais_daix::{XmlClient, XmlService, XmlServiceOptions};
    pub use dais_federation::{
        FederationService, FleetOptions, RelationalFleet, ShardScheme, XmlFleet,
    };
    pub use dais_soap::{
        Bus, Epr, ExecutorConfig, FaultInjector, FaultPolicy, Pending, PendingReply, RetryPolicy,
    };
    pub use dais_sql::{Database, Value};
    pub use dais_wsrf::{LifetimeRegistry, ManualClock, SystemClock};
    pub use dais_xmldb::XmlDatabase;
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    /// No two actions anywhere share a URI: the dispatcher keys handlers
    /// by URI, so a duplicate would silently route one operation to the
    /// other's handler.
    #[test]
    fn action_uris_are_distinct_across_every_inventory() {
        let inventories = [
            ("core", crate::core::messages::actions::ALL),
            ("wsrf", crate::wsrf::actions::ALL),
            ("dair", crate::dair::actions::ALL),
            ("daix", crate::daix::actions::ALL),
            ("daif", crate::daif::actions::ALL),
        ];
        let mut seen = BTreeMap::new();
        for (family, inventory) in inventories {
            for action in inventory {
                if let Some(first) = seen.insert(action.uri(), family) {
                    panic!("`{action}` is declared by both {first} and {family}");
                }
            }
        }
        assert_eq!(seen.len(), 44);
    }
}
