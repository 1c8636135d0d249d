//! Fleet topology builders: launch a shard × replica grid of ordinary
//! WS-DAI services plus the federation endpoint over them, in one call.
//!
//! Used by the conformance suite and the benchmarks; production
//! deployments wire [`FederationService`] onto existing services
//! directly. Ingest goes through the fleet — rows and documents route to
//! their owning shard and write to *every* replica of it — because the
//! logical resource itself refuses writes.

use std::sync::Arc;

use dais_core::ResourceRef;
use dais_dair::messages::{self as dair_messages, actions as dair_actions};
use dais_dair::{RelationalService, RelationalServiceOptions};
use dais_daix::messages::{self as daix_messages, actions as daix_actions};
use dais_daix::{XmlService, XmlServiceOptions};
use dais_soap::bus::Bus;
use dais_soap::{CallError, Fault, RetryConfig, ServiceClient};
use dais_sql::{Database, Value};
use dais_xml::{ns, XmlElement};
use dais_xmldb::XmlDatabase;

use crate::router::{ShardAddress, ShardRouter, ShardScheme};
use crate::service::{FederationOptions, FederationService};

/// Shape and tuning of a fleet.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Seed for the router's replica rotation.
    pub seed: u64,
    /// Candidate sweeps a failed replica sits out before its half-open
    /// probe.
    pub probe_after: u32,
    /// Retry schedule and sleeper for shard calls.
    pub failover: RetryConfig,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            shards: 4,
            replicas: 2,
            seed: 0xF1EE7,
            probe_after: 4,
            failover: FederationOptions::default().failover,
        }
    }
}

impl FleetOptions {
    fn federation(&self) -> FederationOptions {
        FederationOptions {
            seed: self.seed,
            probe_after: self.probe_after,
            failover: self.failover.clone(),
        }
    }
}

/// A relational shard × replica grid with its federation endpoint.
pub struct RelationalFleet {
    pub bus: Bus,
    pub federation: FederationService,
    pub router: Arc<ShardRouter>,
    /// `services[s][r]` is the plain WS-DAIR service backing replica `r`
    /// of shard `s`.
    pub services: Vec<Vec<RelationalService>>,
}

impl RelationalFleet {
    /// Launch `shards × replicas` relational services (each applying
    /// `schema`) and the federation endpoint at `bus://<authority>`.
    pub fn launch(
        bus: &Bus,
        authority: &str,
        schema: &str,
        scheme: ShardScheme,
        options: FleetOptions,
    ) -> RelationalFleet {
        let mut services = Vec::with_capacity(options.shards);
        let mut replicas = Vec::with_capacity(options.shards);
        for s in 0..options.shards {
            let mut row = Vec::with_capacity(options.replicas);
            let mut refs = Vec::with_capacity(options.replicas);
            for r in 0..options.replicas {
                let address = ShardAddress::new(authority, s, r);
                let db = Database::new(format!("shard{s}"));
                #[expect(clippy::expect_used, reason = "a bad schema is a configuration error")]
                db.execute_script(schema).expect("fleet schema script must apply");
                let svc = RelationalService::launch(
                    bus,
                    address.as_str(),
                    db,
                    RelationalServiceOptions::default(),
                );
                #[expect(clippy::expect_used, reason = "a bad address is a configuration error")]
                refs.push(
                    ResourceRef::from_parts(address.as_str(), &svc.db_resource)
                        .expect("shard address must form a resource ref"),
                );
                row.push(svc);
            }
            services.push(row);
            replicas.push(refs);
        }
        let federation = FederationService::launch_relational(
            bus,
            &format!("bus://{authority}"),
            scheme,
            replicas,
            options.federation(),
        );
        let router = federation.router.clone();
        RelationalFleet { bus: bus.clone(), federation, router, services }
    }

    /// The logical resource consumers address.
    pub fn resource(&self) -> &ResourceRef {
        &self.federation.resource
    }

    /// Route a row to its owning shard (by `key`, the row's value of the
    /// scheme's key column) and execute the write statement against
    /// every replica of it.
    ///
    /// Under `Hash` or `Range` the key must be a `Value::Int`; anything
    /// else is refused with a client fault before any shard is written.
    /// This is the [`ShardScheme`] placement contract that shard pruning
    /// relies on: a row keyed `Double(5.0)` would hash as `"5.0"`, while
    /// `WHERE k = 5` prunes to the shard of `"5"`.
    pub fn ingest(&self, key: &Value, sql: &str, params: &[Value]) -> Result<(), CallError> {
        if let (Some(column), false) =
            (self.router.scheme().key_column(), matches!(key, Value::Int(_)))
        {
            return Err(CallError::Fault(Fault::client(format!(
                "shard key column '{column}' takes an INTEGER value, not {key:?}"
            ))));
        }
        let shard = self.router.route(key);
        for r in 0..self.router.replica_count(shard) {
            let replica = self.router.replica(shard, r);
            let client = ServiceClient::new(self.bus.clone(), replica.endpoint_address());
            let req =
                dair_messages::sql_execute_request(replica.resource(), ns::ROWSET, sql, params);
            client.request(dair_actions::SQL_EXECUTE, req)?;
        }
        Ok(())
    }
}

/// An XML shard × replica grid with its federation endpoint. Documents
/// route by name hash.
pub struct XmlFleet {
    pub bus: Bus,
    pub federation: FederationService,
    pub router: Arc<ShardRouter>,
    /// `services[s][r]` is the plain WS-DAIX service backing replica `r`
    /// of shard `s`.
    pub services: Vec<Vec<XmlService>>,
}

impl XmlFleet {
    /// Launch `shards × replicas` XML services and the federation
    /// endpoint at `bus://<authority>`.
    pub fn launch(bus: &Bus, authority: &str, options: FleetOptions) -> XmlFleet {
        let mut services = Vec::with_capacity(options.shards);
        let mut replicas = Vec::with_capacity(options.shards);
        for s in 0..options.shards {
            let mut row = Vec::with_capacity(options.replicas);
            let mut refs = Vec::with_capacity(options.replicas);
            for r in 0..options.replicas {
                let address = ShardAddress::new(authority, s, r);
                let db = XmlDatabase::new(format!("shard{s}"));
                let svc =
                    XmlService::launch(bus, address.as_str(), db, XmlServiceOptions::default());
                #[expect(clippy::expect_used, reason = "a bad address is a configuration error")]
                refs.push(
                    ResourceRef::from_parts(address.as_str(), &svc.root_collection)
                        .expect("shard address must form a resource ref"),
                );
                row.push(svc);
            }
            services.push(row);
            replicas.push(refs);
        }
        let federation = FederationService::launch_xml(
            bus,
            &format!("bus://{authority}"),
            replicas,
            options.federation(),
        );
        let router = federation.router.clone();
        XmlFleet { bus: bus.clone(), federation, router, services }
    }

    /// The logical resource consumers address.
    pub fn resource(&self) -> &ResourceRef {
        &self.federation.resource
    }

    /// Route a document to its owning shard (by name hash) and add it to
    /// every replica's root collection. Returns the add status reported
    /// by the shards (`"Success"`, or e.g. `"DocumentExists"`).
    pub fn ingest(&self, name: &str, document: &XmlElement) -> Result<String, CallError> {
        let shard = self.router.route(&Value::Str(name.to_string()));
        let mut status = String::from("Success");
        for r in 0..self.router.replica_count(shard) {
            let replica = self.router.replica(shard, r);
            let client = ServiceClient::new(self.bus.clone(), replica.endpoint_address());
            let req = daix_messages::add_documents_request(
                replica.resource(),
                &[(name.to_string(), document.clone())],
            );
            let reply = client.request(daix_actions::ADD_DOCUMENTS, req)?;
            let outcome = reply
                .children_named(ns::WSDAIX, "Result")
                .next()
                .and_then(|el| el.attribute("status"))
                .map(str::to_string);
            if let Some(s) = outcome {
                if s != "Success" {
                    status = s;
                }
            }
        }
        Ok(status)
    }
}
