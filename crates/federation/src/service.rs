//! The federation endpoint: a WS-DAI service in its own right.
//!
//! `FederationService` advertises one *logical* data resource and
//! dispatches the standard WS-DAIR/WS-DAIX action URIs, scattering each
//! operation over the shard grid and gathering the results — a consumer
//! cannot tell a federated resource from a plain one. Query results are
//! gathered with the streaming k-way merge ([`crate::merge`]): shard
//! pages decode off the wire bytes through [`RowsetCursor`]s and rows
//! re-encode straight into the outgoing raw body, so no full rowset is
//! ever materialised on the merge path.
//!
//! [`RowsetCursor`]: dais_sql::RowsetCursor

use std::ops::Range;
use std::sync::Arc;

use dais_core::monitoring::MON_NS;
use dais_core::properties::{names, ResourceManagementKind};
use dais_core::{
    register_op, register_property_document, AbstractName, CoreProperties, DataResource,
    FactoryRequest, NameGenerator, Requires, ResourceRef, ServiceContext, ServiceSkeleton,
    TransactionIsolation,
};
use dais_dair::messages::{self as dair_messages, actions as dair_actions};
use dais_dair::resources::{relational_properties, rowset_factory_map};
use dais_daix::messages::{self as daix_messages, actions as daix_actions};
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_soap::{Action, CallError, RetryConfig, RetryPolicy};
use dais_sql::SqlCommunicationArea;
use dais_xml::{ns, QName, XmlElement, XmlWriter};

use crate::merge::{merge_cursors, MergeKey};
use crate::router::{ShardRouter, ShardScheme};
use crate::scatter::{call_replica, call_shard, LegHelpers, LegPool};
use crate::statement::{analyze, AdmissionError};

/// Knobs for assembling a federation endpoint.
#[derive(Debug, Clone)]
pub struct FederationOptions {
    /// Seed for the router's replica rotation.
    pub seed: u64,
    /// Candidate sweeps a failed replica sits out before its half-open
    /// probe.
    pub probe_after: u32,
    /// Retry schedule and sleeper for shard calls.
    pub failover: RetryConfig,
}

impl Default for FederationOptions {
    fn default() -> FederationOptions {
        FederationOptions {
            seed: 0xF1EE7,
            probe_after: 4,
            failover: RetryConfig::new(RetryPolicy::new(3)),
        }
    }
}

/// Map a failed shard call onto the fault a plain service would raise:
/// application faults pass through unchanged (the consumer must not be
/// able to tell the topology from the error), everything else — timeouts,
/// lost connections, admission rejections after failover exhausted — is
/// an honest `ServiceBusyFault`.
fn shard_fault(e: CallError) -> Fault {
    match e {
        CallError::Fault(f) => f,
        other => Fault::dais(DaisFault::ServiceBusy, format!("shard call failed: {other}")),
    }
}

/// A shard page that cannot be decoded (or tears mid-merge) must never
/// surface as a torn rowset: the reply is a well-formed fault instead.
fn torn_page(detail: impl std::fmt::Display) -> Fault {
    Fault::dais(DaisFault::ServiceBusy, format!("shard result stream failed: {detail}"))
}

/// Map a statement refused by [`analyze`] onto the consumer-visible
/// fault. `writes` is the handler-specific fault for a non-query
/// statement; a query whose shape scatter-gather cannot answer
/// correctly (aggregates, `DISTINCT`, `GROUP BY`, `UNION`, …) is an
/// honest `InvalidExpressionFault` — never a silently wrong answer.
fn admission_fault(e: AdmissionError, writes: Fault) -> Fault {
    match e {
        AdmissionError::NotReadOnly => writes,
        AdmissionError::NonDistributable(what) => Fault::dais(
            DaisFault::InvalidExpression,
            format!(
                "a federated resource cannot answer {what} by scatter-gather; \
                 it would require cross-shard recombination"
            ),
        ),
    }
}

/// The logical resource the federation endpoint advertises. Immutable
/// after launch; the live fleet picture renders on demand from the bus's
/// per-endpoint stats and the router's health table.
pub struct FederatedResource {
    properties: Arc<CoreProperties>,
    bus: Bus,
    router: Arc<ShardRouter>,
}

impl FederatedResource {
    /// The `mon:Fleet` extension property: one `mon:Member` per
    /// shard/replica with its routing health and endpoint traffic, so
    /// the SLO tooling that reads `mon:` documents sees the whole fleet
    /// behind the logical resource.
    fn fleet_element(&self) -> XmlElement {
        let mut fleet = XmlElement::new(MON_NS, "mon", "Fleet");
        fleet.set_attr("shards", self.router.shards().to_string());
        for s in 0..self.router.shards() {
            for r in 0..self.router.replica_count(s) {
                let member = self.router.replica(s, r);
                let address = member.endpoint_address();
                let stats = self.bus.endpoint_stats(&address);
                let mut el = XmlElement::new(MON_NS, "mon", "Member");
                el.set_attr("shard", s.to_string());
                el.set_attr("replica", r.to_string());
                el.set_attr("endpoint", address);
                el.set_attr("resource", member.resource().as_str());
                el.set_attr("healthy", self.router.is_healthy(s, r).to_string());
                el.set_attr("messages", stats.messages.to_string());
                el.set_attr("faults", stats.faults.to_string());
                el.set_attr("retries", stats.retries.to_string());
                el.set_attr("shed", stats.shed.to_string());
                el.set_attr("queueDepth", stats.queue_depth.to_string());
                fleet.push(el);
            }
        }
        fleet
    }
}

impl DataResource for FederatedResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        doc.push(self.fleet_element());
        doc
    }
}

/// A derived SQL response resource whose state lives on the shards: each
/// replica of each targeted shard that accepted the factory call holds
/// its own derived response, recorded here by abstract name so later
/// page reads can address any of them.
pub struct FederatedResponseResource {
    properties: Arc<CoreProperties>,
    per_shard: ShardNames,
    /// The merge discipline inherited from the scattered statement: its
    /// full `ORDER BY` key list.
    keys: Vec<MergeKey>,
    /// The statement's own `OFFSET`/`LIMIT`, applied globally at the
    /// merge (the shard statements had them stripped).
    offset: usize,
    limit: Option<usize>,
}

impl DataResource for FederatedResponseResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }
}

/// A derived rowset resource backed by one shard-local rowset per
/// replica; pages merge on read.
pub struct FederatedRowsetResource {
    properties: Arc<CoreProperties>,
    per_shard: ShardNames,
    keys: Vec<MergeKey>,
    /// Merged rows hidden before the rowset's row 0 (the statement's
    /// `OFFSET`).
    skip: usize,
    /// Global row cap: the factory's `Count` and the statement's
    /// `LIMIT`, whichever is tighter.
    cap: Option<usize>,
}

impl DataResource for FederatedRowsetResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }
}

/// What every federated operation scatters over: the shard grid, its
/// failover policy and the leg helpers. Each scatter's legs hold an
/// `Arc` of it, so a leg still running on a helper borrows nothing from
/// the handler that started it.
struct Grid {
    bus: Bus,
    router: Arc<ShardRouter>,
    failover: RetryConfig,
    legs: LegPool,
}

impl Grid {
    /// Send one request to each of `shards` — concurrently, on the leg
    /// helpers, so one slow or backing-off shard does not stall the
    /// gather of its siblings — and collect each leg's own reply buffer
    /// in shard order, detached from the buffer pool: the pool is per
    /// thread, and a page dropped on the gathering thread would return
    /// there, not to the helper that fills the next one. Each shard call
    /// runs through [`call_shard`], so replica failover and health
    /// marking apply per shard.
    fn pages(
        self: &Arc<Self>,
        shards: Range<usize>,
        action: Action,
        request_for: impl Fn(usize, usize) -> Result<XmlElement, CallError> + Send + Sync + 'static,
    ) -> Result<Vec<Vec<u8>>, Fault> {
        let grid = self.clone();
        self.legs
            .scatter(shards, move |s| {
                call_shard(&grid.bus, &grid.router, s, &grid.failover, |client, r| {
                    let request = request_for(s, r)?;
                    Ok(client.request_bytes(action, &request, action.resendable())?.into_inner())
                })
            })
            .into_iter()
            .map(|page| page.map_err(shard_fault))
            .collect()
    }

    /// Fan a factory request out to *every* replica of each of `shards`
    /// (each replica must hold its own derived resource), recording the
    /// derived abstract name per replica. Shards run concurrently;
    /// within a shard each replica is called through [`call_replica`],
    /// so a transient timeout is retried on the failover policy's
    /// schedule instead of permanently costing the derived resource
    /// that replica's redundancy. A shard where no replica succeeded
    /// fails the whole factory with that shard's last error.
    fn fan_out_factory(
        self: &Arc<Self>,
        shards: Range<usize>,
        action: Action,
        request_for: impl Fn(usize, usize) -> XmlElement + Send + Sync + 'static,
    ) -> Result<ShardNames, Fault> {
        let grid = self.clone();
        let names = self.legs.scatter(shards.clone(), move |s| {
            let router = &grid.router;
            let mut names: Vec<Option<AbstractName>> = Vec::with_capacity(router.replica_count(s));
            let mut last_err: Option<CallError> = None;
            for r in 0..router.replica_count(s) {
                let address = router.replica(s, r).endpoint_address();
                let minted = call_replica(&grid.bus, &address, &grid.failover, |client| {
                    let reply = client.request(action, request_for(s, r))?;
                    let epr = dais_core::factory::parse_factory_response(&reply)
                        .map_err(CallError::Fault)?;
                    epr.resource_abstract_name()
                        .and_then(|text| AbstractName::new(text).ok())
                        .ok_or_else(|| {
                            CallError::Fault(Fault::client(
                                "factory EPR carries no resource abstract name",
                            ))
                        })
                });
                match minted {
                    Ok(name) => {
                        router.mark_success(s, r);
                        names.push(Some(name));
                    }
                    Err(e) => {
                        router.mark_failure(s, r);
                        last_err = Some(e);
                        names.push(None);
                    }
                }
            }
            if names.iter().all(Option::is_none) {
                return Err(match last_err {
                    Some(e) => shard_fault(e),
                    None => {
                        Fault::dais(DaisFault::ServiceBusy, format!("shard {s} has no replicas"))
                    }
                });
            }
            Ok(names)
        });
        let names = names.into_iter().collect::<Result<_, Fault>>()?;
        Ok(ShardNames { shards, names })
    }
}

/// The per-replica abstract names of a derived resource's shard-local
/// halves, for the run of shards its statement targeted: `name(s, r)`
/// is replica `r` of shard `s`'s, `None` when that replica missed the
/// fan-out.
#[derive(Clone)]
struct ShardNames {
    shards: Range<usize>,
    names: Arc<[Vec<Option<AbstractName>>]>,
}

impl ShardNames {
    /// The shards holding a half of the derived resource.
    fn shards(&self) -> Range<usize> {
        self.shards.clone()
    }

    fn name(&self, shard: usize, replica: usize) -> Option<&AbstractName> {
        self.names[shard - self.shards.start][replica].as_ref()
    }
}

/// Merge gathered pages into the same `wrapper(SQLResponse(SQLRowset,
/// SQLCommunicationArea))` reply frame the plain service writes.
/// `comm_area` sees the merged row count.
fn merged_response(
    wrapper: &str,
    pages: &[Vec<u8>],
    keys: &[MergeKey],
    skip: usize,
    take: usize,
    comm_area: impl Fn(u64) -> SqlCommunicationArea,
) -> Result<Envelope, Fault> {
    let mut cursors = Vec::with_capacity(pages.len());
    for page in pages {
        cursors.push(dair_messages::rowset_cursor_from_reply_bytes(page).map_err(torn_page)?);
    }
    let mut fragment = String::new();
    let mut w = XmlWriter::new(&mut fragment);
    dair_messages::begin_sql_response(&mut w, wrapper);
    // A decode error here (a shard died mid-stream) abandons the whole
    // fragment: the consumer gets a fault envelope, never a torn rowset.
    let rows =
        dair_messages::write_sql_rowset(&mut w, |w| merge_cursors(w, cursors, keys, skip, take))
            .map_err(torn_page)?;
    dair_messages::end_sql_response(&mut w, &comm_area(rows));
    w.finish();
    Ok(Envelope::with_raw_body(fragment))
}

/// A federation endpoint serving one logical resource over a shard grid.
///
/// It owns the `shards − 1` leg helper threads its scatters run on, and
/// dropping it stops them. (The endpoint's dispatcher cannot own them:
/// it lives as long as the bus, which its own resources hold.) A
/// dispatcher that outlives this handle still answers, with each caller
/// running every leg itself.
pub struct FederationService {
    pub ctx: Arc<ServiceContext>,
    pub names: Arc<NameGenerator>,
    pub router: Arc<ShardRouter>,
    /// The logical resource consumers address.
    pub resource: ResourceRef,
    /// The abstract name of the endpoint's monitoring resource.
    pub monitoring: AbstractName,
    _helpers: LegHelpers,
}

impl FederationService {
    /// Launch a federated **relational** endpoint at `address`:
    /// `replicas[s][r]` names the backing `db` resource of replica `r`
    /// of shard `s` (each an ordinary WS-DAIR service on the same bus).
    pub fn launch_relational(
        bus: &Bus,
        address: &str,
        scheme: ShardScheme,
        replicas: Vec<Vec<ResourceRef>>,
        options: FederationOptions,
    ) -> FederationService {
        let (mut s, resource, router) = Self::skeleton(address, "db", scheme, replicas, &options);
        let (ctx, names) = (s.ctx.clone(), s.names.clone());
        let (helpers, grid) = Self::grid(bus, &router, &options);
        register_federated_sql_ops(&mut s.dispatcher, ctx.clone(), names.clone(), grid);
        // The maps a plain SqlDataResource publishes, so factory
        // negotiation is indistinguishable. Writes are refused: ingest goes
        // through the fleet's router, not the federation endpoint. The legs
        // read their shards at different instants, so a query sees only
        // committed statements, not one snapshot.
        let logical = resource.resource().clone();
        let description =
            format!("federated relational resource over {} shard(s)", router.shards());
        let mut properties = relational_properties(logical, description);
        properties.transaction_isolation = TransactionIsolation::ReadCommitted;
        let monitoring = s.serve(
            bus,
            Arc::new(FederatedResource {
                properties: Arc::new(properties),
                bus: bus.clone(),
                router: router.clone(),
            }),
        );
        FederationService { ctx, names, router, resource, monitoring, _helpers: helpers }
    }

    /// Launch a federated **XML** endpoint at `address`: `replicas[s][r]`
    /// names the backing root collection of replica `r` of shard `s`.
    /// Documents route by name hash ([`ShardScheme::Collection`]).
    pub fn launch_xml(
        bus: &Bus,
        address: &str,
        replicas: Vec<Vec<ResourceRef>>,
        options: FederationOptions,
    ) -> FederationService {
        let scheme = ShardScheme::Collection;
        let (mut s, resource, router) =
            Self::skeleton(address, "collection", scheme, replicas, &options);
        let (ctx, names) = (s.ctx.clone(), s.names.clone());
        let (helpers, grid) = Self::grid(bus, &router, &options);
        register_federated_xml_ops(&mut s.dispatcher, ctx.clone(), grid);
        let logical = resource.resource().clone();
        let mut props = CoreProperties::new(logical, ResourceManagementKind::ExternallyManaged);
        props.description = format!("federated XML collection over {} shard(s)", router.shards());
        let monitoring = s.serve(
            bus,
            Arc::new(FederatedResource {
                properties: Arc::new(props),
                bus: bus.clone(),
                router: router.clone(),
            }),
        );
        FederationService { ctx, names, router, resource, monitoring, _helpers: helpers }
    }

    /// The endpoint's skeleton, its logical resource (a `kind` name
    /// minted first) and the router over `replicas`.
    fn skeleton(
        address: &str,
        kind: &str,
        scheme: ShardScheme,
        replicas: Vec<Vec<ResourceRef>>,
        options: &FederationOptions,
    ) -> (ServiceSkeleton, ResourceRef, Arc<ShardRouter>) {
        let skeleton = ServiceSkeleton::new(address, None, None);
        let logical = skeleton.names.mint(kind);
        #[expect(clippy::expect_used, reason = "a bad address is a configuration error")]
        let resource = ResourceRef::from_parts(address, &logical)
            .expect("federation address must yield a valid resource ref");
        let router = Arc::new(ShardRouter::new(
            resource.clone(),
            scheme,
            replicas,
            options.seed,
            options.probe_after,
        ));
        (skeleton, resource, router)
    }

    /// Start the leg helpers — one per shard beyond the first, since the
    /// scattering caller runs a leg too — and the grid the handlers
    /// scatter over.
    fn grid(
        bus: &Bus,
        router: &Arc<ShardRouter>,
        options: &FederationOptions,
    ) -> (LegHelpers, Arc<Grid>) {
        let helpers = LegHelpers::start(router.shards() - 1);
        let grid = Arc::new(Grid {
            bus: bus.clone(),
            router: router.clone(),
            failover: options.failover.clone(),
            legs: helpers.pool(),
        });
        (helpers, grid)
    }
}

/// Register the federated WS-DAIR operations: direct access
/// (scatter + merge), the factory pipeline (all-replica fan-out), and
/// paged rowset reads. Each statement reaches only the shards that can
/// hold its rows ([`DistributedStatement::target_shards`]); its derived
/// resources live on those shards alone.
///
/// [`DistributedStatement::target_shards`]: crate::DistributedStatement::target_shards
fn register_federated_sql_ops(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
    grid: Arc<Grid>,
) {
    let g = grid.clone();
    let op = move |body: &XmlElement, resource: &FederatedResource| {
        let props = resource.core_properties();
        if let Some(format) = dais_core::messages::extract_format_uri(body) {
            let message = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteRequest");
            if !props.supports_format(&message, &format) {
                return Err(Fault::dais(
                    DaisFault::InvalidDatasetFormat,
                    format!("format '{format}' is not in the DatasetMap for SQLExecuteRequest"),
                ));
            }
        }
        let (sql, params) = dair_messages::parse_sql_expression(body)?;
        // Writes go through the fleet's router (every replica of the
        // owning shard), not the logical resource, which is not
        // Writeable; queries must prove their shape distributable before
        // anything reaches a shard.
        let stmt = analyze(&sql).map_err(|e| admission_fault(e, Requires::Writeable.refusal()))?;
        Requires::Readable.check(&props)?;
        let targets = stmt.target_shards(g.router.scheme(), g.router.shards(), &params);
        let (shard_sql, router) = (stmt.shard_statement(), g.router.clone());
        let pages = g.pages(targets, dair_actions::SQL_EXECUTE, move |s, r| {
            Ok(dair_messages::sql_execute_request(
                router.replica(s, r).resource(),
                ns::ROWSET,
                &shard_sql,
                &params,
            ))
        })?;
        let (skip, take) = stmt.window();
        merged_response("SQLExecuteResponse", &pages, &stmt.keys, skip, take, |rows| {
            if rows == 0 {
                SqlCommunicationArea { sqlstate: "02000".into(), ..SqlCommunicationArea::success() }
            } else {
                SqlCommunicationArea::success()
            }
        })
    };
    register_op(dispatcher, &ctx, dair_actions::SQL_EXECUTE, Requires::Nothing, op);

    register_property_document::<FederatedResource>(
        dispatcher,
        &ctx,
        dair_actions::GET_SQL_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLPropertyDocumentResponse"),
    );

    let c = ctx.clone();
    let n = names.clone();
    let g = grid.clone();
    let op = move |body: &XmlElement, resource: &FederatedResource| {
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
        let factory = FactoryRequest::negotiate(body, resource, message)?;
        let (sql, params) = dair_messages::parse_sql_expression(body)?;
        let stmt = analyze(&sql).map_err(|e| {
            admission_fault(
                e,
                Fault::dais(
                    DaisFault::InvalidExpression,
                    "SQLExecuteFactory only accepts query statements",
                ),
            )
        })?;
        let targets = stmt.target_shards(g.router.scheme(), g.router.shards(), &params);
        let (shard_sql, router) = (stmt.shard_statement(), g.router.clone());
        let forwarded_config = names::CONFIGURATION_DOCUMENT.find_in(body).cloned();
        let per_shard =
            g.fan_out_factory(targets, dair_actions::SQL_EXECUTE_FACTORY, move |s, r| {
                let mut shard_req = dair_messages::sql_execute_request(
                    router.replica(s, r).resource(),
                    ns::ROWSET,
                    &shard_sql,
                    &params,
                );
                shard_req.name = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
                if let Some(cfg) = &forwarded_config {
                    shard_req.push(cfg.clone());
                }
                shard_req
            })?;

        factory.finish(&c, &n, "sql-response", |mut properties| {
            properties.configuration_maps.push(rowset_factory_map());
            Ok(FederatedResponseResource {
                properties: Arc::new(properties),
                per_shard,
                keys: stmt.keys,
                offset: stmt.offset,
                limit: stmt.limit,
            })
        })
    };
    register_op(dispatcher, &ctx, dair_actions::SQL_EXECUTE_FACTORY, Requires::Readable, op);

    register_property_document::<FederatedResponseResource>(
        dispatcher,
        &ctx,
        dair_actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLResponsePropertyDocumentResponse"),
    );

    let c = ctx.clone();
    let g = grid.clone();
    let op = move |body: &XmlElement, response: &FederatedResponseResource| {
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLRowsetFactoryRequest");
        let factory = FactoryRequest::negotiate(body, response, message)?;
        let count: Option<usize> =
            body.child_text(ns::WSDAIR, "Count").and_then(|t| t.trim().parse().ok());
        // The logical rowset holds min(factory Count, statement LIMIT)
        // rows, starting after the statement's OFFSET.
        let cap = match (count, response.limit) {
            (Some(c), Some(l)) => Some(c.min(l)),
            (c, l) => c.or(l),
        };
        let skip = response.offset;

        let shard_names = response.per_shard.clone();
        let logical = response.properties.abstract_name.clone();
        let targets = shard_names.shards();
        let per_shard =
            g.fan_out_factory(targets, dair_actions::SQL_ROWSET_FACTORY, move |s, r| {
                match shard_names.name(s, r) {
                    Some(backing) => {
                        let mut shard_req =
                            dais_core::messages::request("SQLRowsetFactoryRequest", backing);
                        if let Some(cap) = cap {
                            // skip + cap is a safe per-shard over-fetch
                            // bound: no shard contributes more than the
                            // whole window, skipped prefix included.
                            shard_req.push(
                                XmlElement::new(ns::WSDAIR, "wsdair", "Count")
                                    .with_text(skip.saturating_add(cap).to_string()),
                            );
                        }
                        shard_req
                    }
                    // The replica missed the response fan-out; addressing the
                    // (unknown there) logical response name makes it fault —
                    // and the sweep record it — rather than silently serving
                    // nothing.
                    None => dais_core::messages::request("SQLRowsetFactoryRequest", &logical),
                }
            })?;

        factory.finish(&c, &names, "rowset", |properties| {
            Ok(FederatedRowsetResource {
                properties: Arc::new(properties),
                per_shard,
                keys: response.keys.clone(),
                skip,
                cap,
            })
        })
    };
    register_op(dispatcher, &ctx, dair_actions::SQL_ROWSET_FACTORY, Requires::Readable, op);

    let op = move |body: &XmlElement, rowset: &FederatedRowsetResource| {
        let (start, count) = dair_messages::parse_get_tuples(body)?;
        let take = match rowset.cap {
            Some(cap) => count.min(cap.saturating_sub(start)),
            None => count,
        };
        // The statement's OFFSET shifts the whole window; every shard
        // may in the worst case own all of it, so each page fetch is
        // bounded by skip+start+take — never the shard's full rowset.
        let skip = rowset.skip.saturating_add(start);
        let fetch = skip.saturating_add(take);
        let per_shard = rowset.per_shard.clone();
        let pages = grid.pages(per_shard.shards(), dair_actions::GET_TUPLES, move |s, r| {
            let name = per_shard.name(s, r).ok_or_else(|| {
                CallError::Fault(Fault::dais(
                    DaisFault::DataResourceUnavailable,
                    "replica holds no derived rowset",
                ))
            })?;
            Ok(dair_messages::get_tuples_request(name, 0, fetch))
        })?;
        merged_response("GetTuplesResponse", &pages, &rowset.keys, skip, take, |_| {
            SqlCommunicationArea::success()
        })
    };
    register_op(dispatcher, &ctx, dair_actions::GET_TUPLES, Requires::Readable, op);

    register_property_document::<FederatedRowsetResource>(
        dispatcher,
        &ctx,
        dair_actions::GET_ROWSET_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetRowsetPropertyDocumentResponse"),
    );
}

/// Register the federated WS-DAIX operations: `XPathExecute` fans out
/// over the sharded collections and unions the document sets in shard
/// order.
fn register_federated_xml_ops(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    grid: Arc<Grid>,
) {
    let op = move |body: &XmlElement, _: &FederatedResource| {
        let expression = daix_messages::parse_expression(body)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "XPathExecuteResponse");
        // Shards answer concurrently; the document-set union still
        // assembles in shard order.
        let g = grid.clone();
        let replies = grid.legs.scatter(0..grid.router.shards(), move |s| {
            call_shard(&g.bus, &g.router, s, &g.failover, |client, r| {
                let shard_req = daix_messages::query_request(
                    "XPathExecuteRequest",
                    g.router.replica(s, r).resource(),
                    &expression,
                );
                client.request(daix_actions::XPATH_EXECUTE, shard_req)
            })
        });
        for reply in replies {
            let reply = reply.map_err(shard_fault)?;
            for item in reply.children_named(ns::WSDAIX, "Item") {
                response.push(item.clone());
            }
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, daix_actions::XPATH_EXECUTE, Requires::Readable, op);

    register_property_document::<FederatedResource>(
        dispatcher,
        &ctx,
        daix_actions::GET_COLLECTION_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIX, "wsdaix", "GetCollectionPropertyDocumentResponse"),
    );
}
