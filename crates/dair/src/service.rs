//! Service-side registration of the WS-DAIR interfaces.
//!
//! Interfaces register independently (paper §4.3: "the proposed
//! interfaces may be used in isolation or in conjunction with others"),
//! so a deployment can put SQLAccess+SQLFactory on one service and the
//! response/rowset interfaces on others — exactly the three-service
//! arrangement of Figure 5 — or everything on a single service
//! ([`RelationalService::launch`]).

use crate::messages::{self, actions};
use crate::resources::{sql_fault, RowsetResource, SqlDataResource, SqlResponseResource};
use dais_core::factory::{factory_response, mint_resource_epr, DerivedResourceConfig};
use dais_core::service::QueryRewriter;
use dais_core::{
    register_core_ops, register_wsrf_ops, NameGenerator, ResourceRegistry, ServiceContext,
};
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_sql::ast::Stmt;
use dais_sql::parser::parse_statement;
use dais_sql::{Database, Rowset};
use dais_wsrf::LifetimeRegistry;
use dais_xml::{ns, QName, XmlElement, XmlWriter};
use std::sync::Arc;

fn payload(request: &Envelope) -> Result<&XmlElement, Fault> {
    request.payload().ok_or_else(|| Fault::client("request has an empty SOAP body"))
}

fn respond(element: XmlElement) -> Result<Envelope, Fault> {
    Ok(Envelope::with_body(element))
}

/// A reply that carries rows: its body is streamed once through `write`
/// into a raw-body envelope, never built as a tree.
fn respond_streamed(write: impl FnOnce(&mut XmlWriter<'_, String>)) -> Result<Envelope, Fault> {
    let mut fragment = String::new();
    let mut w = XmlWriter::new(&mut fragment);
    write(&mut w);
    w.finish();
    Ok(Envelope::with_raw_body(fragment))
}

fn as_sql_resource(resource: &Arc<dyn dais_core::DataResource>) -> Result<&SqlDataResource, Fault> {
    resource.as_any().downcast_ref::<SqlDataResource>().ok_or_else(|| {
        Fault::dais(DaisFault::InvalidResourceName, "resource is not a relational data resource")
    })
}

fn as_response_resource(
    resource: &Arc<dyn dais_core::DataResource>,
) -> Result<&SqlResponseResource, Fault> {
    resource.as_any().downcast_ref::<SqlResponseResource>().ok_or_else(|| {
        Fault::dais(DaisFault::InvalidResourceName, "resource is not an SQL response resource")
    })
}

fn as_rowset_resource(
    resource: &Arc<dyn dais_core::DataResource>,
) -> Result<&RowsetResource, Fault> {
    resource.as_any().downcast_ref::<RowsetResource>().ok_or_else(|| {
        Fault::dais(DaisFault::InvalidResourceName, "resource is not a rowset resource")
    })
}

/// Register the **SQLAccess** interface (`SQLExecute`,
/// `GetSQLPropertyDocument`) for resources held by `ctx`.
pub fn register_sql_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let c = ctx.clone();
    dispatcher.register(actions::SQL_EXECUTE, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let sql_resource = as_sql_resource(&resource)?;
        let props = resource.core_properties();

        // DatasetMap check (§4.2: valid return formats are specified in
        // DatasetMap properties).
        if let Some(format) = dais_core::messages::extract_format_uri(body) {
            let message = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteRequest");
            if !props.supports_format(&message, &format) {
                return Err(Fault::dais(
                    DaisFault::InvalidDatasetFormat,
                    format!("format '{format}' is not in the DatasetMap for SQLExecuteRequest"),
                ));
            }
        }

        // Parsed once; an unparseable statement counts as a write.
        let (sql, params) = messages::parse_sql_expression(body)?;
        let stmt = parse_statement(&sql);
        let read_only = matches!(stmt, Ok(Stmt::Select(_)));
        if read_only && !props.readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
        if !read_only && !props.writeable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not writeable"));
        }
        // A rewriter may change the statement class, so its output is
        // parsed again and decides.
        let stmt = match &c.query_rewriter {
            Some(rw) => parse_statement(&rw("sql", &sql).1),
            None => stmt,
        }
        .map_err(sql_fault)?;

        // SELECTs encode rows off the engine cursor as the scan yields
        // them, without ever materialising a rowset.
        if let Stmt::Select(select) = &stmt {
            let mut fragment = String::new();
            sql_resource.execute_query_streamed(select, &params, &mut fragment)?;
            return Ok(Envelope::with_raw_body(fragment));
        }
        let data = sql_resource.execute_stmt(&stmt, &params)?;
        respond_streamed(|w| data.write_response(w, "SQLExecuteResponse"))
    });

    let c = ctx;
    dispatcher.register(actions::GET_SQL_PROPERTY_DOCUMENT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        as_sql_resource(&resource)?;
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLPropertyDocumentResponse");
        response.push(resource.property_document());
        respond(response)
    });
}

/// Register the **SQLFactory** interface (`SQLExecuteFactory`). Derived
/// SQL response resources are registered on `target` (the data service
/// that will serve them — Data Service 2 in Figure 5) and the returned
/// EPR points at `target`'s address.
pub fn register_sql_factory(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    target: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    dispatcher.register(actions::SQL_EXECUTE_FACTORY, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = ctx.resolve_resource(body)?;
        let sql_resource = as_sql_resource(&resource)?;
        let props = resource.core_properties();
        if !props.readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }

        let config = DerivedResourceConfig::from_request(body)?;
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
        let (_port, effective) = config.resolve_against(&props.configuration_maps, &message)?;

        let (sql, params) = messages::parse_sql_expression(body)?;
        let Ok(stmt @ Stmt::Select(_)) = parse_statement(&sql) else {
            return Err(Fault::dais(
                DaisFault::InvalidExpression,
                "SQLExecuteFactory only accepts query statements",
            ));
        };

        let name = names.mint("sql-response");
        let derived_props = config.derived_properties(name.clone(), &effective);
        let response_resource =
            SqlResponseResource::create(derived_props, sql_resource.database(), &stmt, &params)?;
        target.add_resource(Arc::new(response_resource));

        let epr = mint_resource_epr(&target.address, &name);
        respond(factory_response("SQLExecuteFactoryResponse", ns::WSDAIR, "wsdair", &epr))
    });
}

/// Register the **ResponseAccess** interface over `ctx`'s resources.
pub fn register_response_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let index_of = |body: &XmlElement| -> usize {
        body.child_text(ns::WSDAIR, "Index").and_then(|t| t.trim().parse().ok()).unwrap_or(1)
    };

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        as_response_resource(&resource)?;
        let mut response =
            XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLResponsePropertyDocumentResponse");
        response.push(resource.property_document());
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_ROWSET, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let i = index_of(body);
        let rowset = data.rowsets.get(i - 1).ok_or_else(|| {
            Fault::client(format!(
                "response has {} rowset(s), index {i} requested",
                data.rowsets.len()
            ))
        })?;
        respond_streamed(|w| {
            messages::write_item_response(w, "GetSQLRowsetResponse", |w| {
                messages::write_sql_rowset(w, |w| rowset.write_into(w))
            })
        })
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_UPDATE_COUNT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let i = index_of(body);
        let count = data.update_counts.get(i - 1).ok_or_else(|| {
            Fault::client(format!(
                "response has {} update count(s), index {i} requested",
                data.update_counts.len()
            ))
        })?;
        respond(XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLUpdateCountResponse").with_child(
            XmlElement::new(ns::WSDAIR, "wsdair", "SQLUpdateCount").with_text(count.to_string()),
        ))
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_RETURN_VALUE, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLReturnValueResponse");
        if let Some(v) = &data.return_value {
            response.push(
                XmlElement::new(ns::WSDAIR, "wsdair", "SQLReturnValue")
                    .with_text(v.to_display_string()),
            );
        }
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_OUTPUT_PARAMETER, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let requested = body.child_text(ns::WSDAIR, "ParameterName");
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLOutputParameterResponse");
        for (name, v) in &data.output_parameters {
            if requested.as_deref().map(|r| r == name).unwrap_or(true) {
                response.push(
                    XmlElement::new(ns::WSDAIR, "wsdair", "SQLOutputParameter")
                        .with_attr("name", name)
                        .with_text(v.to_display_string()),
                );
            }
        }
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_SQL_COMMUNICATION_AREA, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLCommunicationAreaResponse");
        response.push(data.communication_area.to_xml());
        respond(response)
    });

    let c = ctx;
    dispatcher.register(actions::GET_SQL_RESPONSE_ITEM, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let i = index_of(body);
        // Items are numbered across rowsets then update counts.
        let total = data.rowsets.len() + data.update_counts.len();
        if i == 0 || i > total {
            return Err(Fault::client(format!(
                "response has {total} item(s), index {i} requested"
            )));
        }
        respond_streamed(|w| {
            messages::write_item_response(w, "GetSQLResponseItemResponse", |w| {
                match data.rowsets.get(i - 1) {
                    Some(rowset) => messages::write_sql_rowset(w, |w| rowset.write_into(w)),
                    None => messages::write_update_count(
                        w,
                        data.update_counts[i - 1 - data.rowsets.len()],
                    ),
                }
            })
        })
    });
}

/// Register the **ResponseFactory** interface (`SQLRowsetFactory`): derive
/// a rowset resource from a response, registered on `target`.
pub fn register_response_factory(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    target: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    dispatcher.register(actions::SQL_ROWSET_FACTORY, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = ctx.resolve_resource(body)?;
        let data = as_response_resource(&resource)?.response()?;
        let props = resource.core_properties();

        let config = DerivedResourceConfig::from_request(body)?;
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLRowsetFactoryRequest");
        let (_port, effective) = config.resolve_against(&props.configuration_maps, &message)?;

        let index: usize = body
            .child_text(ns::WSDAIR, "RowsetIndex")
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(1);
        let rowset = data.rowsets.get(index - 1).ok_or_else(|| {
            Fault::client(format!(
                "response has {} rowset(s), index {index} requested",
                data.rowsets.len()
            ))
        })?;
        // Figure 5 shows a Count parameter: an optional cap on the rows
        // materialised into the derived rowset resource.
        let cap = body
            .child_text(ns::WSDAIR, "Count")
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(usize::MAX);
        let rowset = Rowset {
            columns: rowset.columns.clone(),
            rows: rowset.rows.iter().take(cap).cloned().collect(),
        };

        let name = names.mint("rowset");
        let derived_props = config.derived_properties(name.clone(), &effective);
        target.add_resource(Arc::new(RowsetResource::new(derived_props, rowset)));

        let epr = mint_resource_epr(&target.address, &name);
        respond(factory_response("SQLRowsetFactoryResponse", ns::WSDAIR, "wsdair", &epr))
    });
}

/// Register the **RowsetAccess** interface (`GetTuples`,
/// `GetRowsetPropertyDocument`).
pub fn register_rowset_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let c = ctx.clone();
    dispatcher.register(actions::GET_TUPLES, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let rowset_resource = as_rowset_resource(&resource)?;
        if !resource.core_properties().readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
        let (start, count) = messages::parse_get_tuples(body)?;
        // Figure 5: GetTuplesResponse(SQLResponse(SQLRowset, SQLCommunicationArea)),
        // with the page window encoded straight out of the backing
        // rowset — no page clone.
        respond_streamed(|w| {
            messages::write_get_tuples_response(w, rowset_resource.rowset(), start, count)
        })
    });

    let c = ctx;
    dispatcher.register(actions::GET_ROWSET_PROPERTY_DOCUMENT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        as_rowset_resource(&resource)?;
        let mut response =
            XmlElement::new(ns::WSDAIR, "wsdair", "GetRowsetPropertyDocumentResponse");
        response.push(resource.property_document());
        respond(response)
    });
}

/// Options for assembling a relational data service.
#[derive(Default)]
pub struct RelationalServiceOptions {
    /// Enable the WSRF layer with this lifetime registry (Figure 7).
    pub wsrf: Option<Arc<LifetimeRegistry>>,
    /// Install a thick-wrapper statement rewriter (§2.1).
    pub query_rewriter: Option<QueryRewriter>,
}

/// A fully-assembled single-address relational data service: all five
/// WS-DAIR interfaces plus the WS-DAI core operations, serving one
/// wrapped database and any derived resources.
pub struct RelationalService {
    pub ctx: Arc<ServiceContext>,
    pub names: Arc<NameGenerator>,
    /// The abstract name of the wrapped database resource.
    pub db_resource: dais_core::AbstractName,
    /// The abstract name of the service's monitoring resource, whose
    /// property document is the live observability view of its endpoint.
    pub monitoring: dais_core::AbstractName,
}

impl RelationalService {
    /// Build the service, register it on the bus, and wrap `db` as its
    /// externally managed relational resource.
    pub fn launch(
        bus: &Bus,
        address: &str,
        db: Database,
        options: RelationalServiceOptions,
    ) -> RelationalService {
        let registry = ResourceRegistry::new();
        let ctx = Arc::new(ServiceContext {
            address: address.to_string(),
            registry,
            lifetime: options.wsrf,
            query_rewriter: options.query_rewriter,
        });
        let names =
            Arc::new(NameGenerator::new(address.trim_start_matches("bus://").replace('/', "-")));

        let mut dispatcher = SoapDispatcher::new();
        register_core_ops(&mut dispatcher, ctx.clone());
        if ctx.lifetime.is_some() {
            register_wsrf_ops(&mut dispatcher, ctx.clone());
        }
        register_sql_access(&mut dispatcher, ctx.clone());
        register_sql_factory(&mut dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_response_access(&mut dispatcher, ctx.clone());
        register_response_factory(&mut dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_rowset_access(&mut dispatcher, ctx.clone());
        bus.register(address, Arc::new(dispatcher));

        let db_resource = names.mint("db");
        ctx.add_resource(Arc::new(SqlDataResource::new(db_resource.clone(), db)));

        // Minted after the data resource so existing names are stable.
        let monitoring = names.mint("monitoring");
        ctx.add_resource(Arc::new(dais_core::MonitoringResource::new(
            monitoring.clone(),
            bus.clone(),
            address,
        )));

        RelationalService { ctx, names, db_resource, monitoring }
    }
}
