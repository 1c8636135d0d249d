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
use dais_core::service::QueryRewriter;
use dais_core::{
    register_op, register_property_document, DataResource, FactoryRequest, NameGenerator, Requires,
    ServiceContext, ServiceSkeleton,
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

/// A reply that carries rows: its body is streamed once through `write`
/// into a raw-body envelope, never built as a tree.
fn respond_streamed(write: impl FnOnce(&mut XmlWriter<'_, String>)) -> Result<Envelope, Fault> {
    let mut fragment = String::new();
    let mut w = XmlWriter::new(&mut fragment);
    write(&mut w);
    w.finish();
    Ok(Envelope::with_raw_body(fragment))
}

/// Register the **SQLAccess** interface (`SQLExecute`,
/// `GetSQLPropertyDocument`) for resources held by `ctx`.
pub fn register_sql_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    // The statement decides the access SQLExecute needs, so the check
    // follows the parse.
    let c = ctx.clone();
    let op = move |body: &XmlElement, sql_resource: &SqlDataResource| {
        let props = sql_resource.core_properties();

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
        let requires = if read_only { Requires::Readable } else { Requires::Writeable };
        requires.check(&props)?;
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
    };
    register_op(dispatcher, &ctx, actions::SQL_EXECUTE, Requires::Nothing, op);

    register_property_document::<SqlDataResource>(
        dispatcher,
        &ctx,
        actions::GET_SQL_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLPropertyDocumentResponse"),
    );
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
    let op = move |body: &XmlElement, sql_resource: &SqlDataResource| {
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
        let factory = FactoryRequest::negotiate(body, sql_resource, message)?;
        let (sql, params) = messages::parse_sql_expression(body)?;
        let Ok(stmt @ Stmt::Select(_)) = parse_statement(&sql) else {
            return Err(Fault::dais(
                DaisFault::InvalidExpression,
                "SQLExecuteFactory only accepts query statements",
            ));
        };
        factory.finish(&target, &names, "sql-response", |properties| {
            SqlResponseResource::create(properties, sql_resource.database(), &stmt, &params)
        })
    };
    register_op(dispatcher, &ctx, actions::SQL_EXECUTE_FACTORY, Requires::Readable, op);
}

/// Register the **ResponseAccess** interface over `ctx`'s resources.
pub fn register_response_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    fn index_of(body: &XmlElement) -> usize {
        body.child_text(ns::WSDAIR, "Index").and_then(|t| t.trim().parse().ok()).unwrap_or(1)
    }

    register_property_document::<SqlResponseResource>(
        dispatcher,
        &ctx,
        actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLResponsePropertyDocumentResponse"),
    );

    let op = |body: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
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
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_ROWSET, Requires::Readable, op);

    let op = |body: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
        let i = index_of(body);
        let count = data.update_counts.get(i - 1).ok_or_else(|| {
            Fault::client(format!(
                "response has {} update count(s), index {i} requested",
                data.update_counts.len()
            ))
        })?;
        Ok(Envelope::with_body(
            XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLUpdateCountResponse").with_child(
                XmlElement::new(ns::WSDAIR, "wsdair", "SQLUpdateCount")
                    .with_text(count.to_string()),
            ),
        ))
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_UPDATE_COUNT, Requires::Readable, op);

    let op = |_: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLReturnValueResponse");
        if let Some(v) = &data.return_value {
            response.push(
                XmlElement::new(ns::WSDAIR, "wsdair", "SQLReturnValue")
                    .with_text(v.to_display_string()),
            );
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_RETURN_VALUE, Requires::Readable, op);

    let op = |body: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
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
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_OUTPUT_PARAMETER, Requires::Readable, op);

    let op = |_: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
        let mut response = XmlElement::new(ns::WSDAIR, "wsdair", "GetSQLCommunicationAreaResponse");
        response.push(data.communication_area.to_xml());
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_COMMUNICATION_AREA, Requires::Readable, op);

    let op = |body: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
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
    };
    register_op(dispatcher, &ctx, actions::GET_SQL_RESPONSE_ITEM, Requires::Readable, op);
}

/// Register the **ResponseFactory** interface (`SQLRowsetFactory`): derive
/// a rowset resource from a response, registered on `target`.
pub fn register_response_factory(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    target: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    let op = move |body: &XmlElement, resource: &SqlResponseResource| {
        let data = resource.response()?;
        let message = QName::new(ns::WSDAIR, "wsdair", "SQLRowsetFactoryRequest");
        let factory = FactoryRequest::negotiate(body, resource, message)?;

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
        factory.finish(&target, &names, "rowset", |properties| {
            Ok(RowsetResource::new(properties, rowset))
        })
    };
    register_op(dispatcher, &ctx, actions::SQL_ROWSET_FACTORY, Requires::Readable, op);
}

/// Register the **RowsetAccess** interface (`GetTuples`,
/// `GetRowsetPropertyDocument`).
pub fn register_rowset_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let op = |body: &XmlElement, rowset_resource: &RowsetResource| {
        let (start, count) = messages::parse_get_tuples(body)?;
        // Figure 5: GetTuplesResponse(SQLResponse(SQLRowset, SQLCommunicationArea)),
        // with the page window encoded straight out of the backing
        // rowset — no page clone.
        respond_streamed(|w| {
            messages::write_get_tuples_response(w, rowset_resource.rowset(), start, count)
        })
    };
    register_op(dispatcher, &ctx, actions::GET_TUPLES, Requires::Readable, op);

    register_property_document::<RowsetResource>(
        dispatcher,
        &ctx,
        actions::GET_ROWSET_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIR, "wsdair", "GetRowsetPropertyDocumentResponse"),
    );
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
        let mut s = ServiceSkeleton::new(address, options.wsrf, options.query_rewriter);
        let (ctx, names) = (s.ctx.clone(), s.names.clone());
        register_sql_access(&mut s.dispatcher, ctx.clone());
        register_sql_factory(&mut s.dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_response_access(&mut s.dispatcher, ctx.clone());
        register_response_factory(&mut s.dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_rowset_access(&mut s.dispatcher, ctx.clone());
        let db_resource = names.mint("db");
        let monitoring = s.serve(bus, Arc::new(SqlDataResource::new(db_resource.clone(), db)));
        RelationalService { ctx, names, db_resource, monitoring }
    }
}
