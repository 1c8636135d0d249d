//! The three relational resource kinds of the Figure 5 pipeline:
//! the database itself, derived SQL responses, and derived rowsets.

use crate::messages::SqlResponseData;
use dais_core::properties::{names, ResourceManagementKind};
use dais_core::{
    AbstractName, ConfigurationDocument, ConfigurationMap, CoreProperties, DataResource,
    DatasetMap, Sensitivity, TransactionIsolation,
};
use dais_soap::fault::{DaisFault, Fault};
use dais_sql::ast::{Select, Stmt};
use dais_sql::parser::parse_statement;
use dais_sql::{Database, Rowset, SqlErrorKind, Value};
use dais_xml::{ns, QName, XmlElement, XmlWriter};
use std::sync::Arc;

/// The generic-query language URI advertised for SQL.
pub const SQL_LANGUAGE_URI: &str = "http://www.sql.org/sql-92";

/// Map an engine error to the DAIS fault taxonomy.
pub fn sql_fault(e: dais_sql::SqlError) -> Fault {
    let kind = match e.kind {
        SqlErrorKind::InsufficientPrivilege => DaisFault::NotAuthorized,
        _ => DaisFault::InvalidExpression,
    };
    Fault::dais(kind, format!("[SQLSTATE {}] {}", e.sqlstate(), e.message))
}

/// The properties every relational resource advertises, the federated
/// one included: the SQL query language, the WebRowSet dataset format and
/// the `SQLExecuteFactory` configuration map. Not Writeable: a wrapper
/// that accepts writes says so. `Serializable`: every message is one
/// statement, run whole under the storage lock.
pub fn relational_properties(name: AbstractName, description: String) -> CoreProperties {
    let mut properties = CoreProperties::new(name, ResourceManagementKind::ExternallyManaged);
    properties.description = description;
    properties.transaction_isolation = TransactionIsolation::Serializable;
    properties.generic_query_languages.push(SQL_LANGUAGE_URI.to_string());
    properties.dataset_maps.push(DatasetMap {
        message: QName::new(ns::WSDAIR, "wsdair", "SQLExecuteRequest"),
        dataset_format: ns::ROWSET.to_string(),
    });
    properties.configuration_maps.push(ConfigurationMap::snapshot(
        QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
        QName::new(ns::WSDAIR, "wsdair", "SQLResponseAccessPT"),
    ));
    properties
}

/// The map a derived SQL response advertises for `SQLRowsetFactory`.
pub fn rowset_factory_map() -> ConfigurationMap {
    ConfigurationMap::snapshot(
        QName::new(ns::WSDAIR, "wsdair", "SQLRowsetFactoryRequest"),
        QName::new(ns::WSDAIR, "wsdair", "SQLRowsetAccessPT"),
    )
}

/// An externally managed relational data resource: a wrapper around a
/// `dais_sql::Database` (paper §2.1: DAIS services are "web service
/// wrappers for databases").
pub struct SqlDataResource {
    properties: Arc<CoreProperties>,
    db: Database,
}

impl SqlDataResource {
    /// Wrap a database under the given abstract name, advertising the
    /// WebRowSet dataset format and the factory configuration maps.
    pub fn new(name: AbstractName, db: Database) -> SqlDataResource {
        let description = format!("relational database '{}'", db.name());
        let mut properties = relational_properties(name, description);
        properties.writeable = true;
        SqlDataResource { properties: Arc::new(properties), db }
    }

    /// Apply `configuration` to the resource's configurable properties —
    /// e.g. `Writeable=false` publishes it read-only.
    pub fn configured(mut self, configuration: &ConfigurationDocument) -> Self {
        Arc::make_mut(&mut self.properties).apply_configuration(configuration);
        self
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Execute a statement against the wrapped database.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<SqlResponseData, Fault> {
        self.execute_stmt(&parse_statement(sql).map_err(sql_fault)?, params)
    }

    /// Execute a parsed statement against the wrapped database.
    pub fn execute_stmt(&self, stmt: &Stmt, params: &[Value]) -> Result<SqlResponseData, Fault> {
        let result = self.db.execute_stmt(stmt, params).map_err(sql_fault)?;
        Ok(SqlResponseData::from_result(&result))
    }

    /// Stream a SELECT's `SQLExecuteResponse` fragment straight from
    /// the engine cursor into `out` (rows never collect into a rowset).
    /// On error `out` may hold a partial fragment; callers must discard
    /// it.
    pub fn execute_query_streamed(
        &self,
        select: &Select,
        params: &[Value],
        out: &mut String,
    ) -> Result<(), Fault> {
        self.db
            .stream_select(select, params, |stream| {
                let mut w = XmlWriter::new(out);
                crate::messages::write_sql_execute_query_response(&mut w, stream)?;
                w.finish();
                Ok(())
            })
            .and_then(|encoded: Result<(), dais_sql::SqlError>| encoded)
            .map_err(sql_fault)
    }
}

impl DataResource for SqlDataResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        // The WS-DAIR extension group (Figure 4): CIM metadata.
        let mut cim = names::CIM_DESCRIPTION.element();
        cim.push(dais_cim::cim_description(&self.db));
        doc.push(cim);
        doc.push(
            names::NUMBER_OF_TABLES.element().with_text(self.db.table_names().len().to_string()),
        );
        doc
    }

    fn generic_query(&self, language: &str, expression: &str) -> Result<Vec<XmlElement>, Fault> {
        if language != SQL_LANGUAGE_URI {
            return Err(Fault::dais(
                DaisFault::InvalidLanguage,
                format!("language '{language}' is not supported; use {SQL_LANGUAGE_URI}"),
            ));
        }
        // The core operation returns element trees, so one is derived
        // here by parsing what the one `SQLResponse` encoder streams.
        let data = self.execute(expression, &[])?;
        let mut fragment = String::new();
        let mut w = XmlWriter::new(&mut fragment);
        data.write_response(&mut w, "SQLExecuteResponse");
        w.finish();
        let wrapper = dais_xml::parse(&fragment).map_err(|e| Fault::server(e.to_string()))?;
        Ok(wrapper
            .children
            .into_iter()
            .filter_map(|node| match node {
                dais_xml::XmlNode::Element(response) => Some(response),
                _ => None,
            })
            .collect())
    }
}

/// How a derived SQL response resource is backed — the `Sensitivity`
/// semantics of §4.2.
enum ResponseBacking {
    /// `Insensitive`: materialised once at creation, shared by every read.
    Materialised(Arc<SqlResponseData>),
    /// `Sensitive`: re-evaluated against the parent database on access,
    /// so parent changes are reflected.
    Sensitive { db: Database, stmt: Box<Stmt>, params: Vec<Value> },
}

/// A service-managed SQL response resource created by `SQLExecuteFactory`.
pub struct SqlResponseResource {
    properties: Arc<CoreProperties>,
    backing: ResponseBacking,
}

impl SqlResponseResource {
    /// Create the resource over a parsed statement. The backing follows
    /// `properties.sensitivity`.
    pub fn create(
        properties: CoreProperties,
        db: &Database,
        stmt: &Stmt,
        params: &[Value],
    ) -> Result<SqlResponseResource, Fault> {
        let mut properties = properties;
        properties.configuration_maps.push(rowset_factory_map());
        let run = || db.execute_stmt(stmt, params).map_err(sql_fault);
        let backing = match properties.sensitivity {
            Sensitivity::Insensitive => {
                ResponseBacking::Materialised(Arc::new(SqlResponseData::from_result(&run()?)))
            }
            Sensitivity::Sensitive => {
                // Validate eagerly so a bad statement faults at factory time.
                run()?;
                ResponseBacking::Sensitive {
                    db: db.clone(),
                    stmt: Box::new(stmt.clone()),
                    params: params.to_vec(),
                }
            }
        };
        Ok(SqlResponseResource { properties: Arc::new(properties), backing })
    }

    /// The current response data: the shared snapshot when insensitive,
    /// re-evaluated when sensitive.
    pub fn response(&self) -> Result<Arc<SqlResponseData>, Fault> {
        match &self.backing {
            ResponseBacking::Materialised(data) => Ok(data.clone()),
            ResponseBacking::Sensitive { db, stmt, params } => {
                let result = db.execute_stmt(stmt, params).map_err(sql_fault)?;
                Ok(Arc::new(SqlResponseData::from_result(&result)))
            }
        }
    }
}

impl DataResource for SqlResponseResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        if let Ok(data) = self.response() {
            doc.push(
                names::NUMBER_OF_SQL_ROWSETS.element().with_text(data.rowsets.len().to_string()),
            );
            doc.push(
                names::NUMBER_OF_SQL_UPDATE_COUNTS
                    .element()
                    .with_text(data.update_counts.len().to_string()),
            );
            doc.push(
                names::NUMBER_OF_SQL_RETURN_VALUES
                    .element()
                    .with_text(data.return_value.iter().count().to_string()),
            );
            doc.push(
                names::NUMBER_OF_SQL_OUTPUT_PARAMETERS
                    .element()
                    .with_text(data.output_parameters.len().to_string()),
            );
        }
        doc
    }
}

/// A service-managed rowset resource created by `SQLRowsetFactory`,
/// accessed page-by-page through `GetTuples` (Figure 5).
pub struct RowsetResource {
    properties: Arc<CoreProperties>,
    rowset: Rowset,
}

impl RowsetResource {
    pub fn new(properties: CoreProperties, rowset: Rowset) -> RowsetResource {
        RowsetResource { properties: Arc::new(properties), rowset }
    }

    pub fn rowset(&self) -> &Rowset {
        &self.rowset
    }
}

impl DataResource for RowsetResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        doc.push(names::NUMBER_OF_ROWS.element().with_text(self.rowset.row_count().to_string()));
        let mut meta = names::ROW_SCHEMA.element();
        for c in &self.rowset.columns {
            meta.push(
                XmlElement::new(ns::WSDAIR, "wsdair", "Column")
                    .with_attr("name", &c.name)
                    .with_attr("type", c.ty.name()),
            );
        }
        doc.push(meta);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new("test");
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR);
             INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');",
        )
        .unwrap();
        db
    }

    fn name(s: &str) -> AbstractName {
        AbstractName::new(s).unwrap()
    }

    #[test]
    fn sql_resource_executes() {
        let r = SqlDataResource::new(name("urn:dais:s:db:0"), db());
        let data = r.execute("SELECT * FROM t ORDER BY id", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().row_count(), 3);
        let data = r.execute("UPDATE t SET v = 'x' WHERE id > ?", &[Value::Int(1)]).unwrap();
        assert_eq!(data.update_count(), Some(2));
        let err = r.execute("SELECT nope FROM t", &[]).unwrap_err();
        assert!(err.is(DaisFault::InvalidExpression));
        assert!(err.reason.contains("SQLSTATE 42703"));
    }

    #[test]
    fn sql_resource_property_document_has_cim() {
        let r = SqlDataResource::new(name("urn:dais:s:db:0"), db());
        let doc = r.property_document();
        let cim = doc.child(ns::WSDAIR, "CIMDescription").unwrap();
        assert!(cim.child(ns::CIM, "CIM_Database").is_some());
        assert_eq!(doc.child_text(ns::WSDAIR, "NumberOfTables").as_deref(), Some("1"));
        // Core properties still present.
        assert!(doc.child(ns::WSDAI, "DataResourceAbstractName").is_some());
    }

    #[test]
    fn generic_query_sql_language() {
        let r = SqlDataResource::new(name("urn:dais:s:db:0"), db());
        let out = r.generic_query(SQL_LANGUAGE_URI, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].name.is(ns::WSDAIR, "SQLResponse"));
        let cell = ["webRowSet", "data", "currentRow", "columnValue"]
            .iter()
            .fold(out[0].child(ns::WSDAIR, "SQLRowset"), |el, local| el?.child(ns::ROWSET, local));
        assert_eq!(cell.unwrap().text(), "3");
        assert!(r.generic_query("urn:xquery", "x").unwrap_err().is(DaisFault::InvalidLanguage));
    }

    fn stmt(sql: &str) -> Stmt {
        parse_statement(sql).unwrap()
    }

    #[test]
    fn insensitive_response_is_a_snapshot() {
        let database = db();
        let mut props =
            CoreProperties::new(name("urn:dais:s:resp:0"), ResourceManagementKind::ServiceManaged);
        props.sensitivity = Sensitivity::Insensitive;
        let resp =
            SqlResponseResource::create(props, &database, &stmt("SELECT COUNT(*) FROM t"), &[])
                .unwrap();
        assert_eq!(resp.response().unwrap().rowset().unwrap().rows[0][0], Value::Int(3));
        database.execute("DELETE FROM t WHERE id = 1", &[]).unwrap();
        // Still 3 — materialised.
        assert_eq!(resp.response().unwrap().rowset().unwrap().rows[0][0], Value::Int(3));
    }

    #[test]
    fn sensitive_response_reflects_parent_changes() {
        let database = db();
        let mut props =
            CoreProperties::new(name("urn:dais:s:resp:1"), ResourceManagementKind::ServiceManaged);
        props.sensitivity = Sensitivity::Sensitive;
        let resp =
            SqlResponseResource::create(props, &database, &stmt("SELECT COUNT(*) FROM t"), &[])
                .unwrap();
        assert_eq!(resp.response().unwrap().rowset().unwrap().rows[0][0], Value::Int(3));
        database.execute("DELETE FROM t WHERE id = 1", &[]).unwrap();
        // Re-evaluated — sees the delete.
        assert_eq!(resp.response().unwrap().rowset().unwrap().rows[0][0], Value::Int(2));
    }

    #[test]
    fn factory_validates_statements_eagerly() {
        let database = db();
        let props =
            CoreProperties::new(name("urn:dais:s:resp:2"), ResourceManagementKind::ServiceManaged);
        let missing = stmt("SELECT * FROM nowhere");
        assert!(SqlResponseResource::create(props, &database, &missing, &[]).is_err());
    }

    #[test]
    fn response_property_document_counts() {
        let database = db();
        let props =
            CoreProperties::new(name("urn:dais:s:resp:3"), ResourceManagementKind::ServiceManaged);
        let resp =
            SqlResponseResource::create(props, &database, &stmt("SELECT * FROM t"), &[]).unwrap();
        let doc = resp.property_document();
        assert_eq!(doc.child_text(ns::WSDAIR, "NumberOfSQLRowsets").as_deref(), Some("1"));
        assert_eq!(doc.child_text(ns::WSDAIR, "NumberOfSQLUpdateCounts").as_deref(), Some("0"));
        // Response resources advertise the rowset-factory configuration map.
        assert!(resp
            .core_properties()
            .configuration_maps
            .iter()
            .any(|m| m.message.local == "SQLRowsetFactoryRequest"));
    }

    #[test]
    fn rowset_resource_pages() {
        let database = db();
        let result = database.execute("SELECT * FROM t ORDER BY id", &[]).unwrap();
        let rowset = result.rowset().unwrap().clone();
        let props =
            CoreProperties::new(name("urn:dais:s:rs:0"), ResourceManagementKind::ServiceManaged);
        let r = RowsetResource::new(props, rowset);
        assert_eq!(r.rowset().row_count(), 3);
        let doc = r.property_document();
        assert_eq!(doc.child_text(ns::WSDAIR, "NumberOfRows").as_deref(), Some("3"));
        assert_eq!(doc.child(ns::WSDAIR, "RowSchema").unwrap().elements().count(), 2);
    }
}
