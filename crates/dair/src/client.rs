//! Consumer-side typed client for WS-DAIR services.

use crate::messages::{self, actions, SqlResponseData};
use dais_core::properties::names;
use dais_core::{AbstractName, CoreClient, DaisClient};
use dais_soap::addressing::Epr;
use dais_soap::client::{CallError, ServiceClient};
use dais_soap::Action;
use dais_sql::{Rowset, SqlCommunicationArea, Value};
use dais_xml::{ns, XmlElement};

/// True when a statement only reads — the one class of `SQLExecute`
/// payload that re-sends safely after an ambiguous failure.
fn statement_is_read_only(sql: &str) -> bool {
    matches!(sql.split_whitespace().next().map(str::to_ascii_uppercase).as_deref(), Some("SELECT"))
}

/// One item of a multi-statement SQL response, as returned by
/// [`SqlClient::get_sql_response_item`].
#[derive(Debug, Clone, PartialEq)]
pub enum SqlResponseItem {
    Rowset(Rowset),
    UpdateCount(u64),
}

/// A typed consumer of WS-DAIR services. Wraps [`CoreClient`] (all the
/// WS-DAI core operations remain available through [`SqlClient::core`]).
#[derive(Clone)]
pub struct SqlClient {
    core: CoreClient,
}

impl SqlClient {
    /// The WS-DAI core operations.
    pub fn core(&self) -> &CoreClient {
        &self.core
    }

    /// Send `req` and decode the serialised reply straight off its wire
    /// bytes (one pooled buffer, no response element tree).
    fn request_decoded<T>(
        &self,
        action: Action,
        req: &XmlElement,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<T, CallError> {
        let reply = self.service().request_bytes(action, req, action.resendable())?;
        decode(&reply).map_err(CallError::UnexpectedResponse)
    }

    /// Send one request per payload, keeping up to `window` in flight,
    /// and decode each reply off its wire bytes. No retry layer applies
    /// on the pipelined path.
    fn pipelined_decoded<T>(
        &self,
        action: Action,
        payloads: Vec<XmlElement>,
        window: usize,
        decode: impl Fn(&[u8]) -> Result<T, String>,
    ) -> Vec<Result<T, CallError>> {
        self.service().request_pipelined(action, payloads, window, |reply| {
            decode(&reply.wait_bytes()?).map_err(CallError::UnexpectedResponse)
        })
    }

    /// `SQLExecute` against many statements at once, keeping up to
    /// `window` requests in flight on the pipelined path; one result
    /// per statement, in input order. No retry layer applies on this
    /// path, so non-SELECT statements are safe to batch.
    pub fn execute_many(
        &self,
        resource: &AbstractName,
        statements: &[&str],
        window: usize,
    ) -> Vec<Result<SqlResponseData, CallError>> {
        let payloads = statements
            .iter()
            .map(|sql| messages::sql_execute_request(resource, ns::ROWSET, sql, &[]))
            .collect();
        self.pipelined_decoded(
            actions::SQL_EXECUTE,
            payloads,
            window,
            SqlResponseData::from_reply_bytes,
        )
    }

    /// `GetTuples` against many `(start, count)` pages at once, keeping
    /// up to `window` requests in flight on the pipelined path; one
    /// rowset per page, in input order. This is how Figure 5's paging
    /// consumer overlaps its fetches.
    pub fn get_tuples_many(
        &self,
        resource: &AbstractName,
        pages: &[(usize, usize)],
        window: usize,
    ) -> Vec<Result<Rowset, CallError>> {
        let payloads = pages
            .iter()
            .map(|(start, count)| messages::get_tuples_request(resource, *start, *count))
            .collect();
        self.pipelined_decoded(
            actions::GET_TUPLES,
            payloads,
            window,
            messages::rowset_from_reply_bytes,
        )
    }

    /// `SQLExecute` — the direct access pattern (Figure 2).
    pub fn execute(
        &self,
        resource: &AbstractName,
        sql: &str,
        params: &[Value],
    ) -> Result<SqlResponseData, CallError> {
        self.execute_with_format(resource, ns::ROWSET, sql, params)
    }

    /// `SQLExecute` requesting a specific dataset format URI. Whether
    /// the request may be re-sent is decided per call, from the
    /// statement it carries.
    pub fn execute_with_format(
        &self,
        resource: &AbstractName,
        format_uri: &str,
        sql: &str,
        params: &[Value],
    ) -> Result<SqlResponseData, CallError> {
        let req = messages::sql_execute_request(resource, format_uri, sql, params);
        let reply = self.service().request_bytes(
            actions::SQL_EXECUTE,
            &req,
            statement_is_read_only(sql),
        )?;
        SqlResponseData::from_reply_bytes(&reply).map_err(CallError::UnexpectedResponse)
    }

    /// `GetSQLPropertyDocument`.
    pub fn get_sql_property_document(
        &self,
        resource: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = dais_core::messages::request("GetSQLPropertyDocumentRequest", resource);
        let response = self.service().request(actions::GET_SQL_PROPERTY_DOCUMENT, req)?;
        dais_core::messages::property_document(&response).cloned()
    }

    /// `SQLExecuteFactory` — the indirect access pattern (Figure 3).
    /// Returns the EPR of the derived SQL response resource.
    pub fn execute_factory(
        &self,
        resource: &AbstractName,
        sql: &str,
        params: &[Value],
        port_type: Option<&str>,
        configuration: Option<&dais_core::ConfigurationDocument>,
    ) -> Result<Epr, CallError> {
        let mut req = messages::sql_execute_request(resource, ns::ROWSET, sql, params);
        // Rename the wrapper to the factory request message.
        req.name = dais_xml::QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest");
        if let Some(p) = port_type {
            req.push(names::PORT_TYPE_QNAME.element().with_text(p));
        }
        if let Some(c) = configuration {
            req.push(c.to_xml());
        }
        let response = self.service().request(actions::SQL_EXECUTE_FACTORY, req)?;
        dais_core::factory::parse_factory_response(&response).map_err(CallError::Fault)
    }

    /// `GetSQLRowset` on a response resource (1-based index).
    pub fn get_sql_rowset(
        &self,
        resource: &AbstractName,
        index: usize,
    ) -> Result<Rowset, CallError> {
        let mut req = dais_core::messages::request("GetSQLRowsetRequest", resource);
        req.push(XmlElement::new(ns::WSDAIR, "wsdair", "Index").with_text(index.to_string()));
        self.request_decoded(actions::GET_SQL_ROWSET, &req, |bytes| {
            let mut data = SqlResponseData::from_item_reply_bytes(bytes)?;
            data.rowsets.pop().ok_or_else(|| "no SQLRowset".into())
        })
    }

    /// `GetSQLUpdateCount` on a response resource.
    pub fn get_sql_update_count(
        &self,
        resource: &AbstractName,
        index: usize,
    ) -> Result<u64, CallError> {
        let mut req = dais_core::messages::request("GetSQLUpdateCountRequest", resource);
        req.push(XmlElement::new(ns::WSDAIR, "wsdair", "Index").with_text(index.to_string()));
        let response = self.service().request(actions::GET_SQL_UPDATE_COUNT, req)?;
        response
            .child_text(ns::WSDAIR, "SQLUpdateCount")
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| CallError::UnexpectedResponse("no SQLUpdateCount".into()))
    }

    /// `GetSQLReturnValue` on a response resource: the stored-procedure
    /// return value, if the response carries one.
    pub fn get_sql_return_value(
        &self,
        resource: &AbstractName,
    ) -> Result<Option<String>, CallError> {
        let req = dais_core::messages::request("GetSQLReturnValueRequest", resource);
        let response = self.service().request(actions::GET_SQL_RETURN_VALUE, req)?;
        Ok(response.child_text(ns::WSDAIR, "SQLReturnValue"))
    }

    /// `GetSQLOutputParameter` on a response resource. With a parameter
    /// name, only that parameter is returned; with `None`, all of them.
    pub fn get_sql_output_parameters(
        &self,
        resource: &AbstractName,
        name: Option<&str>,
    ) -> Result<Vec<(String, String)>, CallError> {
        let mut req = dais_core::messages::request("GetSQLOutputParameterRequest", resource);
        if let Some(n) = name {
            req.push(XmlElement::new(ns::WSDAIR, "wsdair", "ParameterName").with_text(n));
        }
        let response = self.service().request(actions::GET_SQL_OUTPUT_PARAMETER, req)?;
        Ok(response
            .children_named(ns::WSDAIR, "SQLOutputParameter")
            .map(|p| (p.attribute("name").unwrap_or_default().to_string(), p.text()))
            .collect())
    }

    /// `GetSQLResponseItem` on a response resource (1-based index across
    /// rowsets then update counts — the §4.1 response-document ordering).
    pub fn get_sql_response_item(
        &self,
        resource: &AbstractName,
        index: usize,
    ) -> Result<SqlResponseItem, CallError> {
        let mut req = dais_core::messages::request("GetSQLResponseItemRequest", resource);
        req.push(XmlElement::new(ns::WSDAIR, "wsdair", "Index").with_text(index.to_string()));
        self.request_decoded(actions::GET_SQL_RESPONSE_ITEM, &req, |bytes| {
            let mut data = SqlResponseData::from_item_reply_bytes(bytes)?;
            if let Some(rowset) = data.rowsets.pop() {
                return Ok(SqlResponseItem::Rowset(rowset));
            }
            data.update_count()
                .map(SqlResponseItem::UpdateCount)
                .ok_or_else(|| "response item carried no rowset or count".into())
        })
    }

    /// `GetSQLCommunicationArea` on a response resource.
    pub fn get_sql_communication_area(
        &self,
        resource: &AbstractName,
    ) -> Result<SqlCommunicationArea, CallError> {
        let req = dais_core::messages::request("GetSQLCommunicationAreaRequest", resource);
        self.request_decoded(actions::GET_SQL_COMMUNICATION_AREA, &req, |bytes| {
            let mut p = messages::open_reply(bytes)?;
            messages::descend_to(&mut p, ns::WSDAIR, "SQLCommunicationArea")?;
            SqlCommunicationArea::read_from(&mut p).map_err(|e| e.to_string())
        })
    }

    /// `GetSQLResponsePropertyDocument`.
    pub fn get_response_property_document(
        &self,
        resource: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = dais_core::messages::request("GetSQLResponsePropertyDocumentRequest", resource);
        let response = self.service().request(actions::GET_SQL_RESPONSE_PROPERTY_DOCUMENT, req)?;
        dais_core::messages::property_document(&response).cloned()
    }

    /// `SQLRowsetFactory` on a response resource: derive a rowset
    /// resource (optionally capped to `count` rows) and return its EPR.
    pub fn rowset_factory(
        &self,
        resource: &AbstractName,
        count: Option<usize>,
        port_type: Option<&str>,
    ) -> Result<Epr, CallError> {
        let mut req = dais_core::messages::request("SQLRowsetFactoryRequest", resource);
        if let Some(p) = port_type {
            req.push(names::PORT_TYPE_QNAME.element().with_text(p));
        }
        if let Some(n) = count {
            req.push(XmlElement::new(ns::WSDAIR, "wsdair", "Count").with_text(n.to_string()));
        }
        let response = self.service().request(actions::SQL_ROWSET_FACTORY, req)?;
        dais_core::factory::parse_factory_response(&response).map_err(CallError::Fault)
    }

    /// `GetTuples` on a rowset resource (Figure 5): a page of rows.
    pub fn get_tuples(
        &self,
        resource: &AbstractName,
        start: usize,
        count: usize,
    ) -> Result<Rowset, CallError> {
        let req = messages::get_tuples_request(resource, start, count);
        self.request_decoded(actions::GET_TUPLES, &req, messages::rowset_from_reply_bytes)
    }

    /// `GetRowsetPropertyDocument`.
    pub fn get_rowset_property_document(
        &self,
        resource: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = dais_core::messages::request("GetRowsetPropertyDocumentRequest", resource);
        let response = self.service().request(actions::GET_ROWSET_PROPERTY_DOCUMENT, req)?;
        dais_core::messages::property_document(&response).cloned()
    }
}

impl DaisClient for SqlClient {
    fn service(&self) -> &ServiceClient {
        self.core.service()
    }

    fn from_service(service: ServiceClient) -> SqlClient {
        SqlClient { core: CoreClient::from_service(service) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{RelationalService, RelationalServiceOptions};
    use dais_core::{ConfigurationDocument, Sensitivity};
    use dais_soap::bus::Bus;
    use dais_sql::Database;

    fn setup() -> (Bus, SqlClient, AbstractName) {
        let bus = Bus::new();
        let db = Database::new("orders");
        db.execute_script(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL, price DOUBLE);
             INSERT INTO item VALUES (1, 'anvil', 10.0), (2, 'rope', 2.5), (3, 'rocket', 99.0);",
        )
        .unwrap();
        let svc = RelationalService::launch(
            &bus,
            "bus://orders",
            db,
            RelationalServiceOptions::default(),
        );
        let client = SqlClient::builder().bus(bus.clone()).address("bus://orders").build();
        (bus, client, svc.db_resource)
    }

    #[test]
    fn direct_access_query() {
        let (_, client, db) = setup();
        let data = client
            .execute(
                &db,
                "SELECT name FROM item WHERE price > ? ORDER BY id",
                &[Value::Double(5.0)],
            )
            .unwrap();
        let rowset = data.rowset().unwrap();
        assert_eq!(rowset.row_count(), 2);
        assert_eq!(rowset.rows[0][0], Value::Str("anvil".into()));
        assert_eq!(data.communication_area.sqlstate, "00000");
    }

    #[test]
    fn direct_access_update_and_comm_area() {
        let (_, client, db) = setup();
        let data =
            client.execute(&db, "UPDATE item SET price = price + 1 WHERE id < 3", &[]).unwrap();
        assert_eq!(data.update_count(), Some(2));
        let data = client.execute(&db, "DELETE FROM item WHERE id = 99", &[]).unwrap();
        assert_eq!(data.update_count(), Some(0));
        assert_eq!(data.communication_area.sqlstate, "02000");
    }

    #[test]
    fn sql_errors_become_invalid_expression_faults() {
        let (_, client, db) = setup();
        let err = client.execute(&db, "SELECT * FROM missing", &[]).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidExpression));
        match err {
            CallError::Fault(f) => assert!(f.reason.contains("42P01"), "{}", f.reason),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dataset_format_validated() {
        let (_, client, db) = setup();
        let err = client.execute_with_format(&db, "urn:not-a-format", "SELECT 1", &[]).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidDatasetFormat));
    }

    #[test]
    fn indirect_access_pipeline() {
        let (bus, client, db) = setup();
        // Consumer 1: create the response resource.
        let epr =
            client.execute_factory(&db, "SELECT * FROM item ORDER BY id", &[], None, None).unwrap();
        let response_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();

        // Consumer 2 (via the EPR): inspect and derive a rowset.
        let c2 = SqlClient::builder().bus(bus.clone()).epr(epr).build();
        let rowset = c2.get_sql_rowset(&response_name, 1).unwrap();
        assert_eq!(rowset.row_count(), 3);
        let comm = c2.get_sql_communication_area(&response_name).unwrap();
        assert!(comm.is_success());
        let props = c2.get_response_property_document(&response_name).unwrap();
        assert_eq!(props.child_text(ns::WSDAIR, "NumberOfSQLRowsets").as_deref(), Some("1"));

        let rowset_epr = c2.rowset_factory(&response_name, Some(2), None).unwrap();
        let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

        // Consumer 3: page tuples out of the rowset resource.
        let c3 = SqlClient::builder().bus(bus).epr(rowset_epr).build();
        let page = c3.get_tuples(&rowset_name, 0, 1).unwrap();
        assert_eq!(page.row_count(), 1);
        let page = c3.get_tuples(&rowset_name, 1, 10).unwrap();
        assert_eq!(page.row_count(), 1); // capped at 2 rows by Count
        let doc = c3.get_rowset_property_document(&rowset_name).unwrap();
        assert_eq!(doc.child_text(ns::WSDAIR, "NumberOfRows").as_deref(), Some("2"));
    }

    #[test]
    fn factory_rejects_dml() {
        let (_, client, db) = setup();
        let err = client.execute_factory(&db, "DELETE FROM item", &[], None, None).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidExpression));
    }

    #[test]
    fn factory_port_type_validation() {
        let (_, client, db) = setup();
        // The advertised port type works.
        client
            .execute_factory(&db, "SELECT 1", &[], Some("wsdair:SQLResponseAccessPT"), None)
            .unwrap();
        // An unknown one faults.
        let err =
            client.execute_factory(&db, "SELECT 1", &[], Some("wsdair:Bogus"), None).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidPortType));
    }

    #[test]
    fn sensitive_vs_insensitive_derived_resources() {
        let (_, client, db) = setup();
        let sensitive_config = ConfigurationDocument {
            sensitivity: Some(Sensitivity::Sensitive),
            ..Default::default()
        };
        let epr_sensitive = client
            .execute_factory(&db, "SELECT COUNT(*) FROM item", &[], None, Some(&sensitive_config))
            .unwrap();
        let epr_snapshot =
            client.execute_factory(&db, "SELECT COUNT(*) FROM item", &[], None, None).unwrap();
        let n_sensitive =
            AbstractName::new(epr_sensitive.resource_abstract_name().unwrap()).unwrap();
        let n_snapshot = AbstractName::new(epr_snapshot.resource_abstract_name().unwrap()).unwrap();

        client.execute(&db, "DELETE FROM item WHERE id = 1", &[]).unwrap();

        let sensitive = client.get_sql_rowset(&n_sensitive, 1).unwrap();
        let snapshot = client.get_sql_rowset(&n_snapshot, 1).unwrap();
        assert_eq!(sensitive.rows[0][0], Value::Int(2)); // re-evaluated
        assert_eq!(snapshot.rows[0][0], Value::Int(3)); // materialised
    }

    #[test]
    fn derived_resources_listed_and_destroyable() {
        let (_, client, db) = setup();
        let epr = client.execute_factory(&db, "SELECT 1", &[], None, None).unwrap();
        let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        let list = client.core().get_resource_list().unwrap();
        assert!(list.contains(&name));
        assert!(list.contains(&db));
        // Derived resources are service managed.
        let props = client.core().get_property_document(&name).unwrap();
        assert_eq!(props.management, dais_core::properties::ResourceManagementKind::ServiceManaged);
        assert_eq!(props.parent.as_ref(), Some(&db));
        // Destroy severs the relationship.
        client.core().destroy(&name).unwrap();
        assert!(client.get_sql_rowset(&name, 1).is_err());
    }

    #[test]
    fn response_item_and_missing_indexes() {
        let (_, client, db) = setup();
        let epr = client.execute_factory(&db, "SELECT 1", &[], None, None).unwrap();
        let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        // Wrong rowset index.
        assert!(client.get_sql_rowset(&name, 2).is_err());
        // No update counts on a query response.
        assert!(client.get_sql_update_count(&name, 1).is_err());
    }

    #[test]
    fn response_item_access() {
        let (_, client, db) = setup();
        let epr = client
            .execute_factory(&db, "SELECT name FROM item ORDER BY id", &[], None, None)
            .unwrap();
        let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        // Item 1 is the rowset of the single SELECT.
        match client.get_sql_response_item(&name, 1).unwrap() {
            SqlResponseItem::Rowset(r) => assert_eq!(r.row_count(), 3),
            other => panic!("expected rowset, got {other:?}"),
        }
        // A plain query carries no return value and no output parameters.
        assert_eq!(client.get_sql_return_value(&name).unwrap(), None);
        assert!(client.get_sql_output_parameters(&name, None).unwrap().is_empty());
        // Out-of-range item index faults.
        assert!(client.get_sql_response_item(&name, 2).is_err());
    }

    #[test]
    fn wrong_resource_kind_faults() {
        let (_, client, db) = setup();
        // GetTuples against the database resource (not a rowset).
        let err = client.get_tuples(&db, 0, 10).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidResourceName));
    }

    #[test]
    fn execute_many_pipelines_a_batch() {
        let (bus, client, db) = setup();
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(4).seed(21));
        let statements: Vec<String> =
            (1..=3).map(|id| format!("SELECT name FROM item WHERE id = {id}")).collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let results = client.execute_many(&db, &refs, 8);
        let names: Vec<String> = results
            .into_iter()
            .map(|r| match r.unwrap().rowset().unwrap().rows[0][0].clone() {
                Value::Str(s) => s,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names, ["anvil", "rope", "rocket"]);
        bus.shutdown_executor();
    }

    #[test]
    fn get_tuples_many_pages_concurrently() {
        let (bus, client, db) = setup();
        let epr = client
            .execute_factory(&db, "SELECT id FROM item ORDER BY id", &[], None, None)
            .unwrap();
        let response_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        let rowset_epr = client.rowset_factory(&response_name, None, None).unwrap();
        let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(2).seed(22));
        let pages = client.get_tuples_many(&rowset_name, &[(0, 1), (1, 1), (2, 1)], 3);
        let ids: Vec<Value> = pages.into_iter().map(|p| p.unwrap().rows[0][0].clone()).collect();
        assert_eq!(ids, [Value::Int(1), Value::Int(2), Value::Int(3)]);
        bus.shutdown_executor();
    }

    #[test]
    fn writes_accepted_when_writeable() {
        let (_, client, db) = setup();
        // The default database resource advertises Writeable=true, so DML
        // passes and the insert is visible to subsequent queries.
        client.execute(&db, "INSERT INTO item VALUES (10, 'new', 1.0)", &[]).unwrap();
        let data = client.execute(&db, "SELECT COUNT(*) FROM item", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(4));
    }
}
