//! WS-DAIR message forms: requests, the `SQLResponse` structure, and
//! SOAP action URIs.

use dais_core::messages as core_messages;
use dais_core::AbstractName;
use dais_soap::fault::{DaisFault, Fault};
use dais_sql::{
    RowStream, Rowset, RowsetCursor, RowsetWriter, SqlCommunicationArea, SqlType, Value,
};
use dais_xml::{ns, PullEvent, PullParser, QName, XmlElement, XmlSink, XmlWriter};

/// SOAP action URIs for the WS-DAIR operations (Figure 6).
pub mod actions {
    dais_soap::actions! {
        SQL_EXECUTE = "http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLExecute", Statement;
        GET_SQL_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLPropertyDocument", Read;
        SQL_EXECUTE_FACTORY =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLExecuteFactory", Write;
        GET_SQL_RESPONSE_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLResponsePropertyDocument", Read;
        GET_SQL_ROWSET = "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLRowset", Read;
        GET_SQL_UPDATE_COUNT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLUpdateCount", Read;
        GET_SQL_RETURN_VALUE =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLReturnValue", Read;
        GET_SQL_OUTPUT_PARAMETER =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLOutputParameter", Read;
        GET_SQL_COMMUNICATION_AREA =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLCommunicationArea", Read;
        GET_SQL_RESPONSE_ITEM =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetSQLResponseItem", Read;
        SQL_ROWSET_FACTORY =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLRowsetFactory", Write;
        GET_TUPLES = "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetTuples", Read;
        GET_ROWSET_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetRowsetPropertyDocument", Read;
    }
}

/// Build an `SQLExecuteRequest` (Figure 2): abstract name, requested
/// dataset format, the SQL expression and optional positional parameters.
pub fn sql_execute_request(
    resource: &AbstractName,
    format_uri: &str,
    sql: &str,
    params: &[Value],
) -> XmlElement {
    let mut req = core_messages::request("SQLExecuteRequest", resource);
    req.push(XmlElement::new(ns::WSDAI, "wsdai", "DataFormatURI").with_text(format_uri));
    let mut expr = XmlElement::new(ns::WSDAIR, "wsdair", "SQLExpression").with_text(sql);
    for (i, p) in params.iter().enumerate() {
        expr.push(render_parameter(i, p));
    }
    req.push(expr);
    req
}

fn render_parameter(index: usize, value: &Value) -> XmlElement {
    let mut el = XmlElement::new(ns::WSDAIR, "wsdair", "SQLParameter")
        .with_attr("index", (index + 1).to_string());
    match value {
        Value::Null => el.set_attr("null", "true"),
        v => {
            el.set_attr("type", v.sql_type().map(|t| t.name()).unwrap_or("VARCHAR"));
            let text = v.to_display_string();
            // Values with leading/trailing whitespace travel as an
            // attribute: attributes survive whitespace-stripping parsers.
            if text.trim() != text || text.is_empty() {
                el.set_attr("value", text);
            } else {
                el.push_text(text);
            }
        }
    }
    el
}

/// Parse `(sql, params)` out of an `SQLExecuteRequest`-shaped body.
pub fn parse_sql_expression(body: &XmlElement) -> Result<(String, Vec<Value>), Fault> {
    let expr = body
        .child(ns::WSDAIR, "SQLExpression")
        .ok_or_else(|| Fault::dais(DaisFault::InvalidExpression, "missing wsdair:SQLExpression"))?;
    // The statement text is the element's own text, excluding parameters.
    let sql: String = expr.children.iter().filter_map(|c| c.as_text()).collect::<Vec<_>>().join("");
    let mut params: Vec<(usize, Value)> = Vec::new();
    for p in expr.children_named(ns::WSDAIR, "SQLParameter") {
        let index: usize = p.attribute("index").and_then(|t| t.parse().ok()).ok_or_else(|| {
            Fault::dais(DaisFault::InvalidExpression, "SQLParameter missing index")
        })?;
        if index == 0 {
            return Err(Fault::dais(
                DaisFault::InvalidExpression,
                "SQLParameter indexes are 1-based",
            ));
        }
        let value = if p.attribute("null") == Some("true") {
            Value::Null
        } else {
            let ty = p.attribute("type").and_then(SqlType::parse).ok_or_else(|| {
                Fault::dais(DaisFault::InvalidExpression, "SQLParameter missing type")
            })?;
            let text = match p.attribute("value") {
                Some(v) => v.into(),
                None => p.text().into(),
            };
            Value::parse_typed(text, ty)
                .map_err(|e| Fault::dais(DaisFault::InvalidExpression, e.to_string()))?
        };
        params.push((index - 1, value));
    }
    params.sort_by_key(|(i, _)| *i);
    for (expected, (actual, _)) in params.iter().enumerate() {
        if expected != *actual {
            return Err(Fault::dais(
                DaisFault::InvalidExpression,
                "SQLParameter indexes must be contiguous from 1",
            ));
        }
    }
    Ok((sql.trim().to_string(), params.into_iter().map(|(_, v)| v).collect()))
}

/// The payload of an SQL response: what a statement produced. This is the
/// state held by SQL response resources and embedded in `SQLExecuteResponse`
/// messages (Figure 2's "information from the SQL communication area").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SqlResponseData {
    pub rowsets: Vec<Rowset>,
    pub update_counts: Vec<u64>,
    /// Return value of a procedure call (unused by the embedded engine,
    /// present for interface completeness).
    pub return_value: Option<Value>,
    /// Output parameters of a procedure call (ditto).
    pub output_parameters: Vec<(String, Value)>,
    pub communication_area: SqlCommunicationArea,
}

impl SqlResponseData {
    /// Build from a statement outcome.
    pub fn from_result(result: &dais_sql::StatementResult) -> SqlResponseData {
        let mut data = SqlResponseData {
            communication_area: result.communication_area(),
            ..Default::default()
        };
        match result {
            dais_sql::StatementResult::Query(r) => data.rowsets.push(r.clone()),
            dais_sql::StatementResult::Update(n) => data.update_counts.push(*n),
            dais_sql::StatementResult::Command(_) => {}
        }
        data
    }

    /// Stream the reply frame `wrapper(SQLResponse(…))` carrying this
    /// data: rowsets, update counts, procedure results, then the
    /// communication area.
    pub fn write_response<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>, wrapper: &str) {
        begin_sql_response(w, wrapper);
        for r in &self.rowsets {
            write_sql_rowset(w, |w| r.write_into(w));
        }
        for n in &self.update_counts {
            write_update_count(w, *n);
        }
        if let Some(v) = &self.return_value {
            w.start(&wsdair("SQLReturnValue"));
            w.text(&v.to_display_string());
            w.end();
        }
        for (name, v) in &self.output_parameters {
            w.start(&wsdair("SQLOutputParameter"));
            w.attr("name", name);
            w.text(&v.to_display_string());
            w.end();
        }
        end_sql_response(w, &self.communication_area);
    }

    /// Decode a serialised `wrapper(SQLResponse(items…))` reply envelope
    /// (`SQLExecute`, `GetTuples`) straight off its wire bytes.
    pub fn from_reply_bytes(bytes: &[u8]) -> Result<SqlResponseData, String> {
        let mut p = open_reply(bytes)?;
        descend_to(&mut p, ns::WSDAIR, "SQLResponse")?;
        read_response_items(p)
    }

    /// Decode a serialised reply envelope whose wrapper holds response
    /// items directly (`GetSQLRowset`, `GetSQLResponseItem`).
    pub fn from_item_reply_bytes(bytes: &[u8]) -> Result<SqlResponseData, String> {
        read_response_items(open_reply(bytes)?)
    }

    /// The first rowset, if any.
    pub fn rowset(&self) -> Option<&Rowset> {
        self.rowsets.first()
    }

    /// The first update count, if any.
    pub fn update_count(&self) -> Option<u64> {
        self.update_counts.first().copied()
    }
}

fn wsdair(local: &str) -> QName {
    QName::new(ns::WSDAIR, "wsdair", local)
}

/// Open the relational reply frame, `wrapper(SQLResponse(`: the response
/// items follow — each rowset through [`write_sql_rowset`] — and
/// [`end_sql_response`] closes it. Together the one writer of the frame.
pub fn begin_sql_response<S: XmlSink>(w: &mut XmlWriter<'_, S>, wrapper: &str) {
    w.start(&wsdair(wrapper));
    w.start(&wsdair("SQLResponse"));
}

/// Close the frame [`begin_sql_response`] opened. The communication
/// area serialises last because a streamed rowset only knows its row
/// count once drained.
pub fn end_sql_response<S: XmlSink>(
    w: &mut XmlWriter<'_, S>,
    communication_area: &SqlCommunicationArea,
) {
    w.element(&communication_area.to_xml());
    w.end();
    w.end();
}

/// `SQLRowset(webRowSet)` around whatever streams the WebRowSet
/// document — a held rowset's window, an engine cursor, a k-way merge.
pub fn write_sql_rowset<S: XmlSink, T>(
    w: &mut XmlWriter<'_, S>,
    webrowset: impl FnOnce(&mut XmlWriter<'_, S>) -> T,
) -> T {
    w.start(&wsdair("SQLRowset"));
    let out = webrowset(w);
    w.end();
    out
}

/// `wrapper(item)`: the reply shape of `GetSQLRowset` and
/// `GetSQLResponseItem`, whose wrapper holds one response item directly.
pub fn write_item_response<S: XmlSink>(
    w: &mut XmlWriter<'_, S>,
    wrapper: &str,
    item: impl FnOnce(&mut XmlWriter<'_, S>),
) {
    w.start(&wsdair(wrapper));
    item(w);
    w.end();
}

/// One `SQLUpdateCount` response item.
pub fn write_update_count<S: XmlSink>(w: &mut XmlWriter<'_, S>, count: u64) {
    w.start(&wsdair("SQLUpdateCount"));
    w.text(dais_sql::value::decimal_digits(count, &mut [0; 20]));
    w.end();
}

/// Stream a `GetTuplesResponse` (Figure 5) for one page window, encoded
/// straight out of the backing rowset — no page clone, no element tree.
pub fn write_get_tuples_response<S: XmlSink>(
    w: &mut XmlWriter<'_, S>,
    rowset: &Rowset,
    start: usize,
    count: usize,
) {
    begin_sql_response(w, "GetTuplesResponse");
    write_sql_rowset(w, |w| rowset.write_window_into(start, count, w));
    end_sql_response(w, &SqlCommunicationArea::success());
}

/// Stream a query's `SQLExecuteResponse` from a cursor: rows are
/// encoded as the scan yields them, and the communication area is
/// decided once the row count is known (SQLSTATE 02000 for an empty
/// result, matching `StatementResult::communication_area`). On an
/// evaluation error the sink holds a partial fragment; the caller must
/// discard it.
pub fn write_sql_execute_query_response<S: XmlSink>(
    w: &mut XmlWriter<'_, S>,
    stream: &mut RowStream<'_>,
) -> Result<(), dais_sql::SqlError> {
    begin_sql_response(w, "SQLExecuteResponse");
    let rows = write_sql_rowset(w, |w| {
        let mut rw = RowsetWriter::new();
        rw.begin(w, stream.columns());
        let mut rows = 0u64;
        while let Some(row) = stream.next()? {
            rw.row(w, row.iter());
            rows += 1;
        }
        rw.finish(w);
        Ok::<u64, dais_sql::SqlError>(rows)
    })?;
    let communication_area = if rows == 0 {
        SqlCommunicationArea { sqlstate: "02000".into(), ..SqlCommunicationArea::success() }
    } else {
        SqlCommunicationArea::success()
    };
    end_sql_response(w, &communication_area);
    Ok(())
}

fn describe(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Read response items up to the end tag of the element `p` is
/// positioned inside. Each rowset is drained through a [`RowsetCursor`],
/// which takes the parser for the embedded `webRowSet` document and
/// hands it back positioned after it.
fn read_response_items(mut p: PullParser<'_>) -> Result<SqlResponseData, String> {
    let mut data = SqlResponseData::default();
    loop {
        let item = match p.next().map_err(describe)? {
            Some(PullEvent::Start { local, .. }) => local,
            Some(PullEvent::Text(_)) => continue,
            Some(PullEvent::End) | None => return Ok(data),
        };
        match item {
            "SQLRowset" => {
                let mut cursor = RowsetCursor::new(p).map_err(describe)?;
                data.rowsets.push(Rowset::from_cursor(&mut cursor).map_err(describe)?);
                p = cursor.finish().map_err(describe)?;
                p.skip_element().map_err(describe)?;
            }
            "SQLUpdateCount" => {
                let text = p.text_content().map_err(describe)?;
                let count = text.trim().parse().map_err(|_| "non-numeric SQLUpdateCount")?;
                data.update_counts.push(count);
            }
            "SQLReturnValue" => {
                let text = p.text_content().map_err(describe)?;
                data.return_value = Some(Value::Str(text.into_owned()));
            }
            "SQLOutputParameter" => {
                let name = p.attr("name").unwrap_or_default().to_string();
                let text = p.text_content().map_err(describe)?;
                data.output_parameters.push((name, Value::Str(text.into_owned())));
            }
            "SQLCommunicationArea" => {
                data.communication_area =
                    SqlCommunicationArea::read_from(&mut p).map_err(describe)?;
            }
            _ => p.skip_element().map_err(describe)?,
        }
    }
}

/// Advance past other children until a `Start` of `{namespace}local`,
/// leaving the parser positioned just inside that element.
pub(crate) fn descend_to(
    p: &mut PullParser<'_>,
    namespace: &str,
    local: &str,
) -> Result<(), String> {
    loop {
        match p.next().map_err(describe)? {
            Some(PullEvent::Start { namespace: ns_, local: l }) => {
                if ns_.as_str() == namespace && l == local {
                    return Ok(());
                }
                p.skip_element().map_err(describe)?;
            }
            Some(PullEvent::Text(_)) => continue,
            Some(PullEvent::End) | None => return Err(format!("reply carries no {local} element")),
        }
    }
}

/// The one walk into a serialised reply envelope: Envelope → Body →
/// payload wrapper (`SQLExecuteResponse`, `GetTuplesResponse`, …),
/// leaving the parser positioned just inside the wrapper.
pub(crate) fn open_reply(bytes: &[u8]) -> Result<PullParser<'_>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let mut p = PullParser::new(text).map_err(describe)?;
    match p.next().map_err(describe)? {
        Some(PullEvent::Start { namespace, local })
            if namespace.as_str() == ns::SOAP_ENV && local == "Envelope" => {}
        _ => return Err("reply is not a SOAP envelope".into()),
    }
    descend_to(&mut p, ns::SOAP_ENV, "Body")?;
    match p.next().map_err(describe)? {
        Some(PullEvent::Start { .. }) => Ok(p),
        _ => Err("reply has an empty SOAP body".into()),
    }
}

/// Decode the first rowset of a serialised `wrapper(SQLResponse(…))`
/// reply: a [`rowset_cursor_from_reply_bytes`] cursor, drained.
pub fn rowset_from_reply_bytes(bytes: &[u8]) -> Result<Rowset, String> {
    Rowset::from_cursor(&mut rowset_cursor_from_reply_bytes(bytes)?).map_err(describe)
}

/// Walk a serialised reply to its first rowset and stop after the
/// metadata block, handing back a [`RowsetCursor`] that yields rows on
/// demand — the federation k-way merge holds one of these per shard and
/// never materialises any shard's page.
pub fn rowset_cursor_from_reply_bytes(bytes: &[u8]) -> Result<RowsetCursor<'_>, String> {
    let mut p = open_reply(bytes)?;
    descend_to(&mut p, ns::WSDAIR, "SQLResponse")?;
    descend_to(&mut p, ns::WSDAIR, "SQLRowset")?;
    RowsetCursor::new(p).map_err(describe)
}

/// Build a `GetTuplesRequest` (Figure 5): a rowset page by position.
pub fn get_tuples_request(resource: &AbstractName, start: usize, count: usize) -> XmlElement {
    core_messages::request("GetTuplesRequest", resource)
        .with_child(
            XmlElement::new(ns::WSDAIR, "wsdair", "StartPosition").with_text(start.to_string()),
        )
        .with_child(XmlElement::new(ns::WSDAIR, "wsdair", "Count").with_text(count.to_string()))
}

/// Parse `(start, count)` from a `GetTuplesRequest`.
pub fn parse_get_tuples(body: &XmlElement) -> Result<(usize, usize), Fault> {
    let start = body
        .child_text(ns::WSDAIR, "StartPosition")
        .and_then(|t| t.trim().parse().ok())
        .ok_or_else(|| Fault::client("GetTuples missing StartPosition"))?;
    let count = body
        .child_text(ns::WSDAIR, "Count")
        .and_then(|t| t.trim().parse().ok())
        .ok_or_else(|| Fault::client("GetTuples missing Count"))?;
    Ok((start, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_sql::RowsetColumn;

    fn name() -> AbstractName {
        AbstractName::new("urn:dais:svc:db:0").unwrap()
    }

    #[test]
    fn execute_request_roundtrip() {
        let req = sql_execute_request(
            &name(),
            ns::ROWSET,
            "SELECT * FROM t WHERE id = ? AND tag = ?",
            &[Value::Int(5), Value::Str("x".into())],
        );
        let (sql, params) = parse_sql_expression(&req).unwrap();
        assert_eq!(sql, "SELECT * FROM t WHERE id = ? AND tag = ?");
        assert_eq!(params, vec![Value::Int(5), Value::Str("x".into())]);
        assert_eq!(dais_core::messages::extract_format_uri(&req).as_deref(), Some(ns::ROWSET));
    }

    #[test]
    fn null_parameters() {
        let req = sql_execute_request(&name(), ns::ROWSET, "SELECT ?", &[Value::Null]);
        let (_, params) = parse_sql_expression(&req).unwrap();
        assert_eq!(params, vec![Value::Null]);
    }

    #[test]
    fn whitespace_edged_parameters_survive_the_wire() {
        // Whitespace-only and whitespace-edged strings travel as
        // attributes so the protocol parser's text stripping cannot
        // corrupt them.
        for s in [" ", "  padded  ", "", "\t"] {
            let req = sql_execute_request(&name(), ns::ROWSET, "SELECT ?", &[Value::Str(s.into())]);
            let text = dais_xml::to_string(&req);
            let parsed = dais_xml::parse(&text).unwrap();
            let (_, params) = parse_sql_expression(&parsed).unwrap();
            assert_eq!(params, vec![Value::Str(s.into())], "{s:?}");
        }
    }

    #[test]
    fn parameter_validation() {
        // Missing expression.
        let body = dais_core::messages::request("SQLExecuteRequest", &name());
        assert!(parse_sql_expression(&body).is_err());
        // Bad index.
        let mut expr = XmlElement::new(ns::WSDAIR, "wsdair", "SQLExpression").with_text("SELECT ?");
        expr.push(
            XmlElement::new(ns::WSDAIR, "wsdair", "SQLParameter")
                .with_attr("index", "3")
                .with_attr("type", "INTEGER")
                .with_text("1"),
        );
        let body = dais_core::messages::request("SQLExecuteRequest", &name()).with_child(expr);
        assert!(parse_sql_expression(&body).is_err());
    }

    /// The reply envelope a service would send for `data`.
    fn reply_bytes(data: &SqlResponseData, wrapper: &str) -> Vec<u8> {
        let mut fragment = String::new();
        let mut w = XmlWriter::new(&mut fragment);
        data.write_response(&mut w, wrapper);
        w.finish();
        envelope_bytes(dais_soap::envelope::Envelope::with_raw_body(fragment))
    }

    fn envelope_bytes(env: dais_soap::envelope::Envelope) -> Vec<u8> {
        let mut out = Vec::new();
        env.to_bytes_into(&mut out);
        out
    }

    #[test]
    fn response_data_roundtrip() {
        let mut counted =
            Rowset::new(vec![RowsetColumn { name: "n".into(), ty: SqlType::Integer }]);
        counted.rows.push(vec![Value::Int(1)]);
        counted.rows.push(vec![Value::Int(2)]);
        let data = SqlResponseData {
            rowsets: vec![counted, awkward_rowset()],
            update_counts: vec![3, 0],
            return_value: Some(Value::Str("rv".into())),
            output_parameters: vec![("p <1>".into(), Value::Str("out & about".into()))],
            communication_area: SqlCommunicationArea {
                messages: vec!["note".into()],
                ..SqlCommunicationArea::with_update_count(3)
            },
        };
        let rt = SqlResponseData::from_reply_bytes(&reply_bytes(&data, "SQLExecuteResponse"));
        assert_eq!(rt.unwrap(), data);
        assert_eq!(data.rowset().unwrap().row_count(), 2);
        assert_eq!(data.update_count(), Some(3));
    }

    #[test]
    fn malformed_replies_are_reported_not_guessed() {
        let data = SqlResponseData {
            update_counts: vec![3],
            communication_area: SqlCommunicationArea::with_update_count(3),
            ..Default::default()
        };
        let text = String::from_utf8(reply_bytes(&data, "SQLExecuteResponse")).unwrap();
        assert_eq!(SqlResponseData::from_reply_bytes(text.as_bytes()).unwrap(), data);
        for (what, bad) in [
            ("a non-numeric count", text.replacen(">3<", ">many<", 1)),
            ("an SQLRowset without a webRowSet", text.replacen(">3<", "><wsdair:SQLRowset/><", 1)),
            ("a truncated reply", text[..text.len() / 2].to_string()),
            ("not an envelope", "<x/>".to_string()),
        ] {
            assert!(SqlResponseData::from_reply_bytes(bad.as_bytes()).is_err(), "accepted {what}");
        }
        // A wrapper with no `SQLResponse` is not an empty success; read
        // as an item reply it simply holds no items.
        let bare = envelope_bytes(dais_soap::envelope::Envelope::with_body(XmlElement::new(
            ns::WSDAIR,
            "wsdair",
            "SQLExecuteResponse",
        )));
        assert!(SqlResponseData::from_reply_bytes(&bare).is_err());
        assert_eq!(SqlResponseData::from_item_reply_bytes(&bare).unwrap(), Default::default());
    }

    #[test]
    fn response_from_statement_results() {
        let db = dais_sql::Database::new("t");
        db.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        let r = db.execute("INSERT INTO t VALUES (1), (2)", &[]).unwrap();
        let data = SqlResponseData::from_result(&r);
        assert_eq!(data.update_counts, vec![2]);
        assert!(data.rowsets.is_empty());
        let r = db.execute("SELECT * FROM t", &[]).unwrap();
        let data = SqlResponseData::from_result(&r);
        assert_eq!(data.rowsets.len(), 1);
        assert_eq!(data.communication_area.sqlstate, "00000");
    }

    #[test]
    fn get_tuples_roundtrip() {
        let req = get_tuples_request(&name(), 10, 25);
        assert_eq!(parse_get_tuples(&req).unwrap(), (10, 25));
        let bad = dais_core::messages::request("GetTuplesRequest", &name());
        assert!(parse_get_tuples(&bad).is_err());
    }

    /// Rows exercising every cell encoding: NULLs, escaping-heavy text,
    /// whitespace-edged and empty strings that travel as attributes.
    fn awkward_rowset() -> Rowset {
        let mut r = Rowset::new(vec![
            RowsetColumn { name: "id".into(), ty: SqlType::Integer },
            RowsetColumn { name: "label".into(), ty: SqlType::Varchar },
        ]);
        r.rows.push(vec![Value::Int(1), Value::Str("plain".into())]);
        r.rows.push(vec![Value::Int(2), Value::Null]);
        r.rows.push(vec![Value::Int(3), Value::Str("a <b> & \"c\"".into())]);
        r.rows.push(vec![Value::Int(4), Value::Str("  padded  ".into())]);
        r.rows.push(vec![Value::Int(5), Value::Str(String::new())]);
        r
    }

    #[test]
    fn cursor_fed_execute_response_matches_the_materialised_encoding() {
        let db = dais_sql::Database::new("m");
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR);
             INSERT INTO t VALUES (1, 'a & b'), (2, NULL), (3, '  c  ');",
        )
        .unwrap();
        for sql in
            ["SELECT * FROM t", "SELECT v FROM t WHERE id > 1", "SELECT id FROM t WHERE id > 9"]
        {
            let mut streamed = String::new();
            db.stream_query(sql, &[], |stream| {
                let mut w = XmlWriter::new(&mut streamed);
                write_sql_execute_query_response(&mut w, stream).unwrap();
                w.finish();
            })
            .unwrap();

            // The same statement collected into a rowset first: same
            // rows, same SQLSTATE (02000 when empty), same bytes.
            let result = db.execute(sql, &[]).unwrap();
            let mut materialised = String::new();
            let mut w = XmlWriter::new(&mut materialised);
            SqlResponseData::from_result(&result).write_response(&mut w, "SQLExecuteResponse");
            w.finish();
            assert_eq!(streamed, materialised, "{sql}");
        }
    }

    #[test]
    fn reply_bytes_decode_without_a_tree() {
        let rowset = awkward_rowset();
        let mut fragment = String::new();
        let mut w = XmlWriter::new(&mut fragment);
        write_get_tuples_response(&mut w, &rowset, 0, 10);
        w.finish();
        let bytes = envelope_bytes(dais_soap::envelope::Envelope::with_raw_body(fragment));
        assert_eq!(rowset_from_reply_bytes(&bytes).unwrap(), rowset);
        // Malformed replies report instead of panicking.
        assert!(rowset_from_reply_bytes(b"<x/>").is_err());
        let empty = envelope_bytes(dais_soap::envelope::Envelope::with_raw_body(String::new()));
        assert!(rowset_from_reply_bytes(&empty).is_err());
    }
}
