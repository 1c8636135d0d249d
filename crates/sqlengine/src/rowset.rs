//! Materialised result sets and their WebRowSet-style XML encoding.
//!
//! WS-DAIR responses carry relational data as XML rowsets; the format
//! implemented here follows the shape of Sun's WebRowSet schema (the
//! format named in the paper's Figure 5 scenario: "create another data
//! resource which uses a web row set format").

use crate::error::{SqlError, SqlErrorKind};
use crate::value::{decimal_digits, SqlType, Value};
use dais_xml::{ns, PullEvent, PullParser, QName, XmlSink, XmlWriter};
use std::borrow::Cow;
use std::ops::Range;

/// A column of a result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsetColumn {
    pub name: String,
    pub ty: SqlType,
}

/// A fully materialised result set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rowset {
    pub columns: Vec<RowsetColumn>,
    pub rows: Vec<Vec<Value>>,
}

impl Rowset {
    pub fn new(columns: Vec<RowsetColumn>) -> Self {
        Rowset { columns, rows: Vec::new() }
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Encode the whole rowset through an [`XmlWriter`]: a loop over
    /// the one codec, [`RowsetWriter`].
    pub fn write_into<S: XmlSink>(&self, w: &mut XmlWriter<'_, S>) {
        self.write_window_into(0, self.rows.len(), w);
    }

    /// Encode only the `[start, start + count)` row window — a
    /// `GetTuples` page — without cloning a sub-rowset first. A window
    /// reaching past the end is clipped; one starting there is empty.
    pub fn write_window_into<S: XmlSink>(
        &self,
        start: usize,
        count: usize,
        w: &mut XmlWriter<'_, S>,
    ) {
        let mut rw = RowsetWriter::new();
        rw.begin(w, &self.columns);
        for row in self.rows.iter().skip(start).take(count) {
            rw.row(w, row);
        }
        rw.finish(w);
    }

    /// Decode by draining a [`RowsetCursor`]: its metadata plus every
    /// row it has not yet yielded.
    pub fn from_cursor(cursor: &mut RowsetCursor<'_>) -> Result<Rowset, SqlError> {
        let mut rowset = Rowset::new(cursor.columns().to_vec());
        let width = rowset.columns.len();
        let mut row = Vec::with_capacity(width);
        while cursor.next_row_into(&mut row)? {
            rowset.rows.push(std::mem::replace(&mut row, Vec::with_capacity(width)));
        }
        Ok(rowset)
    }
}

/// The WebRowSet encoder: metadata up front, then one call per row,
/// then the trailer. An engine cursor, a page window over a held rowset
/// or a k-way merge feeds cells straight into the sink without ever
/// building `Vec<Vec<Value>>` or an element tree. Every WebRowSet byte on
/// the wire comes from here.
///
/// The document element and metadata go through the [`XmlWriter`]'s
/// namespace bookkeeping. Rows do not: [`begin`](Self::begin) asks the
/// writer which prefix it bound to the WebRowSet namespace and spells
/// the row and cell tags out once, and each cell is then spliced as
/// markup around text the writer escapes — the bytes the element calls
/// would produce, without resolving a name per element.
pub struct RowsetWriter {
    n_root: QName,
    n_metadata: QName,
    n_count: QName,
    n_def: QName,
    n_index: QName,
    n_name: QName,
    n_type: QName,
    n_data: QName,
    /// `<p:currentRow>`, `</p:currentRow>`, `<p:columnValue>` and
    /// `</p:columnValue>` for the bound prefix `p`, at the ranges below,
    /// followed by scratch space for one formatted number. One buffer,
    /// so a rowset costs the single allocation the number scratch did.
    markup: String,
    row_open: Range<usize>,
    row_close: Range<usize>,
    cell_open: Range<usize>,
    cell_close: Range<usize>,
}

impl RowsetWriter {
    pub fn new() -> RowsetWriter {
        RowsetWriter {
            n_root: QName::new(ns::ROWSET, "wrs", "webRowSet"),
            n_metadata: QName::new(ns::ROWSET, "wrs", "metadata"),
            n_count: QName::new(ns::ROWSET, "wrs", "column-count"),
            n_def: QName::new(ns::ROWSET, "wrs", "column-definition"),
            n_index: QName::new(ns::ROWSET, "wrs", "column-index"),
            n_name: QName::new(ns::ROWSET, "wrs", "column-name"),
            n_type: QName::new(ns::ROWSET, "wrs", "column-type"),
            n_data: QName::new(ns::ROWSET, "wrs", "data"),
            markup: String::new(),
            row_open: 0..0,
            row_close: 0..0,
            cell_open: 0..0,
            cell_close: 0..0,
        }
    }

    /// Open the document: root, the full metadata block, and the `data`
    /// element, left open for [`row`](Self::row) calls.
    pub fn begin<S: XmlSink>(&mut self, w: &mut XmlWriter<'_, S>, columns: &[RowsetColumn]) {
        let mut digits = [0; 20];
        w.start(&self.n_root);
        w.start(&self.n_metadata);
        w.start(&self.n_count);
        w.text(decimal_digits(columns.len() as u64, &mut digits));
        w.end();
        for (i, c) in columns.iter().enumerate() {
            w.start(&self.n_def);
            w.start(&self.n_index);
            w.text(decimal_digits(i as u64 + 1, &mut digits));
            w.end();
            w.start(&self.n_name);
            w.text(&c.name);
            w.end();
            w.start(&self.n_type);
            w.text(c.ty.name());
            w.end();
            w.end();
        }
        w.end();
        w.start(&self.n_data);
        let prefix = w.prefix();
        let colon = if prefix.is_empty() { "" } else { ":" };
        let markup = &mut self.markup;
        markup.clear();
        // The four tags, and room for any number short of a fallback
        // double's long positional form.
        markup.reserve(4 * prefix.len() + 128);
        let mut tag = |parts: [&str; 4]| {
            let start = markup.len();
            parts.iter().for_each(|part| markup.push_str(part));
            start..markup.len()
        };
        self.row_open = tag(["<", prefix, colon, "currentRow>"]);
        self.row_close = tag(["</", prefix, colon, "currentRow>"]);
        self.cell_open = tag(["<", prefix, colon, "columnValue>"]);
        self.cell_close = tag(["</", prefix, colon, "columnValue>"]);
    }

    /// Encode one `currentRow` from any cell iterator — borrowed cursor
    /// rows, slices of a held rowset, anything yielding `&Value`.
    pub fn row<'v, S: XmlSink>(
        &mut self,
        w: &mut XmlWriter<'_, S>,
        cells: impl IntoIterator<Item = &'v Value>,
    ) {
        let scratch = self.cell_close.end;
        // A start tag without its `>`, for the attribute and
        // self-closing forms.
        let unclosed = |tag: &Range<usize>| tag.start..tag.end - 1;
        let mut empty = true;
        for value in cells {
            if empty {
                w.raw(&self.markup[self.row_open.clone()]);
                empty = false;
            }
            match value {
                Value::Null => {
                    w.raw(&self.markup[unclosed(&self.cell_open)]);
                    w.raw(" null=\"true\"/>");
                }
                // Values with leading/trailing whitespace (or that are
                // entirely whitespace) travel as an attribute, which
                // survives whitespace-stripping protocol parsers.
                Value::Str(s) if s.trim() != s || s.is_empty() => {
                    w.raw(&self.markup[unclosed(&self.cell_open)]);
                    w.raw(" value=\"");
                    w.attr_text(s);
                    w.raw("\"/>");
                }
                Value::Str(s) => {
                    w.raw(&self.markup[self.cell_open.clone()]);
                    w.text(s);
                    w.raw(&self.markup[self.cell_close.clone()]);
                }
                // Numbers and booleans format to text that needs no escaping.
                _ => {
                    self.markup.truncate(scratch);
                    value.write_display_into(&mut self.markup);
                    w.raw(&self.markup[self.cell_open.clone()]);
                    w.raw(&self.markup[scratch..]);
                    w.raw(&self.markup[self.cell_close.clone()]);
                }
            }
        }
        if empty {
            w.raw(&self.markup[unclosed(&self.row_open)]);
            w.raw("/>");
        } else {
            w.raw(&self.markup[self.row_close.clone()]);
        }
    }

    /// Close the `data` element and the document root.
    pub fn finish<S: XmlSink>(&mut self, w: &mut XmlWriter<'_, S>) {
        w.end();
        w.end();
    }
}

impl Default for RowsetWriter {
    fn default() -> Self {
        RowsetWriter::new()
    }
}

/// The metadata shapes the decoder refuses rather than guess at.
const NO_METADATA: &str = "webRowSet missing metadata";
const TWO_METADATA: &str = "webRowSet with two metadata blocks";
const TWO_NAMES: &str = "column with two names";
const TWO_TYPES: &str = "column with two types";

fn malformed(e: dais_xml::XmlError) -> SqlError {
    invalid(format!("malformed webRowSet: {e}"))
}

fn invalid(message: impl Into<String>) -> SqlError {
    SqlError::new(SqlErrorKind::InvalidCast, message)
}

/// The WebRowSet decoder, counterpart of [`RowsetWriter`]: metadata is
/// parsed eagerly, then rows are decoded one at a time on demand — the
/// federation merge holds k of these at once without materialising any
/// shard's rowset, and [`Rowset::from_cursor`] drains one into plain
/// data. The caller's row buffer is reused across
/// [`next_row_into`](Self::next_row_into) calls, and cell text is read
/// borrowed from the input, so steady-state decoding allocates once per
/// string cell: for the `Str`, into which an entity-decoded text moves.
///
/// What the writer writes is read in one step per row and per text
/// cell: an exact `<p:currentRow>`, or `<p:columnValue>`, escape-free
/// text and `</p:columnValue>`, for the `webRowSet` tag's prefix `p`.
/// Any other shape takes the general event path.
///
/// The cursor owns its parser while it decodes and hands it back from
/// [`finish`](Self::finish), positioned just after `</wrs:webRowSet>`,
/// so a decoder of the enclosing message carries on from there.
pub struct RowsetCursor<'a> {
    parser: PullParser<'a>,
    columns: Vec<RowsetColumn>,
    /// Positioned inside the `data` element: rows may remain. False
    /// once the `webRowSet` end tag has been consumed.
    in_data: bool,
    /// The raw prefix of the `webRowSet` start tag.
    prefix: &'a str,
}

impl<'a> RowsetCursor<'a> {
    /// Start decoding from a parser whose next event is the
    /// `wrs:webRowSet` start tag. Consumes the metadata block.
    pub fn new(mut parser: PullParser<'a>) -> Result<RowsetCursor<'a>, SqlError> {
        match parser.next().map_err(malformed)? {
            Some(PullEvent::Start { namespace, local })
                if namespace.as_str() == ns::ROWSET && local == "webRowSet" => {}
            other => return Err(invalid(format!("expected wrs:webRowSet, found {other:?}"))),
        }
        let prefix = parser.open_name().and_then(|raw| raw.split_once(':')).map_or("", |(p, _)| p);
        let mut cursor = RowsetCursor { parser, columns: Vec::new(), in_data: false, prefix };
        // One metadata block, before the data, as the writer writes them;
        // unknown siblings are skipped.
        let mut metadata = false;
        while let Some(child) = cursor.next_child()? {
            match child {
                "metadata" if metadata => return Err(invalid(TWO_METADATA)),
                "metadata" => {
                    cursor.read_metadata()?;
                    metadata = true;
                }
                "data" if metadata => {
                    cursor.in_data = true;
                    break;
                }
                "data" => break,
                _ => cursor.skip()?,
            }
        }
        if !metadata {
            return Err(invalid(NO_METADATA));
        }
        Ok(cursor)
    }

    /// The local name of the current element's next child, positioned
    /// just inside it; `None` once the current element's end tag has
    /// been consumed. A child outside the WebRowSet namespace reads as
    /// `""`, which no caller matches, so it is skipped.
    fn next_child(&mut self) -> Result<Option<&'a str>, SqlError> {
        loop {
            match self.parser.next().map_err(malformed)? {
                Some(PullEvent::Start { namespace, local }) => {
                    return Ok(Some(if namespace == ns::ROWSET { local } else { "" }))
                }
                Some(PullEvent::Text(_)) => {}
                Some(PullEvent::End) => return Ok(None),
                None => return Err(invalid("truncated webRowSet")),
            }
        }
    }

    /// Whether the exact steps may read the current element's children:
    /// a WebRowSet element written with `p` proves `p` bound to it there.
    fn exact(&self) -> bool {
        let raw = self.parser.open_name().unwrap_or_default();
        raw.split_once(':').map_or("", |(p, _)| p) == self.prefix
    }

    fn skip(&mut self) -> Result<(), SqlError> {
        self.parser.skip_element().map_err(malformed)
    }

    /// The current leaf element's text, borrowed from the input when it
    /// is one escape-free segment.
    fn text(&mut self) -> Result<Cow<'a, str>, SqlError> {
        self.parser.text_content().map_err(malformed)
    }

    fn read_metadata(&mut self) -> Result<(), SqlError> {
        while let Some(child) = self.next_child()? {
            if child != "column-definition" {
                self.skip()?;
                continue;
            }
            let mut name = None;
            let mut ty = None;
            while let Some(field) = self.next_child()? {
                match field {
                    "column-name" if name.is_some() => return Err(invalid(TWO_NAMES)),
                    "column-type" if ty.is_some() => return Err(invalid(TWO_TYPES)),
                    "column-name" => name = Some(self.text()?.into_owned()),
                    "column-type" => {
                        let ty_name = self.text()?;
                        ty =
                            Some(SqlType::parse(&ty_name).ok_or_else(|| {
                                invalid(format!("unknown column type '{ty_name}'"))
                            })?);
                    }
                    _ => self.skip()?,
                }
            }
            let name = name.ok_or_else(|| invalid("column without a name"))?;
            let ty = ty.ok_or_else(|| invalid(format!("column '{name}' without a type")))?;
            self.columns.push(RowsetColumn { name, ty });
        }
        Ok(())
    }

    /// The column definitions from the metadata block.
    pub fn columns(&self) -> &[RowsetColumn] {
        &self.columns
    }

    /// Decode the next row into `row` (cleared first). `Ok(false)` when
    /// the rowset is exhausted; the buffer is reusable across calls.
    pub fn next_row_into(&mut self, row: &mut Vec<Value>) -> Result<bool, SqlError> {
        row.clear();
        if !self.in_data {
            return Ok(false);
        }
        if self.exact() && self.parser.open_exact(self.prefix, "currentRow") {
            self.read_row(row)?;
            return Ok(true);
        }
        while let Some(child) = self.next_child()? {
            if child == "currentRow" {
                self.read_row(row)?;
                return Ok(true);
            }
            self.skip()?;
        }
        // `data` closed: consume the rest of the document element.
        self.in_data = false;
        while let Some(child) = self.next_child()? {
            if child == "metadata" {
                return Err(invalid(TWO_METADATA));
            }
            self.skip()?;
        }
        Ok(false)
    }

    fn read_row(&mut self, row: &mut Vec<Value>) -> Result<(), SqlError> {
        let exact = self.exact();
        loop {
            let leaf = exact.then(|| self.parser.exact_leaf(self.prefix, "columnValue")).flatten();
            if leaf.is_none() {
                match self.next_child()? {
                    Some("columnValue") => {}
                    Some(_) => {
                        self.skip()?;
                        continue;
                    }
                    None => break,
                }
            }
            let ty = match self.columns.get(row.len()) {
                Some(column) => column.ty,
                None => return Err(invalid("row wider than metadata")),
            };
            if let Some(text) = leaf {
                row.push(Value::parse_typed(Cow::Borrowed(text), ty)?);
            } else if self.parser.attr("null") == Some("true") {
                self.skip()?;
                row.push(Value::Null);
            } else if let Some(v) = self.parser.attr("value") {
                let v = Value::parse_typed(Cow::Borrowed(v), ty)?;
                self.skip()?;
                row.push(v);
            } else {
                row.push(Value::parse_typed(self.text()?, ty)?);
            }
        }
        if row.len() != self.columns.len() {
            return Err(invalid("row narrower than metadata"));
        }
        Ok(())
    }

    /// Drain whatever rows remain and hand the parser back, positioned
    /// just after `</wrs:webRowSet>`.
    pub fn finish(mut self) -> Result<PullParser<'a>, SqlError> {
        let mut row = Vec::new();
        while self.next_row_into(&mut row)? {}
        Ok(self.parser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_util::prop::{run_cases, Gen};
    use dais_xml::parser::MAX_DEPTH;
    use dais_xml::XmlElement;

    fn sample() -> Rowset {
        let mut rs = Rowset::new(vec![
            RowsetColumn { name: "id".into(), ty: SqlType::Integer },
            RowsetColumn { name: "name".into(), ty: SqlType::Varchar },
            RowsetColumn { name: "price".into(), ty: SqlType::Double },
            RowsetColumn { name: "active".into(), ty: SqlType::Boolean },
        ]);
        rs.rows.push(vec![
            Value::Int(1),
            Value::Str("widget <&>".into()),
            Value::Double(2.5),
            Value::Bool(true),
        ]);
        rs.rows.push(vec![Value::Int(2), Value::Null, Value::Double(4.0), Value::Bool(false)]);
        // Whitespace-edged and empty strings exercise the attribute form.
        rs.rows.push(vec![
            Value::Int(3),
            Value::Str("  padded  ".into()),
            Value::Double(0.25),
            Value::Bool(true),
        ]);
        rs.rows.push(vec![Value::Int(4), Value::Str(String::new()), Value::Null, Value::Null]);
        rs
    }

    fn encode_window(rs: &Rowset, start: usize, count: usize) -> String {
        let mut text = String::new();
        let mut w = XmlWriter::new(&mut text);
        rs.write_window_into(start, count, &mut w);
        w.finish();
        text
    }

    fn encode(rs: &Rowset) -> String {
        encode_window(rs, 0, rs.row_count())
    }

    fn decode(text: &str) -> Result<Rowset, SqlError> {
        let parser = PullParser::new(text).map_err(malformed)?;
        Rowset::from_cursor(&mut RowsetCursor::new(parser)?)
    }

    /// The tree walk the cursor replaced, kept as the reference decoder
    /// the cursor is held to: parse the whole document, then read
    /// metadata and cells off the element tree.
    fn reference_decode(text: &str) -> Result<Rowset, SqlError> {
        reference_decode_element(&dais_xml::parse(text).map_err(malformed)?)
    }

    fn reference_decode_element(root: &XmlElement) -> Result<Rowset, SqlError> {
        if !root.name.is(ns::ROWSET, "webRowSet") {
            return Err(invalid(format!("expected wrs:webRowSet, found {}", root.name)));
        }
        let metadata = reference_metadata(root)?;
        let mut columns = Vec::new();
        for def in metadata.children_named(ns::ROWSET, "column-definition") {
            let name = reference_field(def, "column-name", TWO_NAMES)?
                .ok_or_else(|| invalid("column without a name"))?;
            let ty_name = reference_field(def, "column-type", TWO_TYPES)?.unwrap_or_default();
            let ty = SqlType::parse(&ty_name)
                .ok_or_else(|| invalid(format!("unknown column type '{ty_name}'")))?;
            columns.push(RowsetColumn { name, ty });
        }
        let mut rowset = Rowset::new(columns);
        if let Some(data) = root.child(ns::ROWSET, "data") {
            for row_el in data.children_named(ns::ROWSET, "currentRow") {
                let mut row = Vec::with_capacity(rowset.columns.len());
                for (i, cell) in row_el.children_named(ns::ROWSET, "columnValue").enumerate() {
                    let column =
                        rowset.columns.get(i).ok_or_else(|| invalid("row wider than metadata"))?;
                    if cell.attribute("null") == Some("true") {
                        row.push(Value::Null);
                    } else if let Some(v) = cell.attribute("value") {
                        row.push(Value::parse_typed(v.into(), column.ty)?);
                    } else {
                        row.push(Value::parse_typed(reference_text(cell)?.into(), column.ty)?);
                    }
                }
                if row.len() != rowset.columns.len() {
                    return Err(invalid("row narrower than metadata"));
                }
                rowset.rows.push(row);
            }
        }
        Ok(rowset)
    }

    /// The one metadata block, which must come before any data block.
    fn reference_metadata(root: &XmlElement) -> Result<&XmlElement, SqlError> {
        let metadata = root
            .elements()
            .find(|e| e.name.is(ns::ROWSET, "metadata") || e.name.is(ns::ROWSET, "data"))
            .filter(|e| e.name.is(ns::ROWSET, "metadata"))
            .ok_or_else(|| invalid(NO_METADATA))?;
        if root.children_named(ns::ROWSET, "metadata").nth(1).is_some() {
            return Err(invalid(TWO_METADATA));
        }
        Ok(metadata)
    }

    /// The text of `def`'s one `local` field, if it has one.
    fn reference_field(
        def: &XmlElement,
        local: &str,
        twice: &str,
    ) -> Result<Option<String>, SqlError> {
        let mut fields = def.children_named(ns::ROWSET, local);
        let field = fields.next().map(reference_text).transpose()?;
        match fields.next() {
            Some(_) => Err(invalid(twice)),
            None => Ok(field),
        }
    }

    /// An element's text, refusing child elements as a text cell does.
    fn reference_text(el: &XmlElement) -> Result<String, SqlError> {
        match el.elements().next() {
            Some(child) => Err(invalid(format!("unexpected child element <{}>", child.name))),
            None => Ok(el.text()),
        }
    }

    /// The element tree of a rowset, as the tree encoder the writer
    /// replaced built it: what the writer's bytes are held to, once
    /// serialised by the tree writer.
    fn reference_tree(rs: &Rowset) -> XmlElement {
        let el = |local: &str| XmlElement::new(ns::ROWSET, "wrs", local);
        let mut metadata =
            el("metadata").with_child(el("column-count").with_text(rs.columns.len().to_string()));
        for (i, c) in rs.columns.iter().enumerate() {
            metadata.push(
                el("column-definition")
                    .with_child(el("column-index").with_text((i + 1).to_string()))
                    .with_child(el("column-name").with_text(c.name.as_str()))
                    .with_child(el("column-type").with_text(c.ty.name())),
            );
        }
        let mut data = el("data");
        for row in &rs.rows {
            let mut current = el("currentRow");
            for value in row {
                current.push(match value {
                    Value::Null => el("columnValue").with_attr("null", "true"),
                    Value::Str(s) if s.trim() != s || s.is_empty() => {
                        el("columnValue").with_attr("value", s.as_str())
                    }
                    v => el("columnValue").with_text(v.to_display_string()),
                });
            }
            data.push(current);
        }
        el("webRowSet").with_child(metadata).with_child(data)
    }

    /// Enclosing elements the writer must pick its row and cell prefix
    /// under: none; one binding `wrs` to another namespace (the writer
    /// takes `wrs1`); one binding the WebRowSet namespace to `r`; one
    /// making it the default namespace.
    const SCOPES: [Option<(&str, &str)>; 4] =
        [None, Some(("urn:other", "wrs")), Some((ns::ROWSET, "r")), Some((ns::ROWSET, ""))];

    /// `rs` written by the writer and by the tree serialiser, inside the
    /// enclosing element `scope` names.
    fn streamed_and_reference(rs: &Rowset, scope: Option<(&str, &str)>) -> (String, String) {
        let mut streamed = String::new();
        let mut w = XmlWriter::new(&mut streamed);
        let tree = match scope {
            None => {
                rs.write_into(&mut w);
                reference_tree(rs)
            }
            Some((uri, prefix)) => {
                let outer = QName::new(uri, prefix, "outer");
                w.start(&outer);
                rs.write_into(&mut w);
                w.end();
                XmlElement::new(uri, prefix, "outer").with_child(reference_tree(rs))
            }
        };
        w.finish();
        (streamed, dais_xml::to_string(&tree))
    }

    #[test]
    fn writer_matches_the_tree_serialiser_in_every_scope() {
        let zero_columns = Rowset { columns: Vec::new(), rows: vec![Vec::new(); 3] };
        for (scope, tags) in SCOPES.into_iter().zip([
            ["<wrs:currentRow>", "<wrs:columnValue null=\"true\"/>"],
            ["<wrs1:currentRow>", "<wrs1:columnValue value=\"  padded  \"/>"],
            ["<r:currentRow>", "</r:columnValue>"],
            ["<currentRow>", "<columnValue>2.5</columnValue>"],
        ]) {
            let (streamed, reference) = streamed_and_reference(&sample(), scope);
            assert_eq!(streamed, reference);
            for tag in tags {
                assert!(streamed.contains(tag), "{tag} missing from {streamed}");
            }
            let (streamed, reference) = streamed_and_reference(&zero_columns, scope);
            assert_eq!(streamed, reference);
            assert_eq!(streamed.matches("currentRow/>").count(), 3, "{streamed}");
        }
        assert_eq!(decode(&encode(&zero_columns)).unwrap(), zero_columns);
    }

    #[test]
    fn writer_matches_the_tree_serialiser_on_generated_rowsets() {
        run_cases("writer_vs_tree_serialiser", 128, 0x5E71A, |g| {
            let rs = arb_rowset(g);
            let scope = *g.pick(&SCOPES);
            let (streamed, reference) = streamed_and_reference(&rs, scope);
            assert_eq!(streamed, reference);
        });
    }

    #[test]
    fn writer_to_cursor_roundtrip() {
        let rs = sample();
        let text = encode(&rs);
        assert!(text.contains("null=\"true\""), "NULLs are marked explicitly");
        assert_eq!(decode(&text).unwrap(), rs);
        assert_eq!(reference_decode(&text).unwrap(), rs);
        let empty = Rowset::new(vec![]);
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn window_writer_clips_to_the_rowset() {
        let mut rs = Rowset::new(vec![RowsetColumn { name: "n".into(), ty: SqlType::Integer }]);
        for i in 0..10 {
            rs.rows.push(vec![Value::Int(i)]);
        }
        for (start, count, expected) in
            [(0, 10, 0..10), (3, 4, 3..7), (8, 5, 8..10), (20, 5, 0..0), (0, 0, 0..0)]
        {
            let page = decode(&encode_window(&rs, start, count)).unwrap();
            assert_eq!(page.columns, rs.columns);
            let expected: Vec<Vec<Value>> = expected.map(|i| vec![Value::Int(i)]).collect();
            assert_eq!(page.rows, expected, "window ({start}, {count})");
        }
    }

    /// Entities, whitespace (so edged and whitespace-only strings, which
    /// take the attribute form), and multibyte characters.
    const TEXT_ALPHABET: &str = " \t\n&<>\"'abcXYZ019.,:;!?#()*+-/=@[]_{}|~é€☃𝄞";

    fn arb_cell(g: &mut Gen, ty: SqlType) -> Value {
        if g.usize_in(0, 5) == 0 {
            return Value::Null;
        }
        match ty {
            SqlType::Boolean => Value::Bool(g.bool_any()),
            SqlType::Integer => Value::Int(g.i64_any()),
            SqlType::Double => Value::Double(crate::value::tests::arb_double(g)),
            SqlType::Varchar => Value::Str(g.string_from(TEXT_ALPHABET, 0, 16)),
        }
    }

    fn arb_rowset(g: &mut Gen) -> Rowset {
        const TYPES: [SqlType; 4] =
            [SqlType::Boolean, SqlType::Integer, SqlType::Double, SqlType::Varchar];
        let columns: Vec<RowsetColumn> = (0..g.usize_in(0, 6))
            .map(|i| RowsetColumn { name: format!("c{i}"), ty: *g.pick(&TYPES) })
            .collect();
        let mut rs = Rowset::new(columns);
        for _ in 0..g.usize_in(0, 12) {
            let row = rs.columns.iter().map(|c| arb_cell(g, c.ty)).collect();
            rs.rows.push(row);
        }
        rs
    }

    #[test]
    fn cursor_agrees_with_the_tree_reference_on_generated_rowsets() {
        run_cases("cursor_vs_tree_reference", 128, 0xC0DEC, |g| {
            let rs = arb_rowset(g);
            let text = encode(&rs);
            let decoded = decode(&text).unwrap();
            // By `Debug`: `Value`'s `==` is SQL equality, under which NaN
            // equals nothing.
            let reference = reference_decode(&text).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{reference:?}"), "{text}");
            // Doubles travel as decimal text; compare displayed forms.
            assert_eq!(decoded.columns, rs.columns);
            assert_eq!(encode(&decoded), text);
        });
    }

    #[test]
    fn cursor_and_reference_reject_the_same_malformed_documents() {
        const WRS: &str = "xmlns:wrs='http://java.sun.com/xml/ns/jdbc'";
        let int_column = "<wrs:column-definition><wrs:column-name>n</wrs:column-name>\
                          <wrs:column-type>INTEGER</wrs:column-type></wrs:column-definition>";
        let doc = |metadata: &str, rows: &str| {
            format!(
                "<wrs:webRowSet {WRS}><wrs:metadata>{metadata}</wrs:metadata>\
                 <wrs:data>{rows}</wrs:data></wrs:webRowSet>"
            )
        };
        let whole = encode(&sample());
        let cut = |marker: &str| whole[..whole.find(marker).unwrap() + marker.len()].to_string();
        let cases = [
            ("not a webRowSet", "<x/>".to_string()),
            (
                "row wider than metadata",
                doc(
                    int_column,
                    "<wrs:currentRow><wrs:columnValue>1</wrs:columnValue>\
                     <wrs:columnValue>2</wrs:columnValue></wrs:currentRow>",
                ),
            ),
            ("row narrower than metadata", doc(int_column, "<wrs:currentRow/>")),
            (
                "unknown column type",
                doc(
                    "<wrs:column-definition><wrs:column-name>n</wrs:column-name>\
                     <wrs:column-type>BLOB</wrs:column-type></wrs:column-definition>",
                    "",
                ),
            ),
            (
                "column without a name",
                doc(
                    "<wrs:column-definition><wrs:column-type>INTEGER</wrs:column-type>\
                     </wrs:column-definition>",
                    "",
                ),
            ),
            (
                "cell of the wrong type",
                doc(
                    int_column,
                    "<wrs:currentRow><wrs:columnValue>x</wrs:columnValue></wrs:currentRow>",
                ),
            ),
            (
                "cell with an unbound attribute prefix",
                doc(
                    int_column,
                    "<wrs:currentRow><wrs:columnValue q:x='1'>1</wrs:columnValue>\
                     </wrs:currentRow>",
                ),
            ),
            ("no metadata", format!("<wrs:webRowSet {WRS}><wrs:data></wrs:data></wrs:webRowSet>")),
            ("no metadata or data", format!("<wrs:webRowSet {WRS}/>")),
            (
                "data before metadata",
                format!(
                    "<wrs:webRowSet {WRS}><wrs:data/><wrs:metadata>{int_column}</wrs:metadata>\
                     </wrs:webRowSet>"
                ),
            ),
            (
                "two metadata blocks",
                format!(
                    "<wrs:webRowSet {WRS}><wrs:metadata>{int_column}</wrs:metadata>\
                     <wrs:metadata>{int_column}</wrs:metadata><wrs:data/></wrs:webRowSet>"
                ),
            ),
            (
                "a metadata block after the data",
                format!(
                    "<wrs:webRowSet {WRS}><wrs:metadata>{int_column}</wrs:metadata>\
                     <wrs:data/><wrs:metadata/></wrs:webRowSet>"
                ),
            ),
            (
                "column with two names",
                doc(
                    "<wrs:column-definition><wrs:column-name>n</wrs:column-name>\
                     <wrs:column-name>m</wrs:column-name>\
                     <wrs:column-type>INTEGER</wrs:column-type></wrs:column-definition>",
                    "",
                ),
            ),
            (
                "column with two types",
                doc(
                    "<wrs:column-definition><wrs:column-name>n</wrs:column-name>\
                     <wrs:column-type>INTEGER</wrs:column-type>\
                     <wrs:column-type>VARCHAR</wrs:column-type></wrs:column-definition>",
                    "",
                ),
            ),
            (
                "element inside a text cell",
                doc(
                    "<wrs:column-definition><wrs:column-name>n</wrs:column-name>\
                     <wrs:column-type>VARCHAR</wrs:column-type></wrs:column-definition>",
                    "<wrs:currentRow><wrs:columnValue>a<b/></wrs:columnValue></wrs:currentRow>",
                ),
            ),
            ("truncated in metadata", cut("<wrs:column-name>id")),
            ("truncated in a row", cut("<wrs:columnValue>widget")),
            ("truncated between rows", cut("</wrs:currentRow>")),
        ];
        for (what, text) in cases {
            assert!(decode(&text).is_err(), "cursor accepted: {what}");
            assert!(reference_decode(&text).is_err(), "reference accepted: {what}");
        }
    }

    /// The `webRowSet` inside `wrappers` enclosing elements of `doc`,
    /// read by the cursor and by the tree walk, as `Debug` text (where NaN
    /// equals itself) or a refusal.
    fn both_readers(
        doc: &str,
        wrappers: usize,
    ) -> (Result<String, String>, Result<String, String>) {
        let cursor = (|| {
            let mut parser = PullParser::new(doc).map_err(malformed)?;
            for _ in 0..wrappers {
                parser.next().map_err(malformed)?;
            }
            Rowset::from_cursor(&mut RowsetCursor::new(parser)?)
        })();
        let reference = dais_xml::parse(doc).map_err(malformed).and_then(|root| {
            let mut el = &root;
            for _ in 0..wrappers {
                el = el.elements().next().ok_or_else(|| invalid("no rowset"))?;
            }
            reference_decode_element(el)
        });
        let show =
            |r: Result<Rowset, SqlError>| r.map(|rs| format!("{rs:?}")).map_err(|e| e.to_string());
        (show(cursor), show(reference))
    }

    /// Hand-written rowsets on either side of the exact-bytes steps: each
    /// shape the steps must leave to the general path, or read as it does,
    /// decodes as the tree walk decodes it.
    #[test]
    fn exact_steps_read_and_refuse_as_the_tree_walk_does() {
        const WRS: &str = "xmlns:wrs='http://java.sun.com/xml/ns/jdbc'";
        let column = |name: &str, ty: &str| {
            format!(
                "<wrs:column-definition><wrs:column-name>{name}</wrs:column-name>\
                 <wrs:column-type>{ty}</wrs:column-type></wrs:column-definition>"
            )
        };
        let columns = column("n", "INTEGER") + &column("s", "VARCHAR");
        let doc = |columns: &str, rows: &str| {
            format!(
                "<wrs:webRowSet {WRS}><wrs:metadata>{columns}</wrs:metadata>\
                 <wrs:data>{rows}</wrs:data></wrs:webRowSet>"
            )
        };
        let row = |open: &str, s_cell: &str| {
            format!(
                "{open}<wrs:columnValue>1</wrs:columnValue>{s_cell}</wrs:currentRow>\
                 <wrs:currentRow><wrs:columnValue>2</wrs:columnValue>\
                 <wrs:columnValue>b</wrs:columnValue></wrs:currentRow>"
            )
        };
        let cell = |inner: &str| {
            row("<wrs:currentRow>", &format!("<wrs:columnValue>{inner}</wrs:columnValue>"))
        };
        let read = [
            ("a whitespace-only cell", doc(&columns, &cell(" \n\t "))),
            (
                "a close tag with a space",
                doc(&columns, &row("<wrs:currentRow>", "<wrs:columnValue>a</wrs:columnValue >")),
            ),
            ("an entity in a cell", doc(&columns, &cell("a&amp;b"))),
            ("a CDATA cell", doc(&columns, &cell("<![CDATA[<a>]]>"))),
            ("a comment inside a cell", doc(&columns, &cell("a<!-- c -->b"))),
            (
                "an attribute on a row",
                doc(
                    &columns,
                    &row("<wrs:currentRow id='r1'>", "<wrs:columnValue>a</wrs:columnValue>"),
                ),
            ),
            (
                "a row rebinding the prefix elsewhere",
                doc(
                    &columns,
                    &row(
                        "<wrs:currentRow xmlns:wrs='urn:other'>",
                        "<wrs:columnValue>a</wrs:columnValue>",
                    ),
                ),
            ),
            (
                "a row rebinding the prefix to the WebRowSet namespace",
                doc(
                    &columns,
                    &row(
                        &format!("<wrs:currentRow {WRS}>"),
                        "<wrs:columnValue>a</wrs:columnValue>",
                    ),
                ),
            ),
            (
                "a cell under another prefix",
                doc(
                    &columns,
                    &row(
                        "<wrs:currentRow xmlns:r='http://java.sun.com/xml/ns/jdbc'>",
                        "<r:columnValue>a</r:columnValue>",
                    ),
                ),
            ),
            (
                "self-closed empty rows",
                doc("", "<wrs:currentRow/><wrs:currentRow></wrs:currentRow>"),
            ),
        ];
        for (what, doc) in &read {
            let (cursor, reference) = both_readers(doc, 0);
            assert!(cursor.is_ok(), "{what}: {cursor:?}");
            assert_eq!(cursor, reference, "{what}");
        }
        let refused = [
            ("a self-closed row under columns", doc(&columns, "<wrs:currentRow/>")),
            (
                "a row rebinding its cells' prefix elsewhere",
                doc(
                    &columns,
                    &row(
                        "<r:currentRow xmlns:r='http://java.sun.com/xml/ns/jdbc' \
                         xmlns:wrs='urn:other'>",
                        "<wrs:columnValue>a</wrs:columnValue>",
                    )
                    .replacen("</wrs:currentRow>", "</r:currentRow>", 1),
                ),
            ),
            (
                "a cell of the wrong type",
                doc(
                    &columns,
                    &row("<wrs:currentRow>", "<wrs:columnValue>a</wrs:columnValue>")
                        .replace(">1<", ">x<"),
                ),
            ),
        ];
        for (what, doc) in &refused {
            let (cursor, reference) = both_readers(doc, 0);
            assert!(cursor.is_err() && reference.is_err(), "{what}: {cursor:?} / {reference:?}");
        }
        // The default-namespace and `wrs1` scopes of the writer.
        for scope in [SCOPES[1], SCOPES[3]] {
            let (streamed, _) = streamed_and_reference(&sample(), scope);
            let (cursor, reference) = both_readers(&streamed, 1);
            assert_eq!(cursor, Ok(format!("{:?}", sample())), "{streamed}");
            assert_eq!(cursor, reference);
        }
        // Cells under `MAX_DEPTH - 1` ancestors are read; under
        // `MAX_DEPTH`, both readers refuse the rowset (its metadata leaves
        // sit as deep as its cells, so `pull.rs` tests the cap on the
        // exact steps themselves).
        let rows = "<wrs:currentRow><wrs:columnValue>1</wrs:columnValue></wrs:currentRow>";
        let rowset = doc(&column("n", "INTEGER"), rows);
        for (ancestors, accepted) in [(MAX_DEPTH - 1, true), (MAX_DEPTH, false)] {
            // webRowSet, data and currentRow are three of the ancestors.
            let wrappers = ancestors - 3;
            let nested = "<d>".repeat(wrappers) + &rowset + &"</d>".repeat(wrappers);
            let (cursor, reference) = both_readers(&nested, wrappers);
            assert_eq!((cursor.is_ok(), reference.is_ok()), (accepted, accepted), "{cursor:?}");
            assert_eq!(cursor, reference);
        }
    }

    #[test]
    fn cursor_streams_rows_and_stays_exhausted() {
        let rs = sample();
        let text = encode(&rs);
        let mut cursor = RowsetCursor::new(PullParser::new(&text).unwrap()).unwrap();
        assert_eq!(cursor.columns(), rs.columns.as_slice());
        let mut row = Vec::new();
        let mut seen = Vec::new();
        while cursor.next_row_into(&mut row).unwrap() {
            seen.push(row.clone());
        }
        assert_eq!(seen, rs.rows);
        assert!(!cursor.next_row_into(&mut row).unwrap());

        // No rows, and no `data` element at all, are both empty rowsets;
        // no metadata is no rowset.
        let empty = Rowset::new(vec![RowsetColumn { name: "n".into(), ty: SqlType::Integer }]);
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
        let no_data = "<wrs:webRowSet xmlns:wrs='http://java.sun.com/xml/ns/jdbc'>\
                       <wrs:metadata/></wrs:webRowSet>";
        assert_eq!(decode(no_data).unwrap(), Rowset::new(vec![]));
        let bare = "<wrs:webRowSet xmlns:wrs='http://java.sun.com/xml/ns/jdbc'/>";
        assert_eq!(decode(bare).unwrap_err().message, NO_METADATA);
    }

    #[test]
    fn finish_hands_the_parser_back_after_the_embedded_document() {
        let rs = sample();
        let text = format!("<outer>{}<after/></outer>", encode(&rs));
        let mut parser = PullParser::new(&text).unwrap();
        assert!(matches!(parser.next().unwrap(), Some(PullEvent::Start { local: "outer", .. })));
        // Abandoned after one row: `finish` drains the rest.
        let mut cursor = RowsetCursor::new(parser).unwrap();
        assert!(cursor.next_row_into(&mut Vec::new()).unwrap());
        let mut parser = cursor.finish().unwrap();
        assert!(matches!(parser.next().unwrap(), Some(PullEvent::Start { local: "after", .. })));
    }

    #[test]
    fn column_index_lookup() {
        let rs = sample();
        assert_eq!(rs.column_index("PRICE"), Some(2));
        assert_eq!(rs.column_index("none"), None);
    }
}
