//! One mutation harness over the XML reader.
//!
//! Every golden wire document reads back to a tree that re-serialises to
//! the same bytes. Seeded mutants of the goldens — truncated, a byte
//! replaced, a slice duplicated, an unbound attribute prefix added, or
//! nested past `MAX_DEPTH` — go through every reader of wire XML: the
//! tree builder in both modes, the pull parser, the envelope reader and,
//! for rowset-bearing goldens, the WebRowSet cursor and the `SQLResponse`
//! decoders. Each must return a value or an error, never panic, and the
//! tree builder and the pull parser must agree on which. The WebRowSet
//! cursor must also decode a mutant's rowset exactly as a tree walk of
//! it does: the same rowset, or a refusal from both. Likewise the
//! `SQLResponse` decoders must decode a mutant of every response-bearing
//! golden (update count, empty result, response item, rowset pages) as a
//! tree walk does: the same items and communication area, or a refusal
//! from both; for the three goldens without rows, every single-byte
//! replacement is checked. A second sampled run edits only inside the
//! `data` block of the rowset goldens, aiming at the shapes the cursor's
//! exact-bytes steps for rows and cells must leave to its general path.

use dais::dair::messages::rowset_cursor_from_reply_bytes;
use dais::dair::SqlResponseData;
use dais::soap::Envelope;
use dais::sql::{Rowset, RowsetColumn, RowsetCursor, SqlCommunicationArea, SqlType, Value};
use dais::xml::parser::MAX_DEPTH;
use dais::xml::{
    ns, parse, parse_preserving, to_bytes_into, PullParser, XmlElement, XmlError, XmlNode,
};
use dais_util::prop::{run_cases, Gen};
use std::cell::Cell;
use std::ops::Range;
use std::path::PathBuf;

/// Every `tests/golden/*.xml` document, by file name, in name order.
fn goldens() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut docs: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    docs.sort();
    assert!(docs.len() >= 10, "goldens missing from {}", dir.display());
    docs
}

fn carries_rowset(doc: &[u8]) -> bool {
    doc.windows(b"webRowSet".len()).any(|w| w == b"webRowSet")
}

/// Read a whole document through the pull parser's public event stream.
fn drain(text: &str) -> Result<(), XmlError> {
    let mut p = PullParser::new(text)?;
    while p.next()?.is_some() {}
    Ok(())
}

/// The element's text, refusing child elements as a text cell does.
fn text_only(el: &XmlElement) -> Result<String, String> {
    match el.elements().next() {
        Some(child) => Err(format!("unexpected child element <{}> in a text cell", child.name)),
        None => Ok(el.text()),
    }
}

/// The text of `def`'s one `local` field, if it has one.
fn field(def: &XmlElement, local: &str) -> Result<Option<String>, String> {
    let mut fields = def.children_named(ns::ROWSET, local);
    let field = fields.next().map(text_only).transpose()?;
    match fields.next() {
        Some(_) => Err(format!("column with two {local}s")),
        None => Ok(field),
    }
}

/// The tree walk `RowsetCursor` replaced (`dais-sql` keeps it in its
/// unit tests), held to the cursor's rules on shapes the tree could
/// otherwise read: a text cell holds text only, and there is exactly one
/// metadata block, before the data, whose column definitions name one
/// name and one type each. Reads metadata and cells off a `webRowSet`
/// element.
fn reference_decode(root: &XmlElement) -> Result<Rowset, String> {
    if !root.name.is(ns::ROWSET, "webRowSet") {
        return Err(format!("expected wrs:webRowSet, found {}", root.name));
    }
    let metadata = root
        .elements()
        .find(|e| e.name.is(ns::ROWSET, "metadata") || e.name.is(ns::ROWSET, "data"))
        .filter(|e| e.name.is(ns::ROWSET, "metadata"))
        .ok_or("webRowSet missing metadata")?;
    if root.children_named(ns::ROWSET, "metadata").nth(1).is_some() {
        return Err("webRowSet with two metadata blocks".into());
    }
    let mut columns = Vec::new();
    for def in metadata.children_named(ns::ROWSET, "column-definition") {
        let name = field(def, "column-name")?.ok_or("column without a name")?;
        let ty_name = field(def, "column-type")?.unwrap_or_default();
        let ty = SqlType::parse(&ty_name).ok_or(format!("unknown column type '{ty_name}'"))?;
        columns.push(RowsetColumn { name, ty });
    }
    let mut rowset = Rowset::new(columns);
    if let Some(data) = root.child(ns::ROWSET, "data") {
        for row_el in data.children_named(ns::ROWSET, "currentRow") {
            let mut row = Vec::with_capacity(rowset.columns.len());
            for (i, cell) in row_el.children_named(ns::ROWSET, "columnValue").enumerate() {
                let column = rowset.columns.get(i).ok_or("row wider than metadata")?;
                if cell.attribute("null") == Some("true") {
                    row.push(Value::Null);
                    continue;
                }
                let text = match cell.attribute("value") {
                    Some(v) => v.to_string(),
                    None => text_only(cell)?,
                };
                row.push(Value::parse_typed(text.into(), column.ty).map_err(|e| e.to_string())?);
            }
            if row.len() != rowset.columns.len() {
                return Err("row narrower than metadata".into());
            }
            rowset.rows.push(row);
        }
    }
    Ok(rowset)
}

/// The `webRowSet` element a rowset-bearing document carries, as a
/// document of its own: the bytes from its start tag through the first
/// `webRowSet` end tag after it (to the end of input if there is none),
/// inside an element that binds the prefixes the goldens declare above
/// the rowset.
fn rowset_document(text: &str) -> Option<String> {
    const END: &str = "</wrs:webRowSet>";
    let start = text.find("<wrs:webRowSet")?;
    let end = text[start..].find(END).map_or(text.len(), |i| start + i + END.len());
    Some(format!(
        "<w xmlns:soap='{}' xmlns:wsdair='{}'>{}</w>",
        ns::SOAP_ENV,
        ns::WSDAIR,
        &text[start..end]
    ))
}

thread_local! {
    /// Rowsets compared between the two decoders: (read, refused).
    static COMPARED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Decode the rowset in `text` with the cursor and with the tree walk:
/// both must refuse it, or both must yield the same rowset (compared by
/// `Debug`, where NaN equals itself and `Int(1)` differs from
/// `Double(1.0)`).
fn assert_decoders_agree(text: &str) {
    let Some(doc) = rowset_document(text) else { return };
    let cursor = PullParser::new(&doc)
        .and_then(|mut p| p.next().map(|_| p)) // the wrapper's start tag
        .map_err(|e| e.to_string())
        .and_then(|p| RowsetCursor::new(p).map_err(|e| e.to_string()))
        .and_then(|mut c| Rowset::from_cursor(&mut c).map_err(|e| e.to_string()));
    let reference = parse(&doc).map_err(|e| e.to_string()).and_then(|wrapper| {
        reference_decode(wrapper.elements().next().expect("the rowset document has a child"))
    });
    match (&cursor, &reference) {
        (Ok(c), Ok(r)) => assert_eq!(format!("{c:?}"), format!("{r:?}"), "cursor vs tree walk"),
        (Err(_), Err(_)) => {}
        _ => panic!("cursor read {cursor:?}, tree walk read {reference:?}"),
    }
    COMPARED.with(|n| {
        let (read, refused) = n.get();
        n.set(if cursor.is_ok() { (read + 1, refused) } else { (read, refused + 1) });
    });
}

/// How a golden frames its response items, which picks its decoder.
#[derive(Debug, Clone, Copy)]
enum Frame {
    /// `wrapper(SQLResponse(items…))`, read by `from_reply_bytes`.
    SqlResponse,
    /// `wrapper(items…)`, read by `from_item_reply_bytes`.
    Items,
}

/// The frame of a golden's response items, if it carries any.
fn response_frame(golden: &[u8]) -> Option<Frame> {
    let has = |tag: &[u8]| golden.windows(tag.len()).any(|w| w == tag);
    if has(b"<wsdair:SQLResponse>") {
        Some(Frame::SqlResponse)
    } else if has(b"<wsdair:GetSQLResponseItemResponse") || has(b"<wsdair:GetSQLRowsetResponse") {
        Some(Frame::Items)
    } else {
        None
    }
}

/// The element's first child that is not a comment, which the pull
/// decoders require to be an element.
fn first_element(el: &XmlElement) -> Result<&XmlElement, String> {
    match el.children.iter().find(|c| !matches!(c, XmlNode::Comment(_))) {
        Some(XmlNode::Element(child)) => Ok(child),
        other => Err(format!("expected an element in <{}>, found {other:?}", el.name)),
    }
}

fn reference_area(el: &XmlElement) -> Result<SqlCommunicationArea, String> {
    let mut area = SqlCommunicationArea::success();
    let mut sqlstate = None;
    for field in el.elements() {
        match &*field.name.local {
            "SQLState" => sqlstate = Some(text_only(field)?),
            "SQLUpdateCount" => {
                area.update_count =
                    text_only(field)?.trim().parse().map_err(|_| "non-numeric SQLUpdateCount")?
            }
            "SQLMessage" => area.messages.push(text_only(field)?),
            _ => {}
        }
    }
    area.sqlstate = sqlstate.ok_or("SQLCommunicationArea without an SQLState")?;
    Ok(area)
}

/// The tree walk of a reply's response items: Envelope, Body, the
/// payload wrapper and, framed so, its `SQLResponse`; then each item by
/// local name, as the pull decoder reads them.
fn reference_response(root: &XmlElement, frame: Frame) -> Result<SqlResponseData, String> {
    if !root.name.is(ns::SOAP_ENV, "Envelope") {
        return Err("reply is not a SOAP envelope".into());
    }
    let body = root.elements().find(|e| e.name.is(ns::SOAP_ENV, "Body")).ok_or("no Body")?;
    let wrapper = first_element(body)?;
    let items = match frame {
        Frame::Items => wrapper,
        Frame::SqlResponse => wrapper
            .elements()
            .find(|e| e.name.is(ns::WSDAIR, "SQLResponse"))
            .ok_or("reply carries no SQLResponse element")?,
    };
    let mut data = SqlResponseData::default();
    for item in items.elements() {
        match &*item.name.local {
            "SQLRowset" => data.rowsets.push(reference_decode(first_element(item)?)?),
            "SQLUpdateCount" => data
                .update_counts
                .push(text_only(item)?.trim().parse().map_err(|_| "non-numeric SQLUpdateCount")?),
            "SQLReturnValue" => data.return_value = Some(Value::Str(text_only(item)?)),
            "SQLOutputParameter" => {
                let name = item.attribute("name").unwrap_or_default().to_string();
                data.output_parameters.push((name, Value::Str(text_only(item)?)));
            }
            "SQLCommunicationArea" => data.communication_area = reference_area(item)?,
            _ => {}
        }
    }
    Ok(data)
}

thread_local! {
    /// Responses compared between the two decoders: (read, refused).
    static RESPONSES: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// `prefix` with an end tag appended for every element still open at
/// its end (quoted attribute values may hold `>`).
fn closed(prefix: &str) -> String {
    let bytes = prefix.as_bytes();
    let mut open: Vec<&str> = Vec::new();
    let mut at = 0;
    while let Some(lt) = prefix[at..].find('<').map(|n| at + n) {
        let mut gt = lt + 1;
        let mut quote = None;
        while gt < bytes.len() {
            match (quote, bytes[gt]) {
                (None, b'>') => break,
                (None, q @ (b'"' | b'\'')) => quote = Some(q),
                (Some(q), b) if b == q => quote = None,
                _ => {}
            }
            gt += 1;
        }
        let tag = &prefix[lt + 1..gt.min(prefix.len())];
        if tag.starts_with('/') {
            open.pop();
        } else if !tag.starts_with(['?', '!']) && !tag.ends_with('/') {
            open.extend(tag.split([' ', '\t', '\r', '\n']).next());
        }
        at = gt + 1;
        if at >= prefix.len() {
            break;
        }
    }
    let mut out = prefix.to_string();
    for name in open.iter().rev() {
        out.push_str(&format!("</{name}>"));
    }
    out
}

/// Decode the response items in `text` with the pull decoder and with
/// the tree walk: both must refuse, or both must yield the same items
/// and communication area (compared by `Debug`). The pull decoder stops
/// at the end tag of the element holding the items, so the tree walk
/// reads the mutant through that end tag, with its open ancestors closed.
fn assert_response_decoders_agree(text: &str, golden: &[u8], frame: Frame) {
    let golden = std::str::from_utf8(golden).unwrap();
    let end = match frame {
        Frame::SqlResponse => "</wsdair:SQLResponse>",
        // The wrapper's end tag, the last one before the body's.
        Frame::Items => {
            let body = golden.rfind("</soap:Body>").unwrap();
            &golden[golden[..body].rfind("</").unwrap()..body]
        }
    };
    let read = match text.find(end) {
        Some(at) => closed(&text[..at + end.len()]),
        None => text.to_string(),
    };
    let pull = match frame {
        Frame::SqlResponse => SqlResponseData::from_reply_bytes(text.as_bytes()),
        Frame::Items => SqlResponseData::from_item_reply_bytes(text.as_bytes()),
    };
    let reference =
        parse(&read).map_err(|e| e.to_string()).and_then(|root| reference_response(&root, frame));
    match (&pull, &reference) {
        (Ok(p), Ok(r)) => assert_eq!(format!("{p:?}"), format!("{r:?}"), "pull vs tree walk"),
        (Err(_), Err(_)) => {}
        _ => panic!("{frame:?}: pull read {pull:?}, tree walk read {reference:?} of {text}"),
    }
    RESPONSES.with(|n| {
        let (read, refused) = n.get();
        n.set(if pull.is_ok() { (read + 1, refused) } else { (read, refused + 1) });
    });
}

/// Run every reader of wire XML over `doc`; a panic in any of them fails
/// the case. Returns the tree builder's verdict, after checking that the
/// preserving builder and the pull parser reach the same one, and that
/// the cursor and the tree walk decode its rowset alike.
fn read_everywhere(doc: &[u8], golden: &(String, Vec<u8>)) -> Result<(), XmlError> {
    let rowsets = carries_rowset(&golden.1);
    let _ = Envelope::from_bytes(doc);
    if rowsets {
        let _ = SqlResponseData::from_reply_bytes(doc);
        let _ = SqlResponseData::from_item_reply_bytes(doc);
        if let Ok(mut cursor) = rowset_cursor_from_reply_bytes(doc) {
            let _ = Rowset::from_cursor(&mut cursor);
        }
    }
    // The mutations keep ASCII goldens ASCII.
    let text = std::str::from_utf8(doc).unwrap();
    if rowsets {
        if let Ok(Ok(mut cursor)) = PullParser::new(text).map(RowsetCursor::new) {
            let _ = Rowset::from_cursor(&mut cursor);
        }
        assert_decoders_agree(text);
    }
    if let Some(frame) = response_frame(&golden.1) {
        assert_response_decoders_agree(text, &golden.1, frame);
    }
    let tree = parse(text).map(drop);
    assert_eq!(tree.is_ok(), parse_preserving(text).is_ok(), "parse vs parse_preserving");
    assert_eq!(tree.is_ok(), drain(text).is_ok(), "parse vs pull drain: {tree:?}");
    tree
}

#[test]
fn goldens_round_trip_byte_identically() {
    for golden @ (name, doc) in &goldens() {
        let tree = parse(std::str::from_utf8(doc).unwrap()).unwrap();
        let mut out = Vec::new();
        to_bytes_into(&tree, &mut out);
        assert!(&out == doc, "{name} does not re-serialise to its own bytes");
        read_everywhere(doc, golden).unwrap();
    }
}

/// Bytes a replaced byte is drawn from: markup and name characters, so
/// a replacement tends to break structure rather than just text.
const REPLACEMENTS: &[u8] = b"<>&;:/='\"!?[]-x ";

/// Byte offsets just past a start tag's element name.
fn start_tag_name_ends(doc: &[u8]) -> Vec<usize> {
    (0..doc.len().saturating_sub(1))
        .filter(|&i| doc[i] == b'<' && doc[i + 1].is_ascii_alphabetic())
        .filter_map(|i| {
            doc[i + 1..].iter().position(|b| matches!(b, b' ' | b'>' | b'/')).map(|n| i + 1 + n)
        })
        .collect()
}

#[test]
fn mutants_are_read_or_refused_alike_and_never_panic() {
    let docs = goldens();
    COMPARED.set((0, 0));
    RESPONSES.set((0, 0));
    run_cases("xml_reader_mutations", 1000, 0x2005_0830, |g: &mut Gen| {
        let golden @ (name, doc) = g.pick(&docs);
        let mut m = doc.clone();
        let kind = g.usize_in(0, 5);
        match kind {
            0 => m.truncate(g.usize_in(0, doc.len())),
            1 => {
                let at = g.usize_in(0, doc.len());
                m[at] = *g.pick(REPLACEMENTS);
            }
            2 => {
                let from = g.usize_in(0, doc.len());
                let to = g.usize_in(from + 1, (from + 64).min(doc.len()) + 1);
                let at = g.usize_in(0, doc.len() + 1);
                m.splice(at..at, doc[from..to].to_vec());
            }
            3 => {
                let at = *g.pick(&start_tag_name_ends(doc));
                m.splice(at..at, b" q:x='1'".iter().copied());
            }
            _ => {
                // Just inside the document element, which no golden
                // self-closes, so the innermost `d` is one level too deep.
                let at = doc.iter().position(|&b| b == b'>').unwrap() + 1;
                let nest = "<d>".repeat(MAX_DEPTH) + &"</d>".repeat(MAX_DEPTH);
                m.splice(at..at, nest.into_bytes());
            }
        }
        let verdict = read_everywhere(&m, golden);
        match kind {
            3 => assert!(
                verdict.as_ref().is_err_and(|e| e.message.contains("undeclared")),
                "{name}: unbound attribute prefix read as {verdict:?}"
            ),
            4 => assert!(
                verdict.as_ref().is_err_and(|e| e.message.contains("depth")),
                "{name}: nesting past the cap read as {verdict:?}"
            ),
            _ => {}
        }
    });
    let (read, refused) = COMPARED.get();
    println!("cursor vs tree walk: {read} rowsets read alike, {refused} refused alike");
    assert!(
        read >= 100 && refused >= 100,
        "too few rowsets compared: {read} read, {refused} refused"
    );
    let (read, refused) = RESPONSES.get();
    println!("pull vs tree walk: {read} responses read alike, {refused} refused alike");
    assert!(
        read >= 25 && refused >= 300,
        "too few responses compared: {read} read, {refused} refused"
    );
}

/// The byte range of a golden's `data` block, between `<wrs:data>` and
/// `</wrs:data>`, if it holds rows.
fn data_block(doc: &[u8]) -> Option<Range<usize>> {
    let text = std::str::from_utf8(doc).ok()?;
    let start = text.find("<wrs:data>")? + "<wrs:data>".len();
    Some(start..start + text[start..].find("</wrs:data>")?)
}

/// The text of every text cell in `data`, as byte ranges.
fn text_cells(text: &str, data: &Range<usize>) -> Vec<Range<usize>> {
    const OPEN: &str = "<wrs:columnValue>";
    text[data.clone()]
        .match_indices(OPEN)
        .map(|(at, _)| data.start + at + OPEN.len())
        .map(|start| start..start + text[start..].find('<').unwrap())
        .collect()
}

/// Edits inside the `data` block of the rowset goldens, each a shape the
/// cursor's exact-bytes steps must leave to its general path: whitespace
/// before a `>`, an entity in a cell, a CDATA section or comment in or
/// around a cell, a `null` or `value` attribute on a cell, and a row
/// redeclaring the prefix. The cursor must read each mutant's rowset as
/// the tree walk does, or refuse it with the tree walk.
#[test]
fn data_block_mutants_are_read_or_refused_alike() {
    let docs: Vec<_> = goldens().into_iter().filter(|(_, doc)| data_block(doc).is_some()).collect();
    assert!(docs.len() >= 5, "rowset goldens missing");
    COMPARED.set((0, 0));
    run_cases("data_block_mutations", 600, 0x0DA7_AB10, |g: &mut Gen| {
        let golden @ (_, doc) = g.pick(&docs);
        let text = std::str::from_utf8(doc).unwrap();
        let data = data_block(doc).unwrap();
        let cells = text_cells(text, &data);
        let (at, edit): (Range<usize>, String) = match g.usize_in(0, 5) {
            0 => {
                let gts: Vec<usize> = data.clone().filter(|&i| doc[i] == b'>').collect();
                let at = *g.pick(&gts);
                (at..at, g.pick(&[" ", "\t", "\r\n"]).to_string())
            }
            1 => {
                // One byte of an escape-free cell as a character reference.
                let plain: Vec<&Range<usize>> = cells
                    .iter()
                    .filter(|c| !c.is_empty() && !text[(*c).clone()].contains('&'))
                    .collect();
                let cell = (*g.pick(&plain)).clone();
                let at = g.usize_in(cell.start, cell.end);
                (at..at + 1, format!("&#{};", doc[at]))
            }
            2 => {
                let cell = g.pick(&cells).clone();
                let content = &text[cell.clone()];
                match g.usize_in(0, 3) {
                    0 => (cell, format!("<![CDATA[{content}]]>")),
                    1 => (cell.start..cell.start, "<!-- c -->".to_string()),
                    _ => {
                        // The whole cell element, commented out.
                        let open = cell.start - "<wrs:columnValue>".len();
                        let close = cell.end + "</wrs:columnValue>".len();
                        (open..close, format!("<!--{}-->", &text[open..close]))
                    }
                }
            }
            3 => {
                let opens: Vec<usize> = text[data.clone()]
                    .match_indices("<wrs:columnValue")
                    .map(|(at, m)| data.start + at + m.len())
                    .collect();
                let at = *g.pick(&opens);
                let attr = *g.pick(&[
                    " null=\"true\"",
                    " null=\"false\"",
                    " value=\"7\"",
                    " value=\" x \"",
                ]);
                (at..at, attr.to_string())
            }
            _ => {
                let opens: Vec<usize> = text[data.clone()]
                    .match_indices("<wrs:currentRow")
                    .map(|(at, m)| data.start + at + m.len())
                    .collect();
                let at = *g.pick(&opens);
                let uri = *g.pick(&["urn:other", ns::ROWSET]);
                (at..at, format!(" xmlns:wrs=\"{uri}\""))
            }
        };
        let mut m = text.to_string();
        m.replace_range(at, &edit);
        let _ = read_everywhere(m.as_bytes(), golden);
    });
    let (read, refused) = COMPARED.get();
    println!("data-block mutants: {read} rowsets read alike, {refused} refused alike");
    assert!(
        read >= 300 && refused >= 60,
        "too few rowsets compared: {read} read, {refused} refused"
    );
}

/// Every single-byte replacement of the non-rowset response goldens:
/// the pull decoders and the tree walk read each mutant alike or both
/// refuse it. Sampling rarely lands on the few bytes of a count or a
/// state, so these goldens are swept exhaustively.
#[test]
fn every_byte_replacement_of_the_response_item_goldens_decodes_alike() {
    const ITEM_GOLDENS: [&str; 3] = [
        "sql_execute_update_count.xml",
        "sql_execute_empty.xml",
        "get_sql_response_item_count.xml",
    ];
    RESPONSES.set((0, 0));
    for (_, doc) in goldens().iter().filter(|(name, _)| ITEM_GOLDENS.contains(&name.as_str())) {
        let frame = response_frame(doc).unwrap();
        for at in 0..doc.len() {
            for &byte in REPLACEMENTS {
                let mut m = doc.clone();
                m[at] = byte;
                assert_response_decoders_agree(std::str::from_utf8(&m).unwrap(), doc, frame);
            }
        }
    }
    let (read, refused) = RESPONSES.get();
    println!("byte replacements: {read} responses read alike, {refused} refused alike");
    assert!(read >= 3000 && refused >= 20000, "{read} read, {refused} refused");
}
