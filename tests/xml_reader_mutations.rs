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
//! it does: the same rowset, or a refusal from both.

use dais::dair::messages::rowset_cursor_from_reply_bytes;
use dais::dair::SqlResponseData;
use dais::soap::Envelope;
use dais::sql::{Rowset, RowsetColumn, RowsetCursor, SqlType, Value};
use dais::xml::parser::MAX_DEPTH;
use dais::xml::{ns, parse, parse_preserving, to_bytes_into, PullParser, XmlElement, XmlError};
use dais_util::prop::{run_cases, Gen};
use std::cell::Cell;
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

/// The tree walk `RowsetCursor` replaced (`dais-sql` keeps it in its
/// unit tests), held to one more rule of the cursor's: a text cell holds
/// text only. Reads metadata and cells off a `webRowSet` element.
fn reference_decode(root: &XmlElement) -> Result<Rowset, String> {
    if !root.name.is(ns::ROWSET, "webRowSet") {
        return Err(format!("expected wrs:webRowSet, found {}", root.name));
    }
    let text_only = |el: &XmlElement| match el.elements().next() {
        Some(child) => Err(format!("unexpected child element <{}> in a text cell", child.name)),
        None => Ok(el.text()),
    };
    let text_of = |el: &XmlElement, local: &str| el.child(ns::ROWSET, local).map(text_only);
    let metadata = root.child(ns::ROWSET, "metadata").ok_or("webRowSet missing metadata")?;
    let mut columns = Vec::new();
    for def in metadata.children_named(ns::ROWSET, "column-definition") {
        let name = text_of(def, "column-name").ok_or("column without a name")??;
        let ty_name = text_of(def, "column-type").unwrap_or(Ok(String::new()))?;
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

/// Run every reader of wire XML over `doc`; a panic in any of them fails
/// the case. Returns the tree builder's verdict, after checking that the
/// preserving builder and the pull parser reach the same one, and that
/// the cursor and the tree walk decode its rowset alike.
fn read_everywhere(doc: &[u8], rowsets: bool) -> Result<(), XmlError> {
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
    let tree = parse(text).map(drop);
    assert_eq!(tree.is_ok(), parse_preserving(text).is_ok(), "parse vs parse_preserving");
    assert_eq!(tree.is_ok(), drain(text).is_ok(), "parse vs pull drain: {tree:?}");
    tree
}

#[test]
fn goldens_round_trip_byte_identically() {
    for (name, doc) in goldens() {
        let tree = parse(std::str::from_utf8(&doc).unwrap()).unwrap();
        let mut out = Vec::new();
        to_bytes_into(&tree, &mut out);
        assert!(out == doc, "{name} does not re-serialise to its own bytes");
        read_everywhere(&doc, carries_rowset(&doc)).unwrap();
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
    run_cases("xml_reader_mutations", 1000, 0x2005_0830, |g: &mut Gen| {
        let (name, doc) = g.pick(&docs);
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
        let verdict = read_everywhere(&m, carries_rowset(doc));
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
}
