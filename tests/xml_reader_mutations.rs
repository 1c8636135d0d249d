//! One mutation harness over the XML reader.
//!
//! Every golden wire document reads back to a tree that re-serialises to
//! the same bytes. Seeded mutants of the goldens — truncated, a byte
//! replaced, a slice duplicated, an unbound attribute prefix added, or
//! nested past `MAX_DEPTH` — go through every reader of wire XML: the
//! tree builder in both modes, the pull parser, the envelope reader and,
//! for rowset-bearing goldens, the WebRowSet cursor and the `SQLResponse`
//! decoders. Each must return a value or an error, never panic, and the
//! tree builder and the pull parser must agree on which.

use dais::dair::messages::rowset_cursor_from_reply_bytes;
use dais::dair::SqlResponseData;
use dais::soap::Envelope;
use dais::sql::{Rowset, RowsetCursor};
use dais::xml::parser::MAX_DEPTH;
use dais::xml::{parse, parse_preserving, to_bytes_into, PullParser, XmlError};
use dais_util::prop::{run_cases, Gen};
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

/// Run every reader of wire XML over `doc`; a panic in any of them fails
/// the case. Returns the tree builder's verdict, after checking that the
/// preserving builder and the pull parser reach the same one.
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
}
