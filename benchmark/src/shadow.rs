//! Shadow calls: each layer's public function run on a traced op's
//! captured input, outside the op, so a layer the seams cannot see
//! inside still gets a number.
//!
//! A shadow is not a span of the op — nothing nests under it and it ran
//! later, on a warm cache — so every shadow is marked `shadow` in the
//! trace and `core.dispatch_residual_ns`, the handle time the in-handle
//! shadows leave unexplained, is an estimate.

use crate::engine::CapturedInput;
use crate::trace::{now_ns, Level, OpBreakdown, Trace};
use crate::workloads::{OpInput, Oracle};
use dais_dair::messages::rowset_cursor_from_reply_bytes;
use dais_federation::{analyze, merge_cursors};
use dais_soap::Envelope;
use dais_sql::parser::parse_statement;
use dais_sql::{Database, Rowset, RowsetWriter, Value};
use dais_util::PooledBuf;
use dais_xml::XmlWriter;
use std::hint::black_box;

pub const ENVELOPE_ENCODE: &str = "soap.envelope_encode_ns";
pub const ENVELOPE_PARSE: &str = "soap.envelope_parse_ns";
pub const SQL_PARSE: &str = "sql.parse_ns";
pub const SQL_SCAN: &str = "sql.scan_ns";
pub const ROWSET_ENCODE: &str = "sql.rowset_encode_ns";
pub const ROWSET_DECODE: &str = "sql.rowset_decode_ns";
pub const FED_ANALYZE: &str = "fed.analyze_ns";
pub const FED_MERGE: &str = "fed.merge_ns";
pub const XML_PARSE: &str = "xml.parse_ns";
pub const XPATH: &str = "xmldb.xpath_ns";

pub const ALL: [&str; 10] = [
    ENVELOPE_ENCODE,
    ENVELOPE_PARSE,
    SQL_PARSE,
    SQL_SCAN,
    ROWSET_ENCODE,
    ROWSET_DECODE,
    FED_ANALYZE,
    FED_MERGE,
    XML_PARSE,
    XPATH,
];

/// The shadows whose work happens inside `SoapService::handle`; their
/// sum is what `explained_ratio` sets against the handle span.
const IN_HANDLE: [&str; 6] = [SQL_PARSE, SQL_SCAN, ROWSET_ENCODE, FED_ANALYZE, FED_MERGE, XPATH];

const REPEATS: usize = 5;

/// Median wall time of `f` over a few runs (the first warms the cache).
fn time(mut f: impl FnMut()) -> u64 {
    let mut runs = [0u64; REPEATS];
    for run in &mut runs {
        let started = now_ns();
        f();
        *run = now_ns() - started;
    }
    runs.sort_unstable();
    runs[REPEATS / 2]
}

/// One captured op with its shadow timings.
pub struct ShadowedOp {
    /// Index of the op's span in the trace.
    pub op: usize,
    pub kind: usize,
    pub shadows: Vec<(&'static str, u64)>,
    /// Handle time the in-handle shadows set out to explain: the gateway's
    /// self time on a federated op (its legs are spans already), the
    /// whole handle otherwise.
    pub handle_ns: u64,
}

impl ShadowedOp {
    pub fn in_handle_ns(&self) -> u64 {
        self.shadows.iter().filter(|(name, _)| IN_HANDLE.contains(name)).map(|(_, ns)| ns).sum()
    }
}

struct Message<'a> {
    request: &'a [u8],
    reply: &'a [u8],
}

fn encode_rowset(rowset: &Rowset) {
    let mut buf = PooledBuf::take();
    let mut w = XmlWriter::new(&mut *buf);
    let mut rows = RowsetWriter::new();
    rows.begin(&mut w, &rowset.columns);
    for row in &rowset.rows {
        rows.row(&mut w, row.iter());
    }
    rows.finish(&mut w);
    w.finish();
    black_box(buf.len());
}

fn drain_rowset(reply: &[u8]) -> bool {
    let Ok(mut cursor) = rowset_cursor_from_reply_bytes(reply) else {
        return false;
    };
    let mut row = Vec::new();
    while cursor.next_row_into(&mut row).expect("a captured reply decodes") {
        black_box(&row);
    }
    true
}

fn sql_shadows(
    db: &Database,
    sql: &str,
    params: &[Value],
    federated: bool,
    out: &mut Vec<(&'static str, u64)>,
) {
    out.push((SQL_PARSE, time(|| drop(black_box(parse_statement(sql))))));
    // A federated op scans on its shards, a quarter of the data each;
    // those scans are inside the leg spans, not replayable from here.
    if federated {
        return;
    }
    let scan = || {
        db.stream_query(sql, params, |stream| {
            while let Some(row) = stream.next().expect("oracle scan must run") {
                black_box(row.len());
            }
        })
    };
    if scan().is_ok() {
        out.push((SQL_SCAN, time(|| drop(scan()))));
        let result = db.execute(sql, params).expect("oracle query must run");
        let rowset = result.rowset().expect("a SELECT returns rows");
        out.push((ROWSET_ENCODE, time(|| encode_rowset(rowset))));
    }
}

fn fed_shadows(sql: &str, legs: &[&[u8]], out: &mut Vec<(&'static str, u64)>) {
    out.push((FED_ANALYZE, time(|| drop(black_box(analyze(sql))))));
    let Ok(statement) = analyze(sql) else {
        return;
    };
    let (skip, take) = statement.window();
    let merge = || {
        let cursors = legs
            .iter()
            .map(|page| rowset_cursor_from_reply_bytes(page).expect("a captured leg reply decodes"))
            .collect();
        let mut merged = String::new();
        let mut w = XmlWriter::new(&mut merged);
        merge_cursors(&mut w, cursors, &statement.keys, skip, take).expect("captured legs merge");
        w.finish();
        black_box(merged.len());
    };
    out.push((FED_MERGE, time(merge)));
}

/// Run every applicable shadow on every captured op of the trace.
pub fn run(
    trace: &Trace,
    breakdowns: &[OpBreakdown],
    captured: &[CapturedInput],
    oracle: &Oracle,
) -> Vec<ShadowedOp> {
    let mut shadowed = Vec::new();
    // Captured op spans and captured inputs pair up in order, per thread.
    let mut taken = vec![false; captured.len()];
    for (nth, &op) in trace.ops.iter().enumerate() {
        let span = &trace.spans[op];
        if !span.captured_op {
            continue;
        }
        let Some(slot) =
            (0..captured.len()).find(|&i| !taken[i] && captured[i].thread == span.thread)
        else {
            continue;
        };
        taken[slot] = true;
        let input = &captured[slot].input;

        let bytes = |capture: Option<usize>| capture.map(|i| trace.captures[i].as_slice());
        let mut messages = Vec::new();
        let mut legs: Vec<(u16, &[u8])> = Vec::new();
        for s in trace.spans.iter().filter(|s| s.op == Some(op) && s.level == Level::Wire) {
            let parent_level = s.parent.map(|p| trace.spans[p].level);
            match (parent_level, bytes(s.request_capture), bytes(s.response_capture)) {
                (Some(Level::Call), Some(request), Some(reply)) => {
                    messages.push(Message { request, reply })
                }
                (Some(Level::Handle), _, Some(reply)) => legs.push((s.tag, reply)),
                _ => {}
            }
        }
        // Scatter legs finish in any order; the merge takes shard order.
        legs.sort_by_key(|(addr, _)| trace.addrs[*addr as usize].clone());
        let legs: Vec<&[u8]> = legs.into_iter().map(|(_, reply)| reply).collect();

        let mut shadows: Vec<(&'static str, u64)> = Vec::new();
        let mut encode = 0;
        let mut parse = 0;
        let mut decode = 0;
        let mut xml_parse = 0;
        for m in &messages {
            let envelope = Envelope::from_bytes(m.request).expect("a captured request parses");
            let mut buf = Vec::with_capacity(m.request.len());
            encode += time(|| {
                buf.clear();
                envelope.to_bytes_into(&mut buf);
            });
            parse += time(|| drop(black_box(Envelope::from_bytes(m.request))));
            parse += time(|| drop(black_box(Envelope::from_bytes(m.reply))));
            if drain_rowset(m.reply) {
                decode += time(|| {
                    drain_rowset(m.reply);
                });
            }
            if let (Oracle::Xml { .. }, Ok(text)) = (oracle, std::str::from_utf8(m.reply)) {
                xml_parse += time(|| drop(black_box(dais_xml::parse(text))));
            }
        }
        shadows.push((ENVELOPE_ENCODE, encode));
        shadows.push((ENVELOPE_PARSE, parse));
        if decode > 0 {
            shadows.push((ROWSET_DECODE, decode));
        }
        if xml_parse > 0 {
            shadows.push((XML_PARSE, xml_parse));
        }
        match (input, oracle) {
            (OpInput::Sql { sql, params }, Oracle::Sql(db)) => {
                sql_shadows(db, sql, params, !legs.is_empty(), &mut shadows);
                if !legs.is_empty() {
                    fed_shadows(sql, &legs, &mut shadows);
                }
            }
            (OpInput::XPath(expression), Oracle::Xml { db, collection }) => {
                let query = || drop(black_box(db.xpath_query(collection, expression)));
                shadows.push((XPATH, time(query)));
            }
            _ => {}
        }

        let b = &breakdowns[nth];
        let handle_ns = if b.leg_ns.is_empty() { b.handle_ns } else { b.gather_self_ns };
        shadowed.push(ShadowedOp { op, kind: span.tag as usize, shadows, handle_ns });
    }
    shadowed
}
