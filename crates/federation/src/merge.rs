//! Streaming k-way merge of WebRowSet pages.
//!
//! Scatter-gather answers arrive as one serialised rowset per shard. The
//! merge consumes a [`RowsetCursor`] per shard — rows decode off the wire
//! bytes on demand — and re-encodes straight into the caller's
//! [`XmlWriter`], so no shard page and no merged result is ever
//! materialised. Steady state holds exactly one decoded row per shard
//! (buffers reused across rows): O(1) allocations per merged page.

use std::cmp::Ordering;

use dais_sql::{RowsetColumn, RowsetCursor, RowsetWriter, SqlError, Value};
use dais_xml::{XmlSink, XmlWriter};

/// The column an `ORDER BY` term sorts on, as far as the merge needs to
/// know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortKey {
    /// Sort column by (unqualified, case-insensitive) name.
    Column(String),
    /// Zero-based output-column ordinal.
    Ordinal(usize),
}

/// One `ORDER BY` term of a scattered statement: which output column it
/// sorts on, and in which direction. The full term list merges
/// lexicographically ([`merge_cursors`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeKey {
    pub key: SortKey,
    pub descending: bool,
}

impl MergeKey {
    /// Resolve the key against the rowset metadata; `None` if the
    /// statement ordered by something the output does not carry.
    pub fn index_in(&self, columns: &[RowsetColumn]) -> Option<usize> {
        match &self.key {
            SortKey::Ordinal(i) => (*i < columns.len()).then_some(*i),
            SortKey::Column(name) => columns.iter().position(|c| c.name.eq_ignore_ascii_case(name)),
        }
    }
}

const NULL: Value = Value::Null;

/// Merge `cursors` (one sorted rowset page per shard) into `w` as a
/// single WebRowSet document, skipping `skip` merged rows and emitting
/// at most `take`. Returns the number of rows written.
///
/// With a non-empty `order` the merge is a k-way minimum scan comparing
/// the full key list lexicographically — ties on the first key fall to
/// the second, and so on, exactly as a single service's sort would —
/// breaking only complete ties towards the lowest shard index. Without
/// one, pages concatenate in shard order. Either way every row streams
/// cursor → writer through one reused buffer per shard.
pub fn merge_cursors<S: XmlSink>(
    w: &mut XmlWriter<'_, S>,
    mut cursors: Vec<RowsetCursor<'_>>,
    order: &[MergeKey],
    skip: usize,
    take: usize,
) -> Result<u64, SqlError> {
    let mut writer = RowsetWriter::new();
    let columns: Vec<RowsetColumn> = match cursors.first() {
        Some(c) => c.columns().to_vec(),
        None => Vec::new(),
    };
    writer.begin(w, &columns);
    // Keys resolve to (column index, descending) pairs. The prefix up
    // to the first unresolvable key still orders the merge usefully; an
    // unresolvable *first* key degrades to shard-order concatenation,
    // as before.
    let keys: Vec<(usize, bool)> =
        order.iter().map_while(|k| k.index_in(&columns).map(|i| (i, k.descending))).collect();
    // Shards sort with `Value::total_cmp` (exact across Int/Double), so
    // the merge compares with it too.
    let compare_rows = |a: &[Value], b: &[Value]| -> Ordering {
        for &(index, descending) in &keys {
            let ord = a.get(index).unwrap_or(&NULL).total_cmp(b.get(index).unwrap_or(&NULL));
            let ord = if descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    };

    // One reusable row buffer per shard; `alive[i]` says buffer i holds
    // the shard's next undelivered row.
    let mut rows: Vec<Vec<Value>> = cursors.iter().map(|_| Vec::new()).collect();
    let mut alive: Vec<bool> = Vec::with_capacity(cursors.len());
    for (c, buf) in cursors.iter_mut().zip(rows.iter_mut()) {
        alive.push(c.next_row_into(buf)?);
    }

    let mut seen = 0usize;
    let mut written = 0u64;
    while written < take as u64 {
        let next = if keys.is_empty() {
            (0..cursors.len()).find(|&i| alive[i])
        } else {
            let mut best: Option<usize> = None;
            for i in 0..cursors.len() {
                if !alive[i] {
                    continue;
                }
                // Strictly-less keeps complete ties on the lowest shard.
                if best.is_none_or(|b| compare_rows(&rows[i], &rows[b]) == Ordering::Less) {
                    best = Some(i);
                }
            }
            best
        };
        let Some(i) = next else { break };
        if seen >= skip {
            writer.row(w, rows[i].iter());
            written += 1;
        }
        seen += 1;
        alive[i] = cursors[i].next_row_into(&mut rows[i])?;
    }
    writer.finish(w);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_sql::{Rowset, SqlType};
    use dais_xml::PullParser;

    fn page(rows: &[(i64, &str)]) -> String {
        let columns = vec![
            RowsetColumn { name: "id".into(), ty: SqlType::Integer },
            RowsetColumn { name: "v".into(), ty: SqlType::Varchar },
        ];
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        let mut rw = RowsetWriter::new();
        rw.begin(&mut w, &columns);
        for (id, v) in rows {
            let cells = [Value::Int(*id), Value::Str((*v).into())];
            rw.row(&mut w, cells.iter());
        }
        rw.finish(&mut w);
        w.finish();
        out
    }

    fn merged(pages: &[String], order: &[MergeKey], skip: usize, take: usize) -> Rowset {
        let mut parsers: Vec<PullParser<'_>> =
            pages.iter().map(|p| PullParser::new(p).unwrap()).collect();
        let cursors: Vec<RowsetCursor<'_>> =
            parsers.drain(..).map(|p| RowsetCursor::new(p).unwrap()).collect();
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        merge_cursors(&mut w, cursors, order, skip, take).unwrap();
        w.finish();
        let mut merged = RowsetCursor::new(PullParser::new(&out).unwrap()).unwrap();
        Rowset::from_cursor(&mut merged).unwrap()
    }

    fn ids(r: &Rowset) -> Vec<i64> {
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(i) => *i,
                other => panic!("non-int id {other:?}"),
            })
            .collect()
    }

    fn asc(name: &str) -> MergeKey {
        MergeKey { key: SortKey::Column(name.into()), descending: false }
    }

    fn desc(name: &str) -> MergeKey {
        MergeKey { key: SortKey::Column(name.into()), descending: true }
    }

    #[test]
    fn k_way_merge_interleaves_sorted_pages() {
        let pages = [page(&[(1, "a"), (4, "d"), (9, "i")]), page(&[(2, "b"), (3, "c")]), page(&[])];
        let r = merged(&pages, &[asc("id")], 0, usize::MAX);
        assert_eq!(ids(&r), vec![1, 2, 3, 4, 9]);
        assert_eq!(r.columns.len(), 2);
    }

    #[test]
    fn descending_merge_and_window() {
        let pages = [page(&[(9, "i"), (4, "d")]), page(&[(7, "g"), (2, "b")])];
        assert_eq!(ids(&merged(&pages, &[desc("id")], 0, usize::MAX)), vec![9, 7, 4, 2]);
        assert_eq!(ids(&merged(&pages, &[desc("id")], 1, 2)), vec![7, 4]);
    }

    #[test]
    fn no_key_concatenates_in_shard_order() {
        let pages = [page(&[(5, "e")]), page(&[(1, "a"), (3, "c")])];
        assert_eq!(ids(&merged(&pages, &[], 0, usize::MAX)), vec![5, 1, 3]);
    }

    /// `ORDER BY id, v`: ties on the first key must fall to the second,
    /// not to the shard index — shard 1 holds the lexicographically
    /// smaller `v` for both duplicated ids.
    #[test]
    fn first_key_ties_fall_to_later_keys() {
        let pages = [page(&[(1, "bb"), (2, "dd")]), page(&[(1, "aa"), (2, "cc")])];
        let r = merged(&pages, &[asc("id"), asc("v")], 0, usize::MAX);
        let vs: Vec<&Value> = r.rows.iter().map(|row| &row[1]).collect();
        assert_eq!(ids(&r), vec![1, 1, 2, 2]);
        assert_eq!(
            vs,
            [
                &Value::Str("aa".into()),
                &Value::Str("bb".into()),
                &Value::Str("cc".into()),
                &Value::Str("dd".into())
            ]
        );
        // Mixed directions: same first key, second key reversed.
        let r = merged(&pages, &[asc("id"), desc("v")], 0, usize::MAX);
        let vs: Vec<&Value> = r.rows.iter().map(|row| &row[1]).collect();
        assert_eq!(
            vs,
            [
                &Value::Str("bb".into()),
                &Value::Str("aa".into()),
                &Value::Str("dd".into()),
                &Value::Str("cc".into())
            ]
        );
    }

    #[test]
    fn equal_keys_break_ties_towards_the_lowest_shard() {
        let pages = [page(&[(1, "from-s0")]), page(&[(1, "from-s1")])];
        let r = merged(&pages, &[asc("id")], 0, usize::MAX);
        assert_eq!(r.rows[0][1], Value::Str("from-s0".into()));
        assert_eq!(r.rows[1][1], Value::Str("from-s1".into()));
    }
}
