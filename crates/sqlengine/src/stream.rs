//! A pull cursor over SELECT results.
//!
//! [`RowStream`] is the zero-materialisation read path: when a statement
//! is pushdown-eligible (see the planner in [`crate::exec`]) the cursor
//! lends rows straight off its access path (scan, index probe or
//! primary-key walk) — selection, projection and the LIMIT/OFFSET window
//! applied on the fly, nothing collected into `Vec<Vec<Value>>` — and
//! iterates a materialised rowset only after a sort or for a statement
//! the planner refuses. Either way the caller sees the same [`RowRef`]
//! lending interface, so encoders (the WebRowSet streaming writer in
//! particular) are written once.

use crate::ast::{Expr, Select};
use crate::error::SqlError;
use crate::exec::{self, PushdownPlan};
use crate::expr::{eval, EvalContext, ExecSchema};
use crate::rowset::{Rowset, RowsetColumn};
use crate::storage::{RowId, Storage, Table};
use crate::value::Value;

/// One result row, lent by [`RowStream::next`]. Cells are views into
/// engine-owned storage (or the stream's materialised fallback); the
/// projection indirection is what lets a scan row serve a narrower
/// SELECT without copying the surviving cells.
pub struct RowRef<'a> {
    cells: &'a [Value],
    projection: &'a [usize],
}

impl<'a> RowRef<'a> {
    pub fn len(&self) -> usize {
        self.projection.len()
    }

    pub fn is_empty(&self) -> bool {
        self.projection.is_empty()
    }

    /// The `i`-th output cell.
    pub fn get(&self, i: usize) -> &'a Value {
        &self.cells[self.projection[i]]
    }

    /// Output cells in projection order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.projection.iter().map(move |&i| &self.cells[i])
    }
}

enum Source<'a> {
    /// Pushdown: borrowed rows off the access path with on-the-fly
    /// selection, projection and windowing. Only surviving cells are
    /// ever touched.
    Scan {
        rows: Box<dyn Iterator<Item = (RowId, &'a Vec<Value>)> + 'a>,
        schema: ExecSchema,
        predicate: Option<&'a Expr>,
        params: &'a [Value],
        projection: Vec<usize>,
        to_skip: usize,
        remaining: usize,
    },
    /// Fallback: a materialised result, iterated in place.
    Owned { rowset: Rowset, identity: Vec<usize>, pos: usize },
}

/// A pull-based cursor over the rows of one SELECT.
pub struct RowStream<'a> {
    columns: Vec<RowsetColumn>,
    source: Source<'a>,
}

impl<'a> RowStream<'a> {
    /// Wrap an already-materialised rowset (identity projection).
    pub fn from_rowset(rowset: Rowset) -> RowStream<'a> {
        let identity = (0..rowset.columns.len()).collect();
        RowStream {
            columns: rowset.columns.clone(),
            source: Source::Owned { rowset, identity, pos: 0 },
        }
    }

    /// The output columns (names and declared types).
    pub fn columns(&self) -> &[RowsetColumn] {
        &self.columns
    }

    /// The next row, or `None` when the stream is exhausted. WHERE
    /// evaluation errors surface here, exactly as the materialising
    /// executor would raise them. Not `Iterator::next`: the rows borrow
    /// from the cursor, which a lending `Iterator` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<RowRef<'_>>, SqlError> {
        match &mut self.source {
            Source::Scan { rows, schema, predicate, params, projection, to_skip, remaining } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                for (_, row) in rows.by_ref() {
                    if let Some(p) = predicate {
                        let ctx = EvalContext::new(schema, row, params);
                        if !matches!(eval(p, &ctx)?, Value::Bool(true)) {
                            continue;
                        }
                    }
                    if *to_skip > 0 {
                        *to_skip -= 1;
                        continue;
                    }
                    *remaining -= 1;
                    return Ok(Some(RowRef { cells: row, projection }));
                }
                Ok(None)
            }
            Source::Owned { rowset, identity, pos } => match rowset.rows.get(*pos) {
                Some(row) => {
                    *pos += 1;
                    Ok(Some(RowRef { cells: row, projection: identity }))
                }
                None => Ok(None),
            },
        }
    }

    /// Drain the remainder into a materialised rowset (tests, adapters).
    /// A materialised source hands its rows over without cloning them.
    pub fn collect_rowset(&mut self) -> Result<Rowset, SqlError> {
        let mut out = Rowset::new(self.columns.clone());
        if let Source::Owned { rowset, pos, .. } = &mut self.source {
            out.rows.extend(rowset.rows.drain(*pos..));
            return Ok(out);
        }
        while let Some(row) = self.next()? {
            out.rows.push(row.iter().cloned().collect());
        }
        Ok(out)
    }
}

/// Open a cursor over a parsed SELECT: pushdown plans through
/// `open_pushdown`, everything else materialised, then iterated.
pub fn open_stream<'a>(
    select: &'a Select,
    storage: &'a Storage,
    params: &'a [Value],
) -> Result<RowStream<'a>, SqlError> {
    if let Some(plan) = exec::plan_pushdown(select, storage) {
        let table = storage.table(&plan.table)?;
        return open_pushdown(plan, select.where_clause.as_ref(), table, params);
    }
    Ok(RowStream::from_rowset(exec::run_select(select, storage, params)?))
}

/// Open a cursor over a pushdown plan: rows off its access path, through
/// the predicate and window. An ORDER BY the path does not satisfy runs
/// the stream unwindowed, stable-sorts the survivors, then windows.
pub(crate) fn open_pushdown<'a>(
    plan: PushdownPlan,
    predicate: Option<&'a Expr>,
    table: &'a Table,
    params: &'a [Value],
) -> Result<RowStream<'a>, SqlError> {
    let (rows, key_ordered) =
        exec::candidate_rows(&plan.access, predicate, &plan.schema, table, params);
    let PushdownPlan { schema, projection, columns, order, offset, limit, .. } = plan;
    let sorted = !order.is_empty() && !key_ordered;
    let mut stream = RowStream {
        columns,
        source: Source::Scan {
            rows,
            schema,
            predicate,
            params,
            projection,
            to_skip: if sorted { 0 } else { offset },
            remaining: if sorted { usize::MAX } else { limit },
        },
    };
    if !sorted {
        return Ok(stream);
    }
    let mut rowset = stream.collect_rowset()?;
    rowset.rows.sort_by(|a, b| exec::compare_rows(a, b, &order));
    rowset.rows = rowset.rows.into_iter().skip(offset).take(limit).collect();
    Ok(RowStream::from_rowset(rowset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::parser::parse_statement;
    use crate::value::SqlType;

    fn db() -> Database {
        let db = Database::new("s");
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR, d DOUBLE);
             INSERT INTO t VALUES (1, 'a', 1.5), (2, NULL, 2.5), (3, 'c', 3.5),
                                  (4, 'd', 4.5), (5, 'e', 5.5);",
        )
        .unwrap();
        db
    }

    fn streamed(db: &Database, sql: &str, params: &[Value]) -> Rowset {
        db.stream_query(sql, params, |s| s.collect_rowset()).unwrap().unwrap()
    }

    #[test]
    fn stream_matches_materialised_execution() {
        let db = db();
        for sql in [
            "SELECT * FROM t",
            "SELECT id, v FROM t WHERE d > 2.0",
            "SELECT v FROM t WHERE v IS NULL",
            "SELECT id FROM t LIMIT 2 OFFSET 1",
            "SELECT id, d FROM t ORDER BY d DESC LIMIT 3",
            "SELECT COUNT(*) FROM t",
            "SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE b.d > 3.0",
        ] {
            let direct = db.execute(sql, &[]).unwrap().rowset().unwrap().clone();
            assert_eq!(streamed(&db, sql, &[]), direct, "divergence for {sql}");
        }
    }

    #[test]
    fn stream_lends_projected_cells() {
        let db = db();
        db.stream_query("SELECT v, id FROM t WHERE id = ?", &[Value::Int(3)], |s| {
            assert_eq!(s.columns().len(), 2);
            assert_eq!(s.columns()[0].ty, SqlType::Varchar);
            let row = s.next().unwrap().expect("one row");
            assert_eq!(row.len(), 2);
            assert_eq!(row.get(0), &Value::Str("c".into()));
            assert_eq!(row.get(1), &Value::Int(3));
            assert_eq!(row.iter().count(), 2);
            assert!(s.next().unwrap().is_none());
        })
        .unwrap();
    }

    #[test]
    fn stream_surfaces_eval_errors() {
        let db = db();
        let err = db
            .stream_query("SELECT id FROM t WHERE id = ?", &[], |s| s.next().map(|r| r.is_some()))
            .unwrap()
            .unwrap_err();
        assert_eq!(err.kind, crate::error::SqlErrorKind::InvalidParameter);
    }

    #[test]
    fn stream_rejects_non_select() {
        let db = db();
        assert!(db.stream_query("DELETE FROM t", &[], |_| ()).is_err());
    }

    #[test]
    fn open_stream_uses_scan_source_when_unordered() {
        let db = db();
        let stmt = parse_statement("SELECT id FROM t WHERE d > 2.0 LIMIT 2").unwrap();
        let crate::ast::Stmt::Select(select) = &stmt else { unreachable!() };
        db.with_storage(|storage| {
            let mut s = open_stream(select, storage, &[]).unwrap();
            assert!(matches!(s.source, Source::Scan { .. }));
            let mut ids = Vec::new();
            while let Some(row) = s.next().unwrap() {
                ids.push(row.get(0).clone());
            }
            assert_eq!(ids, vec![Value::Int(2), Value::Int(3)]);
        });
    }
}
