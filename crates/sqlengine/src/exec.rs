//! Statement execution: SELECT pipelines, DML under a statement guard,
//! and DDL.
//!
//! A single-table SELECT of plain columns is a *pushdown plan*: its
//! `AccessPath` (scan, index probe or primary-key walk) feeds rows to
//! the streaming [`RowStream`](crate::stream::RowStream); a walk in key
//! order satisfies the ORDER BY, so LIMIT stops it. UPDATE and DELETE
//! choose victims through the same path. Everything else runs a
//! materialising pipeline (scan → join → filter → aggregate → having →
//! project → distinct → sort → limit). DML writes through a
//! [`StatementGuard`], which makes the statement atomic.

use crate::ast::*;
use crate::catalog::{ColumnMeta, IndexMeta, TableSchema};
use crate::error::{SqlError, SqlErrorKind};
use crate::expr::{checked_int, eval, EvalContext, ExecColumn, ExecSchema};
use crate::rowset::{Rowset, RowsetColumn};
use crate::storage::{IndexRows, RowId, Storage, Table};
use crate::stream::open_pushdown;
use crate::value::{GroupKey, SqlType, Value};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Bound;

/// One inverse row operation, replayed most recent first.
#[derive(Debug)]
enum UndoEntry {
    Insert { table: String, rowid: RowId },
    Delete { table: String, rowid: RowId, row: Vec<Value> },
    Update { table: String, rowid: RowId, old_row: Vec<Value> },
}

/// One statement's write access to the (write-locked) storage. Every row
/// change goes through the guard and leaves its inverse in the undo log.
/// [`StatementGuard::commit`] keeps the changes; dropping the guard
/// uncommitted replays the log, so a statement that returns `Err` and one
/// that panics both leave the storage as they found it. Reads go through
/// `Deref`.
pub struct StatementGuard<'a> {
    storage: &'a mut Storage,
    undo: Vec<UndoEntry>,
}

impl<'a> StatementGuard<'a> {
    pub fn new(storage: &'a mut Storage) -> StatementGuard<'a> {
        StatementGuard { storage, undo: Vec::new() }
    }

    /// Keep every change made through the guard.
    pub fn commit(mut self) {
        self.undo.clear();
    }

    fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), SqlError> {
        let rowid = self.storage.table_mut(table)?.insert(row)?;
        self.undo.push(UndoEntry::Insert { table: table.to_string(), rowid });
        Ok(())
    }

    fn update(&mut self, table: &str, rowid: RowId, row: Vec<Value>) -> Result<(), SqlError> {
        let old_row = self.storage.table_mut(table)?.update(rowid, row)?;
        self.undo.push(UndoEntry::Update { table: table.to_string(), rowid, old_row });
        Ok(())
    }

    fn delete(&mut self, table: &str, rowid: RowId) -> Result<Option<Vec<Value>>, SqlError> {
        let Some(row) = self.storage.table_mut(table)?.delete(rowid) else { return Ok(None) };
        self.undo.push(UndoEntry::Delete { table: table.to_string(), rowid, row: row.clone() });
        Ok(Some(row))
    }
}

impl std::ops::Deref for StatementGuard<'_> {
    type Target = Storage;

    fn deref(&self) -> &Storage {
        self.storage
    }
}

impl Drop for StatementGuard<'_> {
    fn drop(&mut self) {
        for entry in self.undo.drain(..).rev() {
            match entry {
                UndoEntry::Insert { table, rowid } => {
                    if let Ok(t) = self.storage.table_mut(&table) {
                        t.delete(rowid);
                    }
                }
                UndoEntry::Delete { table, rowid, row } => {
                    if let Ok(t) = self.storage.table_mut(&table) {
                        t.reinsert(rowid, row);
                    }
                }
                UndoEntry::Update { table, rowid, old_row } => {
                    if let Ok(t) = self.storage.table_mut(&table) {
                        // Direct reinstatement: remove then reinsert keeps
                        // indexes coherent without re-running checks.
                        t.delete(rowid);
                        t.reinsert(rowid, old_row);
                    }
                }
            }
        }
    }
}

// ===========================================================================
// SELECT
// ===========================================================================

/// Run a SELECT (possibly a UNION chain) and materialise the result.
pub fn run_select(
    select: &Select,
    storage: &Storage,
    params: &[Value],
) -> Result<Rowset, SqlError> {
    if select.unions.is_empty() {
        return run_single_select(select, storage, params);
    }
    // Head select, stripped of the chain-level clauses.
    let mut head = select.clone();
    head.unions = Vec::new();
    head.order_by = Vec::new();
    head.limit = None;
    head.offset = None;
    let mut result = run_single_select(&head, storage, params)?;

    // Plain UNION anywhere in the chain deduplicates the whole result
    // (matching the common left-associative SQL reading for homogeneous
    // chains; mixed ALL/DISTINCT chains resolve to DISTINCT).
    let mut dedup = false;
    for arm in &select.unions {
        let arm_result = run_single_select(&arm.select, storage, params)?;
        if arm_result.columns.len() != result.columns.len() {
            return Err(SqlError::syntax(format!(
                "UNION arms have different column counts ({} vs {})",
                result.columns.len(),
                arm_result.columns.len()
            )));
        }
        result.rows.extend(arm_result.rows);
        if !arm.all {
            dedup = true;
        }
    }
    if dedup {
        let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
        result.rows.retain(|row| {
            let key: Vec<GroupKey> = row.iter().map(Value::group_key).collect();
            seen.insert(key, ()).is_none()
        });
    }

    // ORDER BY over a union may only reference output columns (by name
    // or 1-based ordinal) — there is no single source row to fall back to.
    if !select.order_by.is_empty() {
        let mut key_ordinals = Vec::with_capacity(select.order_by.len());
        for item in &select.order_by {
            let ordinal = match &item.expr {
                Expr::Literal(Value::Int(n)) => {
                    let i = *n as usize;
                    if i < 1 || i > result.columns.len() {
                        return Err(SqlError::syntax(format!(
                            "ORDER BY position {n} is out of range"
                        )));
                    }
                    i - 1
                }
                Expr::Column { qualifier: None, name } => {
                    result.column_index(name).ok_or_else(|| {
                        SqlError::new(
                            SqlErrorKind::NotSupported,
                            format!(
                                "ORDER BY in UNION queries must reference an output column; '{name}' is not one"
                            ),
                        )
                    })?
                }
                _ => {
                    return Err(SqlError::new(
                        SqlErrorKind::NotSupported,
                        "ORDER BY in UNION queries must reference output columns by name or ordinal",
                    ))
                }
            };
            key_ordinals.push((ordinal, item.ascending));
        }
        result.rows.sort_by(|a, b| compare_rows(a, b, &key_ordinals));
    }

    let offset = select.offset.unwrap_or(0) as usize;
    let limit = select.limit.map(|l| l as usize).unwrap_or(usize::MAX);
    result.rows = result.rows.into_iter().skip(offset).take(limit).collect();
    Ok(result)
}

/// Order two rows by `keys` — (cell index, ascending) pairs, compared
/// lexicographically with [`Value::total_cmp`].
pub(crate) fn compare_rows(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> std::cmp::Ordering {
    let key = |&(i, ascending): &(usize, bool)| {
        if ascending {
            a[i].total_cmp(&b[i])
        } else {
            b[i].total_cmp(&a[i])
        }
    };
    keys.iter().map(key).find(|ord| ord.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
}

/// Run one core select (no UNION arms): the pushdown plan when the
/// statement qualifies, the generic materialising pipeline otherwise.
fn run_single_select(
    select: &Select,
    storage: &Storage,
    params: &[Value],
) -> Result<Rowset, SqlError> {
    if let Some(plan) = plan_pushdown(select, storage) {
        let table = storage.table(&plan.table)?;
        return open_pushdown(plan, select.where_clause.as_ref(), table, params)?.collect_rowset();
    }
    run_select_generic(select, storage, params)
}

/// The execution schema of a table's rows, every column qualified by
/// `binding` (the table's name or alias).
fn row_schema(table: &TableSchema, binding: &str) -> ExecSchema {
    let column =
        |c: &ColumnMeta| ExecColumn { qualifier: Some(binding.into()), name: c.name.clone() };
    ExecSchema::new(table.columns.iter().map(column).collect())
}

// ---- projection/selection pushdown ----------------------------------------

/// A resolved plan for a single-table SELECT whose projection is plain
/// columns and whose ORDER BY (if any) refers to output columns. Rows
/// come through `access`; rejected rows and non-projected cells are
/// never cloned.
pub(crate) struct PushdownPlan {
    /// Source table (storage lookup key).
    pub(crate) table: String,
    /// Full source schema, for WHERE evaluation against borrowed rows.
    pub(crate) schema: ExecSchema,
    /// Source column ordinals in output order.
    pub(crate) projection: Vec<usize>,
    /// Output columns: as-written names, declared source types.
    pub(crate) columns: Vec<RowsetColumn>,
    /// ORDER BY keys as (projected index, ascending).
    pub(crate) order: Vec<(usize, bool)>,
    pub(crate) offset: usize,
    pub(crate) limit: usize,
    pub(crate) access: AccessPath,
}

/// How a statement reaches its candidate rows: always a superset of the
/// rows its WHERE clause (still evaluated on each) accepts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath {
    /// Every row, in rowid order.
    Scan,
    /// `column = key` through the index on `column`; rows in rowid order.
    Probe { column: usize, key: Expr },
    /// The single-column primary key between its `key op bound`
    /// conjuncts. `key_order: Some(ascending)` streams rows in key
    /// order, satisfying an ORDER BY that leads with the (unique) key;
    /// `None` visits them in rowid order.
    Walk { bounds: Vec<(BinaryOp, Expr)>, key_order: Option<bool> },
}

/// Choose the access path for `predicate` over `table` (rows named by
/// `schema`), given the source column and direction of the first ORDER
/// BY term. No cost model: an equality on an indexed column probes (on
/// the primary key if there is one, else the first); else key range
/// conjuncts, or an ORDER BY leading with the key, walk the primary key.
fn choose_access(
    predicate: Option<&Expr>,
    schema: &ExecSchema,
    table: &Table,
    leading_order: Option<(usize, bool)>,
) -> AccessPath {
    let mut conjuncts = Vec::new();
    if let Some(p) = predicate {
        let column = |qualifier: Option<&str>, name: &str| schema.resolve(qualifier, name).ok();
        sargable_conjuncts(p, &column, &mut conjuncts);
    }
    let meta = &table.schema;
    let pk = match meta.primary_key[..] {
        [c] => Some(c),
        _ => None,
    };
    let indexed = |c: usize| {
        pk == Some(c) || meta.columns[c].unique || meta.indexes.iter().any(|i| i.column == c)
    };
    let probe = conjuncts
        .iter()
        .filter(|(c, op, _)| *op == BinaryOp::Eq && indexed(*c))
        .min_by_key(|(c, ..)| pk != Some(*c));
    if let Some((column, _, key)) = probe {
        return AccessPath::Probe { column: *column, key: (*key).clone() };
    }
    let Some(pk) = pk else { return AccessPath::Scan };
    let bounds: Vec<(BinaryOp, Expr)> = conjuncts
        .into_iter()
        .filter(|(c, ..)| *c == pk)
        .map(|(_, op, b)| (op, b.clone()))
        .collect();
    let key_order = leading_order.filter(|(c, _)| *c == pk).map(|(_, ascending)| ascending);
    if bounds.is_empty() && key_order.is_none() {
        return AccessPath::Scan;
    }
    AccessPath::Walk { bounds, key_order }
}

/// The top-level `AND` conjuncts of the form `col op b` or `b op col`
/// (`op` one of `= < <= > >=`, `b` a literal or `?`), as `(col, op, b)`
/// with `op` read from the column's side. `column` resolves a
/// (qualifier, name) reference to the caller's column id, or `None` for
/// a column the caller does not track.
///
/// This is the one predicate analysis behind both the planner's access
/// path and the federation's shard pruning: every conjunct it yields is
/// a necessary condition of the predicate, so narrowing by any subset of
/// them never excludes a row the predicate accepts.
///
/// ```
/// use dais_sql::ast::{BinaryOp, Expr, Stmt};
/// use dais_sql::exec::sargable_conjuncts;
/// use dais_sql::parser::parse_statement;
///
/// let select = match parse_statement("SELECT * FROM t WHERE 5 < k AND (k = ? OR v = 1)") {
///     Ok(Stmt::Select(select)) => select,
///     other => panic!("{other:?}"),
/// };
/// let mut out = Vec::new();
/// let column = |_: Option<&str>, name: &str| Some(name.to_string());
/// sargable_conjuncts(select.where_clause.as_ref().unwrap(), &column, &mut out);
/// // The OR arm is not a conjunct; `5 < k` reads as `k > 5`.
/// assert_eq!(out.len(), 1);
/// assert_eq!((out[0].0.as_str(), out[0].1), ("k", BinaryOp::Gt));
/// assert!(matches!(out[0].2, Expr::Literal(_)));
/// ```
pub fn sargable_conjuncts<'e, C>(
    e: &'e Expr,
    column: &impl Fn(Option<&str>, &str) -> Option<C>,
    out: &mut Vec<(C, BinaryOp, &'e Expr)>,
) {
    let Expr::Binary { op, lhs, rhs } = e else { return };
    let flipped = match op {
        BinaryOp::And => {
            sargable_conjuncts(lhs, column, out);
            return sargable_conjuncts(rhs, column, out);
        }
        BinaryOp::Eq => BinaryOp::Eq,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        _ => return,
    };
    let column = |e: &Expr| match e {
        Expr::Column { qualifier, name } => column(qualifier.as_deref(), name),
        _ => None,
    };
    let bound = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
    if let (Some(c), true) = (column(lhs), bound(rhs)) {
        out.push((c, *op, rhs));
    } else if let (Some(c), true) = (column(rhs), bound(lhs)) {
        out.push((c, flipped, lhs));
    }
}

/// The index key of a bound on a column of type `ty`, or `None` when
/// `sql_cmp` could not compare the bound with the column's values (a
/// missing parameter, NULL, NaN, another type) — the statement then
/// scans, so it raises exactly what a scan raises.
fn bound_key(bound: &Expr, ty: SqlType, params: &[Value]) -> Option<GroupKey> {
    let v = match bound {
        Expr::Literal(v) => v,
        Expr::Param(i) => params.get(*i)?,
        _ => return None,
    };
    let of_type = match ty {
        SqlType::Boolean => Value::Bool(false),
        SqlType::Integer | SqlType::Double => Value::Int(0),
        SqlType::Varchar => Value::Str(String::new()),
    };
    v.sql_cmp(&of_type).map(|_| v.group_key())
}

/// Does every `?` in `e` have a value, and every column name resolve?
/// A scan would raise the failure on its first row, so a path that
/// might visit no row must not be taken.
fn leaves_resolve(e: &Expr, schema: &ExecSchema, params: &[Value]) -> bool {
    match e {
        Expr::Param(i) => *i < params.len(),
        Expr::Column { qualifier, name } => schema.resolve(qualifier.as_deref(), name).is_ok(),
        _ => e.children().into_iter().all(|c| leaves_resolve(c, schema, params)),
    }
}

/// Rows in the order an access path visits them.
pub(crate) type Candidates<'a> = Box<dyn Iterator<Item = (RowId, &'a Vec<Value>)> + 'a>;

/// The one row source of every pushdown read and every UPDATE / DELETE:
/// `table`'s candidate rows for `access`, in visiting order, and whether
/// they arrive in key order (which satisfies the ORDER BY). When a bound
/// ([`bound_key`]) or the predicate ([`leaves_resolve`]) does not
/// resolve, it scans, exactly as a table with no index would.
pub(crate) fn candidate_rows<'a>(
    access: &AccessPath,
    predicate: Option<&Expr>,
    schema: &ExecSchema,
    table: &'a Table,
    params: &[Value],
) -> (Candidates<'a>, bool) {
    use Bound::{Excluded, Included, Unbounded};
    let resolved = || -> Option<(IndexRows<'a>, Option<bool>)> {
        if !predicate.is_none_or(|p| leaves_resolve(p, schema, params)) {
            return None;
        }
        let ty = |c: usize| table.schema.columns[c].ty;
        match access {
            AccessPath::Scan => None,
            AccessPath::Probe { column, key } => {
                let key = bound_key(key, ty(*column), params)?;
                Some((table.index_rows(*column, Included(key.clone()), Included(key))?, None))
            }
            AccessPath::Walk { bounds, key_order } => {
                // The tightest bounds: the greatest lower and the least
                // upper key, the exclusive one where two keys tie.
                let pk = table.schema.primary_key[0];
                let (mut lower, mut upper) = (None, None);
                for (op, bound) in bounds {
                    let key = bound_key(bound, ty(pk), params)?;
                    match op {
                        BinaryOp::Gt | BinaryOp::Ge => {
                            lower = lower.max(Some((key, *op == BinaryOp::Gt)))
                        }
                        _ => upper = upper.max(Some(Reverse((key, *op == BinaryOp::Le)))),
                    }
                }
                let lower = match lower {
                    Some((key, true)) => Excluded(key),
                    Some((key, false)) => Included(key),
                    None => Unbounded,
                };
                let upper = match upper {
                    Some(Reverse((key, true))) => Included(key),
                    Some(Reverse((key, false))) => Excluded(key),
                    None => Unbounded,
                };
                Some((table.index_rows(pk, lower, upper)?, *key_order))
            }
        }
    };
    let Some((ids, key_order)) = resolved() else { return (Box::new(table.scan()), false) };
    let row = move |id: RowId| table.get(id).map(|r| (id, r));
    let rows: Candidates<'a> = match key_order {
        Some(true) => Box::new(ids.filter_map(row)),
        Some(false) => Box::new(ids.rev().filter_map(row)),
        None => {
            let mut ids: Vec<RowId> = ids.collect();
            ids.sort_unstable();
            Box::new(ids.into_iter().filter_map(row))
        }
    };
    (rows, key_order.is_some())
}

/// Try to build a [`PushdownPlan`]. `None` means the statement takes the
/// generic pipeline — including every unresolvable-name case, so error
/// messages are identical on both paths.
pub(crate) fn plan_pushdown(select: &Select, storage: &Storage) -> Option<PushdownPlan> {
    if !select.unions.is_empty()
        || !select.joins.is_empty()
        || !select.group_by.is_empty()
        || select.having.is_some()
        || select.distinct
    {
        return None;
    }
    let table_ref = select.from.as_ref()?;
    let table = storage.table(&table_ref.name).ok()?;
    let binding = table_ref.binding_name();
    let schema = row_schema(&table.schema, binding);

    // Projection: wildcards and plain column references only. Anything
    // computed (expressions, aggregates, functions) goes generic.
    let mut projection = Vec::new();
    let mut columns = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in table.schema.columns.iter().enumerate() {
                    projection.push(i);
                    columns.push(RowsetColumn { name: c.name.clone(), ty: c.ty });
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                if !binding.eq_ignore_ascii_case(q) {
                    return None;
                }
                for (i, c) in table.schema.columns.iter().enumerate() {
                    projection.push(i);
                    columns.push(RowsetColumn { name: c.name.clone(), ty: c.ty });
                }
            }
            SelectItem::Expr { expr: Expr::Column { qualifier, name }, alias } => {
                let ix = schema.resolve(qualifier.as_deref(), name).ok()?;
                projection.push(ix);
                columns.push(RowsetColumn {
                    name: alias.clone().unwrap_or_else(|| name.clone()),
                    ty: table.schema.columns[ix].ty,
                });
            }
            SelectItem::Expr { .. } => return None,
        }
    }

    // ORDER BY: 1-based ordinals and unqualified output names sort on the
    // projected cells (the same keys the generic path would compute);
    // anything needing a source-row fallback goes generic.
    let mut order = Vec::with_capacity(select.order_by.len());
    for item in &select.order_by {
        let ix = match &item.expr {
            Expr::Literal(Value::Int(n)) => {
                let i = *n as usize;
                if i < 1 || i > projection.len() {
                    return None;
                }
                i - 1
            }
            Expr::Column { qualifier: None, name } => {
                columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))?
            }
            _ => return None,
        };
        order.push((ix, item.ascending));
    }

    let leading = order.first().map(|&(ix, ascending)| (projection[ix], ascending));
    let access = choose_access(select.where_clause.as_ref(), &schema, table, leading);

    Some(PushdownPlan {
        table: table_ref.name.clone(),
        schema,
        projection,
        columns,
        order,
        offset: select.offset.unwrap_or(0) as usize,
        limit: select.limit.map(|l| l as usize).unwrap_or(usize::MAX),
        access,
    })
}

/// The generic materialising pipeline (scan → filter → project → …).
fn run_select_generic(
    select: &Select,
    storage: &Storage,
    params: &[Value],
) -> Result<Rowset, SqlError> {
    // 1. Source: FROM + joins (or a single empty row for FROM-less SELECT).
    let (mut schema, mut rows, mut source_types) = match &select.from {
        None => (ExecSchema::default(), vec![Vec::new()], Vec::new()),
        Some(table_ref) => scan_table(storage, table_ref)?,
    };
    for join in &select.joins {
        let (right_schema, right_rows, right_types) = scan_table(storage, &join.table)?;
        let joined_schema = schema.join(&right_schema);
        let mut out: Vec<Vec<Value>> = Vec::new();
        match join.kind {
            JoinKind::Cross => {
                for l in &rows {
                    for r in &right_rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        out.push(combined);
                    }
                }
            }
            JoinKind::Inner | JoinKind::Left => {
                let Some(on) = join.on.as_ref() else {
                    return Err(SqlError::new(
                        SqlErrorKind::Internal,
                        "inner/left join without an ON clause survived parsing",
                    ));
                };
                for l in &rows {
                    let mut matched = false;
                    for r in &right_rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        let ctx = EvalContext::new(&joined_schema, &combined, params);
                        if matches!(eval(on, &ctx)?, Value::Bool(true)) {
                            matched = true;
                            out.push(combined);
                        }
                    }
                    if !matched && join.kind == JoinKind::Left {
                        let mut combined = l.clone();
                        combined
                            .extend(std::iter::repeat_n(Value::Null, right_schema.columns.len()));
                        out.push(combined);
                    }
                }
            }
        }
        schema = joined_schema;
        rows = out;
        source_types.extend(right_types);
    }

    // 2. WHERE.
    if let Some(predicate) = &select.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = EvalContext::new(&schema, &row, params);
            if matches!(eval(predicate, &ctx)?, Value::Bool(true)) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 3. Expand wildcards into concrete projection expressions.
    let mut projections: Vec<(Expr, String)> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                if select.from.is_none() {
                    return Err(SqlError::syntax("SELECT * requires a FROM clause"));
                }
                for c in &schema.columns {
                    projections.push((
                        Expr::Column { qualifier: c.qualifier.clone(), name: c.name.clone() },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for c in &schema.columns {
                    if c.qualifier.as_deref().is_some_and(|cq| cq.eq_ignore_ascii_case(q)) {
                        any = true;
                        projections.push((
                            Expr::Column { qualifier: c.qualifier.clone(), name: c.name.clone() },
                            c.name.clone(),
                        ));
                    }
                }
                if !any {
                    return Err(SqlError::new(
                        SqlErrorKind::UndefinedTable,
                        format!("unknown table qualifier '{q}' in {q}.*"),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr, projections.len()));
                projections.push((expr.clone(), name));
            }
        }
    }

    // 4. Aggregation if needed.
    let has_aggregates = projections.iter().any(|(e, _)| e.contains_aggregate())
        || select.having.as_ref().is_some_and(Expr::contains_aggregate)
        || select.order_by.iter().any(|o| o.expr.contains_aggregate());
    let mut order_exprs: Vec<Expr> = select.order_by.iter().map(|o| o.expr.clone()).collect();
    let mut having = select.having.clone();
    if has_aggregates || !select.group_by.is_empty() {
        let agg = aggregate(
            &schema,
            &rows,
            params,
            &select.group_by,
            &mut projections,
            &mut having,
            &mut order_exprs,
        )?;
        schema = agg.0;
        rows = agg.1;
        // Source types no longer meaningful after aggregation.
        source_types = vec![None; schema.columns.len()];
    }

    // 5. HAVING (after aggregation; without aggregation it is just a
    //    second filter, which we allow for convenience).
    if let Some(h) = &having {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = EvalContext::new(&schema, &row, params);
            match eval(h, &ctx) {
                Ok(Value::Bool(true)) => kept.push(row),
                Ok(_) => {}
                Err(e) => return Err(regroup_error(e, has_aggregates)),
            }
        }
        rows = kept;
    }

    // 6. Projection. Keep source rows for ORDER BY expressions that
    //    reference non-projected columns.
    let mut projected: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for row in rows {
        let ctx = EvalContext::new(&schema, &row, params);
        let mut out = Vec::with_capacity(projections.len());
        for (expr, _) in &projections {
            match eval(expr, &ctx) {
                Ok(v) => out.push(v),
                Err(e) => return Err(regroup_error(e, has_aggregates)),
            }
        }
        projected.push((out, row));
    }

    // 7. DISTINCT.
    if select.distinct {
        let mut seen: HashMap<Vec<GroupKey>, ()> = HashMap::new();
        projected.retain(|(out, _)| {
            let key: Vec<GroupKey> = out.iter().map(Value::group_key).collect();
            seen.insert(key, ()).is_none()
        });
    }

    // 8. ORDER BY.
    if !order_exprs.is_empty() {
        let output_names: Vec<String> = projections.iter().map(|(_, n)| n.clone()).collect();
        let mut keyed: Vec<(Vec<Value>, ProjectedRow)> = Vec::with_capacity(projected.len());
        for (out, src) in projected {
            let mut keys = Vec::with_capacity(order_exprs.len());
            for expr in &order_exprs {
                keys.push(order_key(expr, &out, &src, &schema, &output_names, params)?);
            }
            keyed.push((keys, (out, src)));
        }
        let keys: Vec<(usize, bool)> =
            select.order_by.iter().map(|o| o.ascending).enumerate().collect();
        keyed.sort_by(|(a, _), (b, _)| compare_rows(a, b, &keys));
        projected = keyed.into_iter().map(|(_, p)| p).collect();
    }

    // 9. OFFSET / LIMIT.
    let offset = select.offset.unwrap_or(0) as usize;
    let limit = select.limit.map(|l| l as usize).unwrap_or(usize::MAX);
    let final_rows: Vec<Vec<Value>> =
        projected.into_iter().skip(offset).take(limit).map(|(out, _)| out).collect();

    // 10. Column typing: prefer declared source type for plain column
    //     projections, else infer from the data.
    let mut columns = Vec::with_capacity(projections.len());
    for (i, (expr, name)) in projections.iter().enumerate() {
        let declared = match expr {
            Expr::Column { qualifier, name } => schema
                .resolve(qualifier.as_deref(), name)
                .ok()
                .and_then(|ix| source_types.get(ix).copied().flatten()),
            _ => None,
        };
        let inferred = final_rows.iter().find_map(|r| r[i].sql_type());
        columns.push(RowsetColumn {
            name: name.clone(),
            ty: declared.or(inferred).unwrap_or(SqlType::Varchar),
        });
    }

    Ok(Rowset { columns, rows: final_rows })
}

fn regroup_error(e: SqlError, aggregated: bool) -> SqlError {
    if aggregated && e.kind == SqlErrorKind::UndefinedColumn {
        SqlError::new(
            SqlErrorKind::Grouping,
            format!(
                "{} (columns referenced outside aggregates must appear in GROUP BY)",
                e.message
            ),
        )
    } else {
        e
    }
}

fn default_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("column{}", ordinal + 1),
    }
}

fn scan_table(storage: &Storage, table_ref: &TableRef) -> Result<ScannedTable, SqlError> {
    let table = storage.table(&table_ref.name)?;
    let schema = row_schema(&table.schema, table_ref.binding_name());
    let types = table.schema.columns.iter().map(|c| Some(c.ty)).collect();
    let rows = table.scan().map(|(_, r)| r.clone()).collect();
    Ok((schema, rows, types))
}

fn order_key(
    expr: &Expr,
    projected: &[Value],
    source: &[Value],
    source_schema: &ExecSchema,
    output_names: &[String],
    params: &[Value],
) -> Result<Value, SqlError> {
    // ORDER BY <ordinal>.
    if let Expr::Literal(Value::Int(n)) = expr {
        let i = *n as usize;
        if i >= 1 && i <= projected.len() {
            return Ok(projected[i - 1].clone());
        }
        return Err(SqlError::syntax(format!("ORDER BY position {n} is out of range")));
    }
    // ORDER BY <output name / alias>.
    if let Expr::Column { qualifier: None, name } = expr {
        if let Some(i) = output_names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(projected[i].clone());
        }
    }
    // Fall back to the pre-projection row.
    let ctx = EvalContext::new(source_schema, source, params);
    eval(expr, &ctx)
}

// -- aggregation -------------------------------------------------------------

/// An aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    CountStar(u64),
    Count { n: u64, distinct: Option<std::collections::HashSet<GroupKey>> },
    Sum { total: Option<Total>, distinct: Option<std::collections::HashSet<GroupKey>> },
    Avg { sum: f64, n: u64, distinct: Option<std::collections::HashSet<GroupKey>> },
    Min(Option<Value>),
    Max(Option<Value>),
}

/// A running SUM, exact while every input is an integer.
#[derive(Debug, Clone, Copy)]
enum Total {
    Int(i128),
    Double(f64),
}

impl Acc {
    fn new(name: &str, distinct: bool, star: bool) -> Result<Acc, SqlError> {
        if star {
            return Ok(Acc::CountStar(0));
        }
        let d = || if distinct { Some(std::collections::HashSet::new()) } else { None };
        Ok(match name {
            "COUNT" => Acc::Count { n: 0, distinct: d() },
            "SUM" => Acc::Sum { total: None, distinct: d() },
            "AVG" => Acc::Avg { sum: 0.0, n: 0, distinct: d() },
            "MIN" => Acc::Min(None),
            "MAX" => Acc::Max(None),
            other => {
                return Err(SqlError::new(
                    SqlErrorKind::UndefinedFunction,
                    format!("unknown aggregate {other}()"),
                ))
            }
        })
    }

    fn update(&mut self, value: Option<&Value>) -> Result<(), SqlError> {
        match self {
            Acc::CountStar(n) => *n += 1,
            Acc::Count { n, distinct } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if let Some(seen) = distinct {
                        if !seen.insert(v.group_key()) {
                            return Ok(());
                        }
                    }
                    *n += 1;
                }
            }
            Acc::Sum { total, distinct } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if let Some(seen) = distinct {
                        if !seen.insert(v.group_key()) {
                            return Ok(());
                        }
                    }
                    let x = v.as_f64().ok_or_else(|| {
                        SqlError::new(
                            SqlErrorKind::InvalidCast,
                            format!("SUM over non-numeric value {v}"),
                        )
                    })?;
                    *total = Some(match (*total, v) {
                        (None, Value::Int(b)) => Total::Int(*b as i128),
                        (Some(Total::Int(a)), Value::Int(b)) => Total::Int(a + *b as i128),
                        (Some(Total::Int(a)), _) => Total::Double(a as f64 + x),
                        (Some(Total::Double(t)), _) => Total::Double(t + x),
                        (None, _) => Total::Double(x),
                    });
                }
            }
            Acc::Avg { sum, n, distinct } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    if let Some(seen) = distinct {
                        if !seen.insert(v.group_key()) {
                            return Ok(());
                        }
                    }
                    let x = v.as_f64().ok_or_else(|| {
                        SqlError::new(
                            SqlErrorKind::InvalidCast,
                            format!("AVG over non-numeric value {v}"),
                        )
                    })?;
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::Min(best) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let better = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            Acc::Max(best) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let better = match best {
                        None => true,
                        Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Value, SqlError> {
        Ok(match self {
            Acc::CountStar(n) => Value::Int(n as i64),
            Acc::Count { n, .. } => Value::Int(n as i64),
            Acc::Sum { total: None, .. } => Value::Null,
            Acc::Sum { total: Some(Total::Int(t)), .. } => {
                Value::Int(checked_int(i64::try_from(t).ok())?)
            }
            Acc::Sum { total: Some(Total::Double(t)), .. } => Value::Double(t),
            Acc::Avg { sum, n, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
        })
    }
}

/// Rewrite an expression, replacing group expressions and aggregate calls
/// with references to the synthetic aggregate-output columns.
fn rewrite_for_aggregate(expr: &Expr, group_by: &[Expr], aggs: &[Expr]) -> Expr {
    for (i, g) in group_by.iter().enumerate() {
        if expr == g {
            return Expr::Column { qualifier: None, name: format!("__group{i}") };
        }
    }
    for (j, a) in aggs.iter().enumerate() {
        if expr == a {
            return Expr::Column { qualifier: None, name: format!("__agg{j}") };
        }
    }
    // Recurse structurally.
    match expr {
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(rewrite_for_aggregate(expr, group_by, aggs)) }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rewrite_for_aggregate(lhs, group_by, aggs)),
            rhs: Box::new(rewrite_for_aggregate(rhs, group_by, aggs)),
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(rewrite_for_aggregate(expr, group_by, aggs)),
            pattern: Box::new(rewrite_for_aggregate(pattern, group_by, aggs)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_for_aggregate(expr, group_by, aggs)),
            list: list.iter().map(|e| rewrite_for_aggregate(e, group_by, aggs)).collect(),
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(rewrite_for_aggregate(expr, group_by, aggs)),
            low: Box::new(rewrite_for_aggregate(low, group_by, aggs)),
            high: Box::new(rewrite_for_aggregate(high, group_by, aggs)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_for_aggregate(expr, group_by, aggs)),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_value } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(rewrite_for_aggregate(o, group_by, aggs))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        rewrite_for_aggregate(w, group_by, aggs),
                        rewrite_for_aggregate(t, group_by, aggs),
                    )
                })
                .collect(),
            else_value: else_value
                .as_ref()
                .map(|e| Box::new(rewrite_for_aggregate(e, group_by, aggs))),
        },
        Expr::Function { name, args, distinct, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_for_aggregate(a, group_by, aggs)).collect(),
            distinct: *distinct,
            star: *star,
        },
        _ => expr.clone(),
    }
}

fn collect_aggregate_calls(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Function { name, star, .. } = expr {
        if *star || is_aggregate_name(name) {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
            return; // nested aggregates are not allowed / not descended
        }
    }
    for c in expr.children() {
        collect_aggregate_calls(c, out);
    }
}

type AggregateOutput = (ExecSchema, Vec<Vec<Value>>);

/// An output row paired with its pre-projection source row.
type ProjectedRow = (Vec<Value>, Vec<Value>);

/// Schema, rows and declared column types of one scanned table.
type ScannedTable = (ExecSchema, Vec<Vec<Value>>, Vec<Option<SqlType>>);

/// Build aggregate output rows and rewrite downstream expressions to
/// reference them.
#[allow(clippy::too_many_arguments)]
fn aggregate(
    schema: &ExecSchema,
    rows: &[Vec<Value>],
    params: &[Value],
    group_by: &[Expr],
    projections: &mut [(Expr, String)],
    having: &mut Option<Expr>,
    order_exprs: &mut [Expr],
) -> Result<AggregateOutput, SqlError> {
    // Collect distinct aggregate calls across all consuming clauses.
    let mut aggs: Vec<Expr> = Vec::new();
    for (e, _) in projections.iter() {
        collect_aggregate_calls(e, &mut aggs);
    }
    if let Some(h) = having.as_ref() {
        collect_aggregate_calls(h, &mut aggs);
    }
    for e in order_exprs.iter() {
        collect_aggregate_calls(e, &mut aggs);
    }

    // Group rows.
    struct Group {
        reprs: Vec<Value>,
        accs: Vec<Acc>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    let make_accs = |aggs: &[Expr]| -> Result<Vec<Acc>, SqlError> {
        aggs.iter()
            .map(|a| match a {
                Expr::Function { name, distinct, star, .. } => Acc::new(name, *distinct, *star),
                _ => unreachable!("aggregate list holds function calls only"),
            })
            .collect()
    };

    for row in rows {
        let ctx = EvalContext::new(schema, row, params);
        let mut key = Vec::with_capacity(group_by.len());
        let mut reprs = Vec::with_capacity(group_by.len());
        for g in group_by {
            let v = eval(g, &ctx)?;
            key.push(v.group_key());
            reprs.push(v);
        }
        let gi = match index.get(&key) {
            Some(&i) => i,
            None => {
                groups.push(Group { reprs, accs: make_accs(&aggs)? });
                index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        for (acc, call) in groups[gi].accs.iter_mut().zip(&aggs) {
            match call {
                Expr::Function { args, star, .. } => {
                    if *star {
                        acc.update(None)?;
                    } else {
                        let arg = args.first().ok_or_else(|| {
                            SqlError::new(
                                SqlErrorKind::UndefinedFunction,
                                "aggregate requires an argument",
                            )
                        })?;
                        let v = eval(arg, &ctx)?;
                        acc.update(Some(&v))?;
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && group_by.is_empty() {
        groups.push(Group { reprs: Vec::new(), accs: make_accs(&aggs)? });
    }

    // Synthetic output schema.
    let mut out_schema = ExecSchema::default();
    for i in 0..group_by.len() {
        out_schema.columns.push(ExecColumn { qualifier: None, name: format!("__group{i}") });
    }
    for j in 0..aggs.len() {
        out_schema.columns.push(ExecColumn { qualifier: None, name: format!("__agg{j}") });
    }

    let mut out_rows = Vec::with_capacity(groups.len());
    for g in groups {
        let mut row = g.reprs;
        for acc in g.accs {
            row.push(acc.finish()?);
        }
        out_rows.push(row);
    }

    // Rewrite downstream expressions.
    for (e, _) in projections.iter_mut() {
        *e = rewrite_for_aggregate(e, group_by, &aggs);
    }
    if let Some(h) = having.as_mut() {
        *h = rewrite_for_aggregate(h, group_by, &aggs);
    }
    for e in order_exprs.iter_mut() {
        *e = rewrite_for_aggregate(e, group_by, &aggs);
    }

    Ok((out_schema, out_rows))
}

// ===========================================================================
// DML
// ===========================================================================

/// Execute INSERT; returns the number of rows inserted.
pub fn run_insert(
    insert: &Insert,
    storage: &mut StatementGuard<'_>,
    params: &[Value],
) -> Result<u64, SqlError> {
    let schema = storage.table(&insert.table)?.schema.clone();

    // Resolve the target column list to ordinals.
    let target_ordinals: Vec<usize> = if insert.columns.is_empty() {
        (0..schema.columns.len()).collect()
    } else {
        insert
            .columns
            .iter()
            .map(|c| {
                schema.column_index(c).ok_or_else(|| {
                    SqlError::new(
                        SqlErrorKind::UndefinedColumn,
                        format!("no column {c} in table {}", schema.name),
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };

    // Produce the source rows.
    let source_rows: Vec<Vec<Value>> = match &insert.source {
        InsertSource::Values(rows) => {
            let empty = ExecSchema::default();
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let ctx = EvalContext::new(&empty, &[], params);
                let row: Vec<Value> =
                    exprs.iter().map(|e| eval(e, &ctx)).collect::<Result<_, _>>()?;
                out.push(row);
            }
            out
        }
        InsertSource::Query(q) => run_select(q, storage, params)?.rows,
    };

    let mut inserted = 0u64;
    for source in source_rows {
        if source.len() != target_ordinals.len() {
            return Err(SqlError::syntax(format!(
                "INSERT row has {} values but {} column(s) were targeted",
                source.len(),
                target_ordinals.len()
            )));
        }
        // Assemble the full row with defaults.
        let mut row: Vec<Value> =
            schema.columns.iter().map(|c| c.default.clone().unwrap_or(Value::Null)).collect();
        for (value, &ordinal) in source.into_iter().zip(&target_ordinals) {
            row[ordinal] = value;
        }
        let row = finalize_row(&schema, row, storage)?;
        storage.insert(&insert.table, row)?;
        inserted += 1;
    }
    Ok(inserted)
}

/// Coerce values, enforce NOT NULL, CHECK and foreign keys.
fn finalize_row(
    schema: &TableSchema,
    row: Vec<Value>,
    storage: &Storage,
) -> Result<Vec<Value>, SqlError> {
    let mut out = Vec::with_capacity(row.len());
    for (value, column) in row.into_iter().zip(&schema.columns) {
        let v = value.coerce_to(column.ty).map_err(|e| {
            SqlError::new(e.kind, format!("column {}.{}: {}", schema.name, column.name, e.message))
        })?;
        if v.is_null() && column.not_null {
            return Err(SqlError::new(
                SqlErrorKind::NotNullViolation,
                format!("column {}.{} may not be NULL", schema.name, column.name),
            ));
        }
        out.push(v);
    }
    // CHECK constraints: pass unless the predicate is definitely false.
    if !schema.checks.is_empty() {
        let exec_schema = row_schema(schema, &schema.name);
        let ctx = EvalContext::new(&exec_schema, &out, &[]);
        for check in &schema.checks {
            if matches!(eval(check, &ctx)?, Value::Bool(false)) {
                return Err(SqlError::new(
                    SqlErrorKind::CheckViolation,
                    format!("CHECK constraint violated on table {}", schema.name),
                ));
            }
        }
    }
    // Foreign keys.
    for (value, column) in out.iter().zip(&schema.columns) {
        if let Some((ftable, fcolumn)) = &column.references {
            if !value.is_null() {
                let referenced = storage.table(ftable)?;
                let ordinal = referenced.schema.column_index(fcolumn).ok_or_else(|| {
                    SqlError::new(
                        SqlErrorKind::UndefinedColumn,
                        format!("foreign key references unknown column {ftable}.{fcolumn}"),
                    )
                })?;
                if !referenced.contains_value(ordinal, value) {
                    return Err(SqlError::new(
                        SqlErrorKind::ForeignKeyViolation,
                        format!(
                            "value {value} for {}.{} has no match in {ftable}.{fcolumn}",
                            schema.name, column.name
                        ),
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// Ids of the rows of `table` that `predicate` accepts, in rowid order,
/// found through the statement's access path.
fn matching_rowids(
    table: &Table,
    schema: &ExecSchema,
    predicate: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<RowId>, SqlError> {
    let access = choose_access(predicate, schema, table, None);
    let mut ids = Vec::new();
    for (rowid, row) in candidate_rows(&access, predicate, schema, table, params).0 {
        if let Some(p) = predicate {
            if !matches!(eval(p, &EvalContext::new(schema, row, params))?, Value::Bool(true)) {
                continue;
            }
        }
        ids.push(rowid);
    }
    Ok(ids)
}

/// Execute UPDATE; returns the number of rows changed.
pub fn run_update(
    update: &Update,
    storage: &mut StatementGuard<'_>,
    params: &[Value],
) -> Result<u64, SqlError> {
    let schema = storage.table(&update.table)?.schema.clone();
    let exec_schema = row_schema(&schema, &schema.name);
    let assignments: Vec<(usize, &Expr)> = update
        .assignments
        .iter()
        .map(|(name, e)| {
            schema.column_index(name).map(|i| (i, e)).ok_or_else(|| {
                SqlError::new(
                    SqlErrorKind::UndefinedColumn,
                    format!("no column {name} in table {}", schema.name),
                )
            })
        })
        .collect::<Result<_, _>>()?;

    // Materialise the victim set first (stable against our own writes).
    let victims: Vec<(RowId, Vec<Value>)> = {
        let table = storage.table(&update.table)?;
        let ids = matching_rowids(table, &exec_schema, update.where_clause.as_ref(), params)?;
        ids.into_iter().filter_map(|id| Some((id, table.get(id)?.clone()))).collect()
    };

    let mut changed = 0u64;
    for (rowid, old_row) in victims {
        let ctx = EvalContext::new(&exec_schema, &old_row, params);
        let mut new_row = old_row.clone();
        for (ordinal, e) in &assignments {
            new_row[*ordinal] = eval(e, &ctx)?;
        }
        let new_row = finalize_row(&schema, new_row, storage)?;
        storage.update(&update.table, rowid, new_row)?;
        changed += 1;
    }
    Ok(changed)
}

/// Execute DELETE; returns the number of rows removed. Referential
/// integrity is enforced after removal: if any remaining row still
/// references a deleted key the statement fails (and the guard rolls the
/// statement back).
pub fn run_delete(
    delete: &Delete,
    storage: &mut StatementGuard<'_>,
    params: &[Value],
) -> Result<u64, SqlError> {
    let schema = storage.table(&delete.table)?.schema.clone();
    let exec_schema = row_schema(&schema, &schema.name);
    let victims = matching_rowids(
        storage.table(&delete.table)?,
        &exec_schema,
        delete.where_clause.as_ref(),
        params,
    )?;

    let mut deleted_rows: Vec<Vec<Value>> = Vec::with_capacity(victims.len());
    for rowid in &victims {
        if let Some(row) = storage.delete(&delete.table, *rowid)? {
            deleted_rows.push(row);
        }
    }

    // Post-hoc referential check: any surviving row referencing a deleted
    // key that no longer exists fails the statement.
    let referencing: Vec<(String, usize, String, usize)> = storage
        .tables()
        .flat_map(|t| {
            t.schema.columns.iter().enumerate().filter_map(|(i, c)| {
                c.references.as_ref().and_then(|(ftable, fcolumn)| {
                    if ftable.eq_ignore_ascii_case(&schema.name) {
                        schema
                            .column_index(fcolumn)
                            .map(|fo| (t.schema.name.clone(), i, ftable.clone(), fo))
                    } else {
                        None
                    }
                })
            })
        })
        .collect();
    for (child, child_ordinal, _parent, parent_ordinal) in referencing {
        let parent = storage.table(&schema.name)?;
        let child_table = storage.table(&child)?;
        for row in &deleted_rows {
            let key = &row[parent_ordinal];
            if key.is_null() {
                continue;
            }
            // If the key is gone from the parent but still referenced.
            if !parent.contains_value(parent_ordinal, key)
                && child_table.contains_value(child_ordinal, key)
            {
                return Err(SqlError::new(
                    SqlErrorKind::ForeignKeyViolation,
                    format!(
                        "cannot delete from {}: rows in {child} still reference value {key}",
                        schema.name
                    ),
                ));
            }
        }
    }

    Ok(deleted_rows.len() as u64)
}

// ===========================================================================
// DDL
// ===========================================================================

/// Execute CREATE TABLE. Returns `true` if a table was created (`false`
/// for a no-op IF NOT EXISTS).
pub fn run_create_table(create: &CreateTable, storage: &mut Storage) -> Result<bool, SqlError> {
    if storage.has_table(&create.name) {
        if create.if_not_exists {
            return Ok(false);
        }
        return Err(SqlError::new(
            SqlErrorKind::DuplicateTable,
            format!("table {} already exists", create.name),
        ));
    }
    if create.columns.is_empty() {
        return Err(SqlError::syntax("a table must have at least one column"));
    }

    // Primary key: column-level markers or one table-level constraint.
    let mut pk: Vec<usize> = Vec::new();
    for (i, c) in create.columns.iter().enumerate() {
        if c.primary_key {
            pk.push(i);
        }
    }
    if !create.primary_key.is_empty() {
        if !pk.is_empty() {
            return Err(SqlError::syntax("duplicate PRIMARY KEY specification"));
        }
        for name in &create.primary_key {
            let i =
                create.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name)).ok_or_else(
                    || {
                        SqlError::new(
                            SqlErrorKind::UndefinedColumn,
                            format!("PRIMARY KEY names unknown column {name}"),
                        )
                    },
                )?;
            pk.push(i);
        }
    }

    // Evaluate DEFAULT expressions (must be constant).
    let empty = ExecSchema::default();
    let mut columns = Vec::with_capacity(create.columns.len());
    for (i, c) in create.columns.iter().enumerate() {
        let default = match &c.default {
            None => None,
            Some(e) => {
                let ctx = EvalContext::new(&empty, &[], &[]);
                let v = eval(e, &ctx).map_err(|e| {
                    SqlError::syntax(format!("DEFAULT must be constant: {}", e.message))
                })?;
                Some(v.coerce_to(c.ty)?)
            }
        };
        // Validate FK target exists now (catching typos at DDL time).
        if let Some((ftable, fcolumn)) = &c.references {
            let referenced = storage.table(ftable).map_err(|_| {
                SqlError::new(
                    SqlErrorKind::UndefinedTable,
                    format!("foreign key references unknown table {ftable}"),
                )
            })?;
            if referenced.schema.column_index(fcolumn).is_none() {
                return Err(SqlError::new(
                    SqlErrorKind::UndefinedColumn,
                    format!("foreign key references unknown column {ftable}.{fcolumn}"),
                ));
            }
        }
        columns.push(ColumnMeta {
            name: c.name.clone(),
            ty: c.ty,
            not_null: c.not_null || pk.contains(&i),
            unique: c.unique,
            default,
            references: c.references.clone(),
        });
    }

    let schema = TableSchema {
        name: create.name.clone(),
        columns,
        primary_key: pk,
        checks: create.checks.clone(),
        indexes: Vec::new(),
    };
    storage.add_table(Table::new(schema))?;
    Ok(true)
}

/// Execute DROP TABLE. Returns `true` if a table was dropped.
pub fn run_drop_table(
    name: &str,
    if_exists: bool,
    storage: &mut Storage,
) -> Result<bool, SqlError> {
    if !storage.has_table(name) {
        if if_exists {
            return Ok(false);
        }
        return Err(SqlError::new(SqlErrorKind::UndefinedTable, format!("no such table: {name}")));
    }
    // Refuse to drop a table other tables reference.
    for t in storage.tables() {
        if t.schema.name.eq_ignore_ascii_case(name) {
            continue;
        }
        for c in &t.schema.columns {
            if let Some((ftable, _)) = &c.references {
                if ftable.eq_ignore_ascii_case(name) {
                    return Err(SqlError::new(
                        SqlErrorKind::ForeignKeyViolation,
                        format!("cannot drop {name}: referenced by {}.{}", t.schema.name, c.name),
                    ));
                }
            }
        }
    }
    storage.remove_table(name);
    Ok(true)
}

/// Execute CREATE INDEX.
pub fn run_create_index(
    name: &str,
    table_name: &str,
    column: &str,
    unique: bool,
    storage: &mut Storage,
) -> Result<(), SqlError> {
    let table = storage.table_mut(table_name)?;
    let ordinal = table.schema.column_index(column).ok_or_else(|| {
        SqlError::new(
            SqlErrorKind::UndefinedColumn,
            format!("no column {column} in table {table_name}"),
        )
    })?;
    if table.schema.indexes.iter().any(|i| i.name.eq_ignore_ascii_case(name)) {
        return Err(SqlError::new(
            SqlErrorKind::DuplicateTable,
            format!("index {name} already exists on {table_name}"),
        ));
    }
    table.create_index(IndexMeta { name: name.to_string(), column: ordinal, unique })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::parser::parse_statement;
    use dais_util::rng::SplitMix64;

    /// A seeded table exercising every value shape the wire cares about:
    /// NULLs, escaping-heavy strings, whitespace-edged and empty strings.
    fn seeded_db(seed: u64, rows: usize) -> Database {
        let mut rng = SplitMix64::new(seed);
        let db = Database::new("prop");
        db.execute(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, category INTEGER NOT NULL, \
             price DOUBLE NOT NULL, label VARCHAR)",
            &[],
        )
        .unwrap();
        for id in 0..rows as i64 {
            let category = rng.gen_range(0, 10) as i64;
            let price = (rng.next_f64() * 1000.0 * 100.0).round() / 100.0;
            let label = match rng.gen_range(0, 5) {
                0 => Value::Null,
                1 => Value::Str(format!("item <{id}> & \"co\"")),
                2 => Value::Str(format!("  padded {id}  ")),
                3 => Value::Str(String::new()),
                _ => Value::Str(format!("plain-{id}")),
            };
            db.execute(
                "INSERT INTO item VALUES (?, ?, ?, ?)",
                &[Value::Int(id), Value::Int(category), Value::Double(price), label],
            )
            .unwrap();
        }
        db
    }

    fn select_of(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            crate::ast::Stmt::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// Property: for every pushdown-eligible query shape, the pushdown
    /// plan returns row-for-row (and column-for-column) identical results
    /// to the generic executor — across projections, predicates, orders
    /// and paging windows, on seeded data with NULL-dense and
    /// escaping-heavy cells.
    #[test]
    fn pushdown_matches_generic_executor() {
        let db = seeded_db(0xDA15_0008, 97);
        let projections =
            ["*", "i.*", "id", "id, label", "label AS l, price, id", "category, category, PRICE"];
        let predicates = [
            "",
            " WHERE category = 3",
            " WHERE price > ? AND category < ?",
            " WHERE label IS NULL",
            " WHERE id BETWEEN 10 AND 40 AND label LIKE '%a%'",
        ];
        let orders = ["", " ORDER BY 1", " ORDER BY 1 DESC"];
        let windows = ["", " LIMIT 7", " LIMIT 5 OFFSET 3", " OFFSET 91", " LIMIT 0"];
        let params = [Value::Double(400.0), Value::Int(7)];

        let mut pushed = 0usize;
        for proj in projections {
            for pred in predicates {
                for order in orders {
                    for window in windows {
                        let sql = format!("SELECT {proj} FROM item i{pred}{order}{window}");
                        let select = select_of(&sql);
                        let args: &[Value] = if pred.contains('?') { &params } else { &[] };
                        db.with_storage(|storage| {
                            let generic = run_select_generic(&select, storage, args).unwrap();
                            let fast = run_select(&select, storage, args).unwrap();
                            assert_eq!(fast, generic, "divergence for {sql}");
                            if plan_pushdown(&select, storage).is_some() {
                                pushed += 1;
                            }
                        });
                    }
                }
            }
        }
        // Every combination above is pushdown-eligible by construction.
        assert_eq!(pushed, projections.len() * predicates.len() * orders.len() * windows.len());

        // Named/aliased ORDER BY keys resolve against output columns.
        for sql in [
            "SELECT id, label FROM item ORDER BY label, id LIMIT 9",
            "SELECT label AS l, price, id FROM item WHERE category = 2 ORDER BY price DESC, id",
            "SELECT id, category FROM item ORDER BY CATEGORY DESC, 1 OFFSET 2",
        ] {
            let select = select_of(sql);
            db.with_storage(|storage| {
                assert!(plan_pushdown(&select, storage).is_some(), "not pushed: {sql}");
                let generic = run_select_generic(&select, storage, &[]).unwrap();
                let fast = run_select(&select, storage, &[]).unwrap();
                assert_eq!(fast, generic, "divergence for {sql}");
            });
        }
    }

    /// Shapes the planner must refuse (and the refusal must not change
    /// results): expressions, aggregates, DISTINCT, joins, source-row
    /// ORDER BY, unions.
    #[test]
    fn ineligible_shapes_fall_back_to_generic() {
        let db = seeded_db(0xDA15_0009, 31);
        let ineligible = [
            "SELECT id + 1 FROM item",
            "SELECT COUNT(*) FROM item",
            "SELECT DISTINCT category FROM item",
            "SELECT category FROM item GROUP BY category",
            "SELECT a.id FROM item a JOIN item b ON a.id = b.id",
            "SELECT id FROM item ORDER BY price",
            "SELECT label FROM item ORDER BY UPPER(label)",
            "SELECT id FROM item UNION SELECT category FROM item",
        ];
        for sql in ineligible {
            let select = select_of(sql);
            db.with_storage(|storage| {
                assert!(plan_pushdown(&select, storage).is_none(), "planner must refuse {sql}");
                // And the dispatching entry point still answers correctly.
                let via_dispatch = run_select(&select, storage, &[]).unwrap();
                let direct = run_select_generic(&select, storage, &[]);
                // UNION queries never reach run_select_generic whole; for
                // the rest the two must agree exactly.
                if select.unions.is_empty() {
                    assert_eq!(via_dispatch, direct.unwrap(), "divergence for {sql}");
                }
            });
        }
    }

    /// The planner refuses unresolvable names so the generic path can
    /// raise its usual diagnostics.
    #[test]
    fn unresolvable_names_keep_generic_diagnostics() {
        let db = seeded_db(0xDA15_000A, 5);
        db.with_storage(|storage| {
            let select = select_of("SELECT nope FROM item");
            assert!(plan_pushdown(&select, storage).is_none());
            let err = run_select(&select, storage, &[]).unwrap_err();
            assert_eq!(err.kind, SqlErrorKind::UndefinedColumn);
            let select = select_of("SELECT id FROM item ORDER BY 9");
            assert!(plan_pushdown(&select, storage).is_none());
            let err = run_select(&select, storage, &[]).unwrap_err();
            assert!(err.message.contains("out of range"));
        });
    }

    /// The access path `sql` takes: a SELECT's plan, or the victim path
    /// of an UPDATE / DELETE.
    fn access_of(db: &Database, sql: &str) -> AccessPath {
        db.with_storage(|storage| match parse_statement(sql).unwrap() {
            Stmt::Select(s) => plan_pushdown(&s, storage).expect("pushdown-eligible").access,
            Stmt::Update(Update { table, where_clause, .. })
            | Stmt::Delete(Delete { table, where_clause }) => {
                let t = storage.table(&table).unwrap();
                choose_access(where_clause.as_ref(), &row_schema(&t.schema, &table), t, None)
            }
            other => panic!("no access path for {other:?}"),
        })
    }

    /// The path each benchmarked statement shape takes.
    #[test]
    fn benchmarked_shapes_take_index_paths() {
        use AccessPath::{Probe, Scan, Walk};
        let item = seeded_db(0xDA15_000B, 20);
        let shard = Database::new("shard");
        shard
            .execute(
                "CREATE TABLE t (k INTEGER PRIMARY KEY, category INTEGER NOT NULL, v VARCHAR)",
                &[],
            )
            .unwrap();
        let probe = Probe { column: 0, key: Expr::Param(0) };
        assert_eq!(access_of(&item, "SELECT id, category FROM item WHERE id = ?"), probe);
        assert_eq!(
            access_of(&item, "SELECT * FROM item WHERE id >= ? AND id < ? ORDER BY id"),
            Walk {
                bounds: vec![(BinaryOp::Ge, Expr::Param(0)), (BinaryOp::Lt, Expr::Param(1))],
                key_order: Some(true)
            }
        );
        assert_eq!(access_of(&shard, "SELECT k, category, v FROM t WHERE k = ?"), probe);
        assert_eq!(
            access_of(&shard, "SELECT k, v FROM t WHERE category = ? ORDER BY k LIMIT 100"),
            Walk { bounds: vec![], key_order: Some(true) }
        );
        assert_eq!(access_of(&item, "DELETE FROM item WHERE id = ?"), probe);
        // `item` declares no index on `category`, so this UPDATE scans.
        assert_eq!(access_of(&item, "UPDATE item SET price = price + 1 WHERE category = ?"), Scan);
    }

    /// How the chooser ranks indexes and reads conjuncts.
    #[test]
    fn access_path_rules() {
        use AccessPath::{Probe, Scan, Walk};
        let db = seeded_db(0xDA15_000C, 0);
        db.execute_script(
            "CREATE INDEX i_cat ON item (category); CREATE UNIQUE INDEX u_l ON item (label)",
        )
        .unwrap();
        let lit = |i: i64| Expr::Literal(Value::Int(i));
        let walk = |bounds, key_order| Walk { bounds, key_order };
        let cases = [
            // The primary key, else the first indexed equality, probes.
            ("category = 3", Probe { column: 1, key: lit(3) }),
            (
                "price = 1 AND label = 'x' AND category = 3",
                Probe { column: 3, key: Expr::lit(Value::Str("x".into())) },
            ),
            ("label = 'x' AND 7 = id", Probe { column: 0, key: lit(7) }),
            ("id >= 2 AND category = 3 ORDER BY id", Probe { column: 1, key: lit(3) }),
            // Operand on the left reads from the column's side.
            (
                "5 < id AND id <= 9",
                walk(vec![(BinaryOp::Gt, lit(5)), (BinaryOp::Le, lit(9))], None),
            ),
            ("id > 5 OR id < 2", Scan),
            ("id <> 5", Scan),
            ("price > 5", Scan),
            // A negative number is a literal bound; a negated expression
            // is not.
            ("id >= -5", walk(vec![(BinaryOp::Ge, lit(-5))], None)),
            (
                "id > -5 AND id < -1",
                walk(vec![(BinaryOp::Gt, lit(-5)), (BinaryOp::Lt, lit(-1))], None),
            ),
            ("id > -(2 + 3)", Scan),
        ];
        for (predicate, expected) in cases {
            let sql = format!("SELECT id FROM item WHERE {predicate}");
            assert_eq!(access_of(&db, &sql), expected, "{sql}");
        }
        assert_eq!(access_of(&db, "SELECT * FROM item ORDER BY 1 DESC"), walk(vec![], Some(false)));
        assert_eq!(
            access_of(&db, "SELECT label, id FROM item ORDER BY 2, 1"),
            walk(vec![], Some(true))
        );
        assert_eq!(access_of(&db, "SELECT * FROM item ORDER BY price, id"), Scan);
    }

    /// Bounds that do not resolve — a missing `?`, a string against the
    /// INTEGER key, NULL, NaN — scan, so a statement answers and fails
    /// exactly as a scan does, on an empty and a non-empty table,
    /// ordered or not, even when a LIMIT 0 would stop a walk at once.
    #[test]
    fn unresolvable_bounds_fall_back_to_a_scan() {
        let full = seeded_db(0xDA15_000D, 5);
        let empty = seeded_db(0xDA15_000D, 0);
        let nan = vec![Value::Double(f64::NAN)];
        let missing = (SqlErrorKind::InvalidParameter, "no value bound for parameter ?1");
        let cases = [
            ("id = ?", vec![], Some(missing)),
            ("id >= ? AND id < 3", vec![], Some(missing)),
            ("id = 'x'", vec![], Some((SqlErrorKind::InvalidCast, "cannot compare 0 with x"))),
            ("id = NULL", vec![], None),
            (
                "nope = 1 AND id = 3",
                vec![],
                Some((SqlErrorKind::UndefinedColumn, "no such column 'nope'")),
            ),
            ("id = ?", nan.clone(), Some((SqlErrorKind::InvalidCast, "cannot compare 0 with NaN"))),
            ("id > ?", nan, Some((SqlErrorKind::InvalidCast, "cannot compare 0 with NaN"))),
        ];
        for order in ["", " ORDER BY id", " ORDER BY id DESC LIMIT 0"] {
            for (predicate, params, error) in &cases {
                let sql = format!("SELECT * FROM item WHERE {predicate}{order}");
                let got = full.execute(&sql, params).map_err(|e| (e.kind, e.message));
                match error {
                    Some((kind, message)) => {
                        assert_eq!(got.unwrap_err(), (*kind, message.to_string()), "{sql}")
                    }
                    None => assert!(got.unwrap().rowset().unwrap().rows.is_empty(), "{sql}"),
                }
                let rows = empty.execute(&sql, params).unwrap();
                assert!(rows.rowset().unwrap().rows.is_empty(), "{sql}");
            }
        }
    }

    /// Run one INSERT, UPDATE or DELETE through `guard`.
    fn run_dml(sql: &str, guard: &mut StatementGuard<'_>) -> Result<u64, SqlError> {
        match parse_statement(sql).unwrap() {
            Stmt::Insert(i) => run_insert(&i, guard, &[]),
            Stmt::Update(u) => run_update(&u, guard, &[]),
            Stmt::Delete(d) => run_delete(&d, guard, &[]),
            other => panic!("not DML: {other:?}"),
        }
    }

    /// A statement that panics after writing leaves the storage as the
    /// guard found it: rows, and the unique index that follows them.
    #[test]
    fn statement_guard_undoes_its_writes_when_the_statement_panics() {
        let mut storage = Storage::new();
        let create = "CREATE TABLE t (id INTEGER PRIMARY KEY, tag VARCHAR UNIQUE)";
        let Stmt::CreateTable(create) = parse_statement(create).unwrap() else { unreachable!() };
        run_create_table(&create, &mut storage).unwrap();
        let mut guard = StatementGuard::new(&mut storage);
        run_dml("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')", &mut guard).unwrap();
        guard.commit();
        let rows = |storage: &Storage| -> Vec<(RowId, Vec<Value>)> {
            storage.table("t").unwrap().scan().map(|(id, row)| (id, row.clone())).collect()
        };
        let before = rows(&storage);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = StatementGuard::new(&mut storage);
            run_dml("INSERT INTO t VALUES (4, 'd')", &mut guard).unwrap();
            run_dml("UPDATE t SET tag = 'z' WHERE id = 1", &mut guard).unwrap();
            run_dml("DELETE FROM t WHERE id = 2", &mut guard).unwrap();
            assert_eq!(rows(&guard).len(), 3, "the writes are visible inside the statement");
            panic!("the statement panics after writing");
        }));

        assert!(unwound.is_err());
        assert_eq!(rows(&storage), before);
        let mut guard = StatementGuard::new(&mut storage);
        assert_eq!(run_dml("INSERT INTO t VALUES (5, 'z')", &mut guard), Ok(1));
        let duplicate = run_dml("INSERT INTO t VALUES (6, 'b')", &mut guard).unwrap_err();
        assert_eq!(duplicate.kind, SqlErrorKind::UniqueViolation);
    }
}
