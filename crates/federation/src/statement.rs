//! Admission analysis for scattered SQL statements.
//!
//! A scatter-gather answer is only correct for statements whose global
//! result is the merge of per-shard results. Forwarding anything else
//! verbatim silently lies — `COUNT(*)` would return one row per shard,
//! `DISTINCT`/`GROUP BY` would leave cross-shard duplicates, `LIMIT n`
//! would return up to `n × shards` rows — so the federation endpoint
//! parses every statement with the engine's own parser and either
//! proves it distributable, rewrites it (`LIMIT`/`OFFSET` strip off the
//! shard statement and apply globally at the merge), or refuses it with
//! an `InvalidExpressionFault`.
//!
//! An admitted statement also knows which shards can hold its rows
//! ([`DistributedStatement::target_shards`]): the engine's own predicate
//! analysis ([`sargable_conjuncts`]) reads the shard-key bounds off the
//! already-parsed `WHERE`, and the scatter skips every other shard.

use std::ops::Range;

use dais_sql::ast::{BinaryOp, Expr, OrderItem, Select, SelectItem, Stmt};
use dais_sql::exec::sargable_conjuncts;
use dais_sql::parser::parse_statement;
use dais_sql::Value;

use crate::merge::{MergeKey, SortKey};
use crate::router::ShardScheme;

/// Why a statement was refused admission to the scatter path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Not a query at all (or unparseable): writes and DDL go through
    /// the fleet's router, not the logical resource.
    NotReadOnly,
    /// A query whose shape a scatter + merge cannot answer correctly;
    /// the payload names the offending construct.
    NonDistributable(&'static str),
}

/// A statement admitted to the scatter path: what each shard runs, which
/// shards it must reach, and the global window/ordering the gather
/// applies.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedStatement {
    /// The statement scattered to the shards: the consumer's SQL with
    /// any trailing `LIMIT`/`OFFSET` stripped (each shard must over-
    /// fetch the whole global window; see [`shard_statement`]).
    ///
    /// [`shard_statement`]: DistributedStatement::shard_statement
    pub shard_sql: String,
    /// Merged rows to skip before the first delivered row (the
    /// statement's `OFFSET`).
    pub offset: usize,
    /// Global cap on delivered rows (the statement's `LIMIT`).
    pub limit: Option<usize>,
    /// The full `ORDER BY` key list the k-way merge compares on.
    pub keys: Vec<MergeKey>,
    /// The name the statement's one table is bound to (its alias, else
    /// its name) and its `WHERE` clause; `None` for a `SELECT` with no
    /// `FROM`.
    source: Option<(String, Option<Expr>)>,
}

impl DistributedStatement {
    /// The SQL one shard executes. When the statement carries a window,
    /// each shard is bounded to `offset + limit` rows — in the worst
    /// case one shard owns the whole global window, never more — so a
    /// windowed query can never pull a shard's full table through the
    /// gather.
    pub fn shard_statement(&self) -> String {
        match self.limit {
            Some(limit) => {
                format!("{} LIMIT {}", self.shard_sql, self.offset.saturating_add(limit))
            }
            None => self.shard_sql.clone(),
        }
    }

    /// The merge window: rows to skip, then rows to take.
    pub fn window(&self) -> (usize, usize) {
        (self.offset, self.limit.unwrap_or(usize::MAX))
    }

    /// The shards that can hold a row of this statement's answer, under
    /// `scheme` over `shards` shards with `params` bound: always a
    /// non-empty run, since even an empty answer needs one shard to
    /// describe its columns.
    ///
    /// The `WHERE` clause's top-level `AND` conjuncts on the key column
    /// with a `Value::Int` bound (a literal or a bound `?`) narrow it:
    /// bounds that admit at most one key (an equality) to one shard
    /// under `Hash` or `Range`, and wider bounds to the run of shards
    /// they cover under `Range`. A `SELECT` with no
    /// `FROM` answers once, from one shard. Anything else reaches every
    /// shard: a key bound that is not an `Int` (a `Double`, a string,
    /// `NULL`, a missing parameter), `OR`, an expression on the key.
    ///
    /// Sound because every conjunct is a necessary condition of the
    /// predicate, and every row sits on the shard of its key's `Int`
    /// value (the [`ShardScheme`] contract).
    pub fn target_shards(
        &self,
        scheme: &ShardScheme,
        shards: usize,
        params: &[Value],
    ) -> Range<usize> {
        let every = 0..shards;
        let Some((binding, filter)) = &self.source else { return 0..1 };
        let (Some(column), Some(filter)) = (scheme.key_column(), filter) else { return every };
        let key = |qualifier: Option<&str>, name: &str| {
            (name.eq_ignore_ascii_case(column)
                && qualifier.is_none_or(|q| q.eq_ignore_ascii_case(binding)))
            .then_some(())
        };
        let mut conjuncts = Vec::new();
        sargable_conjuncts(filter, &key, &mut conjuncts);
        // The key's inclusive bounds. Saturation can only widen them.
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for ((), op, bound) in conjuncts {
            let value = match bound {
                Expr::Literal(Value::Int(v)) => *v,
                Expr::Param(i) => match params.get(*i) {
                    Some(Value::Int(v)) => *v,
                    _ => return every,
                },
                _ => return every,
            };
            match op {
                BinaryOp::Eq => (lo, hi) = (lo.max(value), hi.min(value)),
                BinaryOp::Gt => lo = lo.max(value.saturating_add(1)),
                BinaryOp::Ge => lo = lo.max(value),
                BinaryOp::Lt => hi = hi.min(value.saturating_sub(1)),
                _ => hi = hi.min(value),
            }
        }
        let shard = |v: i64| scheme.shard_of(shards, &Value::Int(v));
        // Bounds that admit one key hold its rows on one shard; bounds
        // that admit none answer empty from any one shard.
        if lo >= hi {
            return shard(hi)..shard(hi) + 1;
        }
        match scheme {
            ShardScheme::Range { .. } => shard(lo)..shard(hi) + 1,
            ShardScheme::Hash { .. } | ShardScheme::Collection => every,
        }
    }
}

/// Admit `sql` to the scatter path, or refuse it.
///
/// Distributable today: single-table (or table-less) `SELECT`
/// statements without joins, aggregates, `DISTINCT`, `GROUP BY`/`HAVING`
/// or `UNION`, whose `ORDER BY` terms
/// are plain output columns or ordinals (so the gather can re-establish
/// the global order). `LIMIT`/`OFFSET` are handled by rewrite: stripped
/// from the shard statement and applied once, globally, at the merge.
pub fn analyze(sql: &str) -> Result<DistributedStatement, AdmissionError> {
    let mut select = match parse_statement(sql) {
        Ok(Stmt::Select(select)) => select,
        _ => return Err(AdmissionError::NotReadOnly),
    };
    // A join pairs rows that may live on different shards.
    if !select.joins.is_empty() {
        return Err(AdmissionError::NonDistributable("JOIN"));
    }
    if select.distinct {
        return Err(AdmissionError::NonDistributable("DISTINCT"));
    }
    if !select.group_by.is_empty() {
        return Err(AdmissionError::NonDistributable("GROUP BY"));
    }
    if select.having.is_some() {
        return Err(AdmissionError::NonDistributable("HAVING"));
    }
    if !select.unions.is_empty() {
        return Err(AdmissionError::NonDistributable("UNION"));
    }
    let exprs = select.items.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
    });
    if exprs.clone().any(Expr::contains_aggregate)
        || select.order_by.iter().any(|o| o.expr.contains_aggregate())
    {
        return Err(AdmissionError::NonDistributable("aggregate function"));
    }

    let keys = merge_keys(&select)?;
    let (shard_sql, offset, limit) = strip_window(sql, &select)?;
    let source = select
        .from
        .take()
        .map(|table| (table.alias.unwrap_or(table.name), select.where_clause.take()));
    Ok(DistributedStatement { shard_sql, offset, limit, keys, source })
}

/// Every `ORDER BY` term as a [`MergeKey`]. A term that is neither a
/// plain column nor an integer ordinal cannot be located in the output
/// rowset, so the gather could not re-establish the order a single
/// service would return — refuse it.
fn merge_keys(select: &Select) -> Result<Vec<MergeKey>, AdmissionError> {
    let mut keys = Vec::with_capacity(select.order_by.len());
    for OrderItem { expr, ascending } in &select.order_by {
        let key = match expr {
            // The rowset carries bare (alias-resolved) column names.
            Expr::Column { name, .. } => SortKey::Column(name.to_ascii_lowercase()),
            Expr::Literal(Value::Int(ordinal)) => {
                match usize::try_from(*ordinal).ok().and_then(|o| o.checked_sub(1)) {
                    Some(zero_based) => SortKey::Ordinal(zero_based),
                    None => return Err(AdmissionError::NonDistributable("ORDER BY ordinal")),
                }
            }
            _ => return Err(AdmissionError::NonDistributable("ORDER BY expression")),
        };
        keys.push(MergeKey { key, descending: !ascending });
    }
    Ok(keys)
}

/// Split the statement's trailing window off: the shard statement keeps
/// the `ORDER BY` (shard streams must arrive sorted) but loses
/// `LIMIT`/`OFFSET`, which the merge applies globally. The strip is
/// verified by re-parsing: the stripped text must yield exactly the
/// original AST minus the window, else the statement is refused.
fn strip_window(
    sql: &str,
    select: &Select,
) -> Result<(String, usize, Option<usize>), AdmissionError> {
    let offset = select.offset.unwrap_or(0) as usize;
    let limit = select.limit.map(|l| l as usize);
    if select.limit.is_none() && select.offset.is_none() {
        return Ok((sql.trim_end_matches([';', ' ', '\t', '\r', '\n']).to_string(), 0, None));
    }
    // LIMIT/OFFSET are keywords, never identifiers, and the grammar
    // puts them only in the statement's tail — so the first keyword
    // occurrence outside string literals and comments starts the
    // window clause.
    let stripped = window_clause_start(sql)
        .map(|at| sql[..at].trim_end().to_string())
        .ok_or(AdmissionError::NonDistributable("LIMIT/OFFSET"))?;
    let mut expected = select.clone();
    expected.limit = None;
    expected.offset = None;
    match parse_statement(&stripped) {
        Ok(Stmt::Select(reparsed)) if reparsed == expected => Ok((stripped, offset, limit)),
        _ => Err(AdmissionError::NonDistributable("LIMIT/OFFSET")),
    }
}

/// Byte offset of the first top-level `LIMIT` or `OFFSET` keyword in
/// `sql`, skipping string literals (`'…'` with `''` escapes) and `--`
/// line comments.
fn window_clause_start(sql: &str) -> Option<usize> {
    let bytes = sql.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        match bytes[pos] {
            b'\'' => {
                pos += 1;
                while pos < bytes.len() {
                    if bytes[pos] == b'\'' {
                        if bytes.get(pos + 1) == Some(&b'\'') {
                            pos += 2; // escaped quote inside the literal
                        } else {
                            pos += 1;
                            break;
                        }
                    } else {
                        pos += 1;
                    }
                }
            }
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let word = &sql[start..pos];
                if word.eq_ignore_ascii_case("limit") || word.eq_ignore_ascii_case("offset") {
                    return Some(start);
                }
            }
            _ => pos += 1,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(sql: &str) -> Vec<MergeKey> {
        analyze(sql).unwrap().keys
    }

    #[test]
    fn plain_scans_pass_through_unchanged() {
        let d = analyze("SELECT k, v FROM t WHERE k >= ? ORDER BY k").unwrap();
        assert_eq!(d.shard_sql, "SELECT k, v FROM t WHERE k >= ? ORDER BY k");
        assert_eq!(d.shard_statement(), d.shard_sql);
        assert_eq!((d.offset, d.limit), (0, None));
    }

    #[test]
    fn every_order_by_term_becomes_a_key() {
        assert_eq!(
            keys("SELECT a, b FROM t ORDER BY a DESC, t.B, 2 DESC"),
            vec![
                MergeKey { key: SortKey::Column("a".into()), descending: true },
                MergeKey { key: SortKey::Column("b".into()), descending: false },
                MergeKey { key: SortKey::Ordinal(1), descending: true },
            ]
        );
        assert_eq!(keys("SELECT * FROM t"), Vec::new());
    }

    #[test]
    fn non_distributable_shapes_are_refused() {
        use AdmissionError::NonDistributable;
        let refused = |sql: &str, what| assert_eq!(analyze(sql), Err(NonDistributable(what)));
        refused("SELECT COUNT(*) FROM t", "aggregate function");
        refused("SELECT 1 + SUM(k) FROM t", "aggregate function");
        refused("SELECT DISTINCT v FROM t", "DISTINCT");
        refused("SELECT v FROM t GROUP BY v", "GROUP BY");
        refused("SELECT v FROM t UNION SELECT v FROM t", "UNION");
        refused("SELECT k FROM t ORDER BY k + 1", "ORDER BY expression");
        refused("SELECT k FROM t ORDER BY 0", "ORDER BY ordinal");
        refused("SELECT a.k, b.k FROM t a JOIN t b ON b.k = a.k + 1", "JOIN");
        refused("SELECT * FROM t CROSS JOIN u", "JOIN");
    }

    #[test]
    fn writes_and_nonsense_are_not_read_only() {
        assert_eq!(analyze("DELETE FROM t"), Err(AdmissionError::NotReadOnly));
        assert_eq!(analyze("CREATE TABLE x (a INTEGER)"), Err(AdmissionError::NotReadOnly));
        assert_eq!(analyze("not sql at all"), Err(AdmissionError::NotReadOnly));
    }

    #[test]
    fn window_strips_off_the_shard_statement_and_applies_globally() {
        let d = analyze("SELECT k FROM t ORDER BY k LIMIT 7 OFFSET 5").unwrap();
        assert_eq!(d.shard_sql, "SELECT k FROM t ORDER BY k");
        // Each shard over-fetches the whole window, never more.
        assert_eq!(d.shard_statement(), "SELECT k FROM t ORDER BY k LIMIT 12");
        assert_eq!(d.window(), (5, 7));

        let d = analyze("SELECT k FROM t OFFSET 3").unwrap();
        assert_eq!((d.shard_statement(), d.window()), ("SELECT k FROM t".into(), (3, usize::MAX)));
    }

    #[test]
    fn window_strip_ignores_string_literals_and_comments() {
        let d = analyze("SELECT v FROM t WHERE v = 'limit ''10''' LIMIT 2").unwrap();
        assert_eq!(d.shard_sql, "SELECT v FROM t WHERE v = 'limit ''10'''");
        assert_eq!(d.limit, Some(2));
        let d = analyze("SELECT v FROM t -- limit note\n LIMIT 4").unwrap();
        assert_eq!(d.limit, Some(4));
    }

    fn hash() -> ShardScheme {
        ShardScheme::Hash { column: "k".into() }
    }

    /// Four shards: `[.., 10)`, `[10, 20)`, `[20, 30)`, `[30, ..)`.
    fn range() -> ShardScheme {
        ShardScheme::Range { column: "k".into(), bounds: vec![10, 20, 30] }
    }

    fn targets(scheme: &ShardScheme, sql: &str, params: &[Value]) -> Range<usize> {
        analyze(sql).unwrap().target_shards(scheme, 4, params)
    }

    /// Which shards each statement shape reaches. Every row with key
    /// `k` sits on `shard_of(Int(k))`, so a narrowed run must contain
    /// that shard for every key the predicate can accept.
    #[test]
    fn target_shards_narrow_only_on_int_key_conjuncts() {
        let five = |scheme: &ShardScheme| {
            let s = scheme.shard_of(4, &Value::Int(5));
            s..s + 1
        };
        let int = [Value::Int(5)];
        for scheme in [hash(), range()] {
            let every = 0..4;
            let cases: [(&str, &[Value], Range<usize>); 14] = [
                ("SELECT * FROM t WHERE k = ?", &int, five(&scheme)),
                ("SELECT * FROM t WHERE k >= 5 AND k <= 5", &[], five(&scheme)),
                ("SELECT * FROM t WHERE k = 5", &[], five(&scheme)),
                ("SELECT * FROM t WHERE 5 = k AND v = 'x'", &[], five(&scheme)),
                ("SELECT * FROM t x WHERE x.k = 5", &[], five(&scheme)),
                ("SELECT * FROM t WHERE K = 5 ORDER BY k LIMIT 3", &[], five(&scheme)),
                // `k = 5 AND k = 6` holds for no row: one shard answers empty.
                ("SELECT * FROM t WHERE k = 5 AND k = 6", &[], five(&scheme)),
                ("SELECT * FROM t WHERE k = 5.0", &[], every.clone()),
                ("SELECT * FROM t WHERE k = '5'", &[], every.clone()),
                ("SELECT * FROM t WHERE k = NULL", &[], every.clone()),
                ("SELECT * FROM t WHERE k = 5 OR k = 6", &[], every.clone()),
                ("SELECT * FROM t WHERE k + 0 = 5", &[], every.clone()),
                // The parameter index is out of range: every shard faults alike.
                ("SELECT * FROM t WHERE k = ?", &[], every.clone()),
                ("SELECT * FROM t", &[], every.clone()),
            ];
            for (sql, params, want) in cases {
                assert_eq!(targets(&scheme, sql, params), want, "{scheme:?}: {sql}");
            }
            // Bound as a `Double` or NULL, the same `?` reaches every shard.
            for param in [Value::Double(5.0), Value::Null, Value::Str("5".into())] {
                let sql = "SELECT * FROM t WHERE k = ?";
                assert_eq!(targets(&scheme, sql, &[param]), every, "{scheme:?}");
            }
            // A qualifier naming another table is not the key.
            assert_eq!(targets(&scheme, "SELECT * FROM t x WHERE t.k = 5", &[]), every);
            // No FROM: one shard answers, once.
            assert_eq!(targets(&scheme, "SELECT 1", &[]), 0..1);
        }
    }

    #[test]
    fn range_bounds_reach_the_contiguous_run_they_cover() {
        let ranged = |sql: &str, params: &[Value]| targets(&range(), sql, params);
        assert_eq!(ranged("SELECT * FROM t WHERE k >= 10 AND k < 30", &[]), 1..3);
        assert_eq!(ranged("SELECT * FROM t WHERE k > 9 AND k <= 29", &[]), 1..3);
        let params = [Value::Int(10), Value::Int(20)];
        assert_eq!(ranged("SELECT * FROM t WHERE k >= ? AND k < ?", &params), 1..2);
        assert_eq!(ranged("SELECT * FROM t WHERE 20 <= k", &[]), 2..4);
        assert_eq!(ranged("SELECT * FROM t WHERE k < 10", &[]), 0..1);
        assert_eq!(ranged("SELECT * FROM t WHERE k < ?", &[Value::Int(-1000)]), 0..1);
        // A negative literal is a bound like any other.
        assert_eq!(ranged("SELECT * FROM t WHERE k < -1000", &[]), 0..1);
        // Empty bounds still answer from one shard.
        assert_eq!(ranged("SELECT * FROM t WHERE k > 25 AND k < 12", &[]).len(), 1);
        assert_eq!(ranged(&format!("SELECT * FROM t WHERE k > {}", i64::MAX), &[]).len(), 1);
        // One non-Int bound and the run is every shard.
        assert_eq!(ranged("SELECT * FROM t WHERE k >= 10 AND k < 30.5", &[]), 0..4);
        // Under Hash a range says nothing about placement.
        assert_eq!(targets(&hash(), "SELECT * FROM t WHERE k >= 10 AND k < 30", &[]), 0..4);
        // Under Collection nothing narrows.
        assert_eq!(targets(&ShardScheme::Collection, "SELECT * FROM t WHERE k = 5", &[]), 0..4);
    }
}
