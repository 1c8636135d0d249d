//! Planned vs naive: whatever access path the planner picks — index
//! probe, primary-key walk, ORDER BY satisfied by the walk — must answer
//! exactly as a full scan, filter and sort of the same rows does.
//!
//! Each case drives two databases with one statement stream: `t` with an
//! INTEGER primary key, a nullable UNIQUE column and a `CREATE INDEX`
//! column, and a twin `t` with the same columns and no key or index, so
//! every statement on the twin scans. Generated INSERT / UPDATE / DELETE
//! (applied to the twin only when they succeeded on the indexed table,
//! where constraints may refuse them) interleave with generated SELECTs
//! over `= < <= > >=` conjuncts on keyed, indexed and plain columns —
//! int and double literals and parameters, NULLs, values around ±2^53,
//! missing parameters — with ASC/DESC ORDER BY and LIMIT/OFFSET windows.
//! `execute`, `stream_query`, update counts and the final table contents
//! must match row for row, in order.

use dais_sql::{Database, Value};
use dais_util::prop::{run_cases, Gen};

const TWO_53: i64 = 1 << 53;
const COLUMNS: [&str; 4] = ["id", "u", "s", "p"];

fn databases() -> (Database, Database) {
    let indexed = Database::new("indexed");
    indexed
        .execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER UNIQUE, s INTEGER, p DOUBLE);
             CREATE INDEX t_s ON t (s);",
        )
        .unwrap();
    let twin = Database::new("twin");
    twin.execute("CREATE TABLE t (id INTEGER, u INTEGER, s INTEGER, p DOUBLE)", &[]).unwrap();
    (indexed, twin)
}

/// Small keys that collide often, and keys either side of ±2^53, where
/// a lossy int/double comparison would merge neighbours.
fn arb_int(g: &mut Gen) -> i64 {
    match g.usize_in(0, 6) {
        0 => TWO_53 + g.u64_in(0, 3) as i64 - 1,
        1 => -TWO_53 - g.u64_in(0, 3) as i64 + 1,
        _ => g.u64_in(0, 12) as i64,
    }
}

/// A comparison operand: an int, a double equal to or just off an int,
/// or NULL.
fn arb_bound(g: &mut Gen) -> Value {
    match g.usize_in(0, 8) {
        0 => Value::Null,
        1 | 2 => Value::Double(arb_int(g) as f64 + *g.pick(&[0.0, 0.5, -0.5])),
        _ => Value::Int(arb_int(g)),
    }
}

/// A nullable column value.
fn arb_cell(g: &mut Gen) -> Value {
    if g.usize_in(0, 5) == 0 {
        Value::Null
    } else {
        Value::Int(arb_int(g))
    }
}

/// Render `v` as a literal, or bind it as the next `?`.
fn operand(g: &mut Gen, v: Value, params: &mut Vec<Value>) -> String {
    if g.bool_any() {
        params.push(v);
        return "?".into();
    }
    match v {
        Value::Null => "NULL".into(),
        Value::Double(d) => format!("{d:?}"),
        other => other.to_display_string(),
    }
}

/// A WHERE clause of at least `min` and at most two conjuncts, mostly
/// sargable, sometimes with the operand on the left or a residual the
/// index cannot serve.
fn arb_where(g: &mut Gen, params: &mut Vec<Value>, min: usize) -> String {
    let mut conjuncts = Vec::new();
    for _ in 0..g.usize_in(min, 3) {
        let column = *g.pick(&COLUMNS);
        if g.usize_in(0, 6) == 0 {
            conjuncts.push(format!("{column} IS NOT NULL"));
            continue;
        }
        let bound = arb_bound(g);
        let bound = operand(g, bound, params);
        let (op, flipped) =
            *g.pick(&[("=", "="), ("<", ">"), ("<=", ">="), (">", "<"), (">=", "<=")]);
        conjuncts.push(if g.bool_any() {
            format!("{column} {op} {bound}")
        } else {
            format!("{bound} {flipped} {column}")
        });
    }
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

fn arb_select(g: &mut Gen, params: &mut Vec<Value>) -> String {
    let projection = *g.pick(&["*", "id, s", "p, id", "u AS x, id"]);
    let predicate = arb_where(g, params, 0);
    let order = *g.pick(&[
        "",
        "",
        " ORDER BY id",
        " ORDER BY id DESC",
        " ORDER BY 1",
        " ORDER BY id DESC, p",
        " ORDER BY s DESC, id",
        " ORDER BY p",
    ]);
    let window = match g.usize_in(0, 4) {
        0 => format!(" LIMIT {}", g.u64_in(0, 6)),
        1 => format!(" LIMIT {} OFFSET {}", g.u64_in(0, 6), g.u64_in(0, 4)),
        2 => format!(" OFFSET {}", g.u64_in(0, 4)),
        _ => String::new(),
    };
    format!("SELECT {projection} FROM t{predicate}{order}{window}")
}

fn arb_insert(g: &mut Gen, params: &mut Vec<Value>) -> String {
    let double = Value::Double(arb_int(g) as f64 / 2.0);
    params.extend([Value::Int(arb_int(g)), arb_cell(g), arb_cell(g), double]);
    "INSERT INTO t VALUES (?, ?, ?, ?)".into()
}

fn arb_write(g: &mut Gen, params: &mut Vec<Value>) -> String {
    match g.usize_in(0, 5) {
        0 | 1 => arb_insert(g, params),
        2 => {
            let (u, s) = (arb_cell(g), arb_cell(g));
            let (u, s) = (operand(g, u, params), operand(g, s, params));
            format!("UPDATE t SET u = {u}, s = {s}, p = p + 1{}", arb_where(g, params, 0))
        }
        3 => format!("UPDATE t SET id = id + 1{}", arb_where(g, params, 0)),
        _ => format!("DELETE FROM t{}", arb_where(g, params, 1)),
    }
}

#[test]
fn planned_access_paths_match_a_full_scan() {
    run_cases("planned_access_paths_match_a_full_scan", 64, 0x1DE5, |g| {
        let (indexed, twin) = databases();
        for step in 0..56 {
            // Sixteen inserts first, so the queries have rows to find.
            let mut params = Vec::new();
            let write = step < 16 || g.usize_in(0, 3) == 0;
            let sql = match (step < 16, write) {
                (true, _) => arb_insert(g, &mut params),
                (false, true) => arb_write(g, &mut params),
                (false, false) => arb_select(g, &mut params),
            };
            // Now and then a `?` goes unbound: both sides must raise it.
            if !params.is_empty() && g.usize_in(0, 12) == 0 {
                params.pop();
            }
            let planned = indexed.execute(&sql, &params);
            if write {
                if planned.is_ok() {
                    assert_eq!(planned, twin.execute(&sql, &params), "{sql} {params:?}");
                }
                continue;
            }
            let naive = twin.execute(&sql, &params);
            assert_eq!(planned, naive, "{sql} {params:?}");
            let streamed = indexed.stream_query(&sql, &params, |s| s.collect_rowset());
            let streamed = streamed.and_then(|rows| rows).map(dais_sql::StatementResult::Query);
            assert_eq!(streamed, naive, "streamed {sql} {params:?}");
        }
        let all = "SELECT * FROM t";
        assert_eq!(indexed.execute(all, &[]).unwrap(), twin.execute(all, &[]).unwrap());
    });
}
