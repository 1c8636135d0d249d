//! Cross-crate property-based tests on the stack's key invariants: wire
//! format round-trips, SQL engine behaviour against a reference model,
//! and name uniqueness.
//!
//! Driven by the in-repo mini property harness (`dais_util::prop`);
//! failing cases print a replay seed.

use dais::prelude::*;
use dais::sql::{Rowset, RowsetColumn, RowsetCursor, SqlType};
use dais::xml::{parse, to_string, PullParser, XmlElement, XmlWriter};
use dais_util::prop::{run_cases, Gen};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Printable ASCII incl. the XML metacharacters — escaping must cover it.
const TEXT_ALPHABET: &str = " &<>\"'abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,:;!?#$%()*+-/=@[]^_{}|~";
const NAME_HEAD: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const NAME_TAIL: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";

/// XML-safe text (the parser rejects raw control characters by design of
/// the subset; escaping covers the rest).
fn arb_text(g: &mut Gen) -> String {
    g.string_from(TEXT_ALPHABET, 0, 24)
}

fn arb_name(g: &mut Gen) -> String {
    let mut s = g.string_from(NAME_HEAD, 1, 1);
    s.push_str(&g.string_from(NAME_TAIL, 0, 8));
    s
}

/// Arbitrary namespaced XML trees of bounded depth.
fn arb_element(g: &mut Gen) -> XmlElement {
    arb_element_depth(g, 3)
}

fn arb_element_depth(g: &mut Gen, depth: usize) -> XmlElement {
    let mut e = XmlElement::new_local(arb_name(g));
    for _ in 0..g.usize_in(0, 3) {
        let an = arb_name(g);
        // Attribute names must be unique per element.
        if e.attribute(&an).is_none() {
            e.set_attr(an, arb_text(g));
        }
    }
    if depth == 0 || g.bool_any() {
        // Leaf: optional text content.
        let text = arb_text(g);
        if !text.is_empty() {
            e.push_text(text);
        }
    } else {
        for _ in 0..g.usize_in(0, 4) {
            e.push(arb_element_depth(g, depth - 1));
        }
    }
    e
}

fn arb_value(g: &mut Gen) -> Value {
    match g.usize_in(0, 5) {
        0 => Value::Null,
        1 => Value::Bool(g.bool_any()),
        2 => Value::Int(g.i64_any()),
        // Finite doubles; the display format does not round-trip NaN/inf
        // (and SQL forbids them as literals anyway).
        3 => Value::Double(g.f64_in(-1e12, 1e12)),
        _ => Value::Str(arb_text(g)),
    }
}

fn type_of(v: &Value) -> SqlType {
    v.sql_type().unwrap_or(SqlType::Varchar)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// parse(write(tree)) == tree for arbitrary trees. The preserving
/// parser is the exact inverse of the writer; the protocol-default
/// parser additionally drops whitespace-only text, which `normalized`
/// accounts for.
#[test]
fn xml_roundtrip() {
    run_cases("xml_roundtrip", 64, 0x304A, |g| {
        let e = arb_element(g);
        let text = to_string(&e);
        let exact = dais::xml::parse_preserving(&text).unwrap();
        assert_eq!(&exact, &e);
        let stripped = parse(&text).unwrap();
        assert_eq!(stripped.normalized(), exact.normalized());
    });
}

/// SOAP envelopes survive the bus's serialise/parse cycle untouched.
#[test]
fn envelope_roundtrip() {
    run_cases("envelope_roundtrip", 64, 0xE2F, |g| {
        // Strip whitespace-only text (the parser's protocol default).
        let body = arb_element(g).normalized();
        let env = dais::soap::Envelope::with_body(body);
        let mut bytes = Vec::new();
        env.to_bytes_into(&mut bytes);
        let rt = dais::soap::Envelope::from_bytes(&bytes).unwrap();
        assert_eq!(rt, env);
    });
}

/// WebRowSet encoding (writer → cursor) round-trips arbitrary typed
/// tables.
#[test]
fn rowset_roundtrip() {
    run_cases("rowset_roundtrip", 64, 0x5E7, |g| {
        let rows = g.vec_of(0, 11, |g| (arb_value(g), arb_value(g), arb_text(g)));
        // Columns take their types from the first row's non-null values;
        // coerce every row to those types for a well-typed rowset.
        let col_types = [
            rows.first().map(|(a, _, _)| type_of(a)).unwrap_or(SqlType::Integer),
            rows.first().map(|(_, b, _)| type_of(b)).unwrap_or(SqlType::Double),
            SqlType::Varchar,
        ];
        let mut rs = Rowset::new(vec![
            RowsetColumn { name: "a".into(), ty: col_types[0] },
            RowsetColumn { name: "b".into(), ty: col_types[1] },
            RowsetColumn { name: "c".into(), ty: SqlType::Varchar },
        ]);
        for (a, b, c) in rows {
            let a = a.coerce_to(col_types[0]).unwrap_or(Value::Null);
            let b = b.coerce_to(col_types[1]).unwrap_or(Value::Null);
            rs.rows.push(vec![a, b, Value::Str(c)]);
        }
        let mut text = String::new();
        let mut w = XmlWriter::new(&mut text);
        rs.write_into(&mut w);
        w.finish();
        let mut cursor = RowsetCursor::new(PullParser::new(&text).unwrap()).unwrap();
        let rt = Rowset::from_cursor(&mut cursor).unwrap();
        assert_eq!(rt.columns, rs.columns);
        assert_eq!(rt.rows.len(), rs.rows.len());
        for (x, y) in rt.rows.iter().zip(&rs.rows) {
            // Doubles go through decimal text; compare displayed forms.
            for (xv, yv) in x.iter().zip(y) {
                assert_eq!(xv.to_display_string(), yv.to_display_string());
            }
        }
    });
}

/// INSERT-then-SELECT returns exactly what went in (engine vs model).
#[test]
fn sql_insert_select_agrees_with_model() {
    run_cases("sql_insert_select_agrees_with_model", 64, 0x1235, |g| {
        let values = g.vec_of(1, 19, |g| (g.i64_any(), arb_text(g)));
        let db = Database::new("prop");
        db.execute("CREATE TABLE t (k INTEGER, v VARCHAR)", &[]).unwrap();
        let mut model: Vec<(i64, String)> = Vec::new();
        for (i, (k, v)) in values.into_iter().enumerate() {
            db.execute("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Str(v.clone())])
                .unwrap();
            model.push((k, v));
            // Every prefix stays consistent.
            if i % 5 == 0 {
                let got = db.execute("SELECT k, v FROM t", &[]).unwrap();
                assert_eq!(got.rowset().unwrap().row_count(), model.len());
            }
        }
        let got = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(&got.rowset().unwrap().rows[0][0], &Value::Int(model.len() as i64));
        // SUM is exact: the model's total, or 22003 when it leaves i64.
        let model_sum: i128 = model.iter().map(|(k, _)| *k as i128).sum();
        let got = db.execute("SELECT SUM(k) FROM t", &[]);
        let got = got.map(|r| r.rowset().unwrap().rows[0][0].clone()).map_err(|e| e.sqlstate());
        assert_eq!(got, i64::try_from(model_sum).map(Value::Int).map_err(|_| "22003"));
    });
}

/// WHERE filtering agrees with a reference filter.
#[test]
fn sql_where_agrees_with_model() {
    run_cases("sql_where_agrees_with_model", 64, 0x3E3, |g| {
        let keys = g.vec_of(1, 39, |g| g.u64_in(0, 2000) as i64 - 1000);
        let threshold = g.u64_in(0, 2000) as i64 - 1000;
        let db = Database::new("prop");
        db.execute("CREATE TABLE t (k INTEGER)", &[]).unwrap();
        for k in &keys {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(*k)]).unwrap();
        }
        let got =
            db.execute("SELECT COUNT(*) FROM t WHERE k > ?", &[Value::Int(threshold)]).unwrap();
        let expected = keys.iter().filter(|k| **k > threshold).count() as i64;
        assert_eq!(&got.rowset().unwrap().rows[0][0], &Value::Int(expected));
    });
}

/// ORDER BY sorts like the standard library.
#[test]
fn sql_order_by_agrees_with_model() {
    run_cases("sql_order_by_agrees_with_model", 64, 0x0B5, |g| {
        let keys = g.vec_of(0, 29, |g| g.i64_any() as i32);
        let db = Database::new("prop");
        db.execute("CREATE TABLE t (k INTEGER)", &[]).unwrap();
        for k in &keys {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(*k as i64)]).unwrap();
        }
        let got = db.execute("SELECT k FROM t ORDER BY k", &[]).unwrap();
        let got_keys: Vec<i64> = got
            .rowset()
            .unwrap()
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                ref other => panic!("{other:?}"),
            })
            .collect();
        let mut expected: Vec<i64> = keys.iter().map(|k| *k as i64).collect();
        expected.sort();
        assert_eq!(got_keys, expected);
    });
}

/// Statement atomicity: a generated statement that fails part-way — a
/// multi-row INSERT whose last row repeats a key, or an UPDATE that
/// overflows at a row after others were written — leaves the table
/// exactly as it was, and the keys it had inserted free again.
#[test]
fn rollback_restores_state() {
    run_cases("rollback_restores_state", 64, 0x2B11, |g| {
        let keys: std::collections::BTreeSet<i64> =
            g.vec_of(1, 14, |g| g.i64_any() as i32 as i64).into_iter().collect();
        let keys: Vec<i64> = keys.into_iter().collect();
        let overflow_at = g.usize_in(0, keys.len());
        let db = Database::new("prop");
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, x INTEGER)", &[]).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let x = if i == overflow_at { i64::MAX } else { g.i64_any() as i32 as i64 };
            db.execute("INSERT INTO t VALUES (?, ?)", &[Value::Int(*k), Value::Int(x)]).unwrap();
        }
        let read = || db.execute("SELECT k, x FROM t ORDER BY k", &[]).unwrap();
        let before = read();

        let fresh: Vec<i64> = (0..g.usize_in(1, 8) as i64).map(|i| (1 << 40) + i).collect();
        let values = |keys: &[i64]| {
            let sql = vec!["(?, 0)"; keys.len()].join(", ");
            (format!("INSERT INTO t VALUES {sql}"), keys.iter().map(|k| Value::Int(*k)).collect())
        };
        let (sql, params, state): (String, Vec<Value>, _) = if g.bool_any() {
            let (sql, params) = values(&[&fresh[..], &[*g.pick(&keys)]].concat());
            (sql, params, "23505")
        } else {
            let by = Value::Int(g.u64_in(1, 1000) as i64);
            ("UPDATE t SET x = x + ?".to_string(), vec![by], "22003")
        };
        assert_eq!(db.execute(&sql, &params).unwrap_err().sqlstate(), state, "{sql}");
        assert_eq!(read(), before, "{sql}");
        let (sql, params) = values(&fresh);
        assert_eq!(db.execute(&sql, &params).unwrap().update_count(), fresh.len() as u64);
    });
}

/// Integer `+ - * / %` against `i128` arithmetic, an oracle outside the
/// engine's evaluator: the exact value when it fits in `i64` (a quotient
/// that is not whole is a double), SQLSTATE 22003 when it does not, and
/// 22012 for a zero divisor. Operands lean on the edges of `i64`.
#[test]
fn integer_arithmetic_matches_i128() {
    let operand = |g: &mut Gen| match g.usize_in(0, 3) {
        0 => *g.pick(&[i64::MIN, i64::MIN + 1, -2, -1, 0, 1, 2, i64::MAX - 1, i64::MAX]),
        1 => g.i64_any() >> g.usize_in(0, 64),
        _ => g.i64_any(),
    };
    let db = Database::new("arith");
    run_cases("integer_arithmetic_matches_i128", 512, 0x1128, |g| {
        let (a, b) = (operand(g), operand(g));
        let (wa, wb) = (a as i128, b as i128);
        let fits = |v: i128| i64::try_from(v).map(Value::Int).map_err(|_| "22003");
        for (op, expected) in [
            ("+", fits(wa + wb)),
            ("-", fits(wa - wb)),
            ("*", fits(wa * wb)),
            (
                "/",
                match b {
                    0 => Err("22012"),
                    _ if wa % wb == 0 => fits(wa / wb),
                    _ => Ok(Value::Double(a as f64 / b as f64)),
                },
            ),
            ("%", if b == 0 { Err("22012") } else { fits(wa % wb) }),
        ] {
            let got = db
                .execute(&format!("SELECT ? {op} ?"), &[Value::Int(a), Value::Int(b)])
                .map(|r| r.rowset().unwrap().rows[0][0].clone())
                .map_err(|e| e.sqlstate());
            assert_eq!(got, expected, "{a} {op} {b}");
        }
    });
}

/// The DAIS message body round-trips arbitrary SQL parameter vectors.
#[test]
fn sql_parameters_roundtrip_the_wire() {
    run_cases("sql_parameters_roundtrip_the_wire", 64, 0x50AF, |g| {
        let params = g.vec_of(0, 7, arb_value);
        let name = AbstractName::new("urn:dais:p:db:0").unwrap();
        let req = dais::dair::messages::sql_execute_request(
            &name,
            dais::xml::ns::ROWSET,
            "SELECT 1",
            &params,
        );
        // Through text, like the bus does.
        let text = to_string(&req);
        let parsed = parse(&text).unwrap();
        let (sql, got) = dais::dair::messages::parse_sql_expression(&parsed).unwrap();
        assert_eq!(sql, "SELECT 1");
        assert_eq!(got.len(), params.len());
        for (x, y) in got.iter().zip(&params) {
            assert_eq!(x.to_display_string(), y.to_display_string());
        }
    });
}

/// Abstract names from concurrent generators never collide (plain test —
/// determinism is the property).
#[test]
fn abstract_names_unique_across_threads() {
    let gen = std::sync::Arc::new(dais::core::NameGenerator::new("uniq"));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let gen = gen.clone();
            std::thread::spawn(move || (0..250).map(|_| gen.mint("r")).collect::<Vec<_>>())
        })
        .collect();
    let mut all: Vec<_> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n);
}
