//! Property-based tests of engine invariants: LIKE against a reference
//! matcher, value ordering laws, constraint enforcement under random
//! workloads, and statement atomicity.
//!
//! Driven by the in-repo mini property harness (`dais_util::prop`);
//! failing cases print a replay seed.

use dais_sql::expr::like_match;
use dais_sql::value::GroupKey;
use dais_sql::{Database, SqlErrorKind, Value};
use dais_util::prop::{run_cases, Gen};
use std::cmp::Ordering;

/// A slow, obviously-correct LIKE reference via dynamic programming.
fn reference_like(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
    }
    for i in 1..=t.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i][j - 1] || dp[i - 1][j],
                '_' => dp[i - 1][j - 1],
                c => c == t[i - 1] && dp[i - 1][j - 1],
            };
        }
    }
    dp[t.len()][p.len()]
}

fn arb_value(g: &mut Gen) -> Value {
    match g.usize_in(0, 7) {
        0 => Value::Null,
        1 => Value::Bool(g.bool_any()),
        2 => Value::Int(g.u64_in(0, 200) as i64 - 100),
        3 => Value::Double(g.f64_in(-100.0, 100.0)),
        4 => Value::Int(near_2_pow_53(g)),
        // Int/double pairs: a double on, or just off, an integer the
        // Int arms also produce.
        5 => {
            let i = if g.bool_any() { near_2_pow_53(g) } else { g.u64_in(0, 200) as i64 - 100 };
            Value::Double(i as f64 + *g.pick(&[0.0, 0.0, 0.5, -0.5]))
        }
        _ => Value::Str(g.string_from("abc", 0, 3)),
    }
}

/// An integer within a few of ±2^53, where `i as f64` starts to round.
fn near_2_pow_53(g: &mut Gen) -> i64 {
    let i = (1_i64 << 53) + g.u64_in(0, 5) as i64 - 2;
    if g.bool_any() {
        -i
    } else {
        i
    }
}

#[test]
fn like_matches_reference() {
    run_cases("like_matches_reference", 128, 0x11E, |g| {
        let text = g.string_from("ab", 0, 8);
        let pattern = g.string_from("ab%_", 0, 8);
        assert_eq!(like_match(&text, &pattern), reference_like(&text, &pattern));
    });
}

/// total_cmp is a total order: antisymmetric and transitive over samples.
#[test]
fn total_cmp_laws() {
    run_cases("total_cmp_laws", 128, 0x7C2, |g| {
        let a = arb_value(g);
        let b = arb_value(g);
        let c = arb_value(g);
        // Antisymmetry.
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (for the ≤ relation).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // Reflexivity.
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    });
}

/// group_key equality coincides with sql_cmp equality on non-null values.
#[test]
fn group_key_respects_equality() {
    run_cases("group_key_respects_equality", 128, 0x96B, |g| {
        let a = arb_value(g);
        let b = arb_value(g);
        if !a.is_null() && !b.is_null() {
            let sql_equal = a.sql_cmp(&b) == Some(Ordering::Equal);
            let key_equal = a.group_key() == b.group_key();
            if sql_equal {
                assert!(key_equal, "{a} = {b} but keys differ");
            }
            // The converse holds except across comparable-type boundaries
            // (keys never equate values sql_cmp cannot compare).
            if key_equal && a.sql_cmp(&b).is_some() {
                assert!(sql_equal, "keys equal but {a} != {b}");
            }
        } else {
            // NULL keys group together.
            assert_eq!(
                a.is_null() && b.is_null(),
                a.is_null() && a.group_key() == b.group_key() && b.is_null()
            );
        }
    });
}

/// Unique constraints hold under arbitrary insert sequences: the
/// table never ends up with duplicates, and every rejected insert
/// reports UniqueViolation.
#[test]
fn unique_constraint_invariant() {
    run_cases("unique_constraint_invariant", 128, 0x0C1, |g| {
        let keys = g.vec_of(1, 39, |g| g.u64_in(0, 20) as i64);
        let db = Database::new("p");
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)", &[]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in keys {
            let outcome = db.execute("INSERT INTO t VALUES (?)", &[Value::Int(k)]);
            if seen.insert(k) {
                assert!(outcome.is_ok(), "fresh key {k} rejected");
            } else {
                let err = outcome.unwrap_err();
                assert_eq!(err.kind, SqlErrorKind::UniqueViolation);
            }
        }
        let count = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(&count.rowset().unwrap().rows[0][0], &Value::Int(seen.len() as i64));
    });
}

/// DISTINCT result sets contain no duplicate rows and exactly the
/// distinct values of the input.
#[test]
fn distinct_is_exact() {
    run_cases("distinct_is_exact", 128, 0xD15, |g| {
        let values = g.vec_of(0, 39, |g| g.u64_in(0, 10) as i64 - 5);
        let db = Database::new("p");
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        for v in &values {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(*v)]).unwrap();
        }
        let got = db.execute("SELECT DISTINCT v FROM t ORDER BY v", &[]).unwrap();
        let got: Vec<i64> = got
            .rowset()
            .unwrap()
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                ref other => panic!("{other:?}"),
            })
            .collect();
        let mut expected: Vec<i64> = values.clone();
        expected.sort();
        expected.dedup();
        assert_eq!(got, expected);
    });
}

/// GROUP BY partitions: group counts sum to the table size, and each
/// group's count matches the reference partition.
#[test]
fn group_by_partitions() {
    run_cases("group_by_partitions", 128, 0x6B1, |g| {
        let values = g.vec_of(1, 49, |g| g.u64_in(0, 6) as i64);
        let db = Database::new("p");
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        for v in &values {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(*v)]).unwrap();
        }
        let got = db.execute("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v", &[]).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for v in &values {
            *reference.entry(*v).or_insert(0i64) += 1;
        }
        let rows = &got.rowset().unwrap().rows;
        assert_eq!(rows.len(), reference.len());
        for (row, (k, n)) in rows.iter().zip(reference.iter()) {
            assert_eq!(&row[0], &Value::Int(*k));
            assert_eq!(&row[1], &Value::Int(*n));
        }
        let total: i64 = rows
            .iter()
            .map(|r| match r[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, values.len() as i64);
    });
}

/// LIMIT/OFFSET windows agree with slicing the full ordered result.
#[test]
fn limit_offset_windows() {
    run_cases("limit_offset_windows", 128, 0x10F, |g| {
        let n = g.usize_in(0, 30);
        let offset = g.u64_in(0, 35);
        let limit = g.u64_in(0, 35);
        let db = Database::new("p");
        db.execute("CREATE TABLE t (v INTEGER)", &[]).unwrap();
        for i in 0..n {
            db.execute("INSERT INTO t VALUES (?)", &[Value::Int(i as i64)]).unwrap();
        }
        let got = db
            .execute(&format!("SELECT v FROM t ORDER BY v LIMIT {limit} OFFSET {offset}"), &[])
            .unwrap();
        let expected: Vec<i64> = (0..n as i64).skip(offset as usize).take(limit as usize).collect();
        let got: Vec<i64> = got
            .rowset()
            .unwrap()
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                ref other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(got, expected);
    });
}

/// Failed multi-row statements are atomic regardless of where the
/// failure lands.
#[test]
fn statement_atomicity() {
    run_cases("statement_atomicity", 128, 0xA70, |g| {
        let prefix = g.vec_of(0, 9, |g| g.u64_in(0, 50) as i64);
        let db = Database::new("p");
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)", &[]).unwrap();
        db.execute("INSERT INTO t VALUES (999)", &[]).unwrap();
        // Build a multi-row insert whose last row always conflicts.
        let mut rows: Vec<String> = prefix.iter().map(|k| format!("({k})")).collect();
        rows.push("(999)".into());
        let sql = format!("INSERT INTO t VALUES {}", rows.join(", "));
        let err = db.execute(&sql, &[]).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::UniqueViolation);
        // Nothing from the failed statement stuck.
        let count = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(&count.rowset().unwrap().rows[0][0], &Value::Int(1));
    });
}

/// GroupKey is usable as advertised: HashMap-compatible.
#[test]
fn group_keys_hash() {
    use std::collections::HashMap;
    let mut m: HashMap<GroupKey, u32> = HashMap::new();
    m.insert(Value::Int(1).group_key(), 1);
    assert_eq!(m.get(&Value::Double(1.0).group_key()), Some(&1));
    assert_eq!(m.get(&Value::Str("1".into()).group_key()), None);
}
