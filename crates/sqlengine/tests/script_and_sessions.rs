//! Script-level behaviours: statement splitting, scripts that stop at
//! their first error, and prepared statement reuse through
//! `Database::execute_stmt`.

use dais_sql::db::split_statements;
use dais_sql::parser::parse_statement;
use dais_sql::{Database, Value};

#[test]
fn split_statements_handles_strings_and_whitespace() {
    let script = "INSERT INTO t VALUES ('a;b');\n  SELECT 1 ;;\nSELECT 2";
    let parts = split_statements(script);
    assert_eq!(parts.len(), 3);
    assert_eq!(parts[0], "INSERT INTO t VALUES ('a;b')");
    assert_eq!(parts[1], "SELECT 1");
    assert_eq!(parts[2], "SELECT 2");
    assert!(split_statements("   ").is_empty());
}

#[test]
fn execute_script_stops_at_first_error() {
    let db = Database::new("s");
    let err = db
        .execute_script(
            "CREATE TABLE t (a INTEGER);
             INSERT INTO t VALUES (1);
             THIS IS NOT SQL;
             INSERT INTO t VALUES (2);",
        )
        .unwrap_err();
    assert_eq!(err.sqlstate(), "42601");
    // Statements before the error applied; after did not.
    let r = db.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.rowset().unwrap().rows[0][0], Value::Int(1));
}

#[test]
fn parsed_statements_are_reusable() {
    let db = Database::new("s");
    db.execute("CREATE TABLE t (a INTEGER)", &[]).unwrap();
    let insert = parse_statement("INSERT INTO t VALUES (?)").unwrap();
    for i in 0..10 {
        db.execute_stmt(&insert, &[Value::Int(i)]).unwrap();
    }
    let select = parse_statement("SELECT COUNT(*) FROM t WHERE a >= ?").unwrap();
    let r = db.execute_stmt(&select, &[Value::Int(5)]).unwrap();
    assert_eq!(r.rowset().unwrap().rows[0][0], Value::Int(5));
    // Missing parameter still errors per execution.
    assert!(db.execute_stmt(&select, &[]).is_err());
}
