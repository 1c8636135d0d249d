//! The database façade: statements in, statement results out. Each
//! statement is its own transaction.

use crate::ast::{Select, Stmt};
use crate::error::{SqlError, SqlErrorKind};
use crate::exec::{self, StatementGuard};
use crate::parser::parse_statement;
use crate::rowset::Rowset;
use crate::sqlcomm::SqlCommunicationArea;
use crate::storage::Storage;
use crate::stream::{open_stream, RowStream};
use crate::value::Value;
use dais_util::sync::RwLock;
use std::sync::Arc;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A SELECT produced a rowset.
    Query(Rowset),
    /// DML affected `n` rows.
    Update(u64),
    /// DDL completed.
    Command(&'static str),
}

impl StatementResult {
    /// The rowset, if this was a query.
    pub fn rowset(&self) -> Option<&Rowset> {
        match self {
            StatementResult::Query(r) => Some(r),
            _ => None,
        }
    }

    /// The update count (0 for queries/commands).
    pub fn update_count(&self) -> u64 {
        match self {
            StatementResult::Update(n) => *n,
            _ => 0,
        }
    }

    /// Build the communication area describing this outcome.
    pub fn communication_area(&self) -> SqlCommunicationArea {
        match self {
            StatementResult::Query(r) => {
                if r.rows.is_empty() {
                    SqlCommunicationArea {
                        sqlstate: "02000".into(),
                        ..SqlCommunicationArea::success()
                    }
                } else {
                    SqlCommunicationArea::success()
                }
            }
            StatementResult::Update(n) => SqlCommunicationArea::with_update_count(*n),
            StatementResult::Command(_) => SqlCommunicationArea::success(),
        }
    }
}

/// A shared, thread-safe in-memory database.
///
/// Cloning is cheap (shared state). Concurrency model: a big
/// reader-writer lock — SELECTs share a read lock, DML/DDL take the write
/// lock — held for the whole statement. A statement is atomic and is the
/// only transaction, so statements are serializable: none sees another's
/// partial effects.
#[derive(Clone)]
pub struct Database {
    name: String,
    storage: Arc<RwLock<Storage>>,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Database {
        Database { name: name.into(), storage: Arc::new(RwLock::new(Storage::new())) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parse and execute one statement.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<StatementResult, SqlError> {
        self.execute_stmt(&parse_statement(sql)?, params)
    }

    /// Execute an already-parsed statement. A failing statement leaves
    /// no partial effects.
    pub fn execute_stmt(&self, stmt: &Stmt, params: &[Value]) -> Result<StatementResult, SqlError> {
        match stmt {
            Stmt::Select(select) => {
                exec::run_select(select, &self.storage.read(), params).map(StatementResult::Query)
            }
            Stmt::Insert(i) => self.write_rows(|g| exec::run_insert(i, g, params)),
            Stmt::Update(u) => self.write_rows(|g| exec::run_update(u, g, params)),
            Stmt::Delete(d) => self.write_rows(|g| exec::run_delete(d, g, params)),
            Stmt::CreateTable(c) => exec::run_create_table(c, &mut self.storage.write())
                .map(|_| StatementResult::Command("CREATE TABLE")),
            Stmt::DropTable { name, if_exists } => {
                exec::run_drop_table(name, *if_exists, &mut self.storage.write())
                    .map(|_| StatementResult::Command("DROP TABLE"))
            }
            Stmt::CreateIndex { name, table, column, unique } => {
                exec::run_create_index(name, table, column, *unique, &mut self.storage.write())
                    .map(|_| StatementResult::Command("CREATE INDEX"))
            }
        }
    }

    /// Run one INSERT, UPDATE or DELETE under the write lock and a
    /// [`StatementGuard`], which undoes its writes unless `run` completes.
    fn write_rows(
        &self,
        run: impl FnOnce(&mut StatementGuard<'_>) -> Result<u64, SqlError>,
    ) -> Result<StatementResult, SqlError> {
        let mut storage = self.storage.write();
        let mut guard = StatementGuard::new(&mut storage);
        let changed = run(&mut guard)?;
        guard.commit();
        Ok(StatementResult::Update(changed))
    }

    /// Run several statements, stopping at the first error.
    pub fn execute_script(&self, sql: &str) -> Result<(), SqlError> {
        for stmt in split_statements(sql) {
            self.execute(&stmt, &[])?;
        }
        Ok(())
    }

    /// Parse a SELECT and stream it ([`Database::stream_select`]).
    /// Non-SELECT statements are rejected (a cursor over an update count
    /// is meaningless).
    pub fn stream_query<R>(
        &self,
        sql: &str,
        params: &[Value],
        f: impl FnOnce(&mut RowStream<'_>) -> R,
    ) -> Result<R, SqlError> {
        let Stmt::Select(select) = parse_statement(sql)? else {
            return Err(SqlError::new(
                SqlErrorKind::NotSupported,
                "stream_query supports SELECT statements only",
            ));
        };
        self.stream_select(&select, params, f)
    }

    /// Run a parsed SELECT and hand the callback, under the storage read
    /// lock, a pull cursor over its rows ([`RowStream`]: lent straight
    /// off the access path when the statement is pushdown-eligible).
    pub fn stream_select<R>(
        &self,
        select: &Select,
        params: &[Value],
        f: impl FnOnce(&mut RowStream<'_>) -> R,
    ) -> Result<R, SqlError> {
        let storage = self.storage.read();
        let mut stream = open_stream(select, &storage, params)?;
        Ok(f(&mut stream))
    }

    /// Read-only access to the storage (metadata export, tests).
    pub fn with_storage<R>(&self, f: impl FnOnce(&Storage) -> R) -> R {
        f(&self.storage.read())
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        self.storage.read().table_names()
    }
}

/// Naive statement splitter for scripts: splits on `;` outside string
/// literals.
pub fn split_statements(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in sql.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                current.push(c);
            }
            ';' if !in_string => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_schema() -> Database {
        let db = Database::new("test");
        db.execute_script(
            "CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL);
             CREATE TABLE emp (
                 id INTEGER PRIMARY KEY,
                 name VARCHAR NOT NULL,
                 salary DOUBLE DEFAULT 0.0,
                 dept_id INTEGER REFERENCES dept (id),
                 CHECK (salary >= 0)
             );
             INSERT INTO dept VALUES (1, 'eng'), (2, 'sales');
             INSERT INTO emp (id, name, salary, dept_id) VALUES
                 (1, 'ada', 100.0, 1),
                 (2, 'bob', 80.0, 1),
                 (3, 'cyd', 60.0, 2),
                 (4, 'dee', 40.0, NULL);",
        )
        .unwrap();
        db
    }

    fn q(db: &Database, sql: &str) -> Rowset {
        match db.execute(sql, &[]).unwrap() {
            StatementResult::Query(r) => r,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn basic_select() {
        let db = db_with_schema();
        let r = q(&db, "SELECT name FROM emp WHERE salary > 50 ORDER BY name");
        let names: Vec<String> = r.rows.iter().map(|r| r[0].to_display_string()).collect();
        assert_eq!(names, vec!["ada", "bob", "cyd"]);
    }

    #[test]
    fn select_star_and_qualified() {
        let db = db_with_schema();
        let r = q(&db, "SELECT * FROM emp");
        assert_eq!(r.columns.len(), 4);
        assert_eq!(r.rows.len(), 4);
        let r = q(&db, "SELECT e.* FROM emp e WHERE e.id = 1");
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn projection_expressions_and_aliases() {
        let db = db_with_schema();
        let r = q(&db, "SELECT name, salary * 2 AS double_pay FROM emp WHERE id = 1");
        assert_eq!(r.columns[1].name, "double_pay");
        assert_eq!(r.rows[0][1], Value::Double(200.0));
    }

    #[test]
    fn joins() {
        let db = db_with_schema();
        let r = q(
            &db,
            "SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.name",
        );
        assert_eq!(r.rows.len(), 3); // dee has NULL dept
        let r = q(
            &db,
            "SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.name",
        );
        assert_eq!(r.rows.len(), 4);
        let dee = r.rows.iter().find(|r| r[0] == Value::Str("dee".into())).unwrap();
        assert!(dee[1].is_null());
        let r = q(&db, "SELECT * FROM emp CROSS JOIN dept");
        assert_eq!(r.rows.len(), 8);
    }

    #[test]
    fn aggregates() {
        let db = db_with_schema();
        let r =
            q(&db, "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp");
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[0][1], Value::Double(280.0));
        assert_eq!(r.rows[0][2], Value::Double(70.0));
        assert_eq!(r.rows[0][3], Value::Double(40.0));
        assert_eq!(r.rows[0][4], Value::Double(100.0));
    }

    #[test]
    fn group_by_having() {
        let db = db_with_schema();
        let r = q(
            &db,
            "SELECT dept_id, COUNT(*) AS n, SUM(salary) FROM emp \
             GROUP BY dept_id HAVING COUNT(*) >= 1 ORDER BY n DESC, dept_id",
        );
        assert_eq!(r.rows.len(), 3); // dept 1, dept 2, NULL
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert_eq!(r.rows[0][1], Value::Int(2));
        let r = q(&db, "SELECT dept_id FROM emp GROUP BY dept_id HAVING SUM(salary) > 100");
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn grouping_validation() {
        let db = db_with_schema();
        let err = db.execute("SELECT name, COUNT(*) FROM emp GROUP BY dept_id", &[]).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::Grouping);
    }

    #[test]
    fn count_empty_table_is_zero() {
        let db = db_with_schema();
        db.execute("DELETE FROM emp", &[]).unwrap();
        let r = q(&db, "SELECT COUNT(*), SUM(salary) FROM emp");
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn distinct() {
        let db = db_with_schema();
        let r = q(&db, "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id");
        assert_eq!(r.rows.len(), 3);
        let r = q(&db, "SELECT COUNT(DISTINCT dept_id) FROM emp");
        assert_eq!(r.rows[0][0], Value::Int(2)); // NULL not counted
    }

    #[test]
    fn order_by_variants() {
        let db = db_with_schema();
        // by ordinal
        let r = q(&db, "SELECT name, salary FROM emp ORDER BY 2 DESC");
        assert_eq!(r.rows[0][0], Value::Str("ada".into()));
        // by alias
        let r = q(&db, "SELECT name, salary AS pay FROM emp ORDER BY pay");
        assert_eq!(r.rows[0][0], Value::Str("dee".into()));
        // by non-projected column
        let r = q(&db, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Str("ada".into()));
    }

    #[test]
    fn limit_offset() {
        let db = db_with_schema();
        let r = q(&db, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn params_bind() {
        let db = db_with_schema();
        let r = db
            .execute(
                "SELECT name FROM emp WHERE salary > ? AND dept_id = ?",
                &[Value::Double(70.0), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r.rowset().unwrap().rows.len(), 2); // ada (100) and bob (80)
        let err = db.execute("SELECT * FROM emp WHERE id = ?", &[]).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::InvalidParameter);
    }

    /// Integer keys stay exact past 2^53, where an `f64` holds only
    /// every other integer: 2^53 and 2^53 + 1 are distinct keys, an
    /// equality finds one of them, and ORDER BY keeps them in order.
    #[test]
    fn integer_keys_are_exact_past_2_pow_53() {
        let db = Database::new("big");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)", &[]).unwrap();
        let (two53, next) = (1_i64 << 53, (1_i64 << 53) + 1);
        db.execute("INSERT INTO t VALUES (?), (?)", &[Value::Int(next), Value::Int(two53)])
            .unwrap();
        let r = q(&db, "SELECT id FROM t WHERE id = 9007199254740993");
        assert_eq!(r.rows, vec![vec![Value::Int(next)]]);
        let r = q(&db, "SELECT id FROM t ORDER BY id");
        assert_eq!(r.rows, vec![vec![Value::Int(two53)], vec![Value::Int(next)]]);
    }

    #[test]
    fn insert_defaults_and_counts() {
        let db = db_with_schema();
        let r = db.execute("INSERT INTO emp (id, name) VALUES (10, 'zed')", &[]).unwrap();
        assert_eq!(r.update_count(), 1);
        let row = q(&db, "SELECT salary, dept_id FROM emp WHERE id = 10");
        assert_eq!(row.rows[0][0], Value::Double(0.0)); // default
        assert!(row.rows[0][1].is_null());
    }

    #[test]
    fn insert_select() {
        let db = db_with_schema();
        db.execute("CREATE TABLE emp2 (id INTEGER, name VARCHAR)", &[]).unwrap();
        let r =
            db.execute("INSERT INTO emp2 SELECT id, name FROM emp WHERE salary > 50", &[]).unwrap();
        assert_eq!(r.update_count(), 3);
    }

    #[test]
    fn update_and_delete() {
        let db = db_with_schema();
        let r = db.execute("UPDATE emp SET salary = salary + 10 WHERE dept_id = 1", &[]).unwrap();
        assert_eq!(r.update_count(), 2);
        let r = q(&db, "SELECT salary FROM emp WHERE id = 1");
        assert_eq!(r.rows[0][0], Value::Double(110.0));
        let r = db.execute("DELETE FROM emp WHERE dept_id IS NULL", &[]).unwrap();
        assert_eq!(r.update_count(), 1);
    }

    #[test]
    fn constraint_violations() {
        let db = db_with_schema();
        // PK duplicate
        let e = db.execute("INSERT INTO emp (id, name) VALUES (1, 'dup')", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::UniqueViolation);
        // NOT NULL
        let e = db.execute("INSERT INTO emp (id) VALUES (11)", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::NotNullViolation);
        // CHECK
        let e = db
            .execute("INSERT INTO emp (id, name, salary) VALUES (12, 'x', -5.0)", &[])
            .unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::CheckViolation);
        // FK
        let e = db
            .execute("INSERT INTO emp (id, name, dept_id) VALUES (13, 'x', 99)", &[])
            .unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::ForeignKeyViolation);
        // FK on delete of referenced parent
        let e = db.execute("DELETE FROM dept WHERE id = 1", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::ForeignKeyViolation);
        // ...and the failed delete must have been rolled back.
        assert_eq!(q(&db, "SELECT COUNT(*) FROM dept").rows[0][0], Value::Int(2));
    }

    #[test]
    fn statement_atomicity_on_multi_row_failure() {
        let db = db_with_schema();
        // Second row violates PK; first row must not stick.
        let e = db
            .execute("INSERT INTO emp (id, name) VALUES (20, 'ok'), (1, 'dup')", &[])
            .unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::UniqueViolation);
        assert_eq!(q(&db, "SELECT COUNT(*) FROM emp WHERE id = 20").rows[0][0], Value::Int(0));
    }

    /// Integer SUM is exact: a total outside `i64` is refused, and one
    /// inside it is answered.
    #[test]
    fn integer_sum_overflow_is_refused() {
        let db = Database::new("sum");
        db.execute("CREATE TABLE t (x INTEGER)", &[]).unwrap();
        db.execute("INSERT INTO t VALUES (9223372036854775807), (1)", &[]).unwrap();
        assert_eq!(db.execute("SELECT SUM(x) FROM t", &[]).unwrap_err().sqlstate(), "22003");
        assert_eq!(q(&db, "SELECT SUM(x) FROM t WHERE x = 1").rows[0][0], Value::Int(1));
    }

    #[test]
    fn scalar_functions_in_queries() {
        let db = db_with_schema();
        let r = q(&db, "SELECT UPPER(name) FROM emp WHERE id = 1");
        assert_eq!(r.rows[0][0], Value::Str("ADA".into()));
        let r = q(&db, "SELECT name FROM emp WHERE name LIKE '%d%' ORDER BY name");
        assert_eq!(r.rows.len(), 3); // ada, cyd, dee
    }

    #[test]
    fn case_in_queries() {
        let db = db_with_schema();
        let r = q(
            &db,
            "SELECT name, CASE WHEN salary >= 80 THEN 'high' ELSE 'low' END AS band \
             FROM emp ORDER BY id",
        );
        assert_eq!(r.rows[0][1], Value::Str("high".into()));
        assert_eq!(r.rows[3][1], Value::Str("low".into()));
    }

    #[test]
    fn create_index_and_uniqueness() {
        let db = db_with_schema();
        db.execute("CREATE UNIQUE INDEX u_name ON emp (name)", &[]).unwrap();
        let e = db.execute("INSERT INTO emp (id, name) VALUES (40, 'ada')", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::UniqueViolation);
        // Plain index is allowed and transparent.
        db.execute("CREATE INDEX i_dept ON emp (dept_id)", &[]).unwrap();
        assert_eq!(q(&db, "SELECT COUNT(*) FROM emp WHERE dept_id = 1").rows[0][0], Value::Int(2));
    }

    #[test]
    fn communication_areas() {
        let db = db_with_schema();
        let r = db.execute("UPDATE emp SET salary = 0.0 WHERE id = 999", &[]).unwrap();
        let comm = r.communication_area();
        assert_eq!(comm.sqlstate, "02000");
        let r = db.execute("SELECT * FROM emp", &[]).unwrap();
        assert_eq!(r.communication_area().sqlstate, "00000");
    }

    #[test]
    fn update_failure_is_atomic() {
        let db = db_with_schema();
        // This update succeeds for dept 1 rows until the CHECK fires for bob.
        let e =
            db.execute("UPDATE emp SET salary = salary - 90 WHERE dept_id = 1", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::CheckViolation);
        // ada's successful update must have been undone.
        assert_eq!(q(&db, "SELECT salary FROM emp WHERE id = 1").rows[0][0], Value::Double(100.0));
    }

    #[test]
    fn drop_table_semantics() {
        let db = db_with_schema();
        assert!(db.execute("DROP TABLE nothere", &[]).is_err());
        db.execute("DROP TABLE IF EXISTS nothere", &[]).unwrap();
        // dept is referenced by emp.
        let e = db.execute("DROP TABLE dept", &[]).unwrap_err();
        assert_eq!(e.kind, SqlErrorKind::ForeignKeyViolation);
        db.execute("DROP TABLE emp", &[]).unwrap();
        db.execute("DROP TABLE dept", &[]).unwrap();
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn select_without_from_works() {
        let db = Database::new("x");
        let r = q(&db, "SELECT 1 + 1 AS two, 'hi'");
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Str("hi".into()));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = db_with_schema();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if i % 2 == 0 {
                            let r = db.execute("SELECT COUNT(*) FROM emp", &[]).unwrap();
                            assert!(r.rowset().unwrap().rows[0][0].sql_type().is_some());
                        } else {
                            let _ =
                                db.execute("UPDATE emp SET salary = salary + 1 WHERE id = 1", &[]);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = q(&db, "SELECT salary FROM emp WHERE id = 1");
        assert_eq!(r.rows[0][0], Value::Double(100.0 + 4.0 * 50.0));
    }
}
