//! # dais-sql
//!
//! An embedded, in-memory relational engine: the DBMS substrate behind the
//! WS-DAIR realisation of the DAIS specifications.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The paper assumes DAIS services wrap an *existing* relational DBMS
//! reached over JDBC-era plumbing. No such embeddable engine fits this
//! Rust reproduction, so this crate implements one: a SQL parser,
//! materialising executor, constraint system (PK/unique/NOT NULL/CHECK/
//! foreign keys), secondary indexes, atomic statements, SQLSTATE
//! diagnostics and WebRowSet XML encoding. Everything WS-DAIR needs from a
//! DBMS — statements in, rowsets/update counts/communication areas out,
//! catalog metadata for CIM rendering — is provided by this crate.
//!
//! ## Supported SQL
//!
//! * `CREATE TABLE` (column types BOOLEAN/INTEGER/DOUBLE/VARCHAR,
//!   NOT NULL, UNIQUE, DEFAULT, PRIMARY KEY incl. composite, table-level
//!   CHECK, REFERENCES), `DROP TABLE [IF EXISTS]`, `CREATE [UNIQUE] INDEX`
//! * `SELECT` with DISTINCT, expressions/aliases, INNER/LEFT/CROSS JOIN,
//!   WHERE, GROUP BY + HAVING, aggregate functions
//!   (COUNT/SUM/AVG/MIN/MAX, incl. DISTINCT), ORDER BY
//!   (expression/alias/ordinal), LIMIT/OFFSET
//! * `INSERT … VALUES` (multi-row) and `INSERT … SELECT`, `UPDATE`,
//!   `DELETE`, positional `?` parameters
//!
//! Scalar functions: UPPER, LOWER, LENGTH, TRIM, ABS, ROUND, MOD,
//! COALESCE, NULLIF, SUBSTRING/SUBSTR, `||` concatenation; full
//! three-valued NULL logic, LIKE, IN, BETWEEN, IS (NOT) NULL, CASE.
//!
//! * `UNION` / `UNION ALL` chains (ORDER BY over a union references
//!   output columns by name or ordinal)
//!
//! Not implemented (documented limitations): subqueries, INTERSECT/EXCEPT,
//! comma joins, RIGHT/FULL OUTER JOIN, views, and multi-statement
//! transactions: each statement is one.
//!
//! ```
//! use dais_sql::{Database, Value};
//!
//! let db = Database::new("demo");
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR)", &[]).unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')", &[]).unwrap();
//! let result = db.execute("SELECT name FROM t WHERE id = ?", &[Value::Int(2)]).unwrap();
//! assert_eq!(result.rowset().unwrap().rows[0][0], Value::Str("two".into()));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod ast;
pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod rowset;
pub mod sqlcomm;
pub mod storage;
pub mod stream;
pub mod value;

pub use db::{Database, StatementResult};
pub use error::{SqlError, SqlErrorKind};
pub use rowset::{Rowset, RowsetColumn, RowsetCursor, RowsetWriter};
pub use sqlcomm::SqlCommunicationArea;
pub use stream::{RowRef, RowStream};
pub use value::{SqlType, Value};
