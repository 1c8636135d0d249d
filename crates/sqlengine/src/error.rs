//! SQL errors with SQLSTATE classification.
//!
//! SQLSTATEs matter to the DAIS stack because WS-DAIR responses carry an
//! SQL communication area (paper §4.1, Figure 2: "the SQL realisation
//! extends the message pattern to also include information from the SQL
//! communication area"); the state codes reported here flow into it.

use std::fmt;

/// Error classes, each mapped to a standard SQLSTATE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlErrorKind {
    /// 42601 — syntax error in the statement text.
    Syntax,
    /// 42P01 — referenced table does not exist.
    UndefinedTable,
    /// 42P07 — table already exists.
    DuplicateTable,
    /// 42703 — referenced column does not exist.
    UndefinedColumn,
    /// 42702 — ambiguous column reference.
    AmbiguousColumn,
    /// 42803 — grouping error (column not in GROUP BY).
    Grouping,
    /// 42883 — unknown function or wrong argument count.
    UndefinedFunction,
    /// 22012 — division by zero.
    DivisionByZero,
    /// 22003 — an integer result does not fit in 64 bits.
    NumericOutOfRange,
    /// 22P02 — invalid text representation / cast failure.
    InvalidCast,
    /// 23502 — NOT NULL constraint violated.
    NotNullViolation,
    /// 23505 — unique/primary key constraint violated.
    UniqueViolation,
    /// 23503 — foreign key constraint violated.
    ForeignKeyViolation,
    /// 23514 — CHECK constraint violated.
    CheckViolation,
    /// 22023 — invalid parameter value (e.g. missing placeholder binding).
    InvalidParameter,
    /// 0A000 — feature not supported by this engine.
    NotSupported,
    /// 42501 — insufficient privilege (read-only resource written, etc.).
    InsufficientPrivilege,
    /// XX000 — an engine invariant failed; a bug, not a user error.
    Internal,
}

impl SqlErrorKind {
    /// The five-character SQLSTATE for this class.
    pub fn sqlstate(self) -> &'static str {
        match self {
            SqlErrorKind::Syntax => "42601",
            SqlErrorKind::UndefinedTable => "42P01",
            SqlErrorKind::DuplicateTable => "42P07",
            SqlErrorKind::UndefinedColumn => "42703",
            SqlErrorKind::AmbiguousColumn => "42702",
            SqlErrorKind::Grouping => "42803",
            SqlErrorKind::UndefinedFunction => "42883",
            SqlErrorKind::DivisionByZero => "22012",
            SqlErrorKind::NumericOutOfRange => "22003",
            SqlErrorKind::InvalidCast => "22P02",
            SqlErrorKind::NotNullViolation => "23502",
            SqlErrorKind::UniqueViolation => "23505",
            SqlErrorKind::ForeignKeyViolation => "23503",
            SqlErrorKind::CheckViolation => "23514",
            SqlErrorKind::InvalidParameter => "22023",
            SqlErrorKind::NotSupported => "0A000",
            SqlErrorKind::InsufficientPrivilege => "42501",
            SqlErrorKind::Internal => "XX000",
        }
    }
}

/// An error produced while parsing, planning or executing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    pub kind: SqlErrorKind,
    pub message: String,
}

impl SqlError {
    pub fn new(kind: SqlErrorKind, message: impl Into<String>) -> Self {
        SqlError { kind, message: message.into() }
    }

    pub fn syntax(message: impl Into<String>) -> Self {
        Self::new(SqlErrorKind::Syntax, message)
    }

    /// The SQLSTATE of this error.
    pub fn sqlstate(&self) -> &'static str {
        self.kind.sqlstate()
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error [{}]: {}", self.sqlstate(), self.message)
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqlstates_are_stable() {
        assert_eq!(SqlError::syntax("x").sqlstate(), "42601");
        assert_eq!(SqlError::new(SqlErrorKind::UniqueViolation, "x").sqlstate(), "23505");
        assert_eq!(SqlError::new(SqlErrorKind::DivisionByZero, "x").sqlstate(), "22012");
    }

    #[test]
    fn display_includes_state_and_message() {
        let e = SqlError::new(SqlErrorKind::UndefinedTable, "no table t");
        assert_eq!(e.to_string(), "SQL error [42P01]: no table t");
    }
}
