//! The SQL abstract syntax tree.

use crate::value::{SqlType, Value};

/// A complete statement.
// Statements are parsed once and immediately executed; boxing the big
// variants would buy nothing on this non-hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateTable(CreateTable),
    DropTable { name: String, if_exists: bool },
    CreateIndex { name: String, table: String, column: String, unique: bool },
}

/// A SELECT statement (optionally the head of a UNION chain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// `UNION [ALL]` arms, in order. Each arm is a core select (no ORDER
    /// BY / LIMIT of its own); the outer `order_by`/`limit`/`offset`
    /// apply to the combined result, per SQL.
    pub unions: Vec<UnionArm>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// One `UNION [ALL] <select>` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionArm {
    /// `UNION ALL` keeps duplicates; plain `UNION` deduplicates the
    /// entire combined result.
    pub all: bool,
    pub select: Select,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is addressed by in column qualifiers.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    /// Absent only for CROSS joins.
    pub on: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// An INSERT statement: literal rows or a source query.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Target columns; empty means "all columns, in table order".
    pub columns: Vec<String>,
    pub source: InsertSource,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Select>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: SqlType,
    pub not_null: bool,
    pub unique: bool,
    pub primary_key: bool,
    pub default: Option<Expr>,
    /// `REFERENCES other_table (other_column)`.
    pub references: Option<(String, String)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
    /// Table-level PRIMARY KEY constraint columns (may be composite).
    pub primary_key: Vec<String>,
    /// Table-level CHECK constraints.
    pub checks: Vec<Expr>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// `name` or `qualifier.name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// The `?` placeholder, numbered left to right from 0.
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `expr LIKE pattern` (pattern is any expression, usually a literal).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr IN (a, b, c)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Searched CASE (`CASE WHEN c THEN v ... [ELSE e] END`) or simple
    /// CASE when `operand` is present.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_value: Option<Box<Expr>>,
    },
    /// A function call; aggregates use the same node and are recognised by
    /// name during planning. `COUNT(*)` is `Function { name: "COUNT", args: [], star: true }`.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    /// Does this expression (sub)tree contain an aggregate function call?
    pub fn contains_aggregate(&self) -> bool {
        if let Expr::Function { name, star, .. } = self {
            if *star || is_aggregate_name(name) {
                return true;
            }
        }
        self.children().iter().any(|c| c.contains_aggregate())
    }

    /// Immediate sub-expressions.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => Vec::new(),
            Expr::Unary { expr, .. } => vec![expr],
            Expr::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::InList { expr, list, .. } => {
                let mut v = vec![expr.as_ref()];
                v.extend(list.iter());
                v
            }
            Expr::Between { expr, low, high, .. } => vec![expr, low, high],
            Expr::IsNull { expr, .. } => vec![expr],
            Expr::Case { operand, branches, else_value } => {
                let mut v = Vec::new();
                if let Some(o) = operand {
                    v.push(o.as_ref());
                }
                for (w, t) in branches {
                    v.push(w);
                    v.push(t);
                }
                if let Some(e) = else_value {
                    v.push(e.as_ref());
                }
                v
            }
            Expr::Function { args, .. } => args.iter().collect(),
        }
    }
}

/// Is this an aggregate function name?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name.to_ascii_uppercase().as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "SUM".into(),
            args: vec![Expr::col("x")],
            distinct: false,
            star: false,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(Expr::lit(Value::Int(1))),
            rhs: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        let scalar_fn = Expr::Function {
            name: "UPPER".into(),
            args: vec![Expr::col("x")],
            distinct: false,
            star: false,
        };
        assert!(!scalar_fn.contains_aggregate());
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef { name: "orders".into(), alias: Some("o".into()) };
        assert_eq!(t.binding_name(), "o");
        let t = TableRef { name: "orders".into(), alias: None };
        assert_eq!(t.binding_name(), "orders");
    }
}
