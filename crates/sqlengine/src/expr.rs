//! Scalar expression evaluation with SQL three-valued logic.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::{SqlError, SqlErrorKind};
use crate::value::Value;

/// A column visible during execution: an optional table qualifier (table
/// name or alias) and the column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecColumn {
    pub qualifier: Option<String>,
    pub name: String,
}

/// The schema of the rows flowing through an operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecSchema {
    pub columns: Vec<ExecColumn>,
}

impl ExecSchema {
    pub fn new(columns: Vec<ExecColumn>) -> Self {
        ExecSchema { columns }
    }

    /// Resolve a (possibly qualified) column reference to an ordinal,
    /// detecting ambiguity.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SqlError> {
        let mut matches = self.columns.iter().enumerate().filter(|(_, c)| {
            c.name.eq_ignore_ascii_case(name)
                && match qualifier {
                    None => true,
                    Some(q) => c.qualifier.as_deref().is_some_and(|cq| cq.eq_ignore_ascii_case(q)),
                }
        });
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(SqlError::new(
                SqlErrorKind::AmbiguousColumn,
                format!("ambiguous column reference '{}'", display_ref(qualifier, name)),
            )),
            (None, _) => Err(SqlError::new(
                SqlErrorKind::UndefinedColumn,
                format!("no such column '{}'", display_ref(qualifier, name)),
            )),
        }
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &ExecSchema) -> ExecSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        ExecSchema { columns }
    }
}

fn display_ref(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Everything an expression may reference at evaluation time.
pub struct EvalContext<'a> {
    pub schema: &'a ExecSchema,
    pub row: &'a [Value],
    pub params: &'a [Value],
}

impl<'a> EvalContext<'a> {
    pub fn new(schema: &'a ExecSchema, row: &'a [Value], params: &'a [Value]) -> Self {
        EvalContext { schema, row, params }
    }
}

/// An integer result, or `22003` when the exact result does not fit in
/// an `i64`.
pub fn checked_int(result: Option<i64>) -> Result<i64, SqlError> {
    result.ok_or_else(|| SqlError::new(SqlErrorKind::NumericOutOfRange, "integer out of range"))
}

/// `i` rounded half away from zero to `digits` decimal places: itself
/// for `digits >= 0`, else to a multiple of `10^-digits`, refused with
/// 22003 when that leaves `i64`.
fn round_int(i: i64, digits: i64) -> Result<i64, SqlError> {
    if digits >= 0 {
        return Ok(i);
    }
    // Past 10^38 every `i64` rounds to 0, as it does at 10^38.
    let unit = 10i128.pow(digits.unsigned_abs().min(38) as u32);
    let half = if i < 0 { -unit / 2 } else { unit / 2 };
    checked_int(i64::try_from((i128::from(i) + half) / unit * unit).ok())
}

/// `d` rounded half away from zero to `digits` decimal places. A
/// rounding that keeps more digits than `d` carries leaves it alone, and
/// one to a unit beyond every finite double gives 0.
fn round_double(d: f64, digits: i64) -> f64 {
    // Clamped so the cast cannot wrap: from ±309 places on, `10^digits`
    // is already inf or its reciprocal 0.
    let digits = digits.clamp(-400, 400) as i32;
    if digits >= 0 {
        let scale = 10f64.powi(digits);
        let scaled = d * scale;
        // From 2^52 up every double is an integer, so nothing is dropped.
        if scaled.is_nan() || scaled.abs() >= 2f64.powi(52) {
            return d;
        }
        return scaled.round() / scale;
    }
    let unit = 10f64.powi(-digits);
    let units = (d / unit).round();
    // Zero units of an infinite unit are 0, not NaN.
    if units == 0.0 {
        units
    } else {
        units * unit
    }
}

/// Evaluate an expression against a row. Aggregate calls must have been
/// rewritten away before this point (the executor does so); hitting one
/// here is a grouping error.
pub fn eval(expr: &Expr, ctx: &EvalContext<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => {
            let i = ctx.schema.resolve(qualifier.as_deref(), name)?;
            Ok(ctx.row[i].clone())
        }
        Expr::Param(i) => ctx.params.get(*i).cloned().ok_or_else(|| {
            SqlError::new(
                SqlErrorKind::InvalidParameter,
                format!("no value bound for parameter ?{}", i + 1),
            )
        }),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(checked_int(i.checked_neg())?)),
                    Value::Double(d) => Ok(Value::Double(-d)),
                    other => Err(type_error("-", &other)),
                },
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(type_error("NOT", &other)),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(p)) => {
                    let m = like_match(&s, &p);
                    Ok(Value::Bool(if *negated { !m } else { m }))
                }
                (a, b) => Err(SqlError::new(
                    SqlErrorKind::InvalidCast,
                    format!("LIKE requires strings, got {a} and {b}"),
                )),
            }
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, ctx)?;
                if w.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&w) == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let ge = matches!(
                v.sql_cmp(&lo),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            );
            let le = matches!(
                v.sql_cmp(&hi),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            let within = ge && le;
            Ok(Value::Bool(if *negated { !within } else { within }))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case { operand, branches, else_value } => {
            for (when, then) in branches {
                let hit = match operand {
                    Some(op) => {
                        let lhs = eval(op, ctx)?;
                        let rhs = eval(when, ctx)?;
                        lhs.sql_cmp(&rhs) == Some(std::cmp::Ordering::Equal)
                    }
                    None => matches!(eval(when, ctx)?, Value::Bool(true)),
                };
                if hit {
                    return eval(then, ctx);
                }
            }
            match else_value {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args, star, .. } => {
            if *star || crate::ast::is_aggregate_name(name) {
                return Err(SqlError::new(
                    SqlErrorKind::Grouping,
                    format!("aggregate function {name} is not allowed here"),
                ));
            }
            let values: Vec<Value> = args.iter().map(|a| eval(a, ctx)).collect::<Result<_, _>>()?;
            eval_scalar_function(name, &values)
        }
    }
}

fn type_error(op: &str, v: &Value) -> SqlError {
    SqlError::new(SqlErrorKind::InvalidCast, format!("operator {op} cannot be applied to {v}"))
}

fn eval_binary(
    op: BinaryOp,
    lhs: &Expr,
    rhs: &Expr,
    ctx: &EvalContext<'_>,
) -> Result<Value, SqlError> {
    // Kleene logic for AND/OR: short-circuit where the result is decided.
    match op {
        BinaryOp::And => {
            let l = eval(lhs, ctx)?;
            if let Value::Bool(false) = l {
                return Ok(Value::Bool(false));
            }
            let r = eval(rhs, ctx)?;
            return Ok(match (l, r) {
                (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (a, b) => {
                    return Err(type_error(
                        "AND",
                        if matches!(a, Value::Bool(_)) { &b } else { &a },
                    )
                    .clone())
                }
            });
        }
        BinaryOp::Or => {
            let l = eval(lhs, ctx)?;
            if let Value::Bool(true) = l {
                return Ok(Value::Bool(true));
            }
            let r = eval(rhs, ctx)?;
            return Ok(match (l, r) {
                (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (a, b) => {
                    return Err(
                        type_error("OR", if matches!(a, Value::Bool(_)) { &b } else { &a }).clone()
                    )
                }
            });
        }
        _ => {}
    }

    let l = eval(lhs, ctx)?;
    let r = eval(rhs, ctx)?;
    match op {
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            match l.sql_cmp(&r) {
                None => {
                    if l.is_null() || r.is_null() {
                        Ok(Value::Null)
                    } else {
                        Err(SqlError::new(
                            SqlErrorKind::InvalidCast,
                            format!("cannot compare {l} with {r}"),
                        ))
                    }
                }
                Some(ord) => {
                    use std::cmp::Ordering::*;
                    let b = match op {
                        BinaryOp::Eq => ord == Equal,
                        BinaryOp::Ne => ord != Equal,
                        BinaryOp::Lt => ord == Less,
                        BinaryOp::Le => ord != Greater,
                        BinaryOp::Gt => ord == Greater,
                        BinaryOp::Ge => ord != Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
                }
            }
        }
        BinaryOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::Str(format!("{}{}", a.to_display_string(), b.to_display_string()))),
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic is exact: it stays integral except division
            // by a non-divisor, and refuses a result outside i64. Doubles
            // contaminate.
            match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => {
                    let (a, b) = (*a, *b);
                    match op {
                        BinaryOp::Add => Ok(Value::Int(checked_int(a.checked_add(b))?)),
                        BinaryOp::Sub => Ok(Value::Int(checked_int(a.checked_sub(b))?)),
                        BinaryOp::Mul => Ok(Value::Int(checked_int(a.checked_mul(b))?)),
                        BinaryOp::Div => {
                            if b == 0 {
                                Err(SqlError::new(SqlErrorKind::DivisionByZero, "division by zero"))
                            } else if a.wrapping_rem(b) == 0 {
                                Ok(Value::Int(checked_int(a.checked_div(b))?))
                            } else {
                                Ok(Value::Double(a as f64 / b as f64))
                            }
                        }
                        BinaryOp::Mod => {
                            if b == 0 {
                                Err(SqlError::new(SqlErrorKind::DivisionByZero, "modulo by zero"))
                            } else {
                                // Exact: `i64::MIN % -1` wraps to its true value, 0.
                                Ok(Value::Int(a.wrapping_rem(b)))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                _ => {
                    let a = l.as_f64().ok_or_else(|| type_error("arithmetic", &l))?;
                    let b = r.as_f64().ok_or_else(|| type_error("arithmetic", &r))?;
                    match op {
                        BinaryOp::Add => Ok(Value::Double(a + b)),
                        BinaryOp::Sub => Ok(Value::Double(a - b)),
                        BinaryOp::Mul => Ok(Value::Double(a * b)),
                        BinaryOp::Div => {
                            if b == 0.0 {
                                Err(SqlError::new(SqlErrorKind::DivisionByZero, "division by zero"))
                            } else {
                                Ok(Value::Double(a / b))
                            }
                        }
                        BinaryOp::Mod => {
                            if b == 0.0 {
                                Err(SqlError::new(SqlErrorKind::DivisionByZero, "modulo by zero"))
                            } else {
                                Ok(Value::Double(a % b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single character).
///
/// The iterative two-pointer match: on a mismatch only the latest `%`
/// takes one more character, so the cost is O(text × pattern), not
/// exponential in the number of `%`s. Forgetting the earlier `%`s is
/// safe: any match that needs one of them to take more can let the
/// latest take those characters instead.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0, 0);
    // The latest `%` and the text position its run currently ends at.
    let mut backtrack: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some('%') => {
                backtrack = Some((pi, ti));
                pi += 1;
            }
            Some(&c) if c == '_' || c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => {
                let Some((star, end)) = backtrack.as_mut() else { return false };
                *end += 1;
                (pi, ti) = (*star + 1, *end);
            }
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

/// The scalar function library.
fn eval_scalar_function(name: &str, args: &[Value]) -> Result<Value, SqlError> {
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::new(
                SqlErrorKind::UndefinedFunction,
                format!("{name}() expects {n} argument(s), got {}", args.len()),
            ))
        }
    };
    let str_arg = |v: &Value| -> Result<Option<String>, SqlError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(other.to_display_string())),
        }
    };
    match name {
        "UPPER" => {
            arity(1)?;
            Ok(str_arg(&args[0])?.map(|s| Value::Str(s.to_uppercase())).unwrap_or(Value::Null))
        }
        "LOWER" => {
            arity(1)?;
            Ok(str_arg(&args[0])?.map(|s| Value::Str(s.to_lowercase())).unwrap_or(Value::Null))
        }
        "LENGTH" | "CHAR_LENGTH" => {
            arity(1)?;
            Ok(str_arg(&args[0])?
                .map(|s| Value::Int(s.chars().count() as i64))
                .unwrap_or(Value::Null))
        }
        "TRIM" => {
            arity(1)?;
            Ok(str_arg(&args[0])?.map(|s| Value::Str(s.trim().to_string())).unwrap_or(Value::Null))
        }
        "ABS" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(checked_int(i.checked_abs())?),
                Value::Double(d) => Value::Double(d.abs()),
                other => return Err(type_error("ABS", other)),
            })
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::new(
                    SqlErrorKind::UndefinedFunction,
                    "ROUND() expects 1 or 2 arguments",
                ));
            }
            let digits = if args.len() == 2 {
                match &args[1] {
                    Value::Int(i) => *i,
                    Value::Null => return Ok(Value::Null),
                    other => return Err(type_error("ROUND digits", other)),
                }
            } else {
                0
            };
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(round_int(*i, digits)?),
                Value::Double(d) => Value::Double(round_double(*d, digits)),
                other => return Err(type_error("ROUND", other)),
            })
        }
        "MOD" => {
            arity(2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Int(a), Value::Int(b)) => {
                    if *b == 0 {
                        Err(SqlError::new(SqlErrorKind::DivisionByZero, "modulo by zero"))
                    } else {
                        Ok(Value::Int(a.wrapping_rem(*b)))
                    }
                }
                (a, b) => Err(SqlError::new(
                    SqlErrorKind::InvalidCast,
                    format!("MOD requires integers, got {a} and {b}"),
                )),
            }
        }
        "COALESCE" => {
            if args.is_empty() {
                return Err(SqlError::new(
                    SqlErrorKind::UndefinedFunction,
                    "COALESCE() expects at least 1 argument",
                ));
            }
            Ok(args.iter().find(|v| !v.is_null()).cloned().unwrap_or(Value::Null))
        }
        "NULLIF" => {
            arity(2)?;
            if !args[0].is_null() && args[0].sql_cmp(&args[1]) == Some(std::cmp::Ordering::Equal) {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "SUBSTRING" | "SUBSTR" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(SqlError::new(
                    SqlErrorKind::UndefinedFunction,
                    "SUBSTRING() expects 2 or 3 arguments",
                ));
            }
            let Some(s) = str_arg(&args[0])? else { return Ok(Value::Null) };
            let start = match &args[1] {
                Value::Int(i) => *i,
                Value::Null => return Ok(Value::Null),
                other => return Err(type_error("SUBSTRING start", other)),
            };
            let len = if args.len() == 3 {
                match &args[2] {
                    Value::Int(i) => Some((*i).max(0)),
                    Value::Null => return Ok(Value::Null),
                    other => return Err(type_error("SUBSTRING length", other)),
                }
            } else {
                None
            };
            // SQL is 1-based, and the length counts from `start` even
            // where `start` lies before the first character.
            let begin = start.max(1);
            let chars = s.chars().skip((begin - 1) as usize);
            let out: String = match len {
                Some(l) => chars
                    .take(start.saturating_add(l).saturating_sub(begin).max(0) as usize)
                    .collect(),
                None => chars.collect(),
            };
            Ok(Value::Str(out))
        }
        other => Err(SqlError::new(
            SqlErrorKind::UndefinedFunction,
            format!("unknown function {other}()"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn eval_str(expr_sql: &str) -> Result<Value, SqlError> {
        // Parse through a SELECT to reuse the expression grammar.
        let stmt = parse_statement(&format!("SELECT {expr_sql}")).unwrap();
        let expr = match stmt {
            crate::ast::Stmt::Select(s) => match s.items.into_iter().next().unwrap() {
                crate::ast::SelectItem::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let schema = ExecSchema::default();
        let ctx = EvalContext::new(&schema, &[], &[]);
        eval(&expr, &ctx)
    }

    fn v(expr_sql: &str) -> Value {
        eval_str(expr_sql).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(v("1 + 2 * 3"), Value::Int(7));
        assert_eq!(v("7 / 2"), Value::Double(3.5));
        assert_eq!(v("8 / 2"), Value::Int(4));
        assert_eq!(v("7 % 3"), Value::Int(1));
        assert_eq!(v("-(2 + 3)"), Value::Int(-5));
        assert_eq!(v("1.5 + 1"), Value::Double(2.5));
        assert!(matches!(eval_str("1 / 0"), Err(e) if e.kind == SqlErrorKind::DivisionByZero));
    }

    /// Integer results outside `i64` are refused with 22003 instead of
    /// wrapping or panicking, so every build profile answers alike. The
    /// remainder of `i64::MIN` by -1 fits (it is 0), and doubles keep IEEE
    /// semantics.
    #[test]
    fn integer_overflow_is_refused() {
        let min = "(-9223372036854775807 - 1)";
        for sql in [
            "9223372036854775807 + 1".to_string(),
            format!("{min} - 1"),
            "9223372036854775807 * 2".to_string(),
            format!("{min} / -1"),
            format!("-{min}"),
            format!("ABS({min})"),
        ] {
            assert_eq!(eval_str(&sql).unwrap_err().sqlstate(), "22003", "{sql}");
        }
        assert_eq!(v(&format!("{min} % -1")), Value::Int(0));
        assert_eq!(v(&format!("MOD({min}, -1)")), Value::Int(0));
        assert_eq!(v(&format!("{min} / 1")), Value::Int(i64::MIN));
        assert_eq!(v("9223372036854775807 * 2.0"), Value::Double(i64::MAX as f64 * 2.0));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(v("NULL + 1"), Value::Null);
        assert_eq!(v("NULL = NULL"), Value::Null);
        assert_eq!(v("1 < NULL"), Value::Null);
        assert_eq!(v("NOT NULL"), Value::Null);
        assert_eq!(v("'a' || NULL"), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        assert_eq!(v("TRUE AND NULL"), Value::Null);
        assert_eq!(v("FALSE AND NULL"), Value::Bool(false));
        assert_eq!(v("TRUE OR NULL"), Value::Bool(true));
        assert_eq!(v("FALSE OR NULL"), Value::Null);
        assert_eq!(v("NOT TRUE"), Value::Bool(false));
    }

    #[test]
    fn comparisons() {
        assert_eq!(v("1 < 2"), Value::Bool(true));
        assert_eq!(v("2 <= 2"), Value::Bool(true));
        assert_eq!(v("'abc' < 'abd'"), Value::Bool(true));
        assert_eq!(v("1 = 1.0"), Value::Bool(true));
        assert_eq!(v("1 <> 2"), Value::Bool(true));
        assert!(eval_str("'a' < 1").is_err());
    }

    #[test]
    fn is_null_and_in() {
        assert_eq!(v("NULL IS NULL"), Value::Bool(true));
        assert_eq!(v("1 IS NOT NULL"), Value::Bool(true));
        assert_eq!(v("2 IN (1, 2, 3)"), Value::Bool(true));
        assert_eq!(v("4 IN (1, 2, 3)"), Value::Bool(false));
        assert_eq!(v("4 NOT IN (1, 2, 3)"), Value::Bool(true));
        // NULL member makes a non-match unknown.
        assert_eq!(v("4 IN (1, NULL)"), Value::Null);
        assert_eq!(v("1 IN (1, NULL)"), Value::Bool(true));
    }

    #[test]
    fn between() {
        assert_eq!(v("2 BETWEEN 1 AND 3"), Value::Bool(true));
        assert_eq!(v("0 BETWEEN 1 AND 3"), Value::Bool(false));
        assert_eq!(v("0 NOT BETWEEN 1 AND 3"), Value::Bool(true));
        assert_eq!(v("NULL BETWEEN 1 AND 3"), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert_eq!(v("'hello' LIKE 'h%'"), Value::Bool(true));
        assert_eq!(v("'hello' LIKE '%llo'"), Value::Bool(true));
        assert_eq!(v("'hello' LIKE 'h_llo'"), Value::Bool(true));
        assert_eq!(v("'hello' LIKE 'h_l%'"), Value::Bool(true));
        assert_eq!(v("'hello' LIKE 'x%'"), Value::Bool(false));
        assert_eq!(v("'hello' NOT LIKE 'x%'"), Value::Bool(true));
        assert_eq!(v("'' LIKE '%'"), Value::Bool(true));
        assert_eq!(v("'abc' LIKE 'abc'"), Value::Bool(true));
        assert_eq!(v("'abc' LIKE 'ab'"), Value::Bool(false));
    }

    /// The recursive matcher `like_match` replaced: exponential in the
    /// number of `%`s, but plainly the definition.
    fn like_reference(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|i| like_reference(&t[i..], &p[1..])),
            Some('_') => !t.is_empty() && like_reference(&t[1..], &p[1..]),
            Some(&c) => t.first() == Some(&c) && like_reference(&t[1..], &p[1..]),
        }
    }

    #[test]
    fn like_match_agrees_with_the_recursive_reference() {
        dais_util::prop::run_cases("like_match", 4000, 0x11CE, |g| {
            let text = g.string_from("ab", 0, 8);
            let pattern = g.string_from("ab%_", 0, 7);
            let t: Vec<char> = text.chars().collect();
            let p: Vec<char> = pattern.chars().collect();
            assert_eq!(
                like_match(&text, &pattern),
                like_reference(&t, &p),
                "{text:?} LIKE {pattern:?}"
            );
        });
    }

    /// Ten `%a` then `%b` against forty `a`s: the recursive matcher tried
    /// every split point of every `%` and took seconds; this is one short
    /// scan.
    #[test]
    fn many_wildcards_match_in_polynomial_time() {
        let db = crate::Database::new("wild");
        db.execute("CREATE TABLE t (s VARCHAR)", &[]).unwrap();
        db.execute("INSERT INTO t VALUES (?)", &[Value::Str("a".repeat(40))]).unwrap();
        let sql = format!("SELECT COUNT(*) FROM t WHERE s LIKE '{}%b'", "%a".repeat(10));
        let started = std::time::Instant::now();
        let result = db.execute(&sql, &[]).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
        assert_eq!(result.rowset().unwrap().rows[0][0], Value::Int(0));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(v("CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END"), Value::Str("y".into()));
        assert_eq!(v("CASE WHEN 1 > 2 THEN 'y' END"), Value::Null);
        assert_eq!(v("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"), Value::Str("two".into()));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(v("UPPER('abc')"), Value::Str("ABC".into()));
        assert_eq!(v("LOWER('ABC')"), Value::Str("abc".into()));
        assert_eq!(v("LENGTH('héllo')"), Value::Int(5));
        assert_eq!(v("ABS(-3)"), Value::Int(3));
        assert_eq!(v("ABS(-3.5)"), Value::Double(3.5));
        assert_eq!(v("COALESCE(NULL, NULL, 7)"), Value::Int(7));
        assert_eq!(v("COALESCE(NULL)"), Value::Null);
        assert_eq!(v("NULLIF(1, 1)"), Value::Null);
        assert_eq!(v("NULLIF(1, 2)"), Value::Int(1));
        assert_eq!(v("SUBSTRING('hello', 2, 3)"), Value::Str("ell".into()));
        assert_eq!(v("SUBSTR('hello', 3)"), Value::Str("llo".into()));
        assert_eq!(v("SUBSTRING('hello', 0, 2)"), Value::Str("h".into()));
        assert_eq!(v("TRIM('  x ')"), Value::Str("x".into()));
        assert_eq!(v("ROUND(2.567, 2)"), Value::Double(2.57));
        assert_eq!(v("MOD(7, 3)"), Value::Int(1));
        assert_eq!(v("UPPER(NULL)"), Value::Null);
        assert!(eval_str("NO_SUCH_FN(1)").is_err());
        assert!(eval_str("UPPER('a', 'b')").is_err());
    }

    #[test]
    fn round_to_a_unit_past_every_double_is_zero() {
        assert_eq!(v("ROUND(1.5, -400)"), Value::Double(0.0));
        assert_eq!(v("ROUND(1.5, -9223372036854775807)"), Value::Double(0.0));
    }

    #[test]
    fn round_to_more_places_than_a_double_has_leaves_it() {
        assert_eq!(v("ROUND(1.5, 400)"), Value::Double(1.5));
        // 4294967297 is 2^32 + 1, which a 32-bit cast would read as 1.
        assert_eq!(v("ROUND(1.55, 4294967297)"), Value::Double(1.55));
    }

    #[test]
    fn round_integers_to_negative_places_half_away_from_zero() {
        assert_eq!(v("ROUND(1234, -2)"), Value::Int(1200));
        assert_eq!(v("ROUND(1250, -2)"), Value::Int(1300));
        assert_eq!(v("ROUND(-1250, -2)"), Value::Int(-1300));
        assert_eq!(v("ROUND(1250, 2)"), Value::Int(1250));
        assert_eq!(v("ROUND(9223372036854775807, -40)"), Value::Int(0));
    }

    #[test]
    fn round_an_integer_out_of_range_is_refused() {
        let err = eval_str("ROUND(9223372036854775807, -1)").unwrap_err();
        assert_eq!((err.kind, err.kind.sqlstate()), (SqlErrorKind::NumericOutOfRange, "22003"));
    }

    #[test]
    fn concatenation() {
        assert_eq!(v("'a' || 'b' || 'c'"), Value::Str("abc".into()));
        assert_eq!(v("'n=' || 42"), Value::Str("n=42".into()));
    }

    #[test]
    fn column_resolution() {
        let schema = ExecSchema::new(vec![
            ExecColumn { qualifier: Some("t".into()), name: "a".into() },
            ExecColumn { qualifier: Some("u".into()), name: "a".into() },
            ExecColumn { qualifier: Some("t".into()), name: "b".into() },
        ]);
        assert!(schema.resolve(None, "a").is_err()); // ambiguous
        assert_eq!(schema.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(schema.resolve(Some("U"), "A").unwrap(), 1);
        assert_eq!(schema.resolve(None, "b").unwrap(), 2);
        assert!(schema.resolve(None, "zzz").is_err());
    }

    #[test]
    fn params_resolve() {
        let schema = ExecSchema::default();
        let params = vec![Value::Int(42)];
        let ctx = EvalContext::new(&schema, &[], &params);
        assert_eq!(eval(&Expr::Param(0), &ctx).unwrap(), Value::Int(42));
        assert!(eval(&Expr::Param(1), &ctx).is_err());
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        assert!(matches!(
            eval_str("COUNT(*)"),
            Err(e) if e.kind == SqlErrorKind::Grouping
        ));
    }
}
