//! SQL values and types.

use crate::error::{SqlError, SqlErrorKind};
use std::cmp::Ordering;
use std::fmt;

/// The column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    Boolean,
    Integer,
    Double,
    Varchar,
}

impl SqlType {
    /// SQL name of the type (as used in DDL and metadata documents).
    pub fn name(self) -> &'static str {
        match self {
            SqlType::Boolean => "BOOLEAN",
            SqlType::Integer => "INTEGER",
            SqlType::Double => "DOUBLE",
            SqlType::Varchar => "VARCHAR",
        }
    }

    /// Parse a DDL type name (with common synonyms).
    pub fn parse(name: &str) -> Option<SqlType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => SqlType::Boolean,
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" => SqlType::Integer,
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => SqlType::Double,
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" | "CHARACTER" => SqlType::Varchar,
            _ => return None,
        })
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type of a non-null value.
    pub fn sql_type(&self) -> Option<SqlType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(SqlType::Boolean),
            Value::Int(_) => Some(SqlType::Integer),
            Value::Double(_) => Some(SqlType::Double),
            Value::Str(_) => Some(SqlType::Varchar),
        }
    }

    /// Coerce for storage into a column of type `ty`. Integer widens to
    /// double; everything else must match exactly (strict typing keeps the
    /// engine predictable under property testing).
    pub fn coerce_to(self, ty: SqlType) -> Result<Value, SqlError> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), SqlType::Double) => Ok(Value::Double(i as f64)),
            (v, t) if v.sql_type() == Some(t) => Ok(v),
            (v, t) => Err(SqlError::new(
                SqlErrorKind::InvalidCast,
                format!("cannot store {} value into {} column", v.type_name(), t),
            )),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Double(_) => "DOUBLE",
            Value::Str(_) => "VARCHAR",
        }
    }

    /// Numeric view, for arithmetic. `None` for non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (three-valued
    /// logic) or NaN, or the types are incomparable. Otherwise the exact
    /// order of [`Value::total_cmp`].
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        // Numbers are one family; NULL and NaN compare with nothing.
        let family = |v: &Value| match v {
            Value::Int(_) => Some(SqlType::Double),
            Value::Double(d) if d.is_nan() => None,
            v => v.sql_type(),
        };
        (family(self)? == family(other)?).then(|| self.total_cmp(other))
    }

    /// The engine's one total order, for ORDER BY, index keys and the
    /// federation merge: `NULL < booleans < numbers < strings`. Numbers
    /// compare exactly across `Int`/`Double` — no promotion to `f64`,
    /// which rounds past 2^53 — and `-0.0` equals `0`; NaN sorts above
    /// every number (below, if negative). Unlike [`Value::sql_cmp`] this
    /// is total, so it can drive sorting.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(a), Value::Double(b)) => cmp_int_double(*a, *b),
            (Value::Double(a), Value::Int(b)) => cmp_int_double(*b, *a).reverse(),
            (Value::Double(a), Value::Double(b)) if *a == 0.0 && *b == 0.0 => Ordering::Equal,
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Grouping, DISTINCT and index key: NULLs group together, `1` and
    /// `1.0` are the same key, and keys order as [`Value::total_cmp`]
    /// orders the values.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Int(*i),
            // Integral doubles in i64 range (so -0.0 too) share the
            // integer's key; `i64::MAX as f64` is 2^63, outside the range.
            Value::Double(d)
                if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d < i64::MAX as f64 =>
            {
                GroupKey::Int(*d as i64)
            }
            Value::Double(d) => GroupKey::Double(d.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
        }
    }

    /// Render as SQL literal text (for display and WebRowSet encoding).
    pub fn to_display_string(&self) -> String {
        let mut out = String::new();
        self.write_display_into(&mut out);
        out
    }

    /// Append the display text to a reusable buffer — same output as
    /// [`Value::to_display_string`] without the per-value allocation.
    /// The streaming rowset writer formats every cell through one
    /// scratch buffer this way.
    pub fn write_display_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::Null => out.push_str("NULL"),
            Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    let _ = write!(out, "{:.1}", d);
                } else {
                    let _ = write!(out, "{d}");
                }
            }
            Value::Str(s) => out.push_str(s),
        }
    }

    /// Parse a value of a known type from its display text (WebRowSet
    /// decoding).
    pub fn parse_typed(text: &str, ty: SqlType) -> Result<Value, SqlError> {
        let bad =
            || SqlError::new(SqlErrorKind::InvalidCast, format!("'{text}' is not a valid {ty}"));
        Ok(match ty {
            SqlType::Boolean => match text.to_ascii_uppercase().as_str() {
                "TRUE" | "T" | "1" => Value::Bool(true),
                "FALSE" | "F" | "0" => Value::Bool(false),
                _ => return Err(bad()),
            },
            SqlType::Integer => Value::Int(text.parse().map_err(|_| bad())?),
            SqlType::Double => Value::Double(text.parse().map_err(|_| bad())?),
            SqlType::Varchar => Value::Str(text.to_string()),
        })
    }
}

/// Exact `i64` vs `f64` order (`i as f64` rounds past 2^53): the
/// double's integer part compares exactly with `i`, a fractional
/// remainder breaks a tie. NaN sorts above every integer, -NaN below.
fn cmp_int_double(i: i64, d: f64) -> Ordering {
    if d.is_nan() {
        return if d.is_sign_negative() { Ordering::Greater } else { Ordering::Less };
    }
    let floor = d.floor();
    // i64::MAX as f64 rounds up to 2^63, so `floor >= 2^63` exactly
    // captures "integer part above every i64"; -2^63 is representable.
    if floor >= i64::MAX as f64 {
        return Ordering::Less;
    }
    if floor < i64::MIN as f64 {
        return Ordering::Greater;
    }
    match i.cmp(&(floor as i64)) {
        Ordering::Equal if d > floor => Ordering::Less,
        ord => ord,
    }
}

/// Hashable, ordered key for grouping, duplicate elimination and
/// indexes. A double that is not an integer in `i64` range keeps its
/// bits; every other number is an `Int`, so equal numbers share a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Null,
    Bool(bool),
    Int(i64),
    Double(u64),
    Str(String),
}

/// The order of [`Value::total_cmp`] on the values the keys came from.
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Strings aside, a key's value is cheap to rebuild.
        let value = |k: &GroupKey| match k {
            GroupKey::Null => Value::Null,
            GroupKey::Bool(b) => Value::Bool(*b),
            GroupKey::Int(i) => Value::Int(*i),
            GroupKey::Double(bits) => Value::Double(f64::from_bits(*bits)),
            GroupKey::Str(_) => Value::Str(String::new()),
        };
        match (self, other) {
            (GroupKey::Str(a), GroupKey::Str(b)) => a.cmp(b),
            (a, b) => value(a).total_cmp(&value(b)),
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Structural equality for rowsets and tests: [`Value::sql_cmp`]
/// equality, except that NULL equals NULL (not SQL semantics).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        matches!((self, other), (Value::Null, Value::Null))
            || self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing_and_names() {
        assert_eq!(SqlType::parse("int"), Some(SqlType::Integer));
        assert_eq!(SqlType::parse("VARCHAR"), Some(SqlType::Varchar));
        assert_eq!(SqlType::parse("real"), Some(SqlType::Double));
        assert_eq!(SqlType::parse("bogus"), None);
        assert_eq!(SqlType::Integer.name(), "INTEGER");
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(Value::Int(3).coerce_to(SqlType::Double).unwrap(), Value::Double(3.0));
        assert!(Value::Str("x".into()).coerce_to(SqlType::Integer).is_err());
        assert!(Value::Double(1.5).coerce_to(SqlType::Integer).is_err());
        assert_eq!(Value::Null.coerce_to(SqlType::Integer).unwrap(), Value::Null);
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(2).sql_cmp(&Value::Double(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Str("b".into())), Some(Ordering::Less));
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn group_keys_unify_numerics() {
        assert_eq!(Value::Int(1).group_key(), Value::Double(1.0).group_key());
        assert_eq!(Value::Double(0.0).group_key(), Value::Double(-0.0).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Str("1".into()).group_key());
    }

    #[test]
    fn value_order_ranks_types_then_compares_within() {
        use Ordering::*;
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Less);
        assert_eq!(Value::Bool(true).total_cmp(&Value::Int(0)), Less);
        assert_eq!(Value::Int(2).total_cmp(&Value::Double(1.5)), Greater);
        assert_eq!(Value::Double(2.0).total_cmp(&Value::Str("a".into())), Less);
        assert_eq!(Value::Str("a".into()).total_cmp(&Value::Str("b".into())), Less);
        assert_eq!(Value::Double(-0.0).total_cmp(&Value::Double(0.0)), Equal);
    }

    /// Int/Double comparison is exact past 2^53, where `as f64` rounds:
    /// 2^53 + 1 becomes exactly 2^53 after promotion and would compare
    /// Equal. The keys order as the values do.
    #[test]
    fn int_double_comparison_is_exact_beyond_f64_precision() {
        use Ordering::*;
        let two53 = 1_i64 << 53;
        let big = two53 + 1;
        let cases = [
            (Value::Int(big), Value::Double(two53 as f64), Greater),
            (Value::Double(two53 as f64), Value::Int(big), Less),
            (Value::Int(big), Value::Double(big as f64 + 2.0), Less),
            (Value::Int(big), Value::Int(two53), Greater),
            (Value::Int(3), Value::Double(3.0), Equal),
            (Value::Int(3), Value::Double(3.5), Less),
            (Value::Int(4), Value::Double(3.5), Greater),
            (Value::Int(-4), Value::Double(-3.5), Less),
            (Value::Int(i64::MAX), Value::Double(f64::INFINITY), Less),
            (Value::Int(i64::MAX), Value::Double(i64::MAX as f64), Less),
            (Value::Int(i64::MIN), Value::Double(f64::NEG_INFINITY), Greater),
            (Value::Int(i64::MIN), Value::Double(i64::MIN as f64), Equal),
            (Value::Int(0), Value::Double(f64::NAN), Less),
            (Value::Int(0), Value::Double(-f64::NAN), Greater),
        ];
        for (a, b, ord) in cases {
            assert_eq!(a.total_cmp(&b), ord, "{a:?} vs {b:?}");
            assert_eq!(a.group_key().cmp(&b.group_key()), ord, "keys of {a:?} vs {b:?}");
            assert_eq!(a == b, ord == Equal, "{a:?} == {b:?}");
        }
        assert_eq!(Value::Int(big).sql_cmp(&Value::Int(two53)), Some(Greater));
        assert_eq!(Value::Int(0).sql_cmp(&Value::Double(f64::NAN)), None);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for (v, t) in [
            (Value::Int(42), SqlType::Integer),
            (Value::Double(2.5), SqlType::Double),
            (Value::Bool(true), SqlType::Boolean),
            (Value::Str("hi".into()), SqlType::Varchar),
        ] {
            let text = v.to_display_string();
            assert_eq!(Value::parse_typed(&text, t).unwrap(), v);
        }
        assert!(Value::parse_typed("xyz", SqlType::Integer).is_err());
    }

    #[test]
    fn double_display_keeps_decimal_point() {
        assert_eq!(Value::Double(3.0).to_display_string(), "3.0");
        assert_eq!(Value::Double(3.25).to_display_string(), "3.25");
    }
}
