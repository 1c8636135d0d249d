//! SQL values and types.

use crate::error::{SqlError, SqlErrorKind};
use std::borrow::Cow;
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
    /// scratch buffer this way. Integers and short decimals are formatted
    /// without `format!`; the bytes are exactly those of the `{}` form
    /// (`{:.1}` for an integral double below 1e15).
    pub fn write_display_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("NULL"),
            Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                out.push_str(decimal_digits(i.unsigned_abs(), &mut [0; 20]));
            }
            Value::Double(d) => write_double(*d, out),
            Value::Str(s) => out.push_str(s),
        }
    }

    /// Parse a value of a known type from its display text (WebRowSet
    /// decoding). Takes the cell text as the decoder holds it, so an
    /// owned (entity-decoded) string becomes a `Str` without a copy.
    pub fn parse_typed(text: Cow<'_, str>, ty: SqlType) -> Result<Value, SqlError> {
        let bad =
            || SqlError::new(SqlErrorKind::InvalidCast, format!("'{text}' is not a valid {ty}"));
        let is_any = |spellings: [&str; 3]| spellings.iter().any(|s| text.eq_ignore_ascii_case(s));
        Ok(match ty {
            SqlType::Boolean if is_any(["TRUE", "T", "1"]) => Value::Bool(true),
            SqlType::Boolean if is_any(["FALSE", "F", "0"]) => Value::Bool(false),
            SqlType::Boolean => return Err(bad()),
            SqlType::Integer => Value::Int(text.parse().map_err(|_| bad())?),
            SqlType::Double => Value::Double(text.parse().map_err(|_| bad())?),
            SqlType::Varchar => Value::Str(text.into_owned()),
        })
    }
}

/// The decimal digits of `n`, written right-aligned into `buf` (20
/// bytes hold `u64::MAX`). This is the integer formatting of
/// [`Value::write_display_into`], for callers that need a `&str` without
/// a `format!` allocation.
pub fn decimal_digits(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Every byte written is an ASCII digit: the conversion cannot fail.
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// `10^k` for the scales [`write_double`] tries; each is exact in `f64`.
const DECIMAL_SCALES: [f64; 5] = [1.0, 10.0, 100.0, 1e3, 1e4];

/// Append `d` exactly as `{d}` (or `{d:.1}` when integral and below
/// 1e15) would, without `format!` for short decimals.
///
/// If `d·10^k` is an integer `m` with `|m| < 10^15` for some `k ≤ 4`, and
/// `m / 10^k` rounds back to `d` bit for bit, then the decimal `m·10^-k`
/// has at most 15 significant digits and round-trips. Distinct decimals
/// of at most 15 digits never round to the same double, so it is the
/// shortest round-tripping decimal, which is what `Display` prints.
/// Every other value — NaN, ±inf, -0.0 (its bits differ from `0 / 1`),
/// magnitudes from 1e15 up, long mantissas, subnormals — takes the
/// `format!` forms.
fn write_double(d: f64, out: &mut String) {
    for (k, scale) in DECIMAL_SCALES.iter().enumerate() {
        let scaled = d * scale;
        if scaled.fract() == 0.0 && scaled.abs() < 1e15 {
            let m = scaled as i64;
            if (m as f64 / scale).to_bits() == d.to_bits() {
                write_scaled_decimal(m, k, out);
                return;
            }
        }
    }
    use std::fmt::Write as _;
    if d.fract() == 0.0 && d.abs() < 1e15 {
        let _ = write!(out, "{d:.1}");
    } else {
        let _ = write!(out, "{d}");
    }
}

/// Append `m·10^-k` in positional notation: `m.0` when `k = 0`, and
/// otherwise without trailing zeros (a scaled product can land on an
/// integer only at a larger `k` than the decimal needs, `0.29·1000`).
fn write_scaled_decimal(mut m: i64, mut k: usize, out: &mut String) {
    while k > 0 && m % 10 == 0 {
        m /= 10;
        k -= 1;
    }
    if m < 0 {
        out.push('-');
    }
    let mut buf = [0; 20];
    let digits = decimal_digits(m.unsigned_abs(), &mut buf);
    if k == 0 {
        out.push_str(digits);
        out.push_str(".0");
    } else if digits.len() > k {
        let (whole, fraction) = digits.split_at(digits.len() - k);
        out.push_str(whole);
        out.push('.');
        out.push_str(fraction);
    } else {
        out.push_str("0.");
        for _ in digits.len()..k {
            out.push('0');
        }
        out.push_str(digits);
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
pub(crate) mod tests {
    use super::*;
    use dais_util::prop::{run_cases, Gen};

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
            assert_eq!(Value::parse_typed(text.into(), t).unwrap(), v);
        }
        assert!(Value::parse_typed("xyz".into(), SqlType::Integer).is_err());
        for (text, b) in [("true", true), ("T", true), ("1", true), ("False", false), ("f", false)]
        {
            assert_eq!(Value::parse_typed(text.into(), SqlType::Boolean).unwrap(), Value::Bool(b));
        }
        assert!(Value::parse_typed("yes".into(), SqlType::Boolean).is_err());
    }

    #[test]
    fn double_display_keeps_decimal_point() {
        assert_eq!(Value::Double(3.0).to_display_string(), "3.0");
        assert_eq!(Value::Double(3.25).to_display_string(), "3.25");
    }

    /// The `format!` forms `write_display_into` replaced, kept as the
    /// reference it is held to.
    fn reference_display(v: &Value) -> String {
        match v {
            Value::Int(i) => format!("{i}"),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 1e15 => format!("{d:.1}"),
            Value::Double(d) => format!("{d}"),
            other => other.to_display_string(),
        }
    }

    /// Doubles from the families where short-decimal formatting can go
    /// wrong: quarters, cents and ten-thousandths (products that land on
    /// an integer only at a larger scale), integers either side of 1e15,
    /// 17-digit values whose scaled product rounds to an integer, and
    /// arbitrary bit patterns (subnormals, NaNs and infinities included).
    pub(crate) fn arb_double(g: &mut Gen) -> f64 {
        let k = g.i64_any() % 4_000_000;
        match g.usize_in(0, 7) {
            0 => k as f64 / 4.0,
            1 => k as f64 / 100.0,
            2 => k as f64 / 1e4,
            3 => (1e15 + (k % 2048) as f64) * if g.bool_any() { 1.0 } else { -1.0 },
            4 => g.f64_in(-1e11, 1e11),
            5 => f64::from_bits(g.u64_in(0, u64::MAX)),
            _ => *g.pick(&LISTED_DOUBLES),
        }
    }

    const TWO_53: f64 = 9_007_199_254_740_992.0;

    const LISTED_DOUBLES: [f64; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.29,
        0.1 + 0.2,
        999_999_999_999_999.0,
        1e15,
        TWO_53,
        -TWO_53,
        TWO_53 + 2.0,
        -(TWO_53 + 2.0),
        f64::from_bits(1),
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn number_formatting_is_byte_identical_to_format() {
        let listed_ints = [i64::MIN, i64::MAX, 0, 1, -1, 9, 10, -10];
        let listed =
            listed_ints.map(Value::Int).into_iter().chain(LISTED_DOUBLES.map(Value::Double));
        for v in listed {
            assert_eq!(v.to_display_string(), reference_display(&v), "{v:?}");
        }
        // 2^53 + 1 is not a double; as an integer it must still print exactly.
        let odd = Value::Int((1 << 53) + 1);
        assert_eq!(odd.to_display_string(), "9007199254740993");
        run_cases("number_formatting", 4096, 0x1E15, |g| {
            let v =
                if g.bool_any() { Value::Int(g.i64_any()) } else { Value::Double(arb_double(g)) };
            let mut out = String::from("prefix:");
            v.write_display_into(&mut out);
            assert_eq!(out, format!("prefix:{}", reference_display(&v)), "{v:?}");
        });
    }
}
