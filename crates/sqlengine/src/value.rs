//! SQL values and data types.

use std::cmp::Ordering;
use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`FLOAT`, `REAL`, `DOUBLE`).
    Float,
    /// UTF-8 string (`TEXT`, `VARCHAR`, `CHAR`).
    Text,
    /// Boolean (`BOOL`, `BOOLEAN`).
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Numeric view (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Truthiness for WHERE clauses: only `true` passes; NULL and false
    /// both fail (SQL three-valued logic collapsed at the filter boundary).
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering for ORDER BY / DISTINCT / set operations: NULLs sort
    /// first, then by type tag, then by value.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (x, y) = (a.as_f64().unwrap_or(f64::NAN), b.as_f64().unwrap_or(f64::NAN));
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Equality for grouping and set semantics (NULL equals NULL here, as
    /// GROUP BY requires).
    pub fn group_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// A hash consistent with [`Value::group_eq`]: two values it calls
    /// equal hash alike. Numbers hash by their `f64` bits, as `group_eq`
    /// compares them (so `1` and `1.0` agree, `-0.0` and `0.0` do not),
    /// text by FNV-1a, NULL and booleans by tag.
    pub(crate) fn group_hash(&self) -> u64 {
        match self {
            Value::Null => 0,
            Value::Bool(b) => 1 + u64::from(*b),
            Value::Int(i) => (*i as f64).to_bits(),
            Value::Float(f) => f.to_bits(),
            Value::Str(s) => llmdm_rt::hash::fnv1a_str(s),
        }
    }

    /// ORDER BY comparison: NULLS LAST when ascending (so a descending
    /// sort puts them first), non-NULL values by [`Value::total_cmp`].
    ///
    /// This is the one ordering both the direct executor's `sort_output`
    /// and the planner's Sort operator use, keeping ORDER BY consistent
    /// with itself while WHERE keeps [`Value::sql_cmp`]'s NULL
    /// propagation.
    pub fn order_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.total_cmp(other),
        }
    }

    /// Exact representational equality: same variant, same bits (floats
    /// compared via `to_bits`, so `1 == 1.0` is *false* here). Used by
    /// differential tests that require byte-identical results, where the
    /// intentionally-loose `PartialEq` (grouping semantics) would hide
    /// Int/Float drift.
    pub fn bit_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

/// Display renders SQL literal syntax (strings quoted).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// `PartialEq` follows grouping semantics (NULL == NULL, 1 == 1.0) so that
/// result-set comparison "same results" matches user intuition.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_compare() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(1.5)), Some(Ordering::Less));
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals =
            [Value::Int(2), Value::Null, Value::Str("a".into()), Value::Bool(false)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
    }

    #[test]
    fn group_eq_null_equals_null() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(Value::Int(3).group_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).group_eq(&Value::Str("3".into())));
    }

    #[test]
    fn group_eq_values_hash_alike() {
        let big = 1i64 << 53;
        let values = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Str("a".into()),
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Str(String::new()),
            Value::Null,
            Value::Null,
            Value::Bool(true),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let mut equal_pairs = 0;
        for a in &values {
            for b in &values {
                if a.group_eq(b) {
                    assert_eq!(a.group_hash(), b.group_hash(), "{a:?} and {b:?}");
                    equal_pairs += 1;
                }
            }
        }
        // 1 ~ 1.0; 2^53 ~ 2^53+1 ~ 2^53.0 (one f64); 0 ~ 0.0 but not
        // -0.0; each NaN only itself; the repeated text, NULL and TRUE.
        assert!(Value::Int(big).group_eq(&Value::Int(big + 1)));
        assert!(!Value::Float(-0.0).group_eq(&Value::Float(0.0)));
        assert_eq!(equal_pairs, values.len() + 2 + 6 + 2 + 2 + 2 + 2);
    }

    #[test]
    fn order_cmp_nulls_last_ascending() {
        let mut vals = [Value::Null, Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.order_cmp(b));
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[1], Value::Int(2));
        assert!(vals[2].is_null() && vals[3].is_null());
        // Reversed (DESC) puts NULLs first.
        vals.sort_by(|a, b| a.order_cmp(b).reverse());
        assert!(vals[0].is_null() && vals[1].is_null());
        assert_eq!(vals[2], Value::Int(2));
    }

    #[test]
    fn order_cmp_mixed_numeric() {
        assert_eq!(Value::Int(1).order_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).order_cmp(&Value::Int(2)), Ordering::Equal);
        assert_eq!(Value::Int(3).order_cmp(&Value::Float(2.5)), Ordering::Greater);
    }

    #[test]
    fn bit_eq_is_strict() {
        assert!(Value::Int(1).bit_eq(&Value::Int(1)));
        assert!(!Value::Int(1).bit_eq(&Value::Float(1.0)), "group_eq would say true");
        assert!(Value::Null.bit_eq(&Value::Null));
        assert!(!Value::Null.bit_eq(&Value::Int(0)));
        assert!(Value::Float(f64::NAN).bit_eq(&Value::Float(f64::NAN)));
    }

    #[test]
    fn display_literals() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }
}
