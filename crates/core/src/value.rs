//! Domain-class values.
//!
//! D-classes "form a domain of values of a simple data type (e.g. integers,
//! strings, …) from which descriptive attributes of objects draw their
//! values" (paper §2). `Value` is the runtime representation of one such
//! value; `DType` is the static type a D-class declares.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The simple data type of a D-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float ("real" in the paper).
    Real,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Int => "integer",
            DType::Real => "real",
            DType::Str => "string",
            DType::Bool => "boolean",
        };
        f.write_str(s)
    }
}

/// A descriptive-attribute value. `Null` models an unset attribute, which
/// the paper uses pervasively (Null pattern components, Null-terminated
/// closure iteration).
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// Integer value.
    Int(i64),
    /// Real (float) value.
    Real(f64),
    /// String value. `Arc` so that cloning pattern rows is cheap.
    Str(Arc<str>),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The dynamic type of this value, if non-null.
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DType::Int),
            Value::Real(_) => Some(DType::Real),
            Value::Str(_) => Some(DType::Str),
            Value::Bool(_) => Some(DType::Bool),
        }
    }

    /// Whether this value is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value conforms to the declared type (`Null` conforms to
    /// every type, matching the paper's optional attributes).
    pub fn conforms_to(&self, ty: DType) -> bool {
        match self.dtype() {
            None => true,
            Some(t) => {
                t == ty || (t == DType::Int && ty == DType::Real) // widening
            }
        }
    }

    /// Numeric view for aggregation (ints widen to reals).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Three-valued comparison used by intra-class and inter-class
    /// predicates: `None` when either side is `Null` or the types are not
    /// comparable (the pattern is then dropped, never matched — SQL-style
    /// unknown).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Real(a), Value::Real(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Real(b)) => (*a as f64).partial_cmp(b),
            (Value::Real(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Whether two values are type-comparable (paper §3.2: inter-class
    /// comparisons require type-comparable attributes).
    pub fn type_comparable(&self, other: &Value) -> bool {
        match (self.dtype(), other.dtype()) {
            (None, _) | (_, None) => true,
            (Some(a), Some(b)) => {
                a == b
                    || matches!(
                        (a, b),
                        (DType::Int, DType::Real) | (DType::Real, DType::Int)
                    )
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Null != Null under predicate semantics, but structural equality
        // (used by tests / dedup) treats Null as equal to Null.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.compare(other) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_across_numeric_types() {
        assert_eq!(Value::Int(3).compare(&Value::Real(3.0)), Some(Ordering::Equal));
        assert_eq!(Value::Real(2.5).compare(&Value::Int(3)), Some(Ordering::Less));
        assert_eq!(Value::Int(4).compare(&Value::Int(3)), Some(Ordering::Greater));
    }

    #[test]
    fn null_is_incomparable_in_predicates() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
        // but structurally equal to itself
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn string_and_bool_comparisons() {
        assert_eq!(
            Value::str("abc").compare(&Value::str("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Bool(true).compare(&Value::Bool(false)),
            Some(Ordering::Greater)
        );
        // cross-type comparisons are undefined
        assert_eq!(Value::str("1").compare(&Value::Int(1)), None);
    }

    #[test]
    fn conformance_and_widening() {
        assert!(Value::Int(1).conforms_to(DType::Int));
        assert!(Value::Int(1).conforms_to(DType::Real));
        assert!(!Value::Real(1.0).conforms_to(DType::Int));
        assert!(Value::Null.conforms_to(DType::Str));
    }

    #[test]
    fn type_comparability() {
        assert!(Value::Int(1).type_comparable(&Value::Real(2.0)));
        assert!(!Value::str("x").type_comparable(&Value::Int(1)));
        assert!(Value::Null.type_comparable(&Value::Int(1)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "Null");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("owned")), Value::str("owned"));
    }
}
