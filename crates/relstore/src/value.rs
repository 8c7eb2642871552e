//! Typed values.
//!
//! The paper's attributes are tuples/sets of *strings*; we additionally
//! support integers (for prices, counts) and SQL-style `NULL` (needed by the
//! outer-union query merging of §5.4, which pads non-matching columns).

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// The type of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Str,
    Int,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Str => write!(f, "string"),
            ValueType::Int => write!(f, "int"),
        }
    }
}

/// A relational value. Strings are reference-counted so that rows can be
/// duplicated across temporary tables (the mediator ships many copies of the
/// same intermediate values) without re-allocating the payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares equal to itself here (we need totality for
    /// hashing/sorting); the executor's join predicates explicitly skip
    /// nulls, preserving SQL join semantics where it matters.
    Null,
    Int(i64),
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// True for SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Renders the value as a string — the coercion used when a relational
    /// value becomes XML PCDATA.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        self.write_text(&mut text);
        text
    }

    /// Appends [`Value::to_text`] to `out`, without the intermediate string.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Str(s) => out.push_str(s),
        }
    }

    /// The runtime type, or `None` for NULL.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// Approximate width in bytes, used by [`crate::stats::TableStats`] to
    /// size intermediate results for the transfer-cost model (§5.2).
    pub fn width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Value::str("abc");
        assert_eq!(s.as_str(), Some("abc"));
        assert_eq!(s.as_int(), None);
        assert_eq!(s.value_type(), Some(ValueType::Str));
        let i = Value::int(42);
        assert_eq!(i.as_int(), Some(42));
        assert_eq!(i.to_text(), "42");
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.value_type(), None);
    }

    #[test]
    fn equality_and_ordering() {
        assert_eq!(Value::str("a"), Value::str("a"));
        assert_ne!(Value::str("a"), Value::str("b"));
        assert_ne!(Value::str("1"), Value::int(1));
        assert!(Value::Null < Value::int(0));
        assert!(Value::int(5) < Value::str(""));
    }

    #[test]
    fn widths() {
        assert_eq!(Value::str("abcd").width(), 4);
        assert_eq!(Value::int(7).width(), 8);
        assert_eq!(Value::Null.width(), 1);
    }

    #[test]
    fn cheap_clone_shares_payload() {
        let a = Value::str("shared");
        let b = a.clone();
        if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
            assert!(Arc::ptr_eq(x, y));
        } else {
            panic!();
        }
    }
}
