//! Scalar values stored in relations.

use crate::interner::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A scalar value in a relation.
///
/// The MMQJP witness relations store three kinds of scalars:
///
/// * node ids and document ids and timestamps — represented as [`Value::Int`];
/// * variable names and interned string values — represented as
///   [`Value::Sym`] (a [`Symbol`] from a [`StringInterner`]);
/// * an explicit [`Value::Null`] for padded columns (templates whose queries
///   bind fewer meta-variables than the widest member).
///
/// Equality and hashing are derived, so a value's kind is part of it: an
/// `Int(k)` never equals a `Sym` whose raw id is `k`. No variant holds heap
/// data, so a value is 16 bytes and `Copy`.
///
/// [`StringInterner`]: crate::StringInterner
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Value {
    /// Absent / padded value. Joins never match on `Null` against `Null`
    /// unless both sides are literally `Null` (SQL semantics are *not*
    /// emulated; `Null == Null` is true for hashing purposes, which is what
    /// the padded template columns require).
    #[default]
    Null,
    /// 64-bit signed integer (node ids, document ids, timestamps, window
    /// lengths).
    Int(i64),
    /// Interned symbol (variable names, interned string values).
    Sym(Symbol),
}

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The symbol payload, if this is a [`Value::Sym`].
    pub fn as_sym(&self) -> Option<Symbol> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym(s) => write!(f, "#{}", s.raw()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::StringInterner;

    #[test]
    fn constructors_and_accessors() {
        let s = StringInterner::new().intern("x");
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Sym(s).as_sym(), Some(s));
        assert_eq!(Value::Sym(s).as_int(), None);
        assert_eq!(Value::Int(5).as_sym(), None);
        assert_eq!(Value::default(), Value::Null);
    }

    #[test]
    fn from_impls() {
        let s = StringInterner::new().intern("a");
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3u64), Value::Int(3));
        assert_eq!(Value::from(s), Value::Sym(s));
    }

    #[test]
    fn a_value_is_sixteen_bytes() {
        // A tag and an `i64` payload: no variant may widen the cell, since
        // every relation column, join key and window bucket stores values
        // inline.
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn equality_and_ordering() {
        let interner = StringInterner::new();
        let (a, b) = (interner.intern("a"), interner.intern("b"));
        assert_eq!(Value::Int(1), Value::Int(1));
        assert_ne!(Value::Int(1), Value::Int(2));
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Sym(a), Value::Sym(a));
        assert!(Value::Sym(a) < Value::Sym(b));
        // The kind is part of the value, payloads aside.
        assert_ne!(Value::Int(i64::from(a.raw())), Value::Sym(a));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Sym(a));
        // Null equals Null (used for padded template columns)
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn display_formats() {
        let interner = StringInterner::new();
        let s = interner.intern("v");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Sym(s).to_string(), format!("#{}", s.raw()));
    }
}
