//! Relation schemas: ordered, named columns.

use crate::error::{RelError, RelResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An ordered list of column names.
///
/// Schemas are cheap to clone (`Arc` backed) and compared by column names in
/// order. Column lookup by name is linear, which is appropriate for the small
/// arities (≤ ~20 columns) of the MMQJP witness and template relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    columns: Arc<[String]>,
}

impl Schema {
    /// Create a schema from column names.
    ///
    /// # Panics
    /// Panics if two columns share a name (schemas are small and constructed
    /// by the engine; a duplicate is a programming error).
    pub fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cols: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in cols.iter().enumerate() {
            assert!(
                !cols[..i].contains(c),
                "duplicate column name `{c}` in schema"
            );
        }
        Schema {
            columns: cols.into(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Index of the column with the given name, or an error listing the
    /// available columns.
    pub fn require(&self, name: &str) -> RelResult<usize> {
        self.index_of(name).ok_or_else(|| RelError::UnknownColumn {
            column: name.to_owned(),
            available: self.columns.to_vec(),
        })
    }

    /// `true` if a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Project a subset of columns (by name) into a new schema, preserving
    /// the order given.
    pub fn project(&self, names: &[&str]) -> RelResult<Schema> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            self.require(n)?;
            cols.push((*n).to_owned());
        }
        Ok(Schema {
            columns: cols.into(),
        })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.columns.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let s = Schema::new(["docid", "node", "strVal"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns()[1], "node");
        assert_eq!(s.index_of("strVal"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.contains("docid"));
        assert!(!s.contains("x"));
        assert_eq!(s.to_string(), "(docid, node, strVal)");
    }

    #[test]
    fn require_error_lists_columns() {
        let s = Schema::new(["a", "b"]);
        let err = s.require("c").unwrap_err();
        match err {
            RelError::UnknownColumn { column, available } => {
                assert_eq!(column, "c");
                assert_eq!(available, vec!["a".to_string(), "b".to_string()]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(["a", "a"]);
    }

    #[test]
    fn project_preserves_order() {
        let s = Schema::new(["a", "b", "c"]);
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.columns(), &["c", "a"]);
        assert!(s.project(&["missing"]).is_err());
    }

    #[test]
    fn equality_by_names() {
        assert_eq!(Schema::new(["a", "b"]), Schema::new(["a", "b"]));
        assert_ne!(Schema::new(["a", "b"]), Schema::new(["b", "a"]));
    }
}
