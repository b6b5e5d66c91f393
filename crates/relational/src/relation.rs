//! Relations: a schema plus a bag of tuples, stored column-major.
//!
//! Storage is **columnar**: one contiguous `Vec<Value>` per column. The MMQJP
//! hot paths (selection filters, join-key hashing, head projection) each
//! touch a handful of columns of relations that are hundreds to thousands of
//! rows long, so laying values out per column turns those passes into tight
//! loops over contiguous memory instead of pointer-chasing across row `Vec`s.
//! Row-oriented access remains available through [`RowRef`], a cheap
//! `(columns, row-index)` view that indexes like a slice.

use crate::error::{RelError, RelResult};
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::ops::{Index, Range};

/// A tuple is an owned row of values, positionally matching a [`Schema`].
/// Relations store values column-major; `Tuple` is the exchange format for
/// inserting and extracting whole rows.
pub type Tuple = Vec<Value>;

/// A borrowed view of one row of a columnar [`Relation`].
///
/// Indexes like a slice (`row[2]` is the value in column 2) and compares by
/// value, so most row-oriented code reads the same as it would over an owned
/// [`Tuple`]. Copy-cheap: two words.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    cols: &'a [Vec<Value>],
    row: usize,
}

impl<'a> RowRef<'a> {
    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` for zero-column rows.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Iterate over the row's values in column order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Value> {
        let row = self.row;
        self.cols.iter().map(move |c| &c[row])
    }

    /// Copy the row into an owned [`Tuple`].
    pub fn to_vec(&self) -> Tuple {
        self.iter().copied().collect()
    }
}

impl Index<usize> for RowRef<'_> {
    type Output = Value;

    #[inline]
    fn index(&self, i: usize) -> &Value {
        &self.cols[i][self.row]
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.len() == other.cols.len() && self.iter().eq(other.iter())
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<[Value]> for RowRef<'_> {
    fn eq(&self, other: &[Value]) -> bool {
        self.cols.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Tuple> for RowRef<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        self == other.as_slice()
    }
}

/// Iterator over the rows of a [`Relation`], yielding [`RowRef`]s.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    cols: &'a [Vec<Value>],
    row: usize,
    len: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.row < self.len {
            let r = RowRef {
                cols: self.cols,
                row: self.row,
            };
            self.row += 1;
            Some(r)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len - self.row;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// An in-memory relation (bag semantics), stored column-major.
///
/// Relations are the unit of data exchanged between the XPath Evaluator and
/// the Join Processor: the witness relations `RbinW`, `RdocW`, `RdocTSW`, the
/// join state `Rbin`, `Rdoc`, `RdocTS`, the per-template `RT` relations and
/// all intermediate join results are `Relation`s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Vec<Value>>,
    len: usize,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        let cols = vec![Vec::new(); schema.arity()];
        Relation {
            schema,
            cols,
            len: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous values of the column at `idx`, in row order. This is
    /// the columnar fast path: selection and hashing loop over these slices.
    #[inline]
    pub fn col_values(&self, idx: usize) -> &[Value] {
        &self.cols[idx]
    }

    /// A borrowed view of the row at `index`.
    ///
    /// # Panics
    /// Panics when `index >= len` (on first column access for zero-arity
    /// relations).
    #[inline]
    pub fn row(&self, index: usize) -> RowRef<'_> {
        debug_assert!(index < self.len);
        RowRef {
            cols: &self.cols,
            row: index,
        }
    }

    /// Iterate over rows.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            cols: &self.cols,
            row: 0,
            len: self.len,
        }
    }

    /// Append a tuple, validating its arity against the schema.
    pub fn push_values(&mut self, tuple: Tuple) -> RelResult<()> {
        if tuple.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                context: format!("relation {}", self.schema),
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        for (col, v) in self.cols.iter_mut().zip(tuple) {
            col.push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Append a fixed-width row, validating its arity against the schema.
    /// The row lives on the stack: each value moves straight into its
    /// column, with no per-row heap [`Tuple`].
    pub fn push_array<const N: usize>(&mut self, row: [Value; N]) -> RelResult<()> {
        if N != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                context: format!("relation {}", self.schema),
                expected: self.schema.arity(),
                found: N,
            });
        }
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
        Ok(())
    }

    /// Append rows `range` of `other` (same schema), one slice copy per
    /// column.
    pub fn extend_from_range(&mut self, other: &Relation, range: Range<usize>) -> RelResult<()> {
        self.check_same_schema(other, "extend")?;
        other.check_range(&range)?;
        for (col, ocol) in self.cols.iter_mut().zip(&other.cols) {
            col.extend_from_slice(&ocol[range.clone()]);
        }
        self.len += range.len();
        Ok(())
    }

    /// `Ok` when `range` lies within this relation's rows.
    pub(crate) fn check_range(&self, range: &Range<usize>) -> RelResult<()> {
        if range.start > range.end || range.end > self.len {
            return Err(RelError::RowOutOfRange {
                context: format!("rows {range:?} of {}", self.schema),
                row: range.end.max(range.start),
                rows: self.len,
            });
        }
        Ok(())
    }

    /// Append the rows of `other` (same schema) at the given positions, in
    /// the order given: a column-wise gather.
    pub fn extend_gathered(&mut self, other: &Relation, rows: &[u32]) -> RelResult<()> {
        self.check_same_schema(other, "gather into")?;
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= other.len) {
            return Err(RelError::RowOutOfRange {
                context: format!("gather from {}", other.schema),
                row: bad as usize,
                rows: other.len,
            });
        }
        for (col, ocol) in self.cols.iter_mut().zip(&other.cols) {
            col.extend(rows.iter().map(|&r| ocol[r as usize]));
        }
        self.len += rows.len();
        Ok(())
    }

    fn check_same_schema(&self, other: &Relation, op: &str) -> RelResult<()> {
        if self.schema != other.schema {
            return Err(RelError::ArityMismatch {
                context: format!("{op} {} from {}", self.schema, other.schema),
                expected: self.schema.arity(),
                found: other.schema.arity(),
            });
        }
        Ok(())
    }

    /// Append a borrowed row of matching arity.
    fn push_row(&mut self, row: RowRef<'_>) {
        debug_assert_eq!(row.len(), self.schema.arity());
        for (col, v) in self.cols.iter_mut().zip(row.iter()) {
            col.push(*v);
        }
        self.len += 1;
    }

    /// Mutable access to the raw column vectors for in-crate operators that
    /// append column-wise. Callers must keep the columns equal-length and
    /// call [`set_len`](Self::set_len) afterwards.
    pub(crate) fn cols_mut(&mut self) -> &mut [Vec<Value>] {
        &mut self.cols
    }

    /// Restore the row-count invariant after direct column writes through
    /// [`cols_mut`](Self::cols_mut).
    pub(crate) fn set_len(&mut self, len: usize) {
        debug_assert!(self.cols.iter().all(|c| c.len() == len));
        self.len = len;
    }

    /// Append all tuples from `other`. The schemas must be equal.
    pub fn extend_from(&mut self, other: &Relation) -> RelResult<()> {
        self.check_same_schema(other, "extend")?;
        for (col, ocol) in self.cols.iter_mut().zip(&other.cols) {
            col.extend_from_slice(ocol);
        }
        self.len += other.len;
        Ok(())
    }

    /// Remove all tuples, keeping the schema.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.len = 0;
    }

    /// Remove the row at `index`; later rows move up one place, so the
    /// survivors keep their order.
    pub fn remove_row(&mut self, index: usize) -> RelResult<()> {
        self.check_range(&(index..index + 1))?;
        for col in &mut self.cols {
            col.remove(index);
        }
        self.len -= 1;
        Ok(())
    }

    /// Produce a new relation with duplicate tuples removed (set semantics).
    pub fn distinct(&self) -> Relation {
        let mut seen: HashSet<Vec<&Value>> = HashSet::with_capacity(self.len);
        let mut out = Relation::new(self.schema.clone());
        for i in 0..self.len {
            let key: Vec<&Value> = self.cols.iter().map(|c| &c[i]).collect();
            if seen.insert(key) {
                out.push_row(self.row(i));
            }
        }
        out
    }

    /// Sort tuples lexicographically (useful for deterministic test output).
    pub fn sorted(&self) -> Relation {
        let mut idx: Vec<usize> = (0..self.len).collect();
        idx.sort_by(|&a, &b| {
            self.cols
                .iter()
                .map(|c| &c[a])
                .cmp(self.cols.iter().map(|c| &c[b]))
        });
        let cols = self
            .cols
            .iter()
            .map(|c| idx.iter().map(|&i| c[i]).collect())
            .collect();
        Relation {
            schema: self.schema.clone(),
            cols,
            len: self.len,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in self.iter() {
            let row: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::StringInterner;

    /// The symbol values `Danny Ayers`, `Andrew Watt` and `Eve`.
    fn names() -> [Value; 3] {
        let interner = StringInterner::new();
        ["Danny Ayers", "Andrew Watt", "Eve"].map(|n| Value::Sym(interner.intern(n)))
    }

    fn sample() -> Relation {
        let [danny, andrew, _] = names();
        let mut r = Relation::new(Schema::new(["docid", "node", "strVal"]));
        r.push_values(vec![Value::Int(1), Value::Int(2), danny])
            .unwrap();
        r.push_values(vec![Value::Int(1), Value::Int(3), andrew])
            .unwrap();
        r
    }

    #[test]
    fn push_and_access() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.row(0)[2], names()[0]);
        assert_eq!(r.schema().index_of("node"), Some(1));
    }

    #[test]
    fn columnar_layout_is_visible_per_column() {
        let r = sample();
        assert_eq!(r.col_values(0), &[Value::Int(1), Value::Int(1)]);
        assert_eq!(r.col_values(2), &names()[..2]);
        let row = r.row(1);
        assert_eq!(row.len(), 3);
        assert!(!row.is_empty());
        assert_eq!(row[1], Value::Int(3));
        assert_eq!(row[2], names()[1]);
        assert_eq!(row.to_vec()[0], Value::Int(1));
        assert_eq!(r.row(0), r.row(0));
        assert_ne!(r.row(0), r.row(1));
    }

    #[test]
    fn push_array_checks_arity() {
        let mut r = sample();
        let eve = names()[2];
        r.push_array([Value::Int(2), Value::Int(4), eve]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(2)[2], eve);
        let err = r.push_array([Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            RelError::ArityMismatch {
                expected: 3,
                found: 1,
                ..
            }
        ));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn range_and_gather_appends_copy_rows_in_order() {
        let mut src = sample();
        src.push_array([Value::Int(2), Value::Int(5), names()[2]])
            .unwrap();
        let mut out = Relation::new(src.schema().clone());
        out.extend_from_range(&src, 1..3).unwrap();
        out.extend_from_range(&src, 0..0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0), src.row(1));
        assert_eq!(out.row(1), src.row(2));
        out.extend_gathered(&src, &[2, 0, 2]).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out.row(2), src.row(2));
        assert_eq!(out.row(3), src.row(0));
        assert_eq!(out.row(4), src.row(2));
        // Out-of-range positions and foreign schemas are typed errors that
        // leave the target untouched.
        assert!(matches!(
            out.extend_from_range(&src, 2..4),
            Err(RelError::RowOutOfRange {
                row: 4,
                rows: 3,
                ..
            })
        ));
        assert!(matches!(
            out.extend_gathered(&src, &[0, 3]),
            Err(RelError::RowOutOfRange {
                row: 3,
                rows: 3,
                ..
            })
        ));
        let other = Relation::new(Schema::new(["x"]));
        assert!(out.extend_from_range(&other, 0..0).is_err());
        assert!(out.extend_gathered(&other, &[]).is_err());
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new(Schema::new(["a", "b"]));
        let err = r.push_values(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, RelError::ArityMismatch { .. }));
    }

    #[test]
    fn extend_from_checks_schema() {
        let mut a = sample();
        let b = sample();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 4);
        let other = Relation::new(Schema::new(["x"]));
        assert!(a.extend_from(&other).is_err());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let mut r = sample();
        let dup = r.row(0).to_vec();
        r.push_values(dup).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.distinct().len(), 2);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(Schema::new(["a"]));
        r.push_values(vec![Value::Int(3)]).unwrap();
        r.push_values(vec![Value::Int(1)]).unwrap();
        r.push_values(vec![Value::Int(2)]).unwrap();
        let s = r.sorted();
        let vals: Vec<i64> = s.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn clear_and_remove_row() {
        let mut r = sample();
        let before: Vec<Value> = r.col_values(1).to_vec();
        r.remove_row(0).unwrap();
        assert_eq!(r.len(), before.len() - 1);
        assert_eq!(r.col_values(1), &before[1..]);
        assert!(r.remove_row(r.len()).is_err());
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn display_contains_schema_and_rows() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("docid"));
        assert!(s.contains(&names()[1].to_string()));
    }
}
