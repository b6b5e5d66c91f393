//! Segmented relation storage with stable row handles.
//!
//! A [`SegmentedRelation`] partitions its tuples into *buckets* (segments),
//! each an ordinary [`Relation`]. Rows are addressed by a stable
//! [`RowHandle`] — `(bucket, offset)` — which never shifts when *other*
//! buckets are dropped, so secondary indexes built per bucket stay valid for
//! the lifetime of their bucket and are discarded whole together with it.
//!
//! This is the storage layout behind the MMQJP engine's windowed join state:
//! buckets are coarse timestamp ranges, and window expiry becomes
//! [`SegmentedRelation::evict_below`] — an O(expired-rows) whole-bucket drop
//! instead of a retain-and-rebuild over the entire relation.

use crate::error::{RelError, RelResult};
use crate::relation::{Relation, RowRef, Rows, Tuple};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Identifier of a bucket (segment) within a [`SegmentedRelation`].
///
/// Callers choose the bucket of every inserted row; the MMQJP engine derives
/// it from the row's document timestamp (`timestamp / bucket_width`). Buckets
/// are ordered, and eviction drops every bucket below a cutoff.
pub type BucketId = u64;

/// A stable address of one row in a [`SegmentedRelation`].
///
/// Handles remain valid until *their own* bucket is evicted; evicting other
/// buckets never invalidates or shifts them (unlike positional indexes into a
/// flat `Vec`, which shift on every `retain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowHandle {
    /// The bucket holding the row.
    pub bucket: BucketId,
    /// Insertion position of the row within its bucket.
    pub offset: u32,
}

/// A relation stored as ordered buckets of tuples.
///
/// All buckets share one schema. Iteration order is bucket order (ascending
/// [`BucketId`]), then insertion order within each bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentedRelation {
    schema: Schema,
    segments: BTreeMap<BucketId, Relation>,
    len: usize,
}

impl SegmentedRelation {
    /// Create an empty segmented relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        SegmentedRelation {
            schema,
            segments: BTreeMap::new(),
            len: 0,
        }
    }

    /// The shared schema of every bucket.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of tuples across all buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bucket holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of resident buckets.
    pub fn num_buckets(&self) -> usize {
        self.segments.len()
    }

    /// Append a tuple to the given bucket, validating its arity. Returns the
    /// row's stable handle.
    pub fn push(&mut self, bucket: BucketId, tuple: Tuple) -> RelResult<RowHandle> {
        if tuple.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                context: format!("segmented relation {}", self.schema),
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        let segment = self
            .segments
            .entry(bucket)
            .or_insert_with(|| Relation::new(self.schema.clone()));
        let offset = segment.len() as u32;
        segment
            .push_values(tuple)
            .expect("arity was checked against the shared schema"); // lint:allow arity checked before bucket lookup
        self.len += 1;
        Ok(RowHandle { bucket, offset })
    }

    /// Append rows `range` of `rows` (same schema) to the given bucket, one
    /// slice copy per column. Returns the in-bucket offset of the first
    /// appended row; the rest follow it contiguously.
    pub fn append_range(
        &mut self,
        bucket: BucketId,
        rows: &Relation,
        range: Range<usize>,
    ) -> RelResult<u32> {
        // Validate before the bucket is created, so a failed append leaves no
        // empty segment behind.
        if rows.schema() != &self.schema {
            return Err(RelError::ArityMismatch {
                context: format!("segmented relation {} from {}", self.schema, rows.schema()),
                expected: self.schema.arity(),
                found: rows.schema().arity(),
            });
        }
        rows.check_range(&range)?;
        let segment = self
            .segments
            .entry(bucket)
            .or_insert_with(|| Relation::new(self.schema.clone()));
        let first = segment.len() as u32;
        let added = range.len();
        segment.extend_from_range(rows, range)?;
        self.len += added;
        Ok(first)
    }

    /// The row behind a handle, if its bucket is still resident.
    pub fn row(&self, handle: RowHandle) -> Option<RowRef<'_>> {
        self.segments.get(&handle.bucket).and_then(|s| {
            let off = handle.offset as usize;
            (off < s.len()).then(|| s.row(off))
        })
    }

    /// The bucket's tuples, if resident.
    pub fn bucket(&self, bucket: BucketId) -> Option<&Relation> {
        self.segments.get(&bucket)
    }

    /// Iterate over resident buckets in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (BucketId, &Relation)> {
        self.segments.iter().map(|(&b, r)| (b, r))
    }

    /// Iterate over all tuples: bucket order, then insertion order.
    pub fn iter(&self) -> SegmentedTuples<'_> {
        SegmentedTuples {
            buckets: self.segments.values(),
            current: None,
        }
    }

    /// Drop every bucket with id strictly below `cutoff`, returning the
    /// dropped `(bucket, rows)` pairs in ascending order.
    ///
    /// Cost is O(log #buckets + dropped rows); resident buckets and their
    /// row handles are untouched.
    pub fn evict_below(&mut self, cutoff: BucketId) -> Vec<(BucketId, Relation)> {
        let keep = self.segments.split_off(&cutoff);
        let dropped = std::mem::replace(&mut self.segments, keep);
        let out: Vec<(BucketId, Relation)> = dropped.into_iter().collect();
        for (_, r) in &out {
            self.len -= r.len();
        }
        out
    }

    /// Remove all buckets, keeping the schema.
    pub fn clear(&mut self) {
        self.segments.clear();
        self.len = 0;
    }
}

/// Iterator over every row of a [`SegmentedRelation`], yielding [`RowRef`]s.
#[derive(Debug, Clone)]
pub struct SegmentedTuples<'a> {
    buckets: std::collections::btree_map::Values<'a, BucketId, Relation>,
    current: Option<Rows<'a>>,
}

impl<'a> Iterator for SegmentedTuples<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        loop {
            if let Some(t) = self.current.as_mut().and_then(Iterator::next) {
                return Some(t);
            }
            self.current = Some(self.buckets.next()?.iter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn seg() -> SegmentedRelation {
        SegmentedRelation::new(Schema::new(["docid", "ts"]))
    }

    fn row(d: i64, ts: i64) -> Tuple {
        vec![Value::Int(d), Value::Int(ts)]
    }

    #[test]
    fn push_assigns_stable_handles() {
        let mut s = seg();
        let h0 = s.push(3, row(1, 30)).unwrap();
        let h1 = s.push(3, row(2, 31)).unwrap();
        let h2 = s.push(1, row(3, 10)).unwrap();
        assert_eq!(
            h0,
            RowHandle {
                bucket: 3,
                offset: 0
            }
        );
        assert_eq!(
            h1,
            RowHandle {
                bucket: 3,
                offset: 1
            }
        );
        assert_eq!(
            h2,
            RowHandle {
                bucket: 1,
                offset: 0
            }
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_buckets(), 2);
        assert_eq!(s.row(h1).map(|r| r.to_vec()), Some(row(2, 31)));
    }

    #[test]
    fn arity_is_validated() {
        let mut s = seg();
        assert!(s.push(0, vec![Value::Int(1)]).is_err());
        assert!(s.is_empty());
    }

    #[test]
    fn append_range_returns_first_offset() {
        let mut batch = Relation::new(Schema::new(["docid", "ts"]));
        for d in 0..5 {
            batch
                .push_array([Value::Int(d), Value::Int(d * 10)])
                .unwrap();
        }
        let mut s = seg();
        s.push(4, row(9, 0)).unwrap();
        assert_eq!(s.append_range(4, &batch, 1..3).unwrap(), 1);
        assert_eq!(s.append_range(7, &batch, 3..5).unwrap(), 0);
        assert_eq!(s.append_range(4, &batch, 0..1).unwrap(), 3);
        assert_eq!(s.len(), 6);
        let ids: Vec<i64> = s.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![9, 1, 2, 0, 3, 4]);
        // A bad range or schema fails without creating a bucket.
        assert!(s.append_range(9, &batch, 4..6).is_err());
        let other = Relation::new(Schema::new(["x", "y"]));
        assert!(s.append_range(9, &other, 0..0).is_err());
        assert_eq!(s.num_buckets(), 2);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn iteration_is_bucket_ordered() {
        let mut s = seg();
        s.push(5, row(50, 0)).unwrap();
        s.push(2, row(20, 0)).unwrap();
        s.push(2, row(21, 0)).unwrap();
        s.push(9, row(90, 0)).unwrap();
        let ids: Vec<i64> = s.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![20, 21, 50, 90]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn evict_below_drops_whole_buckets_and_keeps_handles() {
        let mut s = seg();
        s.push(1, row(1, 0)).unwrap();
        s.push(2, row(2, 0)).unwrap();
        let kept = s.push(3, row(3, 0)).unwrap();
        let dropped = s.evict_below(3);
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0].0, 1);
        assert_eq!(dropped[1].0, 2);
        assert_eq!(dropped[1].1.len(), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_buckets(), 1);
        // The surviving handle still resolves to the same row.
        assert_eq!(s.row(kept).map(|r| r.to_vec()), Some(row(3, 0)));
        // Evicting again is a no-op.
        assert!(s.evict_below(3).is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut s = seg();
        s.push(1, row(1, 0)).unwrap();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.num_buckets(), 0);
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn empty_iteration() {
        let s = seg();
        assert!(s.iter().next().is_none());
        assert!(s.bucket(0).is_none());
        assert!(s
            .row(RowHandle {
                bucket: 0,
                offset: 0
            })
            .is_none());
    }
}
