//! Time-bucketed incremental join state.
//!
//! The engine's per-window join state (`Rbin`, `Rdoc`, the retained
//! document timestamps `RdocTS`, the document store and the secondary
//! indexes backing `RL`-slice computation) lives in a [`JoinState`]. Rows
//! are partitioned into coarse timestamp buckets (`timestamp /
//! bucket_width`) held in [`SegmentedRelation`]s; each bucket's entry holds
//! the bucket's secondary indexes, addressing rows by their stable in-bucket
//! offset, and lists the documents stamped into it.
//!
//! A batch enters column-wise: each run of rows bound for one bucket is one
//! slice copy per column, and the indexes are chains threaded through a
//! per-row successor array, so absorbing a row allocates nothing per key.
//!
//! Expiry therefore never rebuilds anything: [`JoinState::evict`] drops every
//! bucket below the cutoff whole — rows, chains and documents together — in
//! time proportional to what it holds, and the handles of every surviving
//! row stay valid. A row and its document share a timestamp and so a
//! bucket, so no row outlives its document.
//!
//! Eviction decides memory, never results: a dropped bucket may be up to one
//! bucket width newer than the cutoff would require, and the engine's
//! matching rule ([`JoinStage`](crate::engine::JoinStage)'s horizon check)
//! never accepts a stored document below any cutoff the engine evicts at,
//! so results are identical for any width and any shard layout.

use crate::audit::AuditViolation;
use crate::error::{CoreError, CoreResult};
use crate::relations::{rl_row, schemas, WitnessBatch};
use mmqjp_relational::{
    BucketId, FxHashMap, FxHashSet, Relation, RowRef, SegmentedRelation, Symbol, Tuple, Value,
};
use mmqjp_xml::{DocId, Document};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::Range;

/// Bucket width used when no window and no retention cap is known (nothing
/// can expire then, so the width only shapes the segmentation).
const DEFAULT_BUCKET_WIDTH: u64 = 1024;

/// Number of buckets a retention span is divided into when the width is
/// derived from the registered windows.
pub(crate) const BUCKETS_PER_WINDOW: u64 = 16;

/// Extract an integer index key from a state/witness row value, erroring
/// (and asserting in debug builds) instead of collapsing malformed rows onto
/// a sentinel key. Takes the already-indexed [`Value`] so both owned tuples
/// and borrowed [`RowRef`]s feed it the same way.
pub(crate) fn key_int(v: &Value, relation: &'static str, column: &'static str) -> CoreResult<i64> {
    match v.as_int() {
        Some(i) => Ok(i),
        None => {
            debug_assert!(false, "non-integer index key {relation}.{column}: {v:?}");
            Err(CoreError::CorruptStateRow {
                relation,
                column,
                value: format!("{v:?}"),
            })
        }
    }
}

/// Extract an interned-symbol index key from a state/witness row value.
pub(crate) fn key_sym(
    v: &Value,
    relation: &'static str,
    column: &'static str,
) -> CoreResult<Symbol> {
    match v.as_sym() {
        Some(s) => Ok(s),
        None => {
            debug_assert!(false, "non-symbol index key {relation}.{column}: {v:?}");
            Err(CoreError::CorruptStateRow {
                relation,
                column,
                value: format!("{v:?}"),
            })
        }
    }
}

/// Extract a document id from a state/witness row value. Document ids are
/// `u64` end-to-end ([`DocId`]); rows store them as non-negative
/// `Value::Int`s, and a negative value is corruption, not a key.
pub(crate) fn key_doc_id(
    v: &Value,
    relation: &'static str,
    column: &'static str,
) -> CoreResult<DocId> {
    let raw = key_int(v, relation, column)?;
    match u64::try_from(raw) {
        Ok(v) => Ok(DocId(v)),
        Err(_) => {
            debug_assert!(false, "negative document id in {relation}.{column}: {raw}");
            Err(CoreError::CorruptStateRow {
                relation,
                column,
                value: raw.to_string(),
            })
        }
    }
}

/// `next` entry of a chain's last row.
const CHAIN_END: u32 = u32::MAX;

/// One key's rows in a [`ChainIndex`]: the first and last in-bucket offset
/// and the number of rows on the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// A secondary index over one bucket segment whose per-key row lists are
/// chains threaded through `next`, a per-row successor array parallel to the
/// segment. Indexing a row allocates nothing per key beyond one map slot for
/// a new key; rows join their chain at the tail, so a walk visits a key's
/// rows in insertion order.
#[derive(Debug, Clone)]
struct ChainIndex<K> {
    ends: FxHashMap<K, Chain>,
    /// `next[off]` is the offset of the row after `off` on its chain, or
    /// [`CHAIN_END`].
    next: Vec<u32>,
}

impl<K> Default for ChainIndex<K> {
    fn default() -> Self {
        ChainIndex {
            ends: FxHashMap::default(),
            next: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> ChainIndex<K> {
    /// Index the segment's next row, `off`, under `key`. Rows must be
    /// indexed in segment order (`off == next.len()`).
    fn push(&mut self, key: K, off: u32) -> CoreResult<()> {
        if off as usize != self.next.len() {
            return Err(CoreError::internal(
                "chain index rows are indexed in segment order",
            ));
        }
        match self.ends.entry(key) {
            Entry::Occupied(mut entry) => {
                let chain = entry.get_mut();
                let slot = self
                    .next
                    .get_mut(chain.tail as usize)
                    .ok_or(CoreError::internal("a chain's tail lies inside its index"))?;
                *slot = off;
                chain.tail = off;
                chain.len += 1;
            }
            Entry::Vacant(entry) => {
                entry.insert(Chain {
                    head: off,
                    tail: off,
                    len: 1,
                });
            }
        }
        self.next.push(CHAIN_END);
        Ok(())
    }

    /// The in-bucket offsets filed under `key`, in insertion order.
    fn get(&self, key: &K) -> Option<ChainWalk<'_>> {
        self.ends.get(key).map(|chain| self.walk(chain))
    }

    /// Walk one chain. The walk takes at most `chain.len` steps, so even a
    /// corrupted (cyclic) chain terminates.
    fn walk(&self, chain: &Chain) -> ChainWalk<'_> {
        ChainWalk {
            next: &self.next,
            at: chain.head,
            remaining: chain.len,
        }
    }
}

/// Iterator over one chain of a [`ChainIndex`].
struct ChainWalk<'a> {
    next: &'a [u32],
    at: u32,
    remaining: u32,
}

impl Iterator for ChainWalk<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 || self.at == CHAIN_END {
            return None;
        }
        let off = self.at;
        self.remaining -= 1;
        self.at = self.next.get(off as usize).copied().unwrap_or(CHAIN_END);
        Some(off)
    }
}

/// One timestamp bucket of the join state: its secondary indexes and its
/// documents. Offsets address rows *within the bucket's segment*, so they
/// stay valid for the bucket's whole lifetime and are dropped with it.
#[derive(Debug, Default, Clone)]
struct Bucket {
    /// `Rdoc` rows by string value, over the bucket's `Rdoc` segment.
    rdoc_by_strval: ChainIndex<Symbol>,
    /// `Rbin` rows by document id, over the bucket's `Rbin` segment. A
    /// document's `Rdoc` and `Rbin` rows share its timestamp and therefore
    /// its bucket, so probes never cross buckets.
    rbin_by_doc: ChainIndex<i64>,
    /// The retained documents whose timestamps fall in this bucket; they
    /// leave with its rows.
    docs: Vec<DocId>,
}

/// Consecutive rows of a batch relation bound for one bucket.
#[derive(Debug)]
struct Run {
    bucket: BucketId,
    rows: Range<usize>,
}

/// Split a batch relation (docid in column 0) into maximal runs of rows
/// bound for the same bucket. A row's bucket is looked up once per run of
/// equal document ids — a document's rows are contiguous, so once per
/// document.
fn bucket_runs(
    rows: &Relation,
    relation: &'static str,
    bucket_of_doc: &FxHashMap<i64, BucketId>,
) -> CoreResult<Vec<Run>> {
    let mut runs: Vec<Run> = Vec::new();
    let mut prev: Option<&Value> = None;
    let mut bucket = 0;
    for (i, v) in rows.col_values(0).iter().enumerate() {
        if prev != Some(v) {
            let docid = key_int(v, relation, "docid")?;
            bucket = *bucket_of_doc
                .get(&docid)
                .ok_or_else(|| CoreError::CorruptStateRow {
                    relation,
                    column: "docid",
                    value: format!("{docid} (not in the current batch)"),
                })?;
            prev = Some(v);
        }
        match runs.last_mut() {
            Some(run) if run.bucket == bucket => run.rows.end = i + 1,
            _ => runs.push(Run {
                bucket,
                rows: i..i + 1,
            }),
        }
    }
    Ok(runs)
}

/// Summary of one eviction pass.
#[derive(Debug, Default)]
pub(crate) struct JoinEviction {
    /// Buckets dropped.
    pub buckets: usize,
    /// `Rbin` + `Rdoc` rows dropped.
    pub rows: usize,
    /// Documents (timestamps, and stored documents with them) dropped.
    pub docs: usize,
    /// String values whose rows were (partly) dropped; the view cache
    /// invalidates exactly these slices.
    pub expired_strvals: FxHashSet<Symbol>,
}

/// Pooled buffers of [`JoinState::restrict_to_batch`]; the engine keeps one
/// beside its `ExecScratch` so the per-batch restriction allocates nothing
/// but its two result relations.
#[derive(Debug, Default)]
pub(crate) struct RestrictionScratch {
    /// Distinct string values of the batch, in first-occurrence order.
    strvals: Vec<Symbol>,
    seen: FxHashSet<Symbol>,
    /// Document ids of the restricted `Rdoc` rows.
    docids: FxHashSet<i64>,
    offs: Vec<u32>,
}

/// The engine's windowed join state: bucketed relations, per-bucket indexes
/// and document lists, and the document-retention maps, with
/// O(expired-rows) eviction.
#[derive(Debug)]
pub(crate) struct JoinState {
    /// Set lazily before the first absorb (see [`JoinState::ensure_width`]).
    bucket_width: Option<u64>,
    /// `false` while the width is the fallback default (no finite window or
    /// cap was known yet); such a width is revised — with a one-time
    /// re-partition — when the first real retention bound appears.
    width_final: bool,
    /// Join state `Rbin(docid, var1, var2, node1, node2)`.
    rbin: SegmentedRelation,
    /// Join state `Rdoc(docid, node, strVal)`.
    rdoc: SegmentedRelation,
    /// Per-bucket secondary indexes over `rbin` / `rdoc` and document lists,
    /// one entry per bucket holding rows or documents.
    buckets: BTreeMap<BucketId, Bucket>,
    /// Resident `Rdoc` row count per string value, across all buckets —
    /// keeps [`JoinState::contains_strval`] O(1) on the per-document `STR`
    /// path instead of probing every bucket's index.
    strval_rows: FxHashMap<Symbol, usize>,
    /// Timestamps of retained documents (`RdocTS`, the temporal filter of
    /// Algorithm 3); each is filed in its bucket's document list.
    doc_timestamps: HashMap<DocId, u64>,
    /// Retained documents for output construction.
    doc_store: HashMap<DocId, Document>,
}

impl JoinState {
    /// Create an empty state.
    pub fn new() -> Self {
        JoinState {
            bucket_width: None,
            width_final: false,
            rbin: SegmentedRelation::new(schemas::bin()),
            rdoc: SegmentedRelation::new(schemas::doc()),
            buckets: BTreeMap::new(),
            strval_rows: FxHashMap::default(),
            doc_timestamps: HashMap::new(),
            doc_store: HashMap::new(),
        }
    }

    /// Fix — or, while still provisional, revise — the bucket width.
    ///
    /// `derived` is the width derived from the currently known retention
    /// bound (`None` while no finite window or cap is registered). Without a
    /// bound a provisional fallback width is used; once a real bound appears
    /// — typically because windowed queries were registered after documents
    /// had already been processed — the width is revised and every resident
    /// row re-partitioned (a one-time O(resident state) pass), so eviction
    /// granularity always ends up matching the registered windows.
    pub fn ensure_width(&mut self, derived: Option<u64>) -> CoreResult<()> {
        match (self.bucket_width, derived) {
            (None, Some(w)) => {
                self.bucket_width = Some(w.max(1));
                self.width_final = true;
            }
            (None, None) => self.bucket_width = Some(DEFAULT_BUCKET_WIDTH),
            (Some(current), Some(w)) if !self.width_final => {
                self.width_final = true;
                if current != w.max(1) {
                    self.rebucket(w.max(1))?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Derive a bucket width from a retention bound.
    pub fn derive_width(bound: u64) -> u64 {
        (bound / BUCKETS_PER_WINDOW).max(1)
    }

    /// Tighten the bucket width after the registered retention bound shrank
    /// (the widest-window query unregistered): [`rebucket`](Self::rebucket)
    /// when narrower, so eviction granularity follows the surviving windows.
    /// A no-op when the width would grow or is not yet set.
    pub fn tighten_width(&mut self, new_width: u64) -> CoreResult<()> {
        let new_width = new_width.max(1);
        if self.bucket_width.is_some_and(|current| new_width < current) {
            self.width_final = true;
            self.rebucket(new_width)?;
        }
        Ok(())
    }

    /// Re-partition every resident row and document under a new bucket
    /// width, keeping the rows' relative order (a one-time O(resident
    /// state) pass). Every row finds its document's timestamp: a bucket's
    /// rows and documents are only ever evicted together.
    fn rebucket(&mut self, width: u64) -> CoreResult<()> {
        self.bucket_width = Some(width);
        let old_rdoc = std::mem::replace(&mut self.rdoc, SegmentedRelation::new(schemas::doc()));
        let old_rbin = std::mem::replace(&mut self.rbin, SegmentedRelation::new(schemas::bin()));
        let old_buckets = std::mem::take(&mut self.buckets);
        self.strval_rows.clear();
        for &doc in old_buckets.values().flat_map(|bucket| &bucket.docs) {
            let ts = self
                .doc_timestamp(doc)
                .ok_or(CoreError::internal("a filed document keeps its timestamp"))?;
            self.buckets.entry(ts / width).or_default().docs.push(doc);
        }
        for row in old_rdoc.iter() {
            let ts = self.resident_doc_ts(row, "Rdoc")?;
            self.insert_rdoc_row(row.to_vec(), ts)?;
        }
        for row in old_rbin.iter() {
            let ts = self.resident_doc_ts(row, "Rbin")?;
            self.insert_rbin_row(row.to_vec(), ts)?;
        }
        Ok(())
    }

    /// Timestamp of the resident document a state row belongs to.
    fn resident_doc_ts(&self, row: RowRef<'_>, relation: &'static str) -> CoreResult<u64> {
        let doc = key_doc_id(&row[0], relation, "docid")?;
        self.doc_timestamp(doc)
            .ok_or_else(|| CoreError::CorruptStateRow {
                relation,
                column: "docid",
                value: format!("{} (no retained timestamp)", doc.raw()),
            })
    }

    fn width(&self) -> u64 {
        // lint:allow ensure_width runs before every absorb/evict path; a
        // fallback of the provisional default keeps this total regardless
        self.bucket_width.unwrap_or(DEFAULT_BUCKET_WIDTH)
    }

    fn join_bucket(&self, ts: u64) -> BucketId {
        ts / self.width()
    }

    /// Number of `Rbin` tuples.
    pub fn rbin_len(&self) -> usize {
        self.rbin.len()
    }

    /// Number of `Rdoc` tuples.
    pub fn rdoc_len(&self) -> usize {
        self.rdoc.len()
    }

    /// Number of resident buckets (holding rows or documents).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of documents currently retained (timestamps; the document
    /// store holds at most this many).
    pub fn docs_retained(&self) -> usize {
        self.doc_timestamps.len()
    }

    /// Timestamp of a retained document.
    pub fn doc_timestamp(&self, doc: DocId) -> Option<u64> {
        self.doc_timestamps.get(&doc).copied()
    }

    /// A retained document, if still in the store.
    pub fn document(&self, doc: DocId) -> Option<&Document> {
        self.doc_store.get(&doc)
    }

    /// Absorb a routed batch into the state (Algorithm 2): append the
    /// witness rows run by run into their timestamp buckets, maintain the
    /// per-bucket indexes, file every document's timestamp in its bucket,
    /// and retain documents when asked to. The shard may not hold the
    /// documents themselves: the `(doc id, timestamp)` pairs come in as
    /// explicit metadata, and `docs` carries the full documents only when
    /// `retain_documents` is on (it may be empty otherwise). Retained
    /// documents move into the store.
    ///
    /// Rows enter column-wise: each maximal run of rows bound for one bucket
    /// is one slice copy per column, and a row's bucket is resolved once per
    /// document, not per row.
    ///
    /// Then the state is evicted at `cutoff`, the one retention cutoff (see
    /// [`evict`](Self::evict)); `None` evicts nothing. Absorbing is the only
    /// way to evict, so no second eviction pass can exist beside it.
    pub fn absorb_routed(
        &mut self,
        batch: WitnessBatch,
        meta: &[(DocId, u64)],
        docs: Vec<Document>,
        retain_documents: bool,
        cutoff: Option<u64>,
    ) -> CoreResult<JoinEviction> {
        // Documents are filed before their rows arrive, so no row is ever
        // resident without its document's timestamp.
        let mut bucket_of_doc: FxHashMap<i64, BucketId> = FxHashMap::default();
        bucket_of_doc.reserve(meta.len());
        for &(doc, ts) in meta {
            let bucket = self.join_bucket(ts);
            bucket_of_doc.insert(doc.raw() as i64, bucket);
            self.doc_timestamps.insert(doc, ts);
            self.buckets.entry(bucket).or_default().docs.push(doc);
        }

        let WitnessBatch { rbin_w, rdoc_w, .. } = batch;
        let rdoc_runs = bucket_runs(&rdoc_w, "RdocW", &bucket_of_doc)?;
        let rbin_runs = bucket_runs(&rbin_w, "RbinW", &bucket_of_doc)?;
        for run in rdoc_runs {
            self.append_rdoc_run(&rdoc_w, run)?;
        }
        for run in rbin_runs {
            self.append_rbin_run(&rbin_w, run)?;
        }
        if retain_documents {
            for doc in docs {
                self.doc_store.insert(doc.id(), doc);
            }
        }
        Ok(cutoff.map_or_else(JoinEviction::default, |cutoff| self.evict(cutoff)))
    }

    /// Append one run of batch `Rdoc` rows to its bucket and file each row
    /// on its string value's chain.
    fn append_rdoc_run(&mut self, rdoc_w: &Relation, run: Run) -> CoreResult<()> {
        let strvals = &rdoc_w.col_values(2)[run.rows.clone()];
        // Every key is checked before the rows become resident, so a
        // malformed row never leaves unindexed rows behind.
        for v in strvals {
            key_sym(v, "RdocW", "strVal")?;
        }
        let first = self.rdoc.append_range(run.bucket, rdoc_w, run.rows)?;
        let index = &mut self.buckets.entry(run.bucket).or_default().rdoc_by_strval;
        for (off, v) in (first..).zip(strvals) {
            let sym = key_sym(v, "RdocW", "strVal")?;
            index.push(sym, off)?;
            *self.strval_rows.entry(sym).or_insert(0) += 1;
        }
        Ok(())
    }

    /// Append one run of batch `Rbin` rows to its bucket and file each row
    /// on its document's chain.
    fn append_rbin_run(&mut self, rbin_w: &Relation, run: Run) -> CoreResult<()> {
        let docids = &rbin_w.col_values(0)[run.rows.clone()];
        let first = self.rbin.append_range(run.bucket, rbin_w, run.rows)?;
        let index = &mut self.buckets.entry(run.bucket).or_default().rbin_by_doc;
        for (off, v) in (first..).zip(docids) {
            index.push(key_int(v, "RbinW", "docid")?, off)?;
        }
        Ok(())
    }

    /// Insert one `Rdoc` row into its bucket, maintaining the per-bucket
    /// index and the global string-value row count (the one-time
    /// re-partition passes; batches enter through
    /// [`absorb_routed`](Self::absorb_routed)).
    fn insert_rdoc_row(&mut self, row: Tuple, ts: u64) -> CoreResult<()> {
        let sym = key_sym(&row[2], "Rdoc", "strVal")?;
        let bucket = self.join_bucket(ts);
        let handle = self.rdoc.push(bucket, row)?;
        self.buckets
            .entry(bucket)
            .or_default()
            .rdoc_by_strval
            .push(sym, handle.offset)?;
        *self.strval_rows.entry(sym).or_insert(0) += 1;
        Ok(())
    }

    /// Insert one `Rbin` row into its bucket, maintaining the per-bucket
    /// index (the re-partition passes only, like
    /// [`insert_rdoc_row`](Self::insert_rdoc_row)).
    fn insert_rbin_row(&mut self, row: Tuple, ts: u64) -> CoreResult<()> {
        let docid = key_int(&row[0], "Rbin", "docid")?;
        let bucket = self.join_bucket(ts);
        let handle = self.rbin.push(bucket, row)?;
        self.buckets
            .entry(bucket)
            .or_default()
            .rbin_by_doc
            .push(docid, handle.offset)?;
        Ok(())
    }

    /// `true` when some resident `Rdoc` row carries this string value.
    pub fn contains_strval(&self, sym: Symbol) -> bool {
        self.strval_rows.contains_key(&sym)
    }

    /// Compute one `RL` slice:
    /// `σ_strVal=s(Rdoc) ⋈_{docid, node=node2} Rbin`, probing only the
    /// buckets whose index mentions `s`. Each `Rdoc` row walks its
    /// document's `Rbin` chain (a handful of rows) and keeps the rows whose
    /// `node2` is its node.
    pub fn rl_slice(&self, s: Symbol) -> CoreResult<Relation> {
        let mut slice = Relation::new(schemas::rl());
        for (&bucket, index) in &self.buckets {
            let Some(doc_rows) = index.rdoc_by_strval.get(&s) else {
                continue;
            };
            let rdoc_seg = self
                .rdoc
                .bucket(bucket)
                .ok_or(CoreError::internal("indexed bucket has an Rdoc segment"))?;
            let rbin_seg = self.rbin.bucket(bucket);
            for off in doc_rows {
                let row = rdoc_seg.row(off as usize);
                let docid = key_int(&row[0], "Rdoc", "docid")?;
                let node = Value::Int(key_int(&row[1], "Rdoc", "node")?);
                let Some(bin_rows) = index.rbin_by_doc.get(&docid) else {
                    continue;
                };
                let rbin_seg =
                    rbin_seg.ok_or(CoreError::internal("indexed bucket has an Rbin segment"))?;
                for boff in bin_rows {
                    let b = rbin_seg.row(boff as usize);
                    if b[4] == node {
                        slice.push_array(rl_row(b, s))?;
                    }
                }
            }
        }
        Ok(slice)
    }

    /// The basic-mode batch restriction: the resident `Rdoc` rows whose
    /// string value occurs in the batch's `RdocW`, and the resident `Rbin`
    /// rows of the documents those rows mention — computed once per batch
    /// and shared by every template. All intermediate buffers come from
    /// `pool`.
    ///
    /// The `Rbin` restriction is `None` when every resident document is
    /// among the restricted ones: it would keep every `Rbin` row, in the
    /// state's own order, so the caller reads the segmented state in place
    /// and nothing is copied.
    pub(crate) fn restrict_to_batch(
        &self,
        rdoc_w: &Relation,
        pool: &mut RestrictionScratch,
    ) -> CoreResult<(Relation, Option<Relation>)> {
        let RestrictionScratch {
            strvals,
            seen,
            docids,
            offs,
        } = pool;
        strvals.clear();
        seen.clear();
        for row in rdoc_w.iter() {
            let sym = key_sym(&row[2], "RdocW", "strVal")?;
            if seen.insert(sym) {
                strvals.push(sym);
            }
        }
        let rdoc = self.rdoc_for_strvals(strvals, docids, offs)?;
        // Every restricted document is resident (rows never outlive their
        // document's filing), so equal counts mean equal sets.
        if docids.len() >= self.doc_timestamps.len() {
            return Ok((rdoc, None));
        }
        let rbin = self.rbin_for_docids(docids, offs)?;
        Ok((rdoc, Some(rbin)))
    }

    /// Restrict the resident `Rdoc` state to the rows whose string value
    /// occurs in `strvals`, gathered through the per-bucket
    /// `rdoc_by_strval` indexes: O(buckets × |strvals| + matching rows)
    /// instead of a full state scan. Rows come out in bucket order, then
    /// ascending in-bucket offset — a deterministic subsequence of the full
    /// iteration order. Fills `docids` with the document ids the restricted
    /// rows mention (they feed [`JoinState::rbin_for_docids`]); `offs` is a
    /// pooled work buffer.
    ///
    /// Soundness: in every basic-template conjunctive query, each `Rdoc`
    /// atom's `strVal` variable is shared with an `RdocW` atom of the same
    /// value-join edge, so `Rdoc` rows whose string value is absent from the
    /// current batch's `RdocW` cannot contribute to any result.
    fn rdoc_for_strvals(
        &self,
        strvals: &[Symbol],
        docids: &mut FxHashSet<i64>,
        offs: &mut Vec<u32>,
    ) -> CoreResult<Relation> {
        let mut out = Relation::new(schemas::doc());
        docids.clear();
        for (&bucket, index) in &self.buckets {
            offs.clear();
            for s in strvals {
                if let Some(rows) = index.rdoc_by_strval.get(s) {
                    offs.extend(rows);
                }
            }
            if offs.is_empty() {
                continue;
            }
            // Each row is indexed under exactly one string value, so the
            // gathered offsets are distinct; sorting restores scan order.
            offs.sort_unstable();
            let seg = self
                .rdoc
                .bucket(bucket)
                .ok_or(CoreError::internal("indexed bucket has an Rdoc segment"))?;
            let seg_docids = seg.col_values(0);
            for &off in offs.iter() {
                let docid = seg_docids.get(off as usize).ok_or(CoreError::internal(
                    "indexed offsets lie inside their segment",
                ))?;
                docids.insert(key_int(docid, "Rdoc", "docid")?);
            }
            out.extend_gathered(seg, offs)?;
        }
        Ok(out)
    }

    /// Restrict the resident `Rbin` state to the rows of the given
    /// documents, walking each document's chain in every bucket's
    /// `rbin_by_doc` index: O(buckets × |docids| + matched rows), whatever
    /// the resident state's size. Row order matches
    /// [`JoinState::rdoc_for_strvals`]: bucket order, then ascending
    /// in-bucket offset. `offs` is a pooled work buffer.
    ///
    /// Soundness: every left-side atom of a basic-template conjunctive query
    /// shares the single stored-document variable, so `Rbin` rows of
    /// documents absent from the restricted `Rdoc` cannot join into any
    /// result.
    fn rbin_for_docids(
        &self,
        docids: &FxHashSet<i64>,
        offs: &mut Vec<u32>,
    ) -> CoreResult<Relation> {
        let mut out = Relation::new(schemas::bin());
        if docids.is_empty() {
            return Ok(out);
        }
        for (&bucket, index) in &self.buckets {
            offs.clear();
            for docid in docids {
                if let Some(rows) = index.rbin_by_doc.get(docid) {
                    offs.extend(rows);
                }
            }
            if offs.is_empty() {
                continue;
            }
            offs.sort_unstable();
            let seg = self
                .rbin
                .bucket(bucket)
                .ok_or(CoreError::internal("indexed bucket has an Rbin segment"))?;
            out.extend_gathered(seg, offs)?;
        }
        Ok(out)
    }

    /// The segmented `Rbin` join state. Plan execution borrows it directly
    /// (via [`ChunkedRows`](mmqjp_relational::ChunkedRows)); nothing moves.
    pub fn rbin(&self) -> &SegmentedRelation {
        &self.rbin
    }

    /// The segmented `Rdoc` join state, borrowed for plan execution.
    pub fn rdoc(&self) -> &SegmentedRelation {
        &self.rdoc
    }

    /// Drop every bucket that lies entirely before `cutoff_ts` (all of its
    /// rows and documents are older than the cutoff): its rows, its chains
    /// and its documents' timestamps and stored documents. O(expired rows);
    /// surviving buckets are untouched.
    fn evict(&mut self, cutoff_ts: u64) -> JoinEviction {
        let cutoff_bucket = cutoff_ts / self.width();
        let mut out = JoinEviction::default();
        let keep = self.buckets.split_off(&cutoff_bucket);
        let dropped = std::mem::replace(&mut self.buckets, keep);
        if dropped.is_empty() {
            return out;
        }
        for bucket in dropped.values() {
            for (sym, chain) in &bucket.rdoc_by_strval.ends {
                out.expired_strvals.insert(*sym);
                if let Some(count) = self.strval_rows.get_mut(sym) {
                    *count = count.saturating_sub(chain.len as usize);
                    if *count == 0 {
                        self.strval_rows.remove(sym);
                    }
                }
            }
            for doc in &bucket.docs {
                self.doc_timestamps.remove(doc);
                self.doc_store.remove(doc);
            }
            out.docs += bucket.docs.len();
        }
        out.buckets = dropped.len();
        for (_, seg) in self.rdoc.evict_below(cutoff_bucket) {
            out.rows += seg.len();
        }
        for (_, seg) in self.rbin.evict_below(cutoff_bucket) {
            out.rows += seg.len();
        }
        out
    }

    /// Cross-check the join state's secondary structures against its
    /// segmented relations, appending one [`AuditViolation`] per
    /// inconsistency: chain integrity, index offsets in range, indexed keys
    /// matching the resident rows, full index coverage, the global
    /// string-value counters, document store ⊆ retention map, every resident
    /// row's document retained and filed in the row's bucket, and the
    /// watermark bounding every retained timestamp. Read-only. See
    /// [`MmqjpEngine::audit`](crate::MmqjpEngine::audit).
    pub fn audit(&self, newest_timestamp: u64, out: &mut Vec<AuditViolation>) {
        let mut rdoc_indexed = 0usize;
        let mut rbin_indexed = 0usize;
        let mut strval_indexed: FxHashMap<Symbol, usize> = FxHashMap::default();
        for (&bucket, index) in &self.buckets {
            let strval_chains = &index.rdoc_by_strval;
            for (&sym, chain) in &strval_chains.ends {
                *strval_indexed.entry(sym).or_insert(0) += chain.len as usize;
            }
            match self.rdoc.bucket(bucket) {
                None if strval_chains.ends.is_empty() => {}
                None => out.push(AuditViolation::MissingBucketIndex {
                    relation: "Rdoc",
                    bucket,
                }),
                Some(seg) => {
                    rdoc_indexed += audit_chains(
                        "Rdoc",
                        bucket,
                        strval_chains,
                        seg,
                        |row, &sym| row[2] == Value::Sym(sym),
                        out,
                    );
                }
            }
            match self.rbin.bucket(bucket) {
                None if index.rbin_by_doc.ends.is_empty() => {}
                None => out.push(AuditViolation::MissingBucketIndex {
                    relation: "Rbin",
                    bucket,
                }),
                Some(seg) => {
                    rbin_indexed += audit_chains(
                        "Rbin",
                        bucket,
                        &index.rbin_by_doc,
                        seg,
                        |row, &docid| row[0].as_int() == Some(docid),
                        out,
                    );
                }
            }
        }
        // Every non-empty segment bucket is covered by an index segment, and
        // the indexes address exactly the resident rows.
        for (bucket, seg) in self.rdoc.buckets() {
            if !seg.is_empty() && !self.buckets.contains_key(&bucket) {
                out.push(AuditViolation::MissingBucketIndex {
                    relation: "Rdoc",
                    bucket,
                });
            }
        }
        for (bucket, seg) in self.rbin.buckets() {
            if !seg.is_empty() && !self.buckets.contains_key(&bucket) {
                out.push(AuditViolation::MissingBucketIndex {
                    relation: "Rbin",
                    bucket,
                });
            }
        }
        if rdoc_indexed != self.rdoc.len() {
            out.push(AuditViolation::IndexedRowCount {
                relation: "Rdoc",
                indexed: rdoc_indexed,
                resident: self.rdoc.len(),
            });
        }
        if rbin_indexed != self.rbin.len() {
            out.push(AuditViolation::IndexedRowCount {
                relation: "Rbin",
                indexed: rbin_indexed,
                resident: self.rbin.len(),
            });
        }
        // The global per-string counters equal the per-bucket index sums
        // (and in particular hold no zero entries, which the computed side
        // never produces).
        if self.strval_rows != strval_indexed {
            out.push(AuditViolation::StrvalRowCount {
                tracked: self.strval_rows.values().sum(),
                indexed: strval_indexed.values().sum(),
            });
        }
        // The document store is a subset of the retention-timestamp map.
        for doc in self.doc_store.keys() {
            if !self.doc_timestamps.contains_key(doc) {
                out.push(AuditViolation::OrphanStoredDocument { doc: doc.raw() });
            }
        }
        self.audit_filing(out);
        // The watermark bounds every retained timestamp.
        if let Some(&observed) = self.doc_timestamps.values().max() {
            if observed > newest_timestamp {
                out.push(AuditViolation::WatermarkRegression {
                    newest: newest_timestamp,
                    observed,
                });
            }
        }
    }

    /// The invariant the matching rule rests on: every retained timestamp is
    /// filed once, in the bucket it names, and every resident `Rdoc` /
    /// `Rbin` row's document is filed in that row's bucket — so eviction,
    /// which drops a bucket's rows and documents together, never leaves a
    /// row without its document.
    fn audit_filing(&self, out: &mut Vec<AuditViolation>) {
        let width = self.width();
        let mut filed: FxHashMap<u64, BucketId> = FxHashMap::default();
        let mut unfiled = |relation, bucket, doc| {
            out.push(AuditViolation::UnfiledDocument {
                relation,
                bucket,
                doc,
            });
        };
        for (&bucket, entry) in &self.buckets {
            for doc in &entry.docs {
                let named = self.doc_timestamps.get(doc).map(|ts| ts / width);
                if filed.insert(doc.raw(), bucket).is_some() || named != Some(bucket) {
                    unfiled("RdocTS", bucket, doc.raw());
                }
            }
        }
        for (doc, ts) in &self.doc_timestamps {
            if !filed.contains_key(&doc.raw()) {
                unfiled("RdocTS", ts / width, doc.raw());
            }
        }
        for (relation, rows) in [("Rdoc", &self.rdoc), ("Rbin", &self.rbin)] {
            for (bucket, seg) in rows.buckets() {
                for v in seg.col_values(0) {
                    let doc = v.as_int().map_or(u64::MAX, |d| d as u64);
                    if filed.get(&doc) != Some(&bucket) {
                        unfiled(relation, bucket, doc);
                    }
                }
            }
        }
    }
}

/// Audit one bucket's [`ChainIndex`] against its segment: every chain
/// address in range with a row of the chain's key ([`IndexOffsetOutOfRange`]
/// / [`IndexKeyMismatch`]), and — one [`IndexChain`] for the bucket —
/// `next` parallel to the segment, each chain exactly `len` rows long and
/// ending at its successor-free `tail`, every row on exactly one chain.
/// Walks are bounded by `len`, so a cyclic chain cannot hang the audit.
/// Returns the number of in-range rows the chains reach.
///
/// [`IndexOffsetOutOfRange`]: AuditViolation::IndexOffsetOutOfRange
/// [`IndexKeyMismatch`]: AuditViolation::IndexKeyMismatch
/// [`IndexChain`]: AuditViolation::IndexChain
fn audit_chains<K: Copy + Eq + Hash>(
    relation: &'static str,
    bucket: BucketId,
    index: &ChainIndex<K>,
    seg: &Relation,
    key_matches: impl Fn(RowRef<'_>, &K) -> bool,
    out: &mut Vec<AuditViolation>,
) -> usize {
    let rows = seg.len();
    let mut intact = index.next.len() == rows;
    let mut on_chain = vec![false; rows];
    let mut reached = 0usize;
    for (key, chain) in &index.ends {
        let (mut steps, mut last) = (0u32, None);
        for off in index.walk(chain) {
            steps += 1;
            let Some(seen) = on_chain.get_mut(off as usize) else {
                out.push(AuditViolation::IndexOffsetOutOfRange {
                    relation,
                    bucket,
                    offset: off,
                    rows,
                });
                last = None;
                break;
            };
            // A row reached twice lies on two chains, or on a cycle.
            intact &= !std::mem::replace(seen, true);
            reached += 1;
            if !key_matches(seg.row(off as usize), key) {
                out.push(AuditViolation::IndexKeyMismatch {
                    relation,
                    bucket,
                    offset: off,
                });
            }
            last = Some(off);
        }
        let ends_at_tail =
            last == Some(chain.tail) && index.next.get(chain.tail as usize) == Some(&CHAIN_END);
        intact &= steps == chain.len && ends_at_tail;
    }
    intact &= on_chain.iter().all(|&seen| seen);
    if !intact {
        out.push(AuditViolation::IndexChain { relation, bucket });
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::SplitMix64;
    use mmqjp_relational::StringInterner;
    use mmqjp_xml::Timestamp;
    use std::collections::HashSet;
    use std::sync::Arc;

    impl JoinState {
        /// [`absorb_routed`](JoinState::absorb_routed) with the metadata
        /// read off the documents.
        fn absorb(
            &mut self,
            batch: WitnessBatch,
            docs: Vec<Document>,
            retain_documents: bool,
        ) -> CoreResult<()> {
            let meta: Vec<(DocId, u64)> = docs
                .iter()
                .map(|doc| (doc.id(), doc.timestamp().raw()))
                .collect();
            self.absorb_routed(batch, &meta, docs, retain_documents, None)
                .map(drop)
        }
    }

    /// A minimal batch: one document with one Rdoc / Rbin / RdocTSW row.
    fn batch_for(doc: &Document, strval: &str, interner: &Arc<StringInterner>) -> WitnessBatch {
        let mut b = WitnessBatch::new();
        push_doc(&mut b, doc, strval, interner);
        b
    }

    /// Add one document with one Rdoc / Rbin / RdocTSW row to a batch.
    fn push_doc(b: &mut WitnessBatch, doc: &Document, strval: &str, interner: &StringInterner) {
        b.doc_ids.push(doc.id());
        let id = Value::Int(doc.id().raw() as i64);
        b.rdoc_w
            .push_array([id, Value::Int(1), Value::Sym(interner.intern(strval))])
            .unwrap();
        b.rbin_w
            .push_array([
                id,
                Value::Sym(interner.intern("v")),
                Value::Sym(interner.intern("v")),
                Value::Int(0),
                Value::Int(1),
            ])
            .unwrap();
        b.rdoc_ts_w
            .push_array([id, Value::Int(doc.timestamp().raw() as i64)])
            .unwrap();
    }

    fn doc(id: u64, ts: u64) -> Document {
        mmqjp_xml::DocumentBuilder::new("item")
            .finish()
            .with_id(DocId(id))
            .with_timestamp(Timestamp(ts))
    }

    fn state(width: u64) -> (JoinState, Arc<StringInterner>) {
        let mut s = JoinState::new();
        s.ensure_width(Some(width)).unwrap();
        (s, Arc::new(StringInterner::new()))
    }

    #[test]
    fn absorb_and_slice() {
        let (mut s, interner) = state(10);
        for i in 1..=5u64 {
            let d = doc(i, i * 7);
            s.absorb(batch_for(&d, "shared", &interner), vec![d], true)
                .unwrap();
        }
        assert_eq!(s.rdoc_len(), 5);
        assert_eq!(s.rbin_len(), 5);
        assert_eq!(s.docs_retained(), 5);
        assert_eq!(s.doc_timestamp(DocId(3)), Some(21));
        assert!(s.document(DocId(3)).is_some());
        let sym = interner.get("shared").unwrap();
        assert!(s.contains_strval(sym));
        assert!(!s.contains_strval(interner.intern("absent")));
        // The RL slice joins every document's Rdoc row with its Rbin row.
        let slice = s.rl_slice(sym).unwrap();
        assert_eq!(slice.len(), 5);
        // Timestamps 7..35 at width 10 span buckets 0..3.
        assert_eq!(s.num_buckets(), 4);
    }

    #[test]
    fn eviction_is_whole_bucket_and_keeps_survivors() {
        let (mut s, interner) = state(10);
        for i in 1..=6u64 {
            let d = doc(i, i * 10);
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), vec![d], true)
                .unwrap();
        }
        // Cutoff 35: buckets 1 and 2 (ts 10, 20) lie entirely below it and
        // expire; the ts-30 bucket spans up to 39 and survives, as do
        // 40/50/60 — rows only ever outlive their window by < one bucket.
        let ev = s.evict(35);
        assert_eq!(ev.buckets, 2);
        assert_eq!(ev.rows, 4); // 2 Rdoc + 2 Rbin rows
        assert_eq!(ev.docs, 2);
        let expired: FxHashSet<Symbol> = ["val1", "val2"]
            .iter()
            .map(|v| interner.get(v).unwrap())
            .collect();
        assert_eq!(ev.expired_strvals, expired);
        assert_eq!(s.rdoc_len(), 4);
        assert!(!s.contains_strval(interner.get("val1").unwrap()));
        assert!(s.contains_strval(interner.get("val3").unwrap()));
        // Surviving slices are still computable after the drop (stable
        // offsets — nothing shifted).
        assert_eq!(s.rl_slice(interner.get("val5").unwrap()).unwrap().len(), 1);
        // The documents left with their rows.
        assert_eq!(s.docs_retained(), 4);
        assert!(s.document(DocId(1)).is_none());
        assert_eq!(s.doc_timestamp(DocId(2)), None);
        assert!(s.document(DocId(3)).is_some());
        // Nothing further expires at the same cutoff.
        let ev = s.evict(35);
        assert_eq!((ev.buckets, ev.rows, ev.docs), (0, 0, 0));
    }

    #[test]
    fn join_state_is_borrowed_for_evaluation() {
        // The old take/restore round trip is gone: plan execution borrows
        // the segmented relations in place (via ChunkedRows) and the state
        // keeps serving slices throughout.
        let (mut s, interner) = state(10);
        let d = doc(1, 5);
        s.absorb(batch_for(&d, "t", &interner), vec![d], false)
            .unwrap();
        let rbin = mmqjp_relational::ChunkedRows::from_segmented(s.rbin());
        let rdoc = mmqjp_relational::ChunkedRows::from_segmented(s.rdoc());
        assert_eq!(rbin.len(), 1);
        assert_eq!(rdoc.len(), 1);
        assert_eq!(s.rbin_len(), 1);
        assert_eq!(s.rl_slice(interner.get("t").unwrap()).unwrap().len(), 1);
    }

    #[test]
    fn derive_width_scales_with_bound() {
        assert_eq!(JoinState::derive_width(1600), 100);
        assert_eq!(JoinState::derive_width(5), 1);
        // Without a bound the width stays provisional at the default.
        let mut s = JoinState::new();
        s.ensure_width(None).unwrap();
        assert_eq!(s.bucket_width, Some(DEFAULT_BUCKET_WIDTH));
        // A real bound appearing later revises it.
        s.ensure_width(Some(JoinState::derive_width(160))).unwrap();
        assert_eq!(s.bucket_width, Some(10));
        // A final width never changes again.
        s.ensure_width(Some(99)).unwrap();
        assert_eq!(s.bucket_width, Some(10));
    }

    #[test]
    fn provisional_width_rebuckets_resident_state() {
        // Documents absorbed before any window is known land in the
        // provisional (coarse) buckets; when the first bound appears, rows
        // are re-partitioned so eviction granularity matches the windows.
        let mut s = JoinState::new();
        let interner = Arc::new(StringInterner::new());
        s.ensure_width(None).unwrap();
        for i in 1..=4u64 {
            let d = doc(i, i * 10);
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), vec![d], true)
                .unwrap();
        }
        // Everything sits in one coarse provisional bucket.
        assert_eq!(s.num_buckets(), 1);
        // A window of 160 time units registers: width becomes 10.
        s.ensure_width(Some(JoinState::derive_width(160))).unwrap();
        assert_eq!(s.bucket_width, Some(10));
        assert_eq!(s.num_buckets(), 4);
        assert_eq!(s.rdoc_len(), 4);
        // Slices and eviction now work at the revised granularity: cutoff
        // 35 drops the ts-10 and ts-20 buckets (the ts-30 bucket spans up
        // to 39 and survives).
        assert_eq!(s.rl_slice(interner.get("val2").unwrap()).unwrap().len(), 1);
        let ev = s.evict(35);
        assert_eq!((ev.buckets, ev.docs), (2, 2));
        assert!(!s.contains_strval(interner.get("val1").unwrap()));
        assert!(s.contains_strval(interner.get("val3").unwrap()));
        assert_eq!(s.docs_retained(), 2);
    }

    #[test]
    fn tighten_width_repartitions_resident_state() {
        let (mut s, interner) = state(625);
        for i in 1..=5u64 {
            let d = doc(i, i * 40);
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), vec![d], true)
                .unwrap();
        }
        // All rows share the single coarse bucket: a cutoff of 100 evicts
        // nothing.
        assert_eq!(s.num_buckets(), 1);
        assert_eq!(s.evict(100).buckets, 0);

        // The retention bound tightened (widest window departed): width 10.
        s.tighten_width(10).unwrap();
        assert_eq!(s.bucket_width, Some(10));
        assert_eq!(s.num_buckets(), 5);
        assert_eq!(s.rdoc_len(), 5);
        // Slices still work and eviction now operates at the new granularity.
        assert_eq!(s.rl_slice(interner.get("val3").unwrap()).unwrap().len(), 1);
        let ev = s.evict(100);
        assert_eq!((ev.buckets, ev.docs), (2, 2)); // ts 40 and 80
        assert_eq!(s.docs_retained(), 3);
        // Widening (or equal) requests are no-ops.
        s.tighten_width(10_000).unwrap();
        assert_eq!(s.bucket_width, Some(10));
    }

    #[test]
    fn tighten_width_keeps_rows_with_their_documents() {
        // Re-partitioning moves each row into its document's new bucket, so
        // a cutoff drops a row exactly when it drops the document.
        let (mut s, interner) = state(100);
        for (i, ts) in [(1u64, 30u64), (2, 45)] {
            let d = doc(i, ts);
            s.absorb(batch_for(&d, "v", &interner), vec![d], true)
                .unwrap();
        }
        s.tighten_width(10).unwrap();
        let mut out = Vec::new();
        s.audit(45, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Cutoff 40 drops the ts-30 bucket: one document, its two rows.
        let ev = s.evict(40);
        assert_eq!((ev.buckets, ev.rows, ev.docs), (1, 2, 1));
        assert_eq!(s.doc_timestamp(DocId(1)), None);
        assert!(s.document(DocId(1)).is_none());
        assert_eq!((s.rdoc_len(), s.docs_retained()), (1, 1));
        assert_eq!(s.doc_timestamp(DocId(2)), Some(45));
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let (mut s, interner) = state(10);
        for i in 1..=4u64 {
            let d = doc(i, i * 7);
            s.absorb(batch_for(&d, "shared", &interner), vec![d], true)
                .unwrap();
        }
        s.evict(15);
        let mut out = Vec::new();
        s.audit(28, &mut out);
        assert!(out.is_empty(), "healthy state reported: {out:?}");

        // A watermark behind a retained timestamp is a violation.
        let mut out = Vec::new();
        s.audit(20, &mut out);
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::WatermarkRegression {
                newest: 20,
                observed: 28
            }
        )));

        // Seed a string-value counter drift.
        let sym = interner.get("shared").unwrap();
        *s.strval_rows.get_mut(&sym).unwrap() += 1;
        let mut out = Vec::new();
        s.audit(28, &mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::StrvalRowCount { .. })));
        *s.strval_rows.get_mut(&sym).unwrap() -= 1;

        // A document filed in no bucket leaves its rows unfiled, and its
        // timestamp too.
        let bucket = *s.buckets.keys().next().unwrap();
        let filed = std::mem::take(&mut s.buckets.get_mut(&bucket).unwrap().docs);
        let mut out = Vec::new();
        s.audit(28, &mut out);
        let unfiled = |relation| AuditViolation::UnfiledDocument {
            relation,
            bucket,
            doc: filed[0].raw(),
        };
        for relation in ["Rdoc", "Rbin", "RdocTS"] {
            assert!(out.contains(&unfiled(relation)), "{relation}: {out:?}");
        }
        s.buckets.get_mut(&bucket).unwrap().docs = filed;

        // Seed an out-of-range index offset at the end of a chain.
        let index = &mut s.buckets.get_mut(&bucket).unwrap().rdoc_by_strval;
        let chain = index.ends.get_mut(&sym).unwrap();
        index.next[chain.tail as usize] = 10_000;
        chain.len += 1;
        let mut out = Vec::new();
        s.audit(28, &mut out);
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::IndexOffsetOutOfRange {
                relation: "Rdoc",
                offset: 10_000,
                ..
            }
        )));

        // An orphan stored document (no retention timestamp) is caught.
        let (mut s2, interner2) = state(10);
        let d = doc(9, 50);
        s2.absorb(batch_for(&d, "x", &interner2), vec![d], true)
            .unwrap();
        s2.doc_timestamps.remove(&DocId(9));
        let mut out = Vec::new();
        s2.audit(50, &mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::OrphanStoredDocument { doc: 9 })));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-integer index key")]
    fn malformed_key_asserts_in_debug() {
        let row = [Value::Null, Value::Int(1)];
        let _ = key_int(&row[0], "Rdoc", "docid");
    }

    #[test]
    fn key_helpers_accept_well_formed_rows() {
        let interner = StringInterner::new();
        let row = [
            Value::Int(7),
            Value::Sym(interner.intern("s")),
            Value::Int(-3),
        ];
        assert_eq!(key_int(&row[0], "R", "a").unwrap(), 7);
        assert_eq!(
            key_sym(&row[1], "R", "b").unwrap(),
            interner.get("s").unwrap()
        );
        assert_eq!(key_doc_id(&row[0], "R", "a").unwrap(), DocId(7));
    }

    #[test]
    fn batch_restriction_follows_the_indexes() {
        let (mut s, interner) = state(10);
        for i in 1..=6u64 {
            let d = doc(i, i * 7);
            let strval = if i % 2 == 0 { "even" } else { "odd" };
            s.absorb(batch_for(&d, strval, &interner), vec![d], false)
                .unwrap();
        }
        let even = interner.get("even").unwrap();
        let (mut docids, mut no_docs) = (FxHashSet::default(), FxHashSet::default());
        let offs = &mut Vec::new();
        let rdoc = s.rdoc_for_strvals(&[even], &mut docids, offs).unwrap();
        assert_eq!(rdoc.len(), 3);
        assert_eq!(docids, FxHashSet::from_iter([2, 4, 6]));
        // Every restricted row carries the requested string value.
        assert!(rdoc.iter().all(|r| r[2] == Value::Sym(even)));
        let rbin = s.rbin_for_docids(&docids, offs).unwrap();
        assert_eq!(rbin.len(), 3);
        assert!(rbin
            .iter()
            .all(|r| matches!(r[0].as_int(), Some(d) if d % 2 == 0)));
        // An absent string value restricts to nothing.
        let empty = s
            .rdoc_for_strvals(&[interner.intern("absent")], &mut no_docs, offs)
            .unwrap();
        assert!(empty.is_empty());
        assert!(no_docs.is_empty());
        assert!(s.rbin_for_docids(&no_docs, offs).unwrap().is_empty());
    }

    #[test]
    fn absorb_moves_retained_documents_into_the_store() {
        let (mut s, interner) = state(10);
        let docs: Vec<Document> = (1..=3u64)
            .map(|i| {
                let mut b = mmqjp_xml::DocumentBuilder::new("item");
                b.child_text("title", format!("title {i}"));
                b.finish()
                    .with_id(DocId(i))
                    .with_timestamp(Timestamp(i * 4))
            })
            .collect();
        let mut batch = WitnessBatch::new();
        for d in &docs {
            push_doc(&mut batch, d, "t", &interner);
        }
        let expected = docs.clone();
        s.absorb(batch, docs, true).unwrap();
        assert_eq!(s.doc_store.len(), expected.len());
        for d in &expected {
            assert_eq!(s.document(d.id()), Some(d));
        }
        // Without retention the documents are dropped, not stored.
        let d = doc(9, 20);
        s.absorb(batch_for(&d, "t", &interner), vec![d], false)
            .unwrap();
        assert!(s.document(DocId(9)).is_none());
        assert_eq!(s.doc_store.len(), expected.len());
        assert_eq!(s.docs_retained(), expected.len() + 1);
    }

    #[test]
    fn chain_index_keeps_insertion_order_and_rejects_gaps() {
        let mut index = ChainIndex::<i64>::default();
        index.push(7, 0).unwrap();
        index.push(8, 1).unwrap();
        assert!(matches!(index.push(7, 3), Err(CoreError::Internal { .. })));
        assert!(matches!(index.push(7, 1), Err(CoreError::Internal { .. })));
        index.push(7, 2).unwrap();
        index.push(7, 3).unwrap();
        assert_eq!(index.get(&7).unwrap().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(index.get(&8).unwrap().collect::<Vec<_>>(), vec![1]);
        assert!(index.get(&9).is_none());
        assert_eq!(index.next, vec![2, CHAIN_END, 3, CHAIN_END]);
    }

    #[test]
    fn audit_detects_broken_chains() {
        // Four documents in bucket 0 share one string value: one Rdoc chain
        // of four rows and four one-row Rbin chains.
        let fresh = || {
            let (mut s, interner) = state(10);
            for i in 1..=4u64 {
                let d = doc(i, i);
                s.absorb(batch_for(&d, "shared", &interner), vec![d], false)
                    .unwrap();
            }
            (s, interner.get("shared").unwrap())
        };
        let audit = |s: &JoinState| {
            let mut out = Vec::new();
            s.audit(4, &mut out);
            out
        };
        let broken = |out: &[AuditViolation], relation| {
            out.contains(&AuditViolation::IndexChain {
                relation,
                bucket: 0,
            })
        };
        let (s, _) = fresh();
        assert!(audit(&s).is_empty());

        // A cycle: the tail links back to the head. Walks stop after `len`
        // steps, so the audit terminates — even when the recorded length
        // overshoots the cycle.
        let (mut s, sym) = fresh();
        let index = &mut s.buckets.get_mut(&0).unwrap().rdoc_by_strval;
        let chain = index.ends[&sym];
        index.next[chain.tail as usize] = chain.head;
        assert!(broken(&audit(&s), "Rdoc"));
        let index = &mut s.buckets.get_mut(&0).unwrap().rdoc_by_strval;
        index.ends.get_mut(&sym).unwrap().len = 1_000;
        assert!(broken(&audit(&s), "Rdoc"));

        // A dangling offset: a chain starting beyond its segment.
        let (mut s, _) = fresh();
        let index = &mut s.buckets.get_mut(&0).unwrap().rbin_by_doc;
        index.ends.get_mut(&3).unwrap().head = 77;
        let out = audit(&s);
        assert!(broken(&out, "Rbin"));
        assert!(out.contains(&AuditViolation::IndexOffsetOutOfRange {
            relation: "Rbin",
            bucket: 0,
            offset: 77,
            rows: 4,
        }));

        // A wrong length: the walk stops short of the tail.
        let (mut s, sym) = fresh();
        let index = &mut s.buckets.get_mut(&0).unwrap().rdoc_by_strval;
        index.ends.get_mut(&sym).unwrap().len -= 1;
        let out = audit(&s);
        assert!(broken(&out, "Rdoc"));
        assert!(!broken(&out, "Rbin"));

        // A successor array that is not parallel to the segment.
        let (mut s, _) = fresh();
        let index = &mut s.buckets.get_mut(&0).unwrap().rbin_by_doc;
        index.next.push(CHAIN_END);
        assert!(broken(&audit(&s), "Rbin"));

        // A row filed under the wrong key.
        let (mut s, _) = fresh();
        let index = &mut s.buckets.get_mut(&0).unwrap().rbin_by_doc;
        let (a, b) = (index.ends[&1], index.ends[&2]);
        *index.ends.get_mut(&1).unwrap() = b;
        *index.ends.get_mut(&2).unwrap() = a;
        let out = audit(&s);
        assert!(!broken(&out, "Rbin"));
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::IndexKeyMismatch {
                relation: "Rbin",
                ..
            }
        )));
    }

    fn below(rng: &mut SplitMix64, n: u64) -> u64 {
        rng.next() % n
    }

    /// A random batch of one to four documents, each with a few `Rdoc`
    /// rows (element and attribute node keys, values drawn from a small
    /// vocabulary so they repeat) and `Rbin` rows whose `node2` mostly names
    /// one of its `Rdoc` nodes. Timestamps advance by 0–11, so documents of
    /// one batch share buckets or straddle a boundary.
    fn random_batch(
        rng: &mut SplitMix64,
        next: &mut (u64, u64),
        vocab: &[Symbol],
        vars: &[Symbol],
    ) -> (WitnessBatch, Vec<Document>) {
        let mut batch = WitnessBatch::new();
        let mut docs = Vec::new();
        for _ in 0..1 + below(rng, 4) {
            next.0 += 1;
            next.1 += below(rng, 12);
            let d = doc(next.0, next.1);
            let id = Value::Int(next.0 as i64);
            batch.doc_ids.push(d.id());
            batch
                .rdoc_ts_w
                .push_array([id, Value::Int(next.1 as i64)])
                .unwrap();
            let attribute = ((u64::from(vars[0].raw()) + 1) << 32 | 1) as i64;
            let mut nodes: Vec<i64> = (0..1 + below(rng, 4))
                .map(|_| match below(rng, 5) {
                    0 => attribute,
                    n => n as i64,
                })
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            for _ in 0..1 + below(rng, 6) {
                let node2 = match below(rng, 6) {
                    0 => 99,
                    _ => nodes[below(rng, nodes.len() as u64) as usize],
                };
                let var = |rng: &mut SplitMix64| Value::Sym(vars[below(rng, 3) as usize]);
                batch
                    .rbin_w
                    .push_array([id, var(rng), var(rng), Value::Int(0), Value::Int(node2)])
                    .unwrap();
            }
            for &node in &nodes {
                let sym = vocab[below(rng, vocab.len() as u64) as usize];
                batch
                    .rdoc_w
                    .push_array([id, Value::Int(node), Value::Sym(sym)])
                    .unwrap();
            }
            docs.push(d);
        }
        (batch, docs)
    }

    /// Check `rl_slice`, `restrict_to_batch`, `contains_strval` and
    /// `audit` against brute force over the resident rows. Returns whether
    /// the `Rbin` restriction was skipped.
    fn check_against_brute_force(
        s: &JoinState,
        vocab: &[Symbol],
        probe: &Relation,
        newest: u64,
        ctx: &str,
    ) -> bool {
        let rdoc: Vec<Tuple> = s.rdoc().iter().map(|r| r.to_vec()).collect();
        let rbin: Vec<Tuple> = s.rbin().iter().map(|r| r.to_vec()).collect();
        let rows = |r: &Relation| r.iter().map(|t| t.to_vec()).collect::<Vec<_>>();
        for &sym in vocab {
            let s_val = Value::Sym(sym);
            let resident = rdoc.iter().any(|d| d[2] == s_val);
            assert_eq!(s.contains_strval(sym), resident, "{ctx}: contains");
            let mut expected = Vec::new();
            for d in rdoc.iter().filter(|d| d[2] == s_val) {
                for b in rbin.iter().filter(|b| b[0] == d[0] && b[4] == d[1]) {
                    let mut row = b.clone();
                    row.push(s_val);
                    expected.push(row);
                }
            }
            assert_eq!(rows(&s.rl_slice(sym).unwrap()), expected, "{ctx}: RL slice");
        }
        let strvals: Vec<&Value> = probe.col_values(2).iter().collect();
        let expected_rdoc: Vec<Tuple> = rdoc
            .iter()
            .filter(|d| strvals.contains(&&d[2]))
            .cloned()
            .collect();
        let docids: Vec<&Value> = expected_rdoc.iter().map(|d| &d[0]).collect();
        let expected_rbin: Vec<Tuple> = rbin
            .iter()
            .filter(|b| docids.contains(&&b[0]))
            .cloned()
            .collect();
        let restricted_docs: HashSet<DocId> = (docids.iter())
            .map(|d| key_doc_id(d, "Rdoc", "docid").unwrap())
            .collect();
        let resident_docs: HashSet<DocId> = s.doc_timestamps.keys().copied().collect();
        assert!(restricted_docs.is_subset(&resident_docs), "{ctx}: docs");
        let (got_rdoc, got_rbin) = s
            .restrict_to_batch(probe, &mut RestrictionScratch::default())
            .unwrap();
        assert_eq!(rows(&got_rdoc), expected_rdoc, "{ctx}: restricted Rdoc");
        // Rbin goes unrestricted exactly when every resident document is
        // restricted, and it then keeps every row in the state's order.
        let skipped = got_rbin.is_none();
        assert_eq!(skipped, restricted_docs == resident_docs, "{ctx}: decision");
        match got_rbin {
            Some(got) => assert_eq!(rows(&got), expected_rbin, "{ctx}: restricted Rbin"),
            None => assert_eq!(rbin, expected_rbin, "{ctx}: unrestricted Rbin"),
        }
        let mut out = Vec::new();
        s.audit(newest, &mut out);
        assert!(out.is_empty(), "{ctx}: audit {out:?}");
        skipped
    }

    /// Seeded sweep: random absorb / eviction / re-width sequences, checked
    /// after every step against brute force over `rdoc()` / `rbin()`, rows
    /// and row order included.
    #[test]
    fn join_state_matches_brute_force_reference() {
        let interner = StringInterner::new();
        let vocab: Vec<Symbol> = (0..6)
            .map(|i| interner.intern(&format!("value {i}")))
            .collect();
        let vars: Vec<Symbol> = ["a", "b", "c"].map(|v| interner.intern(v)).to_vec();
        let mut decisions = [0usize; 2];
        for seed in 0..48u64 {
            let mut rng = SplitMix64::new(seed);
            let mut s = JoinState::new();
            s.ensure_width(None).unwrap();
            let mut next = (0u64, 0u64);
            for step in 0..40 {
                let ctx = format!("seed {seed} step {step}");
                match below(&mut rng, 10) {
                    // Evictions and tightening only run once the width is
                    // final, as in the engine (a window or cap exists then).
                    6 | 7 if s.width_final => {
                        let cutoff = next.1.saturating_sub(below(&mut rng, 30));
                        s.evict(cutoff);
                    }
                    8 if !s.width_final => {
                        s.ensure_width(Some(3 + below(&mut rng, 8))).unwrap();
                    }
                    9 if s.width_final => {
                        let width = s.bucket_width.unwrap();
                        s.tighten_width(1 + below(&mut rng, width)).unwrap();
                    }
                    _ => {
                        let (batch, docs) = random_batch(&mut rng, &mut next, &vocab, &vars);
                        s.absorb(batch, docs, true).unwrap();
                    }
                }
                let mut probe = Relation::new(schemas::doc());
                for _ in 0..1 + below(&mut rng, 3) {
                    let sym = vocab[below(&mut rng, vocab.len() as u64) as usize];
                    probe
                        .push_array([Value::Int(0), Value::Int(1), Value::Sym(sym)])
                        .unwrap();
                }
                let skipped = check_against_brute_force(&s, &vocab, &probe, next.1, &ctx);
                decisions[usize::from(skipped)] += 1;
            }
        }
        // Both branches of the Rbin decision were exercised.
        assert!(decisions.iter().all(|&n| n > 0), "{decisions:?}");
    }
}
