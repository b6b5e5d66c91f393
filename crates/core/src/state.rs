//! Time-bucketed incremental join state.
//!
//! The engine's per-window join state (`Rbin`, `Rdoc`, the `RdocTS`
//! retention ledger, the document store and the secondary indexes backing
//! `RL`-slice computation) lives in a [`JoinState`]. Rows are partitioned
//! into coarse timestamp buckets (`timestamp / bucket_width`) held in
//! [`SegmentedRelation`]s, and the secondary indexes are *per-bucket*
//! segments addressing rows by their stable in-bucket offset.
//!
//! Window expiry therefore never rebuilds anything: an expired bucket is
//! dropped whole — rows, index segment and all — in time proportional to the
//! rows it holds, and the handles of every surviving row stay valid. This
//! replaces the seed implementation's retain-and-rebuild pruning (O(total
//! state) per batch, with a full view-cache clear) and is what keeps
//! steady-state throughput flat over unbounded streams.
//!
//! Bucket width is a pure granularity knob: expired rows may survive up to
//! one extra bucket, but the temporal filter of Algorithm 3 re-checks every
//! window, so results are bit-identical for any width.

use crate::audit::AuditViolation;
use crate::error::{CoreError, CoreResult};
use crate::relations::{rl_row, schemas, WitnessBatch};
use mmqjp_relational::{
    BucketId, FxHashMap, FxHashSet, Relation, RowRef, SegmentedRelation, Symbol, Tuple, Value,
};
use mmqjp_xml::{DocId, Document};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Bucket width used when no window and no retention cap is known (nothing
/// can expire then, so the width only shapes the ledger's segmentation).
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

/// The newest timestamp a bucket of the given width can contain.
fn latest_ts_of_bucket(bucket: BucketId, width: u64) -> u64 {
    bucket
        .saturating_add(1)
        .saturating_mul(width)
        .saturating_sub(1)
}

/// Timestamp of a retention-ledger row (`RdocTS(docid, timestamp)`), from
/// its `timestamp` value.
fn ledger_ts(v: &Value) -> CoreResult<u64> {
    u64::try_from(key_int(v, "RdocTS", "timestamp")?).map_err(|_| CoreError::CorruptStateRow {
        relation: "RdocTS",
        column: "timestamp",
        value: format!("{v:?}"),
    })
}

/// Per-bucket secondary indexes over one timestamp bucket of the join state.
/// Offsets address rows *within the bucket's segment*, so they stay valid for
/// the bucket's whole lifetime and are dropped with it.
#[derive(Debug, Default, Clone)]
struct BucketIndex {
    /// `Rdoc` rows by string value: offsets into the bucket's `Rdoc` segment.
    rdoc_by_strval: FxHashMap<Symbol, Vec<u32>>,
    /// `Rbin` rows by `(docid, node2)`: offsets into the bucket's `Rbin`
    /// segment. A document's `Rdoc` and `Rbin` rows share its timestamp and
    /// therefore its bucket, so probes never cross buckets.
    rbin_by_docnode: FxHashMap<(i64, i64), Vec<u32>>,
}

/// Summary of one join-state eviction pass.
#[derive(Debug, Default)]
pub(crate) struct JoinEviction {
    /// Buckets dropped.
    pub buckets: usize,
    /// `Rbin` + `Rdoc` rows dropped.
    pub rows: usize,
    /// String values whose rows were (partly) dropped; the view cache
    /// invalidates exactly these slices.
    pub expired_strvals: HashSet<Symbol>,
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

/// The engine's windowed join state: bucketed relations, per-bucket indexes,
/// and the document-retention maps, with O(expired-rows) eviction.
#[derive(Debug)]
pub(crate) struct JoinState {
    /// `true` when join-state rows are partitioned by timestamp bucket
    /// (window pruning enabled); `false` collapses them into one bucket so
    /// the no-pruning configuration pays no per-bucket overhead.
    bucketed: bool,
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
    /// Retention ledger `RdocTS(docid, timestamp)` — one row per processed
    /// document, always time-bucketed (document eviction works even when
    /// join-state pruning is off).
    ledger: SegmentedRelation,
    /// Per-bucket secondary indexes over `rbin` / `rdoc`.
    indexes: BTreeMap<BucketId, BucketIndex>,
    /// Resident `Rdoc` row count per string value, across all buckets —
    /// keeps [`JoinState::contains_strval`] O(1) on the per-document `STR`
    /// path instead of probing every bucket's index.
    strval_rows: FxHashMap<Symbol, usize>,
    /// Timestamps of retained documents (temporal filter of Algorithm 3).
    doc_timestamps: HashMap<DocId, u64>,
    /// Retained documents for output construction.
    doc_store: HashMap<DocId, Document>,
}

impl JoinState {
    /// Create an empty state. `bucketed` selects timestamp bucketing for the
    /// join relations (on when the engine prunes by window).
    pub fn new(bucketed: bool) -> Self {
        JoinState {
            bucketed,
            bucket_width: None,
            width_final: false,
            rbin: SegmentedRelation::new(schemas::bin()),
            rdoc: SegmentedRelation::new(schemas::doc()),
            ledger: SegmentedRelation::new(schemas::doc_ts()),
            indexes: BTreeMap::new(),
            strval_rows: FxHashMap::default(),
            doc_timestamps: HashMap::new(),
            doc_store: HashMap::new(),
        }
    }

    /// The current bucket width, once set (test observability).
    #[cfg(test)]
    pub fn bucket_width(&self) -> Option<u64> {
        self.bucket_width
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
    /// (the widest-window query unregistered). Without this, eviction would
    /// keep operating at the old, coarse granularity and resident state
    /// could outlive the new bound by up to one old-width bucket.
    ///
    /// The retention ledger is re-partitioned exactly (its rows carry their
    /// own timestamps). The join-state buckets are re-partitioned by
    /// document timestamp where the document is still retained; rows whose
    /// document already aged out of the retention maps land in the *latest*
    /// bucket their old bucket could span, so they are never evicted earlier
    /// than their true timestamp allows (results stay identical — the
    /// temporal filter re-checks every window anyway). One-time O(resident
    /// state); a no-op when the width would grow or is not yet set.
    pub fn tighten_width(&mut self, new_width: u64) -> CoreResult<()> {
        let new_width = new_width.max(1);
        let Some(current) = self.bucket_width else {
            return Ok(());
        };
        if new_width >= current {
            return Ok(());
        }
        self.bucket_width = Some(new_width);
        self.width_final = true;
        let old_ledger =
            std::mem::replace(&mut self.ledger, SegmentedRelation::new(schemas::doc_ts()));
        for row in old_ledger.iter() {
            let ts = ledger_ts(&row[1])?;
            self.insert_ledger_row(row.to_vec(), ts)?;
        }
        if self.bucketed {
            let old_rdoc =
                std::mem::replace(&mut self.rdoc, SegmentedRelation::new(schemas::doc()));
            let old_rbin =
                std::mem::replace(&mut self.rbin, SegmentedRelation::new(schemas::bin()));
            self.indexes.clear();
            self.strval_rows.clear();
            for (bucket, seg) in old_rdoc.buckets() {
                let fallback = latest_ts_of_bucket(bucket, current);
                for row in seg.iter() {
                    let ts = self.known_doc_ts(row).unwrap_or(fallback);
                    self.insert_rdoc_row(row.to_vec(), ts)?;
                }
            }
            for (bucket, seg) in old_rbin.buckets() {
                let fallback = latest_ts_of_bucket(bucket, current);
                for row in seg.iter() {
                    let ts = self.known_doc_ts(row).unwrap_or(fallback);
                    self.insert_rbin_row(row.to_vec(), ts)?;
                }
            }
        }
        Ok(())
    }

    /// Timestamp of a state row's document, when it is still retained.
    fn known_doc_ts(&self, row: RowRef<'_>) -> Option<u64> {
        let doc = row[0].as_int().and_then(|v| u64::try_from(v).ok())?;
        self.doc_timestamp(DocId(doc))
    }

    /// Re-partition every resident row under a new bucket width (only used
    /// while the width is provisional, i.e. before any eviction was
    /// possible, so `doc_timestamps` still covers every resident document).
    fn rebucket(&mut self, width: u64) -> CoreResult<()> {
        self.bucket_width = Some(width);
        let old_rdoc = std::mem::replace(&mut self.rdoc, SegmentedRelation::new(schemas::doc()));
        let old_rbin = std::mem::replace(&mut self.rbin, SegmentedRelation::new(schemas::bin()));
        let old_ledger =
            std::mem::replace(&mut self.ledger, SegmentedRelation::new(schemas::doc_ts()));
        self.indexes.clear();
        self.strval_rows.clear();
        for row in old_rdoc.iter() {
            let ts = self.resident_doc_ts(row, "Rdoc")?;
            self.insert_rdoc_row(row.to_vec(), ts)?;
        }
        for row in old_rbin.iter() {
            let ts = self.resident_doc_ts(row, "Rbin")?;
            self.insert_rbin_row(row.to_vec(), ts)?;
        }
        for row in old_ledger.iter() {
            let ts = ledger_ts(&row[1])?;
            self.insert_ledger_row(row.to_vec(), ts)?;
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
        if self.bucketed {
            ts / self.width()
        } else {
            0
        }
    }

    /// Number of `Rbin` tuples.
    pub fn rbin_len(&self) -> usize {
        self.rbin.len()
    }

    /// Number of `Rdoc` tuples.
    pub fn rdoc_len(&self) -> usize {
        self.rdoc.len()
    }

    /// Number of resident join-state buckets.
    pub fn num_buckets(&self) -> usize {
        self.indexes.len()
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

    /// Absorb a processed batch into the state (Algorithm 2): move the
    /// witness rows whole into their timestamp buckets — the batch is
    /// consumed, so no per-value copies happen — maintain the per-bucket
    /// indexes and the retention ledger, and retain documents when asked to.
    #[cfg(test)]
    pub fn absorb(
        &mut self,
        batch: WitnessBatch,
        docs: &[Document],
        retain_documents: bool,
    ) -> CoreResult<()> {
        let meta: Vec<(DocId, u64)> = docs
            .iter()
            .map(|doc| (doc.id(), doc.timestamp().raw()))
            .collect();
        self.absorb_routed(batch, &meta, docs, retain_documents)
    }

    /// [`absorb`](Self::absorb) for a witness batch routed by the sharded
    /// front stage, where the shard may not hold the documents themselves:
    /// the `(doc id, timestamp)` pairs come in as explicit metadata, and
    /// `docs` carries the full documents only when `retain_documents` is on
    /// (it may be empty otherwise).
    pub fn absorb_routed(
        &mut self,
        batch: WitnessBatch,
        meta: &[(DocId, u64)],
        docs: &[Document],
        retain_documents: bool,
    ) -> CoreResult<()> {
        let mut ts_of: HashMap<i64, u64> = HashMap::with_capacity(meta.len());
        for &(doc, ts) in meta {
            ts_of.insert(doc.raw() as i64, ts);
        }
        let doc_ts = |docid: i64, relation: &'static str| -> CoreResult<u64> {
            ts_of
                .get(&docid)
                .copied()
                .ok_or_else(|| CoreError::CorruptStateRow {
                    relation,
                    column: "docid",
                    value: format!("{docid} (not in the current batch)"),
                })
        };

        let WitnessBatch {
            rbin_w,
            rdoc_w,
            rdoc_ts_w,
            ..
        } = batch;
        for row in rdoc_w.into_rows() {
            let docid = key_int(&row[0], "RdocW", "docid")?;
            let ts = doc_ts(docid, "RdocW")?;
            self.insert_rdoc_row(row, ts)?;
        }
        for row in rbin_w.into_rows() {
            let docid = key_int(&row[0], "RbinW", "docid")?;
            let ts = doc_ts(docid, "RbinW")?;
            self.insert_rbin_row(row, ts)?;
        }
        for row in rdoc_ts_w.into_rows() {
            let doc = key_doc_id(&row[0], "RdocTSW", "docid")?;
            let ts = ledger_ts(&row[1])?;
            self.insert_ledger_row(row, ts)?;
            self.doc_timestamps.insert(doc, ts);
        }
        if retain_documents {
            for doc in docs {
                self.doc_store.insert(doc.id(), doc.clone());
            }
        }
        Ok(())
    }

    /// Insert one `Rdoc` row into its bucket, maintaining the per-bucket
    /// index and the global string-value row count.
    fn insert_rdoc_row(&mut self, row: Tuple, ts: u64) -> CoreResult<()> {
        let sym = key_sym(&row[2], "Rdoc", "strVal")?;
        let bucket = self.join_bucket(ts);
        let handle = self.rdoc.push(bucket, row)?;
        self.indexes
            .entry(bucket)
            .or_default()
            .rdoc_by_strval
            .entry(sym)
            .or_default()
            .push(handle.offset);
        *self.strval_rows.entry(sym).or_insert(0) += 1;
        Ok(())
    }

    /// Insert one `Rbin` row into its bucket, maintaining the per-bucket
    /// index.
    fn insert_rbin_row(&mut self, row: Tuple, ts: u64) -> CoreResult<()> {
        let docid = key_int(&row[0], "Rbin", "docid")?;
        let node2 = key_int(&row[4], "Rbin", "node2")?;
        let bucket = self.join_bucket(ts);
        let handle = self.rbin.push(bucket, row)?;
        self.indexes
            .entry(bucket)
            .or_default()
            .rbin_by_docnode
            .entry((docid, node2))
            .or_default()
            .push(handle.offset);
        Ok(())
    }

    /// Insert one retention-ledger row (always time-bucketed).
    fn insert_ledger_row(&mut self, row: Tuple, ts: u64) -> CoreResult<()> {
        let bucket = ts / self.width();
        self.ledger.push(bucket, row)?;
        Ok(())
    }

    /// `true` when some resident `Rdoc` row carries this string value.
    pub fn contains_strval(&self, sym: Symbol) -> bool {
        self.strval_rows.contains_key(&sym)
    }

    /// Compute one `RL` slice:
    /// `σ_strVal=s(Rdoc) ⋈_{docid, node=node2} Rbin`, probing only the
    /// buckets whose index mentions `s`.
    pub fn rl_slice(&self, s: Symbol) -> CoreResult<Relation> {
        let mut slice = Relation::new(schemas::rl());
        for (&bucket, index) in &self.indexes {
            let Some(doc_rows) = index.rdoc_by_strval.get(&s) else {
                continue;
            };
            let rdoc_seg = self
                .rdoc
                .bucket(bucket)
                .ok_or(CoreError::internal("indexed bucket has an Rdoc segment"))?;
            for &off in doc_rows {
                let row = rdoc_seg.row(off as usize);
                let docid = key_int(&row[0], "Rdoc", "docid")?;
                let node = key_int(&row[1], "Rdoc", "node")?;
                let Some(bin_rows) = index.rbin_by_docnode.get(&(docid, node)) else {
                    continue;
                };
                let rbin_seg = self
                    .rbin
                    .bucket(bucket)
                    .ok_or(CoreError::internal("indexed bucket has an Rbin segment"))?;
                for &boff in bin_rows {
                    let b = rbin_seg.row(boff as usize);
                    slice.push_values(rl_row(b, s))?;
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
    pub(crate) fn restrict_to_batch(
        &self,
        rdoc_w: &Relation,
        pool: &mut RestrictionScratch,
    ) -> CoreResult<(Relation, Relation)> {
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
        let rbin = self.rbin_for_docids(docids, offs)?;
        Ok((rdoc, rbin))
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
        for (&bucket, index) in &self.indexes {
            offs.clear();
            for s in strvals {
                if let Some(rows) = index.rdoc_by_strval.get(s) {
                    offs.extend_from_slice(rows);
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
            for &off in offs.iter() {
                let row = seg.row(off as usize);
                docids.insert(key_int(&row[0], "Rdoc", "docid")?);
                out.push_values(row.to_vec())?;
            }
        }
        Ok(out)
    }

    /// Restrict the resident `Rbin` state to the rows of the given
    /// documents, gathered through the per-bucket `rbin_by_docnode` indexes.
    /// Row order matches [`JoinState::rdoc_for_strvals`]: bucket order, then
    /// ascending in-bucket offset. `offs` is a pooled work buffer.
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
        for (&bucket, index) in &self.indexes {
            offs.clear();
            for (&(docid, _), rows) in &index.rbin_by_docnode {
                if docids.contains(&docid) {
                    offs.extend_from_slice(rows);
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
            for &off in offs.iter() {
                out.push_values(seg.row(off as usize).to_vec())?;
            }
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

    /// Drop every join-state bucket that lies entirely before `cutoff_ts`
    /// (all of its rows are older than the cutoff) along with its index
    /// segment. O(expired rows); surviving buckets are untouched.
    pub fn evict_join_state(&mut self, cutoff_ts: u64) -> JoinEviction {
        let cutoff_bucket = cutoff_ts / self.width();
        let mut out = JoinEviction::default();
        let keep = self.indexes.split_off(&cutoff_bucket);
        let dropped = std::mem::replace(&mut self.indexes, keep);
        if dropped.is_empty() {
            return out;
        }
        for index in dropped.values() {
            for (sym, rows) in &index.rdoc_by_strval {
                out.expired_strvals.insert(*sym);
                if let Some(count) = self.strval_rows.get_mut(sym) {
                    *count = count.saturating_sub(rows.len());
                    if *count == 0 {
                        self.strval_rows.remove(sym);
                    }
                }
            }
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
    /// inconsistency: index offsets in range, indexed keys matching the
    /// resident rows, full index coverage, the global string-value counters,
    /// document store ⊆ retention map, single-bucket discipline when
    /// unbucketed, and the watermark bounding every retained timestamp.
    /// Read-only. See [`MmqjpEngine::audit`](crate::MmqjpEngine::audit).
    pub fn audit(&self, newest_timestamp: u64, out: &mut Vec<AuditViolation>) {
        let mut rdoc_indexed = 0usize;
        let mut rbin_indexed = 0usize;
        let mut strval_indexed: FxHashMap<Symbol, usize> = FxHashMap::default();
        for (&bucket, index) in &self.indexes {
            match self.rdoc.bucket(bucket) {
                None => {
                    if !index.rdoc_by_strval.is_empty() {
                        out.push(AuditViolation::MissingBucketIndex {
                            relation: "Rdoc",
                            bucket,
                        });
                    }
                }
                Some(seg) => {
                    for (&sym, offs) in &index.rdoc_by_strval {
                        *strval_indexed.entry(sym).or_insert(0) += offs.len();
                        for &off in offs {
                            if off as usize >= seg.len() {
                                out.push(AuditViolation::IndexOffsetOutOfRange {
                                    relation: "Rdoc",
                                    bucket,
                                    offset: off,
                                    rows: seg.len(),
                                });
                                continue;
                            }
                            rdoc_indexed += 1;
                            if seg.row(off as usize)[2] != Value::Sym(sym) {
                                out.push(AuditViolation::IndexKeyMismatch {
                                    relation: "Rdoc",
                                    bucket,
                                    offset: off,
                                });
                            }
                        }
                    }
                }
            }
            match self.rbin.bucket(bucket) {
                None => {
                    if !index.rbin_by_docnode.is_empty() {
                        out.push(AuditViolation::MissingBucketIndex {
                            relation: "Rbin",
                            bucket,
                        });
                    }
                }
                Some(seg) => {
                    for (&(docid, node2), offs) in &index.rbin_by_docnode {
                        for &off in offs {
                            if off as usize >= seg.len() {
                                out.push(AuditViolation::IndexOffsetOutOfRange {
                                    relation: "Rbin",
                                    bucket,
                                    offset: off,
                                    rows: seg.len(),
                                });
                                continue;
                            }
                            rbin_indexed += 1;
                            let row = seg.row(off as usize);
                            if row[0].as_int() != Some(docid) || row[4].as_int() != Some(node2) {
                                out.push(AuditViolation::IndexKeyMismatch {
                                    relation: "Rbin",
                                    bucket,
                                    offset: off,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Every non-empty segment bucket is covered by an index segment, and
        // the indexes address exactly the resident rows.
        for (bucket, seg) in self.rdoc.buckets() {
            if !seg.is_empty() && !self.indexes.contains_key(&bucket) {
                out.push(AuditViolation::MissingBucketIndex {
                    relation: "Rdoc",
                    bucket,
                });
            }
        }
        for (bucket, seg) in self.rbin.buckets() {
            if !seg.is_empty() && !self.indexes.contains_key(&bucket) {
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
        // An unbucketed state collapses its join rows into one bucket.
        if !self.bucketed && self.indexes.len() > 1 {
            out.push(AuditViolation::UnbucketedStateSpread {
                buckets: self.indexes.len(),
            });
        }
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

    /// Drop every retention-ledger bucket entirely before `cutoff_ts`,
    /// evicting the corresponding documents and timestamps. Returns the
    /// number of documents evicted. O(expired documents).
    pub fn evict_documents(&mut self, cutoff_ts: u64) -> usize {
        let cutoff_bucket = cutoff_ts / self.width();
        let mut evicted = 0;
        for (_, seg) in self.ledger.evict_below(cutoff_bucket) {
            for row in seg.iter() {
                debug_assert!(row[0].as_int().is_some(), "ledger rows were validated");
                let Some(doc) = row[0].as_int().and_then(|v| u64::try_from(v).ok()) else {
                    continue;
                };
                let doc = DocId(doc);
                self.doc_timestamps.remove(&doc);
                self.doc_store.remove(&doc);
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_relational::StringInterner;
    use mmqjp_xml::Timestamp;
    use std::sync::Arc;

    /// A minimal batch: one document with one Rdoc / Rbin / ledger row.
    fn batch_for(doc: &Document, strval: &str, interner: &Arc<StringInterner>) -> WitnessBatch {
        let mut b = WitnessBatch::new();
        b.doc_ids.push(doc.id());
        let id = Value::Int(doc.id().raw() as i64);
        b.rdoc_w
            .push_values(vec![
                id.clone(),
                Value::Int(1),
                Value::Sym(interner.intern(strval)),
            ])
            .unwrap();
        b.rbin_w
            .push_values(vec![
                id.clone(),
                Value::Sym(interner.intern("v")),
                Value::Sym(interner.intern("v")),
                Value::Int(0),
                Value::Int(1),
            ])
            .unwrap();
        b.rdoc_ts_w
            .push_values(vec![id, Value::Int(doc.timestamp().raw() as i64)])
            .unwrap();
        b
    }

    fn doc(id: u64, ts: u64) -> Document {
        mmqjp_xml::DocumentBuilder::new("item")
            .finish()
            .with_id(DocId(id))
            .with_timestamp(Timestamp(ts))
    }

    fn state(width: u64) -> (JoinState, Arc<StringInterner>) {
        let mut s = JoinState::new(true);
        s.ensure_width(Some(width)).unwrap();
        (s, Arc::new(StringInterner::new()))
    }

    #[test]
    fn absorb_and_slice() {
        let (mut s, interner) = state(10);
        for i in 1..=5u64 {
            let d = doc(i, i * 7);
            s.absorb(batch_for(&d, "shared", &interner), &[d], true)
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
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), &[d], true)
                .unwrap();
        }
        // Cutoff 35: buckets 1 and 2 (ts 10, 20) lie entirely below it and
        // expire; the ts-30 bucket spans up to 39 and survives, as do
        // 40/50/60 — rows only ever outlive their window by < one bucket.
        let ev = s.evict_join_state(35);
        assert_eq!(ev.buckets, 2);
        assert_eq!(ev.rows, 4); // 2 Rdoc + 2 Rbin rows
        let expired: HashSet<Symbol> = ["val1", "val2"]
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
        // Document eviction follows the ledger independently.
        assert_eq!(s.evict_documents(35), 2);
        assert_eq!(s.docs_retained(), 4);
        assert!(s.document(DocId(1)).is_none());
        assert!(s.document(DocId(3)).is_some());
        // Nothing further expires at the same cutoff.
        let ev = s.evict_join_state(35);
        assert_eq!(ev.buckets, 0);
        assert_eq!(s.evict_documents(35), 0);
    }

    #[test]
    fn unbucketed_state_keeps_one_bucket() {
        let mut s = JoinState::new(false);
        s.ensure_width(Some(10)).unwrap();
        let interner = Arc::new(StringInterner::new());
        for i in 1..=4u64 {
            let d = doc(i, i * 100);
            s.absorb(batch_for(&d, "x", &interner), &[d], false)
                .unwrap();
        }
        assert_eq!(s.num_buckets(), 1);
        // Documents are still evicted through the (always bucketed) ledger.
        assert_eq!(s.evict_documents(250), 2);
        assert_eq!(s.docs_retained(), 2);
        // Join state is untouched: this configuration never drops it.
        assert_eq!(s.rdoc_len(), 4);
    }

    #[test]
    fn join_state_is_borrowed_for_evaluation() {
        // The old take/restore round trip is gone: plan execution borrows
        // the segmented relations in place (via ChunkedRows) and the state
        // keeps serving slices throughout.
        let (mut s, interner) = state(10);
        let d = doc(1, 5);
        s.absorb(batch_for(&d, "t", &interner), &[d], false)
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
        let mut s = JoinState::new(true);
        s.ensure_width(None).unwrap();
        assert_eq!(s.bucket_width(), Some(DEFAULT_BUCKET_WIDTH));
        // A real bound appearing later revises it.
        s.ensure_width(Some(JoinState::derive_width(160))).unwrap();
        assert_eq!(s.bucket_width(), Some(10));
        // A final width never changes again.
        s.ensure_width(Some(99)).unwrap();
        assert_eq!(s.bucket_width(), Some(10));
    }

    #[test]
    fn provisional_width_rebuckets_resident_state() {
        // Documents absorbed before any window is known land in the
        // provisional (coarse) buckets; when the first bound appears, rows
        // are re-partitioned so eviction granularity matches the windows.
        let mut s = JoinState::new(true);
        let interner = Arc::new(StringInterner::new());
        s.ensure_width(None).unwrap();
        for i in 1..=4u64 {
            let d = doc(i, i * 10);
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), &[d], true)
                .unwrap();
        }
        // Everything sits in one coarse provisional bucket.
        assert_eq!(s.num_buckets(), 1);
        // A window of 160 time units registers: width becomes 10.
        s.ensure_width(Some(JoinState::derive_width(160))).unwrap();
        assert_eq!(s.bucket_width(), Some(10));
        assert_eq!(s.num_buckets(), 4);
        assert_eq!(s.rdoc_len(), 4);
        // Slices and eviction now work at the revised granularity: cutoff
        // 35 drops the ts-10 and ts-20 buckets (the ts-30 bucket spans up
        // to 39 and survives).
        assert_eq!(s.rl_slice(interner.get("val2").unwrap()).unwrap().len(), 1);
        let ev = s.evict_join_state(35);
        assert_eq!(ev.buckets, 2);
        assert!(!s.contains_strval(interner.get("val1").unwrap()));
        assert!(s.contains_strval(interner.get("val3").unwrap()));
        assert_eq!(s.evict_documents(35), 2);
        assert_eq!(s.docs_retained(), 2);
    }

    #[test]
    fn tighten_width_repartitions_resident_state() {
        let (mut s, interner) = state(625);
        for i in 1..=5u64 {
            let d = doc(i, i * 40);
            s.absorb(batch_for(&d, &format!("val{i}"), &interner), &[d], true)
                .unwrap();
        }
        // All rows share the single coarse bucket: a cutoff of 100 evicts
        // nothing.
        assert_eq!(s.num_buckets(), 1);
        assert_eq!(s.evict_join_state(100).buckets, 0);
        assert_eq!(s.evict_documents(100), 0);

        // The retention bound tightened (widest window departed): width 10.
        s.tighten_width(10).unwrap();
        assert_eq!(s.bucket_width(), Some(10));
        assert_eq!(s.num_buckets(), 5);
        assert_eq!(s.rdoc_len(), 5);
        // Slices still work and eviction now operates at the new granularity.
        assert_eq!(s.rl_slice(interner.get("val3").unwrap()).unwrap().len(), 1);
        let ev = s.evict_join_state(100);
        assert_eq!(ev.buckets, 2); // ts 40 and 80
        assert_eq!(s.evict_documents(100), 2);
        assert_eq!(s.docs_retained(), 3);
        // Widening (or equal) requests are no-ops.
        s.tighten_width(10_000).unwrap();
        assert_eq!(s.bucket_width(), Some(10));
    }

    #[test]
    fn tighten_width_places_orphan_rows_conservatively() {
        // A join-state row whose document already left the retention maps
        // must land in the *latest* bucket its old bucket could span.
        let (mut s, interner) = state(100);
        let d = doc(1, 30);
        s.absorb(batch_for(&d, "v", &interner), &[d], true).unwrap();
        // Forget the document (as retention-cap eviction would) but keep the
        // join rows: evict via the ledger only.
        assert_eq!(s.evict_documents(200), 1);
        assert_eq!(s.rdoc_len(), 1);
        s.tighten_width(10).unwrap();
        // The orphan row sits in the last bucket of old bucket 0 (ts 99 →
        // bucket 9), surviving any cutoff its real timestamp could survive.
        let ev = s.evict_join_state(31);
        assert_eq!(ev.rows, 0);
        let ev = s.evict_join_state(100);
        assert_eq!(ev.rows, 2);
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let (mut s, interner) = state(10);
        for i in 1..=4u64 {
            let d = doc(i, i * 7);
            s.absorb(batch_for(&d, "shared", &interner), &[d], true)
                .unwrap();
        }
        s.evict_join_state(15);
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

        // Seed an out-of-range index offset.
        let bucket = *s.indexes.keys().next().unwrap();
        s.indexes
            .get_mut(&bucket)
            .unwrap()
            .rdoc_by_strval
            .get_mut(&sym)
            .unwrap()
            .push(10_000);
        let mut out = Vec::new();
        s.audit(28, &mut out);
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::IndexOffsetOutOfRange {
                relation: "Rdoc",
                ..
            }
        )));

        // An orphan stored document (no retention timestamp) is caught.
        let (mut s2, interner2) = state(10);
        let d = doc(9, 50);
        s2.absorb(
            batch_for(&d, "x", &interner2),
            std::slice::from_ref(&d),
            true,
        )
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
            s.absorb(batch_for(&d, strval, &interner), &[d], false)
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
}
