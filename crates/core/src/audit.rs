//! Engine invariant auditing.
//!
//! [`MmqjpEngine::audit`](crate::MmqjpEngine::audit) and
//! [`ShardedEngine::audit`](crate::ShardedEngine::audit) cross-check the
//! engine's redundant bookkeeping structures against each other and report
//! every inconsistency as a typed [`AuditViolation`]. The checks cover:
//!
//! - **Registry refcounts** — the Stage-1 pattern index's per-pattern
//!   refcounts, the per-`(pattern, edge)` request refcounts and the
//!   canonical-variable refcounts must all equal what a recount over the
//!   live queries' registrations produces, the deterministic
//!   requested-edge lists must mirror the refcount maps, every symbol
//!   an edge cached at registration must still be its variable's symbol,
//!   and a live Stage-1 emission plan must equal a fresh compile of the
//!   lists (the sharded front's, of the lists and the router's shard sets).
//! - **Catalog discipline** — tombstoned template slots are never referenced
//!   by a live registration, every template's `RT` relation holds exactly
//!   one tuple per live member orientation, and the `rid` resolution map is
//!   in one-to-one correspondence with the live orientations.
//! - **Shape memo** — each memoized query shape is held by exactly its
//!   refcount of live queries, names only live templates and patterns, and
//!   re-deriving it from its key (normalize, reduce, match against the live
//!   template) reproduces its template, assignment, patterns and edges.
//!   The list of live single-block subscriptions equals a recount.
//! - **Window multiset** — the registered window multiset equals a recount
//!   over the live join queries (so retention bounds always tighten
//!   correctly on churn).
//! - **Join state** — every per-bucket secondary index is an intact set of
//!   chains (each row on exactly one chain of its recorded length, walks
//!   bounded so a cycle cannot hang the audit), every chained offset
//!   addresses a resident row whose key column matches the chain's key, the
//!   per-string
//!   row counts equal the per-bucket index sums, retained documents are a
//!   subset of the retention-timestamp map, and the watermark never lags a
//!   retained timestamp.
//! - **Interner index** — every interned string finds its own symbol
//!   through the hash index, which files exactly one entry per string.
//! - **Stats identities** — documents are never counted more than the
//!   document sequence assigned, and (sharded) the per-shard live-query
//!   counts sum to the coordinator's total while shards never count
//!   documents themselves.
//!
//! An audit never mutates the engine; a healthy engine returns an empty
//! vector. Any violation indicates an engine bug (not a user error) — the
//! correctness suites run the auditor after every scenario.

use std::fmt;

/// One violated engine invariant, reported by an audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// The registry's live-query counter disagrees with a recount of the
    /// non-tombstoned query slots.
    LiveQueryCount {
        /// The maintained counter.
        tracked: usize,
        /// The recount.
        counted: usize,
    },
    /// The registry's list of live single-block subscriptions — the one
    /// Stage 1 reads every batch — differs from a recount over the live
    /// queries in query-id order.
    SingleBlockList {
        /// Ids in the maintained list.
        listed: usize,
        /// Live single-block subscriptions.
        expected: usize,
    },
    /// The template catalog's population differs from the live templates.
    CatalogSize {
        /// Entries in the isomorphism catalog.
        catalog: usize,
        /// Live (non-tombstoned) template runtimes.
        live_templates: usize,
    },
    /// A live registration points at a tombstoned (retired) template slot.
    RetiredTemplateReferenced {
        /// The referencing query id.
        query: u64,
        /// The retired template slot.
        template: usize,
    },
    /// A template's `RT` relation does not hold exactly one tuple per live
    /// member orientation.
    TemplateMembership {
        /// The template slot.
        template: usize,
        /// Tuples in the template's `RT` relation.
        rt_rows: usize,
        /// Live registrations referencing the template.
        registrations: usize,
    },
    /// A live orientation's `rid` has no tuple in its template's `RT`
    /// relation.
    MissingRtTuple {
        /// The template slot.
        template: usize,
        /// The registration id missing from `RT`.
        rid: i64,
    },
    /// The `rid` resolution map disagrees with the live orientations.
    RidMap {
        /// The offending registration id.
        rid: i64,
        /// What is wrong with its mapping.
        reason: &'static str,
    },
    /// A pattern's index refcount differs from the number of live
    /// registrations that registered it.
    PatternRefcount {
        /// The pattern id.
        pattern: u32,
        /// The pattern index's refcount.
        index_refs: usize,
        /// Live registrations of the pattern.
        expected: usize,
    },
    /// A `(pattern, edge)` request refcount differs from the number of live
    /// registrations requesting that edge.
    EdgeRefcount {
        /// The pattern id.
        pattern: u32,
        /// The edge, by its endpoint pattern nodes.
        edge: (u32, u32),
        /// The maintained refcount (`0` when the entry is missing).
        tracked: usize,
        /// Live registrations requesting the edge.
        expected: usize,
    },
    /// A pattern's deterministic requested-edge list does not mirror its
    /// refcount map (duplicate, missing or spurious entries).
    RequestedEdgeList {
        /// The pattern id.
        pattern: u32,
        /// What is wrong with the list.
        reason: &'static str,
    },
    /// A requested edge's cached variable symbols or node sources differ
    /// from what its pattern's variables and node tests resolve to — the
    /// witness rows of that edge would be ingested under the wrong names.
    RequestedEdgeSymbols {
        /// The pattern id.
        pattern: u32,
        /// The edge, by its endpoint pattern nodes.
        edge: (u32, u32),
    },
    /// A live Stage-1 emission plan (compiled for the pattern index's
    /// current generation) differs from a fresh compile of the
    /// requested-edge lists: rows would be numbered against the wrong
    /// edges, or a member suppressed against an emitter whose rows reach
    /// other consumers.
    EmitPlan {
        /// Which part of the plan differs.
        reason: &'static str,
    },
    /// A canonical variable's refcount differs from the number of distinct
    /// live patterns binding it.
    VariableRefcount {
        /// The variable name.
        variable: String,
        /// The maintained refcount (`0` when the entry is missing).
        tracked: usize,
        /// Distinct live patterns binding the variable.
        expected: usize,
    },
    /// The registered window multiset differs from a recount over the live
    /// join queries.
    WindowMultiset {
        /// What is wrong with the multiset.
        reason: &'static str,
    },
    /// A secondary-index entry addresses a row beyond its bucket segment.
    IndexOffsetOutOfRange {
        /// The indexed relation.
        relation: &'static str,
        /// The bucket holding the entry.
        bucket: u64,
        /// The out-of-range in-bucket offset.
        offset: u32,
        /// Rows resident in the bucket's segment.
        rows: usize,
    },
    /// A secondary-index entry addresses a row whose key columns do not
    /// match the index key it is filed under.
    IndexKeyMismatch {
        /// The indexed relation.
        relation: &'static str,
        /// The bucket holding the entry.
        bucket: u64,
        /// The in-bucket offset of the mismatched row.
        offset: u32,
    },
    /// A bucket's chained secondary index is broken: its successor array is
    /// not parallel to the segment, a chain's walk does not cover exactly
    /// its recorded length and end at its successor-free tail, or a row lies
    /// on no chain or on more than one (a cycle included).
    IndexChain {
        /// The indexed relation.
        relation: &'static str,
        /// The bucket holding the broken index.
        bucket: u64,
    },
    /// The total number of indexed rows differs from the resident rows.
    IndexedRowCount {
        /// The indexed relation.
        relation: &'static str,
        /// Rows reachable through the per-bucket indexes.
        indexed: usize,
        /// Rows resident in the segmented relation.
        resident: usize,
    },
    /// A segment bucket has no secondary index (or an index addresses a
    /// bucket with no segment at all).
    MissingBucketIndex {
        /// The indexed relation.
        relation: &'static str,
        /// The uncovered bucket.
        bucket: u64,
    },
    /// The global per-string-value row count differs from the per-bucket
    /// index sums.
    StrvalRowCount {
        /// Sum of the maintained per-string counters.
        tracked: usize,
        /// Rows filed under string values across all bucket indexes.
        indexed: usize,
    },
    /// A stored document has no retention timestamp (the store must be a
    /// subset of the timestamp map).
    OrphanStoredDocument {
        /// The stored document id.
        doc: u64,
    },
    /// An unbucketed join state spread across more than one bucket.
    UnbucketedStateSpread {
        /// Resident buckets.
        buckets: usize,
    },
    /// The engine's high-water timestamp lags a retained document timestamp
    /// (the watermark must be monotone over everything absorbed).
    WatermarkRegression {
        /// The engine's newest-timestamp watermark.
        newest: u64,
        /// The retained timestamp above it.
        observed: u64,
    },
    /// More documents were counted as processed than document sequence
    /// numbers were assigned.
    DocumentAccounting {
        /// Documents counted as processed.
        documents_processed: usize,
        /// Document sequence numbers assigned.
        doc_seq: u64,
    },
    /// A violation reported by one shard of a [`ShardedEngine`]
    /// (shard-local audit, wrapped with the shard index).
    ///
    /// [`ShardedEngine`]: crate::ShardedEngine
    Shard {
        /// The reporting shard.
        shard: usize,
        /// The shard-local violation.
        violation: Box<AuditViolation>,
    },
    /// The coordinator's live-query total differs from the sum of its
    /// per-shard counts (or from the shards' own registries).
    QueriesPerShardSum {
        /// The coordinator's total.
        tracked: usize,
        /// The per-shard sum.
        summed: usize,
    },
    /// A shard of a [`ShardedEngine`](crate::ShardedEngine) counted
    /// documents itself (only the front stage counts documents).
    HybridShardCountsDocuments {
        /// The offending shard.
        shard: usize,
        /// Documents it counted.
        documents: usize,
    },
    /// The front stage's mirrored subscription state (master index, edge
    /// refcounts, requested-edge union or router table) disagrees with a
    /// recount over the live query footprints.
    FrontSubscription {
        /// The pattern id involved (`u32::MAX` for pattern-independent
        /// checks).
        pattern: u32,
        /// What is inconsistent.
        reason: &'static str,
    },
    /// The front stage's single-block subscription list disagrees with the
    /// live footprints.
    FrontSinglesCount {
        /// Entries in the front's single-block list.
        listed: usize,
        /// Live footprints with a single-block subscription.
        expected: usize,
    },
    /// The coordinator's retained-query ledger (kept for crash recovery)
    /// disagrees with the live-query count — a dead shard could not be
    /// rebuilt faithfully.
    RetainedQueryCount {
        /// Queries in the retained ledger.
        retained: usize,
        /// Live queries tracked by the coordinator.
        live: usize,
    },
    /// The replay log retains a batch that has aged beyond the retention
    /// bound (the log must stay bounded by the registered windows and cap).
    ReplayLogOverRetention {
        /// Newest timestamp of the oldest retained batch.
        oldest: u64,
        /// The eviction cutoff it should have been retired at.
        cutoff: u64,
    },
    /// The registry's shape memo disagrees with the live queries or with a
    /// re-derivation of an entry from its key: a refcount that is not the
    /// number of live queries holding the entry, a live query whose shape is
    /// not filed, a retired template or dropped pattern named by a live
    /// entry, or a stored template, assignment, pattern or edge list that
    /// re-deriving the key does not reproduce.
    ShapeMemo {
        /// What is inconsistent.
        reason: &'static str,
    },
    /// The string interner's hash index disagrees with its string table: a
    /// symbol is not found by looking up its own string, or the index files
    /// a different number of entries than there are strings.
    InternerIndex {
        /// Symbols filed in the hash index.
        indexed: usize,
        /// Interned strings.
        strings: usize,
        /// The first symbol its own string does not find, if any.
        unreachable: Option<u32>,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::LiveQueryCount { tracked, counted } => write!(
                f,
                "live-query counter {tracked} != {counted} non-tombstoned query slots"
            ),
            AuditViolation::SingleBlockList { listed, expected } => write!(
                f,
                "single-block list ({listed} ids) differs from the {expected} live single-block subscriptions"
            ),
            AuditViolation::CatalogSize {
                catalog,
                live_templates,
            } => write!(
                f,
                "template catalog holds {catalog} entries for {live_templates} live templates"
            ),
            AuditViolation::RetiredTemplateReferenced { query, template } => write!(
                f,
                "query {query} references retired template slot {template}"
            ),
            AuditViolation::TemplateMembership {
                template,
                rt_rows,
                registrations,
            } => write!(
                f,
                "template {template} holds {rt_rows} RT tuples for {registrations} live orientations"
            ),
            AuditViolation::MissingRtTuple { template, rid } => {
                write!(f, "template {template} has no RT tuple for rid {rid}")
            }
            AuditViolation::RidMap { rid, reason } => {
                write!(f, "rid map entry {rid}: {reason}")
            }
            AuditViolation::PatternRefcount {
                pattern,
                index_refs,
                expected,
            } => write!(
                f,
                "pattern {pattern} refcount {index_refs} != {expected} live registrations"
            ),
            AuditViolation::EdgeRefcount {
                pattern,
                edge,
                tracked,
                expected,
            } => write!(
                f,
                "pattern {pattern} edge ({}, {}) refcount {tracked} != {expected} live requests",
                edge.0, edge.1
            ),
            AuditViolation::RequestedEdgeList { pattern, reason } => {
                write!(f, "pattern {pattern} requested-edge list: {reason}")
            }
            AuditViolation::RequestedEdgeSymbols { pattern, edge } => write!(
                f,
                "pattern {pattern} edge ({}, {}) caches symbols or sources its pattern does not resolve to",
                edge.0, edge.1
            ),
            AuditViolation::EmitPlan { reason } => {
                write!(f, "Stage-1 emission plan differs from a fresh compile in {reason}")
            }
            AuditViolation::VariableRefcount {
                variable,
                tracked,
                expected,
            } => write!(
                f,
                "variable {variable:?} refcount {tracked} != {expected} live patterns binding it"
            ),
            AuditViolation::WindowMultiset { reason } => {
                write!(f, "window multiset: {reason}")
            }
            AuditViolation::IndexOffsetOutOfRange {
                relation,
                bucket,
                offset,
                rows,
            } => write!(
                f,
                "{relation} bucket {bucket} index offset {offset} out of range for {rows} rows"
            ),
            AuditViolation::IndexKeyMismatch {
                relation,
                bucket,
                offset,
            } => write!(
                f,
                "{relation} bucket {bucket} row {offset} does not match its index key"
            ),
            AuditViolation::IndexChain { relation, bucket } => {
                write!(f, "{relation} bucket {bucket} index chains are broken")
            }
            AuditViolation::IndexedRowCount {
                relation,
                indexed,
                resident,
            } => write!(
                f,
                "{relation} indexes address {indexed} rows but {resident} are resident"
            ),
            AuditViolation::MissingBucketIndex { relation, bucket } => {
                write!(f, "{relation} bucket {bucket} has no matching index segment")
            }
            AuditViolation::StrvalRowCount { tracked, indexed } => write!(
                f,
                "string-value row counters track {tracked} rows but indexes hold {indexed}"
            ),
            AuditViolation::OrphanStoredDocument { doc } => {
                write!(f, "stored document {doc} has no retention timestamp")
            }
            AuditViolation::UnbucketedStateSpread { buckets } => write!(
                f,
                "unbucketed join state spread across {buckets} buckets"
            ),
            AuditViolation::WatermarkRegression { newest, observed } => write!(
                f,
                "watermark {newest} lags retained timestamp {observed}"
            ),
            AuditViolation::DocumentAccounting {
                documents_processed,
                doc_seq,
            } => write!(
                f,
                "{documents_processed} documents counted against {doc_seq} assigned sequence numbers"
            ),
            AuditViolation::Shard { shard, violation } => {
                write!(f, "shard {shard}: {violation}")
            }
            AuditViolation::QueriesPerShardSum { tracked, summed } => write!(
                f,
                "coordinator tracks {tracked} live queries but shards hold {summed}"
            ),
            AuditViolation::HybridShardCountsDocuments { shard, documents } => write!(
                f,
                "shard {shard} counted {documents} documents itself"
            ),
            AuditViolation::FrontSubscription { pattern, reason } => {
                write!(f, "front subscription state (pattern {pattern}): {reason}")
            }
            AuditViolation::FrontSinglesCount { listed, expected } => write!(
                f,
                "front lists {listed} single-block subscriptions for {expected} live footprints"
            ),
            AuditViolation::RetainedQueryCount { retained, live } => write!(
                f,
                "recovery ledger retains {retained} queries for {live} live queries"
            ),
            AuditViolation::ReplayLogOverRetention { oldest, cutoff } => write!(
                f,
                "replay log retains a batch (newest ts {oldest}) beyond eviction cutoff {cutoff}"
            ),
            AuditViolation::ShapeMemo { reason } => write!(f, "shape memo: {reason}"),
            AuditViolation::InternerIndex {
                indexed,
                strings,
                unreachable,
            } => {
                write!(f, "interner indexes {indexed} symbols for {strings} strings")?;
                match unreachable {
                    Some(sym) => write!(f, "; symbol {sym} is not found by its own string"),
                    None => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_their_evidence() {
        let v = AuditViolation::PatternRefcount {
            pattern: 3,
            index_refs: 2,
            expected: 1,
        };
        assert!(v.to_string().contains("pattern 3"));
        assert!(v.to_string().contains("refcount 2"));
        let v = AuditViolation::Shard {
            shard: 1,
            violation: Box::new(AuditViolation::StrvalRowCount {
                tracked: 5,
                indexed: 4,
            }),
        };
        assert!(v.to_string().starts_with("shard 1:"));
        assert!(v.to_string().contains('5'));
        let v = AuditViolation::EdgeRefcount {
            pattern: 0,
            edge: (1, 2),
            tracked: 0,
            expected: 1,
        };
        assert!(v.to_string().contains("(1, 2)"));
        let v = AuditViolation::WatermarkRegression {
            newest: 10,
            observed: 11,
        };
        assert!(v.to_string().contains("lags"));
        let v = AuditViolation::IndexChain {
            relation: "Rbin",
            bucket: 4,
        };
        assert_eq!(v.to_string(), "Rbin bucket 4 index chains are broken");
        let v = AuditViolation::InternerIndex {
            indexed: 3,
            strings: 4,
            unreachable: Some(3),
        };
        assert!(v.to_string().contains("3 symbols for 4 strings"));
        assert!(v.to_string().contains("symbol 3"));
        let v = AuditViolation::EmitPlan {
            reason: "its edge classes",
        };
        assert!(v.to_string().ends_with("fresh compile in its edge classes"));
    }
}
