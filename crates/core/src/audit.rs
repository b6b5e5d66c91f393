//! Engine invariant auditing.
//!
//! [`MmqjpEngine::audit`](crate::MmqjpEngine::audit) and
//! [`ShardedEngine::audit`](crate::ShardedEngine::audit) cross-check the
//! engine's redundant bookkeeping structures against each other and report
//! every inconsistency as a typed [`AuditViolation`]. The checks cover:
//!
//! - **The front** — one audit for both engines: the front holds one
//!   subscription per live query, each live clause's pattern ids are held
//!   by exactly its refcount of subscriptions and name live patterns equal
//!   to the clause's blocks, and in its Stage-1 table the pattern index's
//!   per-pattern refcounts, the per-`(pattern, edge, consumer)` request
//!   refcounts and the single-block list must equal what a recount over the
//!   subscriptions produces, the deterministic requested-edge lists must run
//!   parallel to the refcounts, every symbol an edge cached at registration
//!   must still be its variable's symbol, and a live emission plan must
//!   equal a fresh compile of the lists and their consumers.
//! - **Registry refcounts** — the canonical-variable refcounts must equal a
//!   recount over the live queries' shapes.
//! - **Catalog discipline** — tombstoned template slots are never referenced
//!   by a live registration, and every template's `RT` relation holds
//!   exactly one tuple per live member orientation.
//! - **Plan memos** — every live template plan's memoized join order is a
//!   permutation of its body atoms whose stored step program equals one
//!   derived afresh from it, and every join table the plan keeps across
//!   executions is over the template's `RT`, stamped with a version `RT`
//!   has reached.
//! - **Shape memo** — each memoized query shape is held by exactly its
//!   refcount of live queries, names only live templates and patterns, and
//!   re-deriving it from its key (normalize, reduce, match against the live
//!   template) reproduces its template, assignment, patterns and edges.
//! - **Window multiset** — the registered window multiset equals a recount
//!   over the live join queries (so retention bounds always tighten
//!   correctly on churn).
//! - **Join state** — every per-bucket secondary index is an intact set of
//!   chains (each row on exactly one chain of its recorded length, walks
//!   bounded so a cycle cannot hang the audit), every chained offset
//!   addresses a resident row whose key column matches the chain's key, the
//!   per-string
//!   row counts equal the per-bucket index sums, retained documents are a
//!   subset of the retention-timestamp map, every resident row's document is
//!   filed with its timestamp in the row's bucket, and the watermark never
//!   lags a retained timestamp.
//! - **Interner index** — every interned string finds its own symbol
//!   through the hash index, which files exactly one entry per string.
//! - **Stats identities** — the front never counts more documents than
//!   the document sequence it assigned (it alone counts documents).
//!
//! An audit never mutates the engine; a healthy engine returns an empty
//! vector. Any violation indicates an engine bug (not a user error) — the
//! correctness suites run the auditor after every scenario.

use std::fmt;

/// One violated engine invariant, reported by an audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditViolation {
    /// A Stage-1 table's list of live single-block subscriptions — the one
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
    /// A `(pattern, edge, consumer)` request refcount differs from the
    /// number of live registrations requesting that edge for that consumer.
    EdgeRefcount {
        /// The pattern id.
        pattern: u32,
        /// The edge, by its endpoint pattern nodes.
        edge: (u32, u32),
        /// The consumer of the edge's rows: a shard, or `0` in the single
        /// engine.
        consumer: usize,
        /// The maintained refcount (`0` when the entry is missing).
        tracked: usize,
        /// Live registrations requesting the edge.
        expected: usize,
    },
    /// A pattern's deterministic requested-edge list does not run parallel
    /// to its per-consumer refcounts (a duplicate edge, an edge without a
    /// consumer, unordered or zero counts).
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
    /// A resident `Rdoc` / `Rbin` row whose document is not filed with its
    /// timestamp in the row's bucket, or (`RdocTS`) a timestamp not filed
    /// exactly once in the bucket it names.
    UnfiledDocument {
        /// `Rdoc`, `Rbin` or `RdocTS`.
        relation: &'static str,
        /// The bucket that should file the document.
        bucket: u64,
        /// The document id.
        doc: u64,
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
    /// A front's subscriptions disagree with its owner's live queries, or a
    /// live clause's pattern ids with its subscriptions or its blocks.
    FrontSubscription {
        /// The pattern id involved (`u32::MAX` for pattern-independent
        /// checks).
        pattern: u32,
        /// What is inconsistent.
        reason: &'static str,
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
    /// A template plan's memo is out of step: its stored step program is
    /// not the one its memoized join order derives, or a join table it keeps
    /// across executions is over another input than the template's `RT` or
    /// stamped with a version `RT` never reached — the table would be
    /// trusted for rows it was not built over.
    PlanMemo {
        /// The template slot.
        template: usize,
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
                consumer,
                tracked,
                expected,
            } => write!(
                f,
                "pattern {pattern} edge ({}, {}) consumer {consumer} refcount {tracked} != {expected} live requests",
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
            AuditViolation::UnfiledDocument { relation, bucket, doc } => {
                write!(f, "{relation} bucket {bucket} does not file document {doc}")
            }
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
            AuditViolation::FrontSubscription { pattern, reason } => {
                write!(f, "front subscription state (pattern {pattern}): {reason}")
            }
            AuditViolation::RetainedQueryCount { retained, live } => write!(
                f,
                "recovery ledger retains {retained} queries for {live} live queries"
            ),
            AuditViolation::ReplayLogOverRetention { oldest, cutoff } => write!(
                f,
                "replay log retains a batch (newest ts {oldest}) beyond eviction cutoff {cutoff}"
            ),
            AuditViolation::ShapeMemo { reason } => write!(f, "shape memo: {reason}"),
            AuditViolation::PlanMemo { template, reason } => {
                write!(f, "template {template} plan memo: {reason}")
            }
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
            consumer: 3,
            tracked: 0,
            expected: 1,
        };
        assert!(v.to_string().contains("(1, 2) consumer 3"));
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
        let v = AuditViolation::PlanMemo {
            template: 2,
            reason: "a kept join table newer than its template's RT",
        };
        assert_eq!(
            v.to_string(),
            "template 2 plan memo: a kept join table newer than its template's RT"
        );
    }
}
