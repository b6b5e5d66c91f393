//! Stage 1, end to end: the front of the `front → route → join → merge`
//! pipeline and the only caller of the pattern automaton in this crate.
//!
//! The front does two things, each exactly once in `mmqjp-core`:
//!
//! * **Screening** ([`screen_and_stamp`]): a batch is checked against the
//!   stream watermarks, survivors are stamped with their document id and
//!   timestamp, and a poison (out-of-order) document is handled per
//!   [`PoisonHandling`]. Whoever owns a stream position — the single engine
//!   or the sharded engine's front stage — screens through this one function.
//! * **Matching** ([`match_document`]): one shared automaton pass per
//!   document answers every registered pattern; the single-block answers and
//!   the requested-edge node pairs are both read off that pass.
//!   [`evaluate_batch`] adds witness ingest for callers that join in-thread.
//!
//! Matching emits integer [`WitnessRow`]s — `(pattern, edge number, node1,
//! node2)` — and nothing else: every string the witness relations need
//! besides node values (the edge's two variable names, whether an end is an
//! attribute step) was resolved once, when the edge was first requested, into
//! its [`RequestedEdge`]. [`WitnessBatch::ingest_document`] turns rows into
//! `RbinW`/`RdocW` tuples.
//!
//! [`MmqjpEngine`](crate::MmqjpEngine) runs the front inline and hands its
//! output straight to the join stage; [`ShardedEngine`](crate::ShardedEngine)
//! runs the same functions on the caller's thread and its front workers and
//! puts a [`WitnessRouter`](crate::WitnessRouter) in between. The per-pattern DOM
//! matcher (`PatternIndex::evaluate_edge_bindings`,
//! `PatternMatcher::witnesses`) is not a production path; it lives on in
//! `mmqjp-xpath` as the reference the Stage-1 differential tests compare
//! this module against.

use crate::audit::AuditViolation;
use crate::config::FaultPolicy;
use crate::error::{CoreError, CoreResult};
use crate::fault::QuarantineRecord;
use crate::output::{Binding, MatchOutput};
use crate::relations::{IngestScratch, WitnessBatch};
use mmqjp_relational::{StringInterner, Symbol};
use mmqjp_xml::{DocId, Document, NodeId, Timestamp};
use mmqjp_xpath::{
    NodeTest, PatternId, PatternIndex, PatternMatcher, PatternNodeId, SharedPass, TreePattern,
};
use mmqjp_xscl::{QueryId, SelectClause};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A structural pattern edge, identified by its endpoint pattern nodes.
pub type Edge = (PatternNodeId, PatternNodeId);

/// The edges the join stage wants bindings for, per join-side pattern, in
/// first-request order. A [`WitnessRow`] names its edge by position in its
/// pattern's list.
pub type RequestedEdges = HashMap<PatternId, Vec<RequestedEdge>>;

/// What one end of a requested edge binds, read off its pattern node's test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSource {
    /// An element step: the element, valued by its XPath string value.
    Element,
    /// An attribute step `@name`. It binds the element carrying the
    /// attribute, but is valued by the attribute and keyed apart from the
    /// element in the node columns (see
    /// [`node_key`](crate::relations::node_key)).
    Attribute(Arc<str>),
}

/// One requested edge of a join-side pattern, resolved when it is first
/// requested into everything witness ingest needs, so that ingest interns
/// node values and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestedEdge {
    /// The edge, by its endpoint pattern nodes.
    pub edge: Edge,
    /// Symbol of the ancestor end's canonical variable (`RbinW.var1`).
    pub var1: Symbol,
    /// Symbol of the descendant end's canonical variable (`RbinW.var2`).
    pub var2: Symbol,
    /// What the ancestor end binds.
    pub source1: NodeSource,
    /// What the descendant end binds; its value fills `RdocW`.
    pub source2: NodeSource,
}

impl RequestedEdge {
    /// Resolve `edge` of `pattern`: intern both endpoint variables and read
    /// each end's [`NodeSource`] off its node test. `None` when an endpoint
    /// is out of range or carries no variable (registered patterns carry
    /// canonical variables on every node).
    pub fn resolve(pattern: &TreePattern, edge: Edge, interner: &StringInterner) -> Option<Self> {
        Self::resolve_with(pattern, edge, |var| Some(interner.intern(var)))
    }

    fn resolve_with(
        pattern: &TreePattern,
        edge: Edge,
        symbol: impl Fn(&str) -> Option<Symbol>,
    ) -> Option<Self> {
        let end = |id: PatternNodeId| {
            let node = (id.index() < pattern.len()).then(|| pattern.node(id))?;
            let source = match node.test() {
                NodeTest::Attribute(name) => NodeSource::Attribute(name.as_str().into()),
                _ => NodeSource::Element,
            };
            Some((symbol(node.variable()?)?, source))
        };
        let ((var1, source1), (var2, source2)) = (end(edge.0)?, end(edge.1)?);
        Some(RequestedEdge {
            edge,
            var1,
            var2,
            source1,
            source2,
        })
    }
}

/// Check every live pattern's requested edges against the pattern: the
/// cached symbols must be the interner's symbols of the edge's variables,
/// and the sources must follow the node tests. Read-only (looks symbols up,
/// never interns). Shared by the registry audit and the sharded front-stage
/// audit, which each resolve their own lists.
pub(crate) fn audit_requested_symbols(
    index: &PatternIndex,
    requested: &RequestedEdges,
    interner: &StringInterner,
    out: &mut Vec<AuditViolation>,
) {
    for (pid, pattern) in index.patterns() {
        for cached in requested.get(&pid).into_iter().flatten() {
            let expected = RequestedEdge::resolve_with(pattern, cached.edge, |v| interner.get(v));
            if expected.as_ref() != Some(cached) {
                out.push(AuditViolation::RequestedEdgeSymbols {
                    pattern: pid.raw(),
                    edge: (cached.edge.0.raw(), cached.edge.1.raw()),
                });
            }
        }
    }
}

/// One Stage-1 witness row: document nodes `(node1, node2)` bound to the
/// ends of edge number `edge` of pattern `pid`'s [`RequestedEdges`] list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessRow {
    /// The join-side pattern.
    pub pid: PatternId,
    /// Position of the edge in the pattern's requested-edge list.
    pub edge: u32,
    /// Node bound to the edge's ancestor end.
    pub node1: NodeId,
    /// Node bound to the edge's descendant end.
    pub node2: NodeId,
}

/// One single-block subscription as Stage 1 sees it: answered entirely from
/// the automaton pass, never joined.
#[derive(Debug, Clone, Copy)]
pub struct SingleBlock<'a> {
    /// The id its matches are reported under.
    pub query: QueryId,
    /// Where [`pattern`](Self::pattern) sits in the pattern index.
    pub pid: PatternId,
    /// The subscription's own (normalized) pattern; its variable names label
    /// the reported bindings.
    pub pattern: &'a TreePattern,
    /// The `PUBLISH` name, if any.
    pub publish: &'a Option<String>,
    /// The `SELECT` clause.
    pub select: SelectClause,
}

/// Everything Stage 1 evaluates a document against, borrowed from its owner
/// for the duration of one batch: a [`Registry`](crate::Registry) in the
/// single engine, the master front state (on the caller's thread) or a front
/// worker's snapshot of it in the sharded one.
#[derive(Debug)]
pub struct Subscriptions<'a> {
    /// Every live pattern, join-side and single-block alike (mutable because
    /// the shared automaton is compiled lazily after registration churn).
    pub index: &'a mut PatternIndex,
    /// The requested edges of the join-side patterns. Patterns without an
    /// entry (single-block subscriptions) produce no witness rows.
    pub requested: &'a RequestedEdges,
    /// The single-block subscriptions, in ascending query-id order.
    pub singles: Vec<SingleBlock<'a>>,
}

/// Stage-1 output for one document.
#[derive(Debug, Clone, Default)]
pub struct DocumentMatches {
    /// The witness rows of every matching join-side pattern: ascending
    /// pattern id, then requested-edge order, then the matcher's pair order.
    /// Not deduplicated — patterns sharing canonical variables repeat rows,
    /// and ingest keeps the first.
    pub rows: Vec<WitnessRow>,
    /// The single-block subscriptions' matches, one per witness.
    pub singles: Vec<MatchOutput>,
}

/// Run Stage 1 over one (already stamped) document into `out` (cleared
/// first): one shared automaton pass, then the requested-edge node pairs of
/// every matching join-side pattern and the matches of every single-block
/// subscription. `pass` and `out` are caller-owned buffers; kept warm, a
/// document allocates nothing for self and adjacent edges.
pub fn match_document(
    subs: &mut Subscriptions<'_>,
    doc: &Document,
    pass: &mut SharedPass,
    retain_documents: bool,
    out: &mut DocumentMatches,
) {
    subs.index.shared_pass_reusing(doc, pass);
    out.rows.clear();
    out.singles.clear();
    for (pid, pattern) in subs.index.patterns() {
        let (Some(edges), Some(useful)) = (subs.requested.get(&pid), matched(pass, pid)) else {
            continue;
        };
        let matcher = PatternMatcher::new(pattern);
        for (edge, requested) in (0u32..).zip(edges) {
            let (ancestor, descendant) = requested.edge;
            matcher.for_each_pair(doc, useful, ancestor, descendant, |node1, node2| {
                out.rows.push(WitnessRow {
                    pid,
                    edge,
                    node1,
                    node2,
                });
            });
        }
    }
    for single in &subs.singles {
        let Some(useful) = matched(pass, single.pid) else {
            continue;
        };
        for witness in PatternMatcher::new(single.pattern).witnesses_from_useful(doc, useful) {
            let keep_document = retain_documents && single.select == SelectClause::Star;
            out.singles.push(MatchOutput {
                query: single.query,
                publish: single.publish.clone(),
                left_doc: doc.id(),
                right_doc: doc.id(),
                bindings: witness
                    .bindings()
                    .iter()
                    .map(|(variable, node)| Binding {
                        variable: variable.clone(),
                        doc: doc.id(),
                        node: *node,
                    })
                    .collect(),
                document: keep_document.then(|| doc.clone()),
            });
        }
    }
}

/// A pattern's useful sets, if the pass found at least one complete witness
/// (a non-empty root set).
fn matched(pass: &SharedPass, pid: PatternId) -> Option<&[Vec<NodeId>]> {
    pass.useful(pid)
        .filter(|useful| useful.first().is_some_and(|roots| !roots.is_empty()))
}

/// The in-thread front's buffers, owned by the engine and kept warm across
/// batches.
#[derive(Debug, Default)]
pub(crate) struct FrontScratch {
    pass: SharedPass,
    matches: DocumentMatches,
    ingest: IngestScratch,
}

/// What [`evaluate_batch`] produced for a run of documents.
#[derive(Debug)]
pub(crate) struct Stage1Batch {
    /// The batch's witness relations.
    pub(crate) batch: WitnessBatch,
    /// The single-block matches, in document order.
    pub(crate) singles: Vec<MatchOutput>,
    /// Time spent in witness ingest (the rest of the call is matching).
    pub(crate) ingest: Duration,
    /// Node pairs read off the useful sets, before the per-document dedup.
    pub(crate) pairs: usize,
}

/// Stage 1 plus witness ingest over a run of stamped documents, for callers
/// that join in the same thread.
pub(crate) fn evaluate_batch(
    subs: &mut Subscriptions<'_>,
    docs: &[Document],
    scratch: &mut FrontScratch,
    interner: &StringInterner,
    retain_documents: bool,
) -> CoreResult<Stage1Batch> {
    let mut out = Stage1Batch {
        batch: WitnessBatch::new(),
        singles: Vec::new(),
        ingest: Duration::ZERO,
        pairs: 0,
    };
    let matches = &mut scratch.matches;
    for doc in docs {
        match_document(subs, doc, &mut scratch.pass, retain_documents, matches);
        out.singles.append(&mut matches.singles);
        out.pairs += matches.rows.len();
        let t_ingest = Instant::now();
        out.batch.ingest_document(
            doc,
            &matches.rows,
            subs.requested,
            interner,
            &mut scratch.ingest,
        )?;
        out.ingest += t_ingest.elapsed();
    }
    Ok(out)
}

/// How screening treats a poison (out-of-order) document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PoisonHandling {
    /// The poison document consumes its sequence number, then the batch
    /// fails; documents stamped before it stay consumed too.
    Consume,
    /// Record the document and skip it without consuming a sequence number,
    /// so survivors get exactly the ids a fresh engine fed only survivors
    /// would assign.
    Quarantine,
}

impl PoisonHandling {
    /// The handling of whoever owns the stream position it screens against
    /// (the single engine, the sharded front stage): only
    /// [`FaultPolicy::Quarantine`] skips poison; the other policies fail the
    /// batch the historical way.
    pub(crate) fn for_policy(policy: FaultPolicy) -> Self {
        match policy {
            FaultPolicy::Quarantine => PoisonHandling::Quarantine,
            FaultPolicy::FailFast | FaultPolicy::Degrade => PoisonHandling::Consume,
        }
    }
}

/// Screen and stamp one batch against the stream watermarks `seq` (documents
/// ingested) and `newest` (newest timestamp). Each surviving document
/// consumes the next sequence number as its id and, when it arrives with
/// timestamp `0`, as its timestamp. With `enforce_in_order`, a document
/// older than `newest` is poison and handled per `handling`; quarantined
/// documents are appended to `quarantine`, pinned to `batch_index`.
pub(crate) fn screen_and_stamp(
    docs: Vec<Document>,
    seq: &mut u64,
    newest: &mut u64,
    enforce_in_order: bool,
    handling: PoisonHandling,
    batch_index: u64,
    quarantine: &mut Vec<QuarantineRecord>,
) -> CoreResult<Vec<Document>> {
    let mut survivors = Vec::with_capacity(docs.len());
    for (doc_index, mut doc) in docs.into_iter().enumerate() {
        // Screen before committing the sequence number, so a quarantined
        // document leaves no gap.
        let tentative = *seq + 1;
        let ts = match doc.timestamp().raw() {
            0 => tentative,
            raw => raw,
        };
        if enforce_in_order && ts < *newest {
            let error = CoreError::OutOfOrderDocument {
                timestamp: ts,
                newest: *newest,
            };
            match handling {
                PoisonHandling::Consume => {
                    *seq = tentative;
                    return Err(error);
                }
                PoisonHandling::Quarantine => {
                    quarantine.push(QuarantineRecord {
                        batch: batch_index,
                        doc_index,
                        timestamp: ts,
                        error,
                    });
                    continue;
                }
            }
        }
        *seq = tentative;
        doc.set_id(DocId(tentative));
        doc.set_timestamp(Timestamp(ts));
        *newest = (*newest).max(ts);
        survivors.push(doc);
    }
    Ok(survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::rss;

    /// Screen documents with the given timestamps from position
    /// `(seq 4, newest 100)`; returns the survivors' `(id, timestamp)`
    /// stamps, the position afterwards and the quarantine ledger.
    #[allow(clippy::type_complexity)]
    fn screen(
        timestamps: &[u64],
        handling: PoisonHandling,
    ) -> (
        CoreResult<Vec<(u64, u64)>>,
        (u64, u64),
        Vec<QuarantineRecord>,
    ) {
        let docs = timestamps
            .iter()
            .map(|&ts| rss::blog_article("a", "u", "t", "c", "d").with_timestamp(Timestamp(ts)))
            .collect();
        let (mut seq, mut newest) = (4, 100);
        let mut quarantine = Vec::new();
        let stamped = screen_and_stamp(
            docs,
            &mut seq,
            &mut newest,
            true,
            handling,
            7,
            &mut quarantine,
        )
        .map(|docs| {
            let stamp = |d: &Document| (d.id().raw(), d.timestamp().raw());
            docs.iter().map(stamp).collect()
        });
        (stamped, (seq, newest), quarantine)
    }

    #[test]
    fn poison_is_consumed_or_quarantined() {
        // In order: ids follow the sequence; a zero timestamp takes its id.
        let (stamped, position, _) = screen(&[0, 120], PoisonHandling::Consume);
        assert!(stamped.is_err(), "timestamp 5 (its id) is older than 100");
        assert_eq!(position, (5, 100));
        let (stamped, position, _) = screen(&[110, 120], PoisonHandling::Consume);
        assert_eq!(stamped.unwrap(), vec![(5, 110), (6, 120)]);
        assert_eq!(position, (6, 120));

        let stream = [110, 50, 120];
        let (stamped, position, _) = screen(&stream, PoisonHandling::Consume);
        assert!(stamped.is_err());
        assert_eq!(position, (6, 110), "the poison document's number is spent");

        let (stamped, position, quarantine) = screen(&stream, PoisonHandling::Quarantine);
        assert_eq!(stamped.unwrap(), vec![(5, 110), (6, 120)], "no gap");
        assert_eq!(position, (6, 120));
        let pinned: Vec<_> = quarantine
            .iter()
            .map(|r| (r.batch, r.doc_index, r.timestamp))
            .collect();
        assert_eq!(pinned, vec![(7, 1, 50)]);
    }
}
