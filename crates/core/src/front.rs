//! Stage 1, end to end: the front of the `front → route → join → merge`
//! pipeline and the only caller of the pattern automaton in this crate.
//!
//! Every piece of an engine's Stage-1 state lives in one `Front` (the
//! `stage` submodule), which both engines hold — with one consumer of
//! witness rows, the join stage, in the single engine, and one per shard in
//! the sharded one. Neither a registry nor a shard keeps Stage-1 state. Per
//! batch the front does three things, each exactly once in `mmqjp-core`:
//!
//! * **Screening** (`screen_and_stamp`): documents are checked against the
//!   stream watermarks and stamped with their id and timestamp; a poison
//!   (out-of-order) document fails the batch or is quarantined.
//! * **Matching** ([`match_document`]): one shared automaton pass per
//!   document answers every registered pattern; the single-block answers and
//!   the requested-edge node pairs are both read off it, the pairs through
//!   an emission plan compiled once per subscription change (see
//!   [`RequestedEdges`]) that skips a `(pattern, edge)` whose pairs would
//!   repeat an earlier member of its edge class — the paper's shared
//!   variables, computed once.
//! * **Routing** ([`route_document`](crate::route_document)): each
//!   document's integer [`WitnessRow`]s go straight into one witness batch
//!   per consumer, to the consumers whose queries requested their edges.
//!
//! What a document is matched against is the front's [`Stage1Table`] (the
//! `table` submodule), the only code that subscribes, releases and audits
//! Stage-1 state. A row is `(pattern, edge number, node1, node2)`: the
//! strings ingest needs besides node values were resolved once, when the
//! edge was first requested, into its [`RequestedEdge`].
//!
//! The per-pattern DOM matcher (`PatternIndex::evaluate_edge_bindings`,
//! `PatternMatcher::witnesses`) is not a production path: it lives on in
//! `mmqjp-xpath` as the reference the Stage-1 differential tests compare
//! this module against.

use crate::output::{Binding, MatchOutput};
use crate::registry::QueryShape;
use mmqjp_relational::{StringInterner, Symbol};
use mmqjp_xml::{Document, NodeId};
use mmqjp_xpath::{
    Axis, ChainScratch, NodeTest, PatternId, PatternIndex, PatternMatcher, PatternNodeId,
    SharedPass, TreePattern,
};
use mmqjp_xscl::{QueryId, SelectClause};
use std::collections::HashMap;
use std::sync::Arc;

mod stage;
mod table;

pub(crate) use stage::{match_slice, Front, FrontBatch, MatchedChunk};
pub(crate) use table::Stage1Recount;
pub use table::{EdgeConsumers, RequestedEdges, Stage1Snapshot, Stage1Table};

/// A structural pattern edge, identified by its endpoint pattern nodes.
pub type Edge = (PatternNodeId, PatternNodeId);

/// What one end of a requested edge binds, read off its pattern node's test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// Stage 1's row emission, compiled from the requested-edge lists and
/// their consumers against one generation of the pattern index.
///
/// It lists the live join-side patterns in pattern-id order, each with its
/// position in the [`SharedPass`] and its edges in list order. An edge is
/// its pattern-node path from the ancestor end down to the descendant end —
/// one node for a self edge, two for an adjacent edge, more for a chain —
/// and a dense *edge class*. Two `(pattern, edge)` members share a class
/// when their rows would be ingested under the same names and derived the
/// same way: equal `var1`, `var2`, `source1` and `source2`, equal axis and
/// test on every step of the path, and the same consumers receiving the
/// rows.
/// A member whose path nodes have, in a document, the same useful sets as
/// an earlier member of its class that already emitted would emit exactly
/// that member's pairs, which every consumer's ingest drops as repeats; the
/// emission skips it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EmitPlan {
    /// The [`PatternIndex::generation`] the positions were compiled for.
    generation: u64,
    patterns: Vec<PlanPattern>,
    edges: Vec<PlanEdge>,
    /// The edges' paths, concatenated.
    paths: Vec<PatternNodeId>,
    /// Number of edge classes.
    classes: usize,
}

/// One join-side pattern of an [`EmitPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanPattern {
    pid: PatternId,
    /// Rank among the index's live patterns: where the pass holds its
    /// useful sets.
    position: u32,
    /// Its edges: `edges[first..first + count]`, in requested-list order.
    first: u32,
    count: u32,
}

/// One requested edge of an [`EmitPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanEdge {
    /// Its path: `paths[start..start + len]`. Empty when the edge's ends
    /// are not ancestor and descendant (such an edge has no pairs).
    start: u32,
    len: u32,
    class: u32,
}

/// What makes two `(pattern, edge)` members' rows interchangeable (see
/// [`EmitPlan`]).
#[derive(Debug, PartialEq, Eq, Hash)]
struct ClassKey<'p> {
    var1: Symbol,
    var2: Symbol,
    source1: &'p NodeSource,
    source2: &'p NodeSource,
    /// Axis and test of each path node below the ancestor end; `None` for
    /// an edge without a path, which gets a class of its own.
    steps: Option<Vec<(Axis, &'p NodeTest)>>,
    /// The consumers the rows go to.
    consumers: Vec<usize>,
}

impl EmitPlan {
    /// Compile the plan for the live patterns of `index` from `lists`. The
    /// one place Stage 1's emission allocates.
    fn compile(index: &PatternIndex, lists: &RequestedEdges) -> Self {
        let mut plan = EmitPlan {
            generation: index.generation(),
            patterns: Vec::new(),
            edges: Vec::new(),
            paths: Vec::new(),
            classes: 0,
        };
        let mut classes: HashMap<ClassKey<'_>, u32> = HashMap::new();
        for (position, (pid, pattern)) in (0u32..).zip(index.patterns()) {
            let Some(list) = lists.get(&pid) else {
                continue;
            };
            let matcher = PatternMatcher::new(pattern);
            plan.patterns.push(PlanPattern {
                pid,
                position,
                first: plan.edges.len() as u32,
                count: list.len() as u32,
            });
            for (requested, consumers) in list.iter().zip(lists.consumers(pid)) {
                let path = matcher.path(requested.edge.0, requested.edge.1);
                let start = plan.paths.len() as u32;
                plan.paths.extend(path.iter().flatten());
                let steps = path.map(|path| {
                    let step = |id: &PatternNodeId| {
                        let node = pattern.node(*id);
                        (node.axis(), node.test())
                    };
                    path.iter().skip(1).map(step).collect()
                });
                let key = ClassKey {
                    var1: requested.var1,
                    var2: requested.var2,
                    source1: &requested.source1,
                    source2: &requested.source2,
                    steps,
                    consumers: consumers.iter().map(|&(c, _)| c).collect(),
                };
                let fresh = plan.classes as u32;
                let class = match key.steps {
                    Some(_) => *classes.entry(key).or_insert(fresh),
                    None => fresh,
                };
                plan.classes += usize::from(class == fresh);
                plan.edges.push(PlanEdge {
                    start,
                    len: plan.paths.len() as u32 - start,
                    class,
                });
            }
        }
        plan
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
#[derive(Debug, Clone)]
pub struct SingleBlock {
    /// The id its matches are reported under.
    pub query: QueryId,
    /// Where [`pattern`](Self::pattern) sits in the pattern index.
    pub pid: PatternId,
    /// The subscription's shape, shared with its registry.
    shape: Arc<QueryShape>,
    /// The `PUBLISH` name, if any.
    pub publish: Option<String>,
    /// The `SELECT` clause.
    pub select: SelectClause,
}

impl SingleBlock {
    /// The subscription's own (normalized) pattern; its variable names label
    /// the reported bindings.
    pub fn pattern(&self) -> &TreePattern {
        self.shape.first_block()
    }
}

/// Everything Stage 1 evaluates a document against, borrowed from a
/// [`Stage1Table`] for the duration of one batch (see
/// [`Stage1Table::subscriptions`]): the front's own, or a spawned front
/// worker's clone of it.
#[derive(Debug)]
pub struct Subscriptions<'a> {
    /// Every live pattern, join-side and single-block alike (mutable because
    /// the shared automaton is compiled lazily after registration churn).
    index: &'a mut PatternIndex,
    /// The requested edges of the join-side patterns (mutable because the
    /// emission plan is compiled lazily too). Patterns without an entry
    /// (single-block subscriptions) produce no witness rows.
    requested: &'a mut RequestedEdges,
    /// The single-block subscriptions, in ascending query-id order.
    pub singles: &'a [SingleBlock],
}

/// Stage-1 output for one document.
#[derive(Debug, Clone, Default)]
pub struct DocumentMatches {
    /// The witness rows of every matching join-side pattern: ascending
    /// pattern id, then requested-edge order, then the matcher's pair order.
    /// Not deduplicated — patterns sharing canonical variables repeat rows,
    /// and ingest keeps the first — except that a `(pattern, edge)` whose
    /// pairs would all repeat an earlier member of its edge class is not
    /// enumerated at all (see [`suppressed`](Self::suppressed)).
    pub rows: Vec<WitnessRow>,
    /// The single-block subscriptions' matches, one per witness.
    pub singles: Vec<MatchOutput>,
    /// `(pattern, edge)` members whose enumeration was skipped: an earlier
    /// member of the same edge class had the same useful sets on every path
    /// node, so every row they would emit is a row every consumer already
    /// ingests for this document.
    pub suppressed: usize,
}

/// The front's pooled per-document buffers, kept warm by the caller: the
/// automaton pass, the chain-composition stamps and the per-document edge
/// class table. With a warm scratch a document allocates nothing for its
/// witness rows beyond their growth.
#[derive(Debug, Default)]
pub struct MatchScratch {
    pass: SharedPass,
    chain: ChainScratch,
    classes: ClassTable,
}

/// Which `(pattern, edge)` members emitted in the current document, per
/// edge class: a linked list through `emitters`, valid for a class while
/// its stamp equals the document generation.
#[derive(Debug, Default)]
struct ClassTable {
    document: u32,
    /// Per class: the document generation of its latest emitter.
    stamp: Vec<u32>,
    /// Per class: its latest emitter, an index into `emitters`.
    head: Vec<u32>,
    emitters: Vec<Emitter>,
}

/// A `(pattern, edge)` member that emitted in the current document.
#[derive(Debug, Clone, Copy)]
struct Emitter {
    /// Index into the plan's patterns.
    pattern: u32,
    /// Index into the plan's edges.
    edge: u32,
    /// The class's previous emitter, or `u32::MAX`.
    next: u32,
}

impl ClassTable {
    /// Start a document over a plan with `classes` edge classes.
    fn begin(&mut self, classes: usize) {
        if self.document == u32::MAX {
            self.stamp.fill(0);
            self.document = 0;
        }
        self.document += 1;
        if self.stamp.len() < classes {
            self.stamp.resize(classes, 0);
            self.head.resize(classes, u32::MAX);
        }
        self.emitters.clear();
    }

    /// The latest emitter of `class` in this document, if any.
    fn latest(&self, class: u32) -> Option<Emitter> {
        let c = class as usize;
        (self.stamp[c] == self.document).then(|| self.emitters[self.head[c] as usize])
    }

    /// The emitter before `emitter` in its class, if any.
    fn before(&self, emitter: Emitter) -> Option<Emitter> {
        self.emitters.get(emitter.next as usize).copied()
    }

    fn record(&mut self, class: u32, pattern: u32, edge: u32) {
        let c = class as usize;
        let next = if self.stamp[c] == self.document {
            self.head[c]
        } else {
            u32::MAX
        };
        self.stamp[c] = self.document;
        self.head[c] = self.emitters.len() as u32;
        self.emitters.push(Emitter {
            pattern,
            edge,
            next,
        });
    }
}

/// Run Stage 1 over one (already stamped) document into `out` (cleared
/// first): one shared automaton pass, then the requested-edge node pairs of
/// every matching join-side pattern, read off the compiled emission plan,
/// and the matches of every single-block subscription.
pub fn match_document(
    subs: &mut Subscriptions<'_>,
    doc: &Document,
    scratch: &mut MatchScratch,
    retain_documents: bool,
    out: &mut DocumentMatches,
) {
    subs.index.shared_pass_reusing(doc, &mut scratch.pass);
    out.rows.clear();
    out.singles.clear();
    let plan = subs.requested.plan(subs.index);
    emit_rows(plan, subs.index, doc, scratch, out);
    emit_singles(subs.singles, doc, &scratch.pass, retain_documents, out);
}

/// The witness rows of one document, pattern by pattern in plan order,
/// skipping every `(pattern, edge)` whose pairs an earlier member of its
/// class already emitted.
fn emit_rows(
    plan: &EmitPlan,
    index: &PatternIndex,
    doc: &Document,
    scratch: &mut MatchScratch,
    out: &mut DocumentMatches,
) {
    let MatchScratch {
        pass,
        chain,
        classes,
    } = scratch;
    classes.begin(plan.classes);
    out.suppressed = 0;
    let useful_of = |pattern: &PlanPattern| {
        pass.useful_at(pattern.position as usize, pattern.pid)
            .filter(|useful| useful.first().is_some_and(|roots| !roots.is_empty()))
    };
    let path_of =
        |edge: &PlanEdge| &plan.paths[edge.start as usize..(edge.start + edge.len) as usize];
    for (p, pattern) in (0u32..).zip(&plan.patterns) {
        let Some(useful) = useful_of(pattern) else {
            continue;
        };
        let matcher = PatternMatcher::new(index.pattern(pattern.pid));
        for edge in 0..pattern.count {
            let e = pattern.first + edge;
            let planned = &plan.edges[e as usize];
            let path = path_of(planned);
            let mut earlier = classes.latest(planned.class);
            while let Some(emitter) = earlier {
                let other = useful_of(&plan.patterns[emitter.pattern as usize]);
                let other_path = path_of(&plan.edges[emitter.edge as usize]);
                let same = other.is_some_and(|other| {
                    path.iter()
                        .zip(other_path)
                        .all(|(a, b)| useful[a.index()] == other[b.index()])
                });
                if same {
                    break;
                }
                earlier = classes.before(emitter);
            }
            if earlier.is_some() {
                out.suppressed += 1;
                continue;
            }
            let pid = pattern.pid;
            matcher.for_each_path_pair(doc, useful, path, chain, |node1, node2| {
                out.rows.push(WitnessRow {
                    pid,
                    edge,
                    node1,
                    node2,
                });
            });
            classes.record(planned.class, p, e);
        }
    }
}

/// The matches of every single-block subscription, read off the pass.
fn emit_singles(
    singles: &[SingleBlock],
    doc: &Document,
    pass: &SharedPass,
    retain_documents: bool,
    out: &mut DocumentMatches,
) {
    for single in singles {
        let Some(useful) = pass
            .useful(single.pid)
            .filter(|useful| useful.first().is_some_and(|roots| !roots.is_empty()))
        else {
            continue;
        };
        for witness in PatternMatcher::new(single.pattern()).witnesses_from_useful(doc, useful) {
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

#[cfg(test)]
mod tests {
    use super::stage::screen_and_stamp;
    use super::*;
    use crate::config::FaultPolicy;
    use crate::error::CoreResult;
    use crate::fault::QuarantineRecord;
    use mmqjp_xml::{rss, Timestamp};

    /// Screen documents with the given timestamps from position
    /// `(seq 4, newest 100)`; returns the survivors' `(id, timestamp)`
    /// stamps, the position afterwards and the quarantine ledger.
    #[allow(clippy::type_complexity)]
    fn screen(
        timestamps: &[u64],
        policy: FaultPolicy,
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
            policy,
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
        let (stamped, position, _) = screen(&[0, 120], FaultPolicy::FailFast);
        assert!(stamped.is_err(), "timestamp 5 (its id) is older than 100");
        assert_eq!(position, (5, 100));
        let (stamped, position, _) = screen(&[110, 120], FaultPolicy::FailFast);
        assert_eq!(stamped.unwrap(), vec![(5, 110), (6, 120)]);
        assert_eq!(position, (6, 120));

        let stream = [110, 50, 120];
        let (stamped, position, _) = screen(&stream, FaultPolicy::FailFast);
        assert!(stamped.is_err());
        assert_eq!(position, (6, 110), "the poison document's number is spent");

        let (stamped, position, quarantine) = screen(&stream, FaultPolicy::Quarantine);
        assert_eq!(stamped.unwrap(), vec![(5, 110), (6, 120)], "no gap");
        assert_eq!(position, (6, 120));
        let pinned: Vec<_> = quarantine
            .iter()
            .map(|r| (r.batch, r.doc_index, r.timestamp))
            .collect();
        assert_eq!(pinned, vec![(7, 1, 50)]);
    }
}
