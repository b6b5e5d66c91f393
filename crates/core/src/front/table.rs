//! Stage 1's subscription table: everything the front evaluates a document
//! against, and the one place it is counted.
//!
//! Each engine's front holds one [`Stage1Table`], and nothing else in
//! `mmqjp-core` subscribes, releases or audits Stage-1 state. Every
//! requested edge carries one refcount per *consumer* of its rows: a shard
//! of the sharded engine, or consumer `0`, the single engine's own join
//! stage. The consumer sets are part of the emission plan's edge classes and
//! decide where the witness router sends a row, so both read them here.

use super::{Edge, EmitPlan, RequestedEdge, SingleBlock};
use crate::audit::AuditViolation;
use crate::error::{CoreError, CoreResult};
use mmqjp_relational::{FxHashMap, StringInterner};
use mmqjp_xml::Document;
use mmqjp_xpath::{PatternId, PatternIndex, SharedPass, TreePattern};
use mmqjp_xscl::QueryId;
use std::collections::{BTreeMap, BTreeSet};

/// The consumers of one requested edge's rows, in ascending order, each with
/// the number of live registrations requesting the edge on its behalf.
pub type EdgeConsumers = Vec<(usize, usize)>;

/// The edges the join stage wants bindings for, and the emission plan
/// Stage 1 compiles from them.
///
/// Per join-side pattern, the requested edges in first-request order are
/// the registration truth: a [`WitnessRow`](super::WitnessRow) names its
/// edge by position in its pattern's list. Parallel to each list, every
/// edge's consumers with their refcounts. The plan is derived from both,
/// once per subscription change, the way the shared automaton is: any change
/// to a list or a consumer set drops it, and the next document recompiles
/// it. Only a [`Stage1Table`] changes either.
#[derive(Debug, Clone, Default)]
pub struct RequestedEdges {
    lists: FxHashMap<PatternId, EdgeList>,
    plan: Option<EmitPlan>,
}

/// One pattern's requested edges and, parallel to them, their consumers.
#[derive(Debug, Clone, Default)]
struct EdgeList {
    edges: Vec<RequestedEdge>,
    edge_refs: Vec<EdgeConsumers>,
}

impl RequestedEdges {
    /// No requested edges.
    pub fn new() -> Self {
        RequestedEdges::default()
    }

    /// A pattern's requested edges, if it has any.
    pub fn get(&self, pid: &PatternId) -> Option<&Vec<RequestedEdge>> {
        self.lists.get(pid).map(|list| &list.edges)
    }

    /// Every pattern's requested edges, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&PatternId, &Vec<RequestedEdge>)> {
        self.lists.iter().map(|(pid, list)| (pid, &list.edges))
    }

    /// `true` when no pattern has requested edges.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The consumers of each of `pid`'s requested edges, parallel to its
    /// list (empty for a pattern without requested edges).
    pub(crate) fn consumers(&self, pid: PatternId) -> &[EdgeConsumers] {
        self.lists.get(&pid).map_or(&[], |list| &list.edge_refs)
    }

    /// The emission plan for the live patterns of `index`, recompiled if a
    /// list, a consumer set or the index changed since it was compiled.
    fn plan(&mut self, index: &PatternIndex) -> &EmitPlan {
        let plan = match self.plan.take() {
            Some(plan) if plan.generation == index.generation() => plan,
            _ => EmitPlan::compile(index, self),
        };
        self.plan.insert(plan)
    }

    /// Count one more request of each of `edges` of `pid` for `consumer`.
    /// An edge requested for the first time is appended to its pattern's
    /// list, resolved by `resolve`.
    fn request(
        &mut self,
        pid: PatternId,
        edges: &[Edge],
        consumer: usize,
        resolve: impl Fn(Edge) -> Option<RequestedEdge>,
    ) -> CoreResult<()> {
        let list = self.lists.entry(pid).or_default();
        for &edge in edges {
            let refs = match list.edges.iter().position(|r| r.edge == edge) {
                Some(at) => &mut list.edge_refs[at],
                None => {
                    let resolved = resolve(edge).ok_or(CoreError::internal(
                        "requested edge ends carry canonical variables",
                    ))?;
                    list.edges.push(resolved);
                    list.edge_refs.push(Vec::new());
                    &mut list.edge_refs[list.edges.len() - 1]
                }
            };
            match refs.binary_search_by_key(&consumer, |&(c, _)| c) {
                Ok(i) => refs[i].1 += 1,
                Err(i) => {
                    // A new edge, or a new consumer of it: the edge classes
                    // change.
                    refs.insert(i, (consumer, 1));
                    self.plan = None;
                }
            }
        }
        Ok(())
    }

    /// Release one request of each of `edges` of `pid` for `consumer`: a
    /// consumer whose last request departs stops receiving the edge's rows,
    /// an edge without consumers leaves its list (later edges move up), and
    /// an emptied list is dropped.
    fn release(&mut self, pid: PatternId, edges: &[Edge], consumer: usize) -> CoreResult<()> {
        let unknown = || CoreError::internal("a released edge was requested by its consumer");
        let list = self.lists.get_mut(&pid).ok_or_else(unknown)?;
        for edge in edges {
            let at = list
                .edges
                .iter()
                .position(|r| r.edge == *edge)
                .ok_or_else(unknown)?;
            let refs = &mut list.edge_refs[at];
            let i = refs
                .binary_search_by_key(&consumer, |&(c, _)| c)
                .map_err(|_| unknown())?;
            refs[i].1 -= 1;
            if refs[i].1 == 0 {
                refs.remove(i);
                if refs.is_empty() {
                    list.edges.remove(at);
                    list.edge_refs.remove(at);
                }
                self.plan = None;
            }
        }
        if list.edges.is_empty() {
            self.lists.remove(&pid);
        }
        Ok(())
    }

    /// Every list, mutably, for tests that seed a corrupted entry.
    #[cfg(test)]
    pub(crate) fn lists_mut(
        &mut self,
    ) -> impl Iterator<Item = (&PatternId, &mut Vec<RequestedEdge>)> {
        self.plan = None;
        self.lists
            .iter_mut()
            .map(|(pid, list)| (pid, &mut list.edges))
    }

    /// Put every edge of a compiled plan into one class, for tests of the
    /// plan audit. `false` when no plan is compiled.
    #[cfg(test)]
    pub(crate) fn merge_plan_classes(&mut self) -> bool {
        let Some(plan) = &mut self.plan else {
            return false;
        };
        for edge in &mut plan.edges {
            edge.class = 0;
        }
        true
    }
}

impl FromIterator<(PatternId, Vec<RequestedEdge>)> for RequestedEdges {
    /// Bare lists, consumed by no one: for callers that ingest rows against
    /// them without running the front.
    fn from_iter<I: IntoIterator<Item = (PatternId, Vec<RequestedEdge>)>>(lists: I) -> Self {
        let list = |edges: Vec<RequestedEdge>| EdgeList {
            edge_refs: vec![Vec::new(); edges.len()],
            edges,
        };
        RequestedEdges {
            lists: lists
                .into_iter()
                .map(|(pid, edges)| (pid, list(edges)))
                .collect(),
            plan: None,
        }
    }
}

/// Everything Stage 1 evaluates a document against, borrowed from a
/// [`Stage1Table`] for the duration of one batch (see
/// [`Stage1Table::subscriptions`]). The index and the requested edges are
/// borrowed mutably because the shared automaton and the emission plan
/// compile lazily after registration churn; outside this module they are
/// reached only through the two operations matching needs, so no other code
/// can change either.
#[derive(Debug)]
pub struct Subscriptions<'a> {
    index: &'a mut PatternIndex,
    requested: &'a mut RequestedEdges,
    /// The single-block subscriptions, in ascending query-id order.
    pub singles: &'a [SingleBlock],
}

impl Subscriptions<'_> {
    /// The shared automaton pass of every live pattern over `doc`, into
    /// `pass`.
    pub(super) fn shared_pass(&mut self, doc: &Document, pass: &mut SharedPass) {
        self.index.shared_pass_reusing(doc, pass);
    }

    /// The emission plan of the join-side patterns, recompiled if stale, and
    /// the index it was compiled for. Patterns without requested edges
    /// (single-block subscriptions) produce no witness rows.
    pub(super) fn plan(&mut self) -> (&EmitPlan, &PatternIndex) {
        (self.requested.plan(self.index), self.index)
    }
}

/// All Stage-1 subscription state of one engine: the pattern index (every
/// live pattern, join-side and single-block alike, refcounted per
/// registration), the requested edges with their per-consumer refcounts and
/// lazily compiled emission plan, and the single-block subscriptions.
#[derive(Debug, Clone, Default)]
pub struct Stage1Table {
    index: PatternIndex,
    requested: RequestedEdges,
    /// The single-block subscriptions, in ascending query-id order (the
    /// order their matches are produced in).
    singles: Vec<SingleBlock>,
}

impl Stage1Table {
    /// An empty table.
    pub fn new() -> Self {
        Stage1Table::default()
    }

    /// The pattern index.
    pub fn index(&self) -> &PatternIndex {
        &self.index
    }

    /// The requested edges of the join-side patterns.
    pub fn requested(&self) -> &RequestedEdges {
        &self.requested
    }

    /// The single-block subscriptions, in ascending query-id order.
    #[cfg(test)]
    pub(crate) fn singles(&self) -> &[SingleBlock] {
        &self.singles
    }

    /// `true` when nothing is subscribed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty() && self.singles.is_empty()
    }

    /// Everything Stage 1 evaluates a document against, borrowed for one
    /// batch: the index and the requested edges mutably (the shared
    /// automaton and the emission plan compile lazily), the single-block
    /// subscriptions as a slice.
    pub fn subscriptions(&mut self) -> Subscriptions<'_> {
        Subscriptions {
            index: &mut self.index,
            requested: &mut self.requested,
            singles: &self.singles,
        }
    }

    /// Take one registration of `pattern` — its first makes it live — and
    /// request `edges` of it for `consumer`. Returns the pattern's id. Undo
    /// with [`unsubscribe`](Self::unsubscribe).
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] when an edge end carries no variable
    /// (registered patterns carry canonical variables on every node).
    pub fn subscribe(
        &mut self,
        consumer: usize,
        pattern: TreePattern,
        edges: &[Edge],
        interner: &StringInterner,
    ) -> CoreResult<PatternId> {
        let pid = self.retain_pattern(pattern);
        self.request_edges(consumer, pid, edges, interner)?;
        Ok(pid)
    }

    /// Release one [`subscribe`](Self::subscribe): its edge requests, then
    /// its pattern registration. Returns `true` when the pattern was
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`CoreError::Internal`] when an edge was not requested for
    /// `consumer` — unbalanced releases are a bookkeeping bug.
    pub fn unsubscribe(
        &mut self,
        consumer: usize,
        pid: PatternId,
        edges: &[Edge],
    ) -> CoreResult<bool> {
        self.requested.release(pid, edges, consumer)?;
        Ok(self.release_pattern(pid))
    }

    /// Take one registration of `pattern`; structurally identical patterns
    /// share one id.
    pub(super) fn retain_pattern(&mut self, pattern: TreePattern) -> PatternId {
        self.index.register(pattern)
    }

    /// Take one more registration of the live pattern `pid`.
    pub(super) fn retain_pattern_id(&mut self, pid: PatternId) {
        self.index.retain(pid);
    }

    /// Release one registration of `pid`; `true` when it was the last and
    /// the pattern was dropped.
    pub(super) fn release_pattern(&mut self, pid: PatternId) -> bool {
        let dropped = self.index.unregister(pid);
        if dropped && self.requested.lists.remove(&pid).is_some() {
            self.requested.plan = None;
        }
        dropped
    }

    /// Request `edges` of the live pattern `pid` for `consumer`. An edge
    /// requested for the first time is resolved here — its two variables
    /// interned, its value sources read off the indexed pattern, the one
    /// Stage 1 evaluates — so Stage 1 never looks up a string per row.
    pub(super) fn request_edges(
        &mut self,
        consumer: usize,
        pid: PatternId,
        edges: &[Edge],
        interner: &StringInterner,
    ) -> CoreResult<()> {
        let pattern = self.index.pattern(pid);
        let resolve = |edge| RequestedEdge::resolve(pattern, edge, interner);
        self.requested.request(pid, edges, consumer, resolve)
    }

    /// Add a single-block subscription whose pattern the caller registered.
    /// Query ids are assigned in ascending order and never reused, so
    /// appending keeps the list in query-id order.
    pub(super) fn push_single(&mut self, single: SingleBlock) {
        self.singles.push(single);
    }

    /// Remove `query`'s single-block subscription (its pattern registration
    /// is the caller's to release).
    pub(super) fn remove_single(&mut self, query: QueryId) -> Option<SingleBlock> {
        let at = self
            .singles
            .binary_search_by_key(&query, |s| s.query)
            .ok()?;
        Some(self.singles.remove(at))
    }

    /// Check the table against `recount`, its owner's recount of the live
    /// subscriptions: pattern refcounts in both directions, the single-block
    /// list, every edge's per-consumer refcounts and the lists they run
    /// parallel to, the symbols the edges cached, and a live emission plan
    /// against a fresh compile. Read-only.
    pub(super) fn audit(
        &self,
        recount: &Stage1Recount,
        interner: &StringInterner,
        out: &mut Vec<AuditViolation>,
    ) {
        let indexed = self.index.patterns();
        let indexed = indexed
            .map(|(pid, _)| (pid, self.index.refcount(pid)))
            .collect();
        diff_counts(&indexed, &recount.patterns, |pid, index_refs, expected| {
            out.push(AuditViolation::PatternRefcount {
                pattern: pid.raw(),
                index_refs,
                expected,
            });
        });
        let listed = self.singles.iter().map(|s| (s.query, s.pid));
        if !listed.eq(recount.singles.iter().copied()) {
            out.push(AuditViolation::SingleBlockList {
                listed: self.singles.len(),
                expected: recount.singles.len(),
            });
        }
        audit_edge_tables(&recount.edges, &self.requested, out);
        self.audit_requested_symbols(interner, out);
        self.audit_emit_plan(out);
    }

    /// Check every live pattern's requested edges against the pattern: the
    /// cached symbols must be the interner's symbols of the edge's
    /// variables, and the sources must follow the node tests. Looks symbols
    /// up, never interns.
    fn audit_requested_symbols(&self, interner: &StringInterner, out: &mut Vec<AuditViolation>) {
        for (pid, pattern) in self.index.patterns() {
            for cached in self.requested.get(&pid).into_iter().flatten() {
                let expected =
                    RequestedEdge::resolve_with(pattern, cached.edge, |v| interner.get(v));
                if expected.as_ref() != Some(cached) {
                    out.push(AuditViolation::RequestedEdgeSymbols {
                        pattern: pid.raw(),
                        edge: (cached.edge.0.raw(), cached.edge.1.raw()),
                    });
                }
            }
        }
    }

    /// Check a live emission plan — one compiled for the index's current
    /// generation — against a fresh compile. A plan for an older generation
    /// is not live: the next document recompiles it.
    fn audit_emit_plan(&self, out: &mut Vec<AuditViolation>) {
        let Some(plan) = self
            .requested
            .plan
            .as_ref()
            .filter(|plan| plan.generation == self.index.generation())
        else {
            return;
        };
        let fresh = EmitPlan::compile(&self.index, &self.requested);
        let reason = if plan.patterns != fresh.patterns {
            "its patterns, positions or edge counts"
        } else if plan.edges.len() != fresh.edges.len() || plan.paths != fresh.paths {
            "its edge paths"
        } else if plan != &fresh {
            "its edge classes"
        } else {
            return;
        };
        out.push(AuditViolation::EmitPlan { reason });
    }

    /// What the table holds, by pattern signature rather than id, with the
    /// classes of a freshly compiled emission plan: two engines subscribing
    /// the same queries in the same order must produce equal snapshots.
    /// For differential tests.
    #[doc(hidden)]
    pub fn snapshot(&self) -> Stage1Snapshot {
        let signature = |pid| self.index.pattern(pid).signature();
        let consumed = |pid| {
            let edges = self.requested.get(&pid)?.iter();
            let edges = edges.zip(self.requested.consumers(pid));
            Some((
                signature(pid),
                edges.map(|(r, c)| (r.edge, c.clone())).collect(),
            ))
        };
        Stage1Snapshot {
            patterns: self
                .index
                .patterns()
                .map(|(pid, p)| (p.signature(), self.index.refcount(pid)))
                .collect(),
            edges: self
                .index
                .patterns()
                .filter_map(|(pid, _)| consumed(pid))
                .collect(),
            singles: self
                .singles
                .iter()
                .map(|s| (s.query, signature(s.pid)))
                .collect(),
            classes: EmitPlan::compile(&self.index, &self.requested)
                .edges
                .iter()
                .map(|e| e.class)
                .collect(),
        }
    }

    /// The requested edges, mutably, for tests that seed a corrupted entry.
    #[cfg(test)]
    pub(crate) fn requested_mut(&mut self) -> &mut RequestedEdges {
        &mut self.requested
    }

    /// The single-block list, mutably, for tests that seed a corrupted
    /// entry.
    #[cfg(test)]
    pub(crate) fn singles_mut(&mut self) -> &mut Vec<SingleBlock> {
        &mut self.singles
    }

    /// Take one registration of the live pattern `pid` that no subscription
    /// holds, for tests of the audit.
    #[cfg(test)]
    pub(crate) fn seed_extra_pattern_ref(&mut self, pid: PatternId) {
        self.index.retain(pid);
    }

    /// Add one reference to some edge's first consumer without a matching
    /// registration, for tests of the audit. Returns the
    /// `(pattern, edge, consumer)` it corrupted.
    #[cfg(test)]
    pub(crate) fn seed_extra_edge_ref(&mut self) -> Option<(u32, (u32, u32), usize)> {
        let (pid, list) = self
            .requested
            .lists
            .iter_mut()
            .min_by_key(|(pid, _)| **pid)?;
        let edge = list.edges.first()?.edge;
        let refs = list.edge_refs.first_mut()?.first_mut()?;
        refs.1 += 1;
        Some((pid.raw(), (edge.0.raw(), edge.1.raw()), refs.0))
    }
}

/// A [`Stage1Table`]'s contents, comparable across engines (see
/// [`Stage1Table::snapshot`]).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage1Snapshot {
    /// Every live pattern's signature and refcount, in pattern-id order.
    pub patterns: Vec<(String, usize)>,
    /// Every live pattern with requested edges, in pattern-id order: its
    /// signature and its list in order, each edge with its consumers.
    pub edges: Vec<(String, Vec<(Edge, EdgeConsumers)>)>,
    /// The single-block subscriptions: query and pattern signature.
    pub singles: Vec<(QueryId, String)>,
    /// The edge classes of a fresh emission plan, in plan order.
    pub classes: Vec<u32>,
}

/// What a [`Stage1Table`] must hold according to its owner's per-query
/// records, recounted for [`Stage1Table::audit`].
#[derive(Debug, Default)]
pub(crate) struct Stage1Recount {
    patterns: BTreeMap<PatternId, usize>,
    edges: BTreeMap<(PatternId, Edge, usize), usize>,
    singles: Vec<(QueryId, PatternId)>,
}

impl Stage1Recount {
    /// One live registration of join-side pattern `pid` requesting `edges`
    /// for `consumer`.
    pub(crate) fn join_side(&mut self, consumer: usize, pid: PatternId, edges: &[Edge]) {
        *self.patterns.entry(pid).or_insert(0) += 1;
        for &edge in edges {
            *self.edges.entry((pid, edge, consumer)).or_insert(0) += 1;
        }
    }

    /// One live single-block subscription; call in ascending query order.
    pub(crate) fn single(&mut self, query: QueryId, pid: PatternId) {
        *self.patterns.entry(pid).or_insert(0) += 1;
        self.singles.push((query, pid));
    }
}

/// Check every `(pattern, edge, consumer)` refcount of `requested` against
/// `expected`, and each list against its refcounts: parallel, no duplicate
/// edge, no edge without a consumer, consumers ascending, no zero count.
fn audit_edge_tables(
    expected: &BTreeMap<(PatternId, Edge, usize), usize>,
    requested: &RequestedEdges,
    out: &mut Vec<AuditViolation>,
) {
    let mut tracked: BTreeMap<(PatternId, Edge, usize), usize> = BTreeMap::new();
    for (&pid, list) in &requested.lists {
        let mut problem = |reason| {
            out.push(AuditViolation::RequestedEdgeList {
                pattern: pid.raw(),
                reason,
            });
        };
        if list.edges.len() != list.edge_refs.len() {
            problem("the consumer refcounts do not run parallel to the list");
        }
        let edges = &list.edges;
        if (1..edges.len()).any(|i| edges[..i].iter().any(|e| e.edge == edges[i].edge)) {
            problem("duplicate edge in the requested-edge list");
        }
        for (requested, refs) in edges.iter().zip(&list.edge_refs) {
            if refs.is_empty() {
                problem("a listed edge has no consumer");
            }
            if refs.windows(2).any(|w| w[0].0 >= w[1].0) || refs.iter().any(|&(_, n)| n == 0) {
                problem("an edge's consumers are unordered or hold no reference");
            }
            for &(consumer, n) in refs {
                tracked.insert((pid, requested.edge, consumer), n);
            }
        }
    }
    diff_counts(&tracked, expected, |(pid, edge, consumer), have, want| {
        out.push(AuditViolation::EdgeRefcount {
            pattern: pid.raw(),
            edge: (edge.0.raw(), edge.1.raw()),
            consumer,
            tracked: have,
            expected: want,
        });
    });
}

/// Call `differ(key, tracked, expected)`, in key order, for every key whose
/// count differs between the two maps (a missing key counts `0`).
fn diff_counts<K: Ord + Copy>(
    tracked: &BTreeMap<K, usize>,
    expected: &BTreeMap<K, usize>,
    mut differ: impl FnMut(K, usize, usize),
) {
    let keys: BTreeSet<K> = tracked.keys().chain(expected.keys()).copied().collect();
    let count = |map: &BTreeMap<K, usize>, key| map.get(&key).copied().unwrap_or(0);
    for key in keys {
        let (have, want) = (count(tracked, key), count(expected, key));
        if have != want {
            differ(key, have, want);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessingMode;
    use crate::front::{match_document, DocumentMatches, MatchScratch};
    use crate::registry::Registry;
    use mmqjp_relational::Symbol;
    use mmqjp_xml::rss;
    use mmqjp_xpath::{parse_pattern, PatternNodeId};
    use mmqjp_xscl::parse_query;
    use std::sync::Arc;

    const BOOK_TITLE: &str = "S//book->x1[.//author->x2][.//title->x3]";
    const BOOK_CATEGORY: &str = "S//book->x1[.//author->x2][.//category->x7]";
    const BLOG: &str = "S//blog->x4[.//author->x5][.//title->x6]";

    fn canonical(text: &str) -> TreePattern {
        let mut pattern = parse_pattern(text).unwrap();
        pattern.assign_canonical_variables();
        pattern
    }

    /// A table and the recount of what was subscribed into it.
    struct Fixture {
        table: Stage1Table,
        recount: Stage1Recount,
        interner: StringInterner,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                table: Stage1Table::new(),
                recount: Stage1Recount::default(),
                interner: StringInterner::new(),
            }
        }

        /// Subscribe `consumer` to every structural edge of `text` plus its
        /// root's self edge.
        fn subscribe(&mut self, consumer: usize, text: &str) -> (PatternId, Vec<Edge>) {
            let pattern = canonical(text);
            let mut edges = pattern.edges();
            edges.push((PatternNodeId::ROOT, PatternNodeId::ROOT));
            let pid = self
                .table
                .subscribe(consumer, pattern, &edges, &self.interner)
                .unwrap();
            self.recount.join_side(consumer, pid, &edges);
            (pid, edges)
        }

        fn audit(&self) -> Vec<AuditViolation> {
            let mut out = Vec::new();
            self.table.audit(&self.recount, &self.interner, &mut out);
            out
        }
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let mut f = Fixture::new();
        let (book, book_edges) = f.subscribe(0, BOOK_TITLE);
        f.subscribe(1, BOOK_TITLE);
        f.subscribe(1, BLOG);
        // A subscription that comes and goes leaves nothing behind.
        let pattern = canonical(BOOK_CATEGORY);
        let edges = pattern.edges();
        let gone = f.table.subscribe(2, pattern, &edges, &f.interner).unwrap();
        assert!(f.table.unsubscribe(2, gone, &edges).unwrap());
        let single = parse_query("S//blog[.//author]").unwrap();
        let mut registry = Registry::new(Arc::new(StringInterner::new()));
        let footprint = registry
            .register(single, QueryId(7), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let pid = f
            .table
            .retain_pattern(footprint.shape.first_block().clone());
        f.table.push_single(SingleBlock {
            query: QueryId(7),
            pid,
            shape: footprint.shape,
            publish: None,
            select: mmqjp_xscl::SelectClause::Star,
        });
        f.recount.single(QueryId(7), pid);
        let consumers = &f.table.requested().consumers(book)[0];
        assert_eq!(consumers, &[(0, 1), (1, 1)]);
        assert_eq!(
            f.table.requested().get(&book).unwrap()[0].edge,
            book_edges[0]
        );
        assert_eq!(f.audit(), vec![]);

        // One consumer's refcount drifts: the audit names the consumer.
        let mut drifted = Fixture::new();
        drifted.subscribe(0, BOOK_TITLE);
        drifted.subscribe(3, BOOK_TITLE);
        let (pattern, edge, consumer) = drifted.table.seed_extra_edge_ref().unwrap();
        assert_eq!(
            drifted.audit(),
            vec![AuditViolation::EdgeRefcount {
                pattern,
                edge,
                consumer,
                tracked: 2,
                expected: 1,
            }]
        );

        // A registration the owner does not count.
        f.table.retain_pattern_id(book);
        assert_eq!(
            f.audit(),
            vec![AuditViolation::PatternRefcount {
                pattern: book.raw(),
                index_refs: 3,
                expected: 2,
            }]
        );
        f.table.release_pattern(book);

        // A single-block entry without a live subscription.
        let stale = SingleBlock {
            query: QueryId(9),
            ..f.table.singles()[0].clone()
        };
        f.table.singles_mut().push(stale);
        assert_eq!(
            f.audit(),
            vec![AuditViolation::SingleBlockList {
                listed: 2,
                expected: 1,
            }]
        );
    }

    #[test]
    fn requested_edges_cache_their_variable_symbols() {
        let mut f = Fixture::new();
        f.subscribe(0, BOOK_TITLE);
        f.subscribe(2, BLOG);
        for (pid, edges) in f.table.requested().iter() {
            let pattern = f.table.index().pattern(*pid);
            for requested in edges {
                let var = |id: PatternNodeId| pattern.node(id).variable().unwrap();
                assert_eq!(requested.var1, f.interner.intern(var(requested.edge.0)));
                assert_eq!(requested.var2, f.interner.intern(var(requested.edge.1)));
            }
        }
        assert_eq!(f.audit(), vec![]);

        // Seed a stale symbol: the witness rows of that edge would carry the
        // wrong variable, and the audit must say which edge.
        let requested = f.table.requested_mut();
        let (&pid, edges) = requested.lists_mut().next().unwrap();
        let stale = &mut edges[0];
        stale.var2 = Symbol::from_raw(stale.var2.raw() + 1_000);
        let edge = (stale.edge.0.raw(), stale.edge.1.raw());
        assert_eq!(
            f.audit(),
            vec![AuditViolation::RequestedEdgeSymbols {
                pattern: pid.raw(),
                edge
            }]
        );
    }

    #[test]
    fn audit_checks_the_live_emit_plan() {
        // Both book patterns request (book, author) and match this book the
        // same way: on one consumer the second enumeration is suppressed.
        let mut f = Fixture::new();
        f.subscribe(0, BOOK_TITLE);
        f.subscribe(0, BOOK_CATEGORY);
        let book = rss::book_announcement(&["A", "B"], "T", &["C"], "P", "1");
        let mut matches = DocumentMatches::default();
        let mut scratch = MatchScratch::default();
        let mut subs = f.table.subscriptions();
        match_document(&mut subs, &book, &mut scratch, false, &mut matches);
        assert!(matches.suppressed > 0);
        assert!(!matches.rows.is_empty());
        assert_eq!(f.audit(), vec![]);

        assert!(f.table.requested_mut().merge_plan_classes());
        assert_eq!(
            f.audit(),
            vec![AuditViolation::EmitPlan {
                reason: "its edge classes"
            }]
        );

        // A new consumer of an edge changes its class: the plan is dropped
        // and the next document compiles a fresh one.
        f.subscribe(1, BOOK_TITLE);
        assert_eq!(f.audit(), vec![]);
        let mut subs = f.table.subscriptions();
        match_document(&mut subs, &book, &mut scratch, false, &mut matches);
        assert_eq!(f.audit(), vec![]);
    }
}
