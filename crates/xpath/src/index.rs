//! The multi-query XPath front end.
//!
//! A publish/subscribe system registers the tree-pattern components of *all*
//! queries and evaluates them together against each incoming document. The
//! dominant sharing opportunity — and the one the paper relies on when it
//! delegates Stage 1 to YFilter — is that different queries reuse identical
//! query blocks. [`PatternIndex`] therefore:
//!
//! * de-duplicates structurally identical patterns (same
//!   [`TreePattern::signature`]); each distinct pattern is evaluated at most
//!   once per document regardless of how many queries reference it;
//! * reference-counts registrations so a pattern can be
//!   [`unregister`](PatternIndex::unregister)ed when a subscription departs:
//!   the pattern is dropped (and stops being evaluated) once its last
//!   subscriber leaves, while [`PatternId`]s stay stable — dropped slots are
//!   tombstoned, never reused;
//! * pre-filters patterns by their *root tag* using a per-document tag set,
//!   so patterns that cannot possibly match (e.g. `//book...` on a blog
//!   document) are skipped without running the matcher;
//! * exposes per-document statistics so experiments can report Stage-1 cost
//!   and sharing factors.

use crate::automaton::{AutomatonScratch, PatternAutomaton, SharedPass};
use crate::matcher::PatternMatcher;
use crate::pattern::{NodeTest, PatternNodeId, TreePattern};
use crate::witness::{EdgeBinding, Witness};
use mmqjp_xml::Document;
use std::collections::{HashMap, HashSet};

/// Identifier of a registered (distinct) pattern within a [`PatternIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

impl PatternId {
    /// Raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Raw index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Statistics about index contents and the last evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternIndexStats {
    /// Number of registration calls (query blocks inserted).
    pub registered_blocks: usize,
    /// Number of distinct patterns actually stored.
    pub distinct_patterns: usize,
    /// Patterns evaluated for the last document (after tag pre-filtering).
    pub evaluated_last: usize,
    /// Patterns skipped by the root-tag pre-filter for the last document.
    pub skipped_last: usize,
}

/// A shared index over the tree patterns of many query blocks.
///
/// Registrations are reference-counted per distinct pattern: `register`
/// increments the count of the (deduplicated) pattern, `unregister`
/// decrements it and tombstones the slot when the last subscriber leaves.
/// [`PatternId`]s are never reused, so ids handed out earlier stay valid
/// for the patterns that are still live.
#[derive(Debug, Default, Clone)]
pub struct PatternIndex {
    /// Pattern slots; `None` marks a dropped (tombstoned) pattern. Boxed so
    /// a tombstoned slot costs a pointer, not the pattern footprint, under
    /// unbounded churn.
    patterns: Vec<Option<Box<TreePattern>>>,
    by_signature: HashMap<String, PatternId>,
    /// Root tags per pattern (None = wildcard / cannot pre-filter).
    root_tags: Vec<Option<String>>,
    /// Number of live registrations per slot.
    refcounts: Vec<usize>,
    /// Number of live (non-tombstoned) patterns.
    live: usize,
    registered_blocks: usize,
    evaluated_last: usize,
    skipped_last: usize,
    /// The compiled shared automaton over all live patterns, built lazily
    /// and invalidated on registration churn.
    automaton: Option<PatternAutomaton>,
    /// Reusable pass buffers — successive
    /// [`shared_pass_reusing`](PatternIndex::shared_pass_reusing) calls
    /// allocate nothing beyond result growth.
    scratch: AutomatonScratch,
}

impl PatternIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        PatternIndex::default()
    }

    /// Register a pattern, returning its id. Structurally identical patterns
    /// (same signature) are shared and return the same id; every call
    /// increments the pattern's reference count (see
    /// [`unregister`](PatternIndex::unregister)).
    pub fn register(&mut self, pattern: TreePattern) -> PatternId {
        self.registered_blocks += 1;
        let sig = pattern.signature();
        if let Some(&id) = self.by_signature.get(&sig) {
            self.refcounts[id.index()] += 1;
            return id;
        }
        let id = PatternId(self.patterns.len() as u32);
        let root_tag = match pattern.root().test() {
            NodeTest::Tag(t) => Some(t.clone()),
            _ => None,
        };
        self.root_tags.push(root_tag);
        self.patterns.push(Some(Box::new(pattern)));
        self.refcounts.push(1);
        self.live += 1;
        self.by_signature.insert(sig, id);
        self.automaton = None;
        id
    }

    /// Take one more registration of a live pattern by id: the effect of
    /// [`register`](PatternIndex::register)ing a structurally identical
    /// pattern, without building its signature. Panics for dropped ids.
    pub fn retain(&mut self, id: PatternId) {
        let count = &mut self.refcounts[id.index()];
        assert!(*count > 0, "retain of a dropped pattern {id:?}");
        *count += 1;
        self.registered_blocks += 1;
    }

    /// Release one registration of a pattern. Returns `true` when this was
    /// the last registration and the pattern was dropped from the index
    /// (its slot is tombstoned; the id is never reused). A subsequent
    /// `register` of the same structure allocates a fresh id.
    pub fn unregister(&mut self, id: PatternId) -> bool {
        let idx = id.index();
        let count = &mut self.refcounts[idx];
        assert!(*count > 0, "unregister of a dropped pattern {id:?}");
        *count -= 1;
        if *count > 0 {
            return false;
        }
        let pattern = self.patterns[idx]
            .take()
            // lint:allow register/unregister keep refcounts and slots in lockstep
            .expect("a positive refcount implies a live pattern");
        self.by_signature.remove(&pattern.signature());
        self.root_tags[idx] = None;
        self.live -= 1;
        self.automaton = None;
        true
    }

    /// Number of live registrations of a pattern (0 for dropped slots).
    pub fn refcount(&self, id: PatternId) -> usize {
        self.refcounts[id.index()]
    }

    /// Number of distinct live patterns stored.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live patterns are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The pattern stored under an id. Panics for tombstoned (dropped) ids.
    pub fn pattern(&self, id: PatternId) -> &TreePattern {
        self.patterns[id.index()]
            .as_ref()
            // lint:allow documented contract: callers must not pass tombstoned ids
            .expect("pattern id refers to a dropped pattern")
    }

    /// Iterate over live `(id, pattern)` pairs.
    pub fn patterns(&self) -> impl Iterator<Item = (PatternId, &TreePattern)> {
        self.patterns
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_deref().map(|p| (PatternId(i as u32), p)))
    }

    /// Index statistics (sharing factor, last-evaluation counters).
    pub fn stats(&self) -> PatternIndexStats {
        PatternIndexStats {
            registered_blocks: self.registered_blocks,
            distinct_patterns: self.live,
            evaluated_last: self.evaluated_last,
            skipped_last: self.skipped_last,
        }
    }

    /// Ids of live patterns that can potentially match the document, using
    /// the root-tag pre-filter.
    fn candidate_ids(&self, doc: &Document) -> Vec<PatternId> {
        let doc_tags: HashSet<&str> = doc.nodes().map(|n| n.tag()).collect();
        self.patterns
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                p.is_some()
                    && match &self.root_tags[*i] {
                        Some(tag) => doc_tags.contains(tag.as_str()),
                        None => true,
                    }
            })
            .map(|(i, _)| PatternId(i as u32))
            .collect()
    }

    /// Evaluate every registered pattern over a document, returning complete
    /// witnesses per matching pattern.
    pub fn evaluate_witnesses(&mut self, doc: &Document) -> Vec<(PatternId, Vec<Witness>)> {
        let candidates = self.candidate_ids(doc);
        self.skipped_last = self.live - candidates.len();
        self.evaluated_last = candidates.len();
        let mut out = Vec::new();
        for id in candidates {
            let matcher = PatternMatcher::new(self.pattern(id));
            let ws = matcher.witnesses(doc);
            if !ws.is_empty() {
                out.push((id, ws));
            }
        }
        out
    }

    /// Evaluate every registered pattern over a document, returning the edge
    /// bindings requested per pattern.
    ///
    /// `requested_edges` maps a pattern id to the list of
    /// (ancestor, descendant) pattern-node pairs whose binding pairs the Join
    /// Processor wants (typically the edges of the reduced variable tree
    /// pattern). Patterns without an entry fall back to all adjacent edges.
    ///
    /// One DOM matcher walk per pattern. No engine calls this: Stage 1 runs
    /// the shared automaton (`mmqjp-core`'s `front` module), and this
    /// per-pattern path is kept as the reference its tests compare against.
    pub fn evaluate_edge_bindings(
        &mut self,
        doc: &Document,
        requested_edges: &HashMap<PatternId, Vec<(PatternNodeId, PatternNodeId)>>,
    ) -> Vec<(PatternId, Vec<EdgeBinding>)> {
        let candidates = self.candidate_ids(doc);
        self.skipped_last = self.live - candidates.len();
        self.evaluated_last = candidates.len();
        let mut out = Vec::new();
        for id in candidates {
            let pattern = self.pattern(id);
            let matcher = PatternMatcher::new(pattern);
            let bindings = match requested_edges.get(&id) {
                Some(edges) => matcher.edge_bindings(doc, edges),
                None => matcher.all_edge_bindings(doc),
            };
            if !bindings.is_empty() {
                out.push((id, bindings));
            }
        }
        out
    }

    /// Run the shared automaton over a document: one traversal evaluates the
    /// bottom-up satisfiability pass *and* the top-down usefulness pass of
    /// **every** live pattern, into a reused [`SharedPass`]. With a warm
    /// `pass` (and the index's own scratch warm), a document pass allocates
    /// nothing beyond result-set growth.
    pub fn shared_pass_reusing(&mut self, doc: &Document, pass: &mut SharedPass) {
        self.evaluated_last = self.live;
        self.skipped_last = 0;
        if self.automaton.is_none() {
            self.automaton = Some(PatternAutomaton::new(self.patterns()));
        }
        let automaton = self.automaton.get_or_insert_with(PatternAutomaton::default);
        automaton.pass_over_reusing(doc, &mut self.scratch, pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use mmqjp_xml::rss;

    fn book_doc() -> Document {
        rss::book_announcement(
            &["Danny Ayers"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming"],
            "Wrox",
            "0764579169",
        )
    }

    fn blog_doc() -> Document {
        rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/feed",
            "Beginning RSS and Atom Programming",
            "Book Announcement",
            "Just heard ...",
        )
    }

    #[test]
    fn register_dedupes_identical_patterns() {
        let mut idx = PatternIndex::new();
        let a = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        let b = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        let c = idx.register(parse_pattern("S//blog->x4[.//author->x5]").unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        let stats = idx.stats();
        assert_eq!(stats.registered_blocks, 3);
        assert_eq!(stats.distinct_patterns, 2);
        assert_eq!(idx.pattern(a).root().test(), &NodeTest::tag("book"));
        assert_eq!(idx.patterns().count(), 2);
    }

    #[test]
    fn evaluate_witnesses_prefilters_by_root_tag() {
        let mut idx = PatternIndex::new();
        let book = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        let blog = idx.register(parse_pattern("S//blog->x4[.//author->x5]").unwrap());

        let results = idx.evaluate_witnesses(&book_doc());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, book);
        assert_eq!(idx.stats().evaluated_last, 1);
        assert_eq!(idx.stats().skipped_last, 1);

        let results = idx.evaluate_witnesses(&blog_doc());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, blog);
    }

    #[test]
    fn wildcard_root_is_never_prefiltered() {
        let mut idx = PatternIndex::new();
        idx.register(parse_pattern("S//*->x").unwrap());
        let results = idx.evaluate_witnesses(&book_doc());
        assert_eq!(results.len(), 1);
        assert_eq!(idx.stats().skipped_last, 0);
    }

    #[test]
    fn evaluate_edge_bindings_with_requested_edges() {
        let mut idx = PatternIndex::new();
        let id = idx.register(parse_pattern("S//book->x1[.//author->x2][.//title->x3]").unwrap());
        let mut requested = HashMap::new();
        // Only ask for the (book, title) edge.
        requested.insert(id, vec![(PatternNodeId(0), PatternNodeId(2))]);
        let results = idx.evaluate_edge_bindings(&book_doc(), &requested);
        assert_eq!(results.len(), 1);
        let bindings = &results[0].1;
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].descendant_var, "x3");
    }

    #[test]
    fn evaluate_edge_bindings_defaults_to_all_edges() {
        let mut idx = PatternIndex::new();
        idx.register(parse_pattern("S//book->x1[.//author->x2][.//title->x3]").unwrap());
        let results = idx.evaluate_edge_bindings(&book_doc(), &HashMap::new());
        assert_eq!(results.len(), 1);
        // one author edge pair + one title edge pair
        assert_eq!(results[0].1.len(), 2);
    }

    #[test]
    fn unregister_is_refcounted_and_tombstones_slots() {
        let mut idx = PatternIndex::new();
        let a = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        let a2 = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        let b = idx.register(parse_pattern("S//blog->x4[.//author->x5]").unwrap());
        assert_eq!(a, a2);
        assert_eq!(idx.refcount(a), 2);
        assert_eq!(idx.refcount(b), 1);

        // First release: shared pattern survives.
        assert!(!idx.unregister(a));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.refcount(a), 1);
        // Last release: pattern dropped, slot tombstoned, evaluation skips it.
        assert!(idx.unregister(a));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.refcount(a), 0);
        let results = idx.evaluate_witnesses(&book_doc());
        assert!(results.is_empty());
        assert_eq!(idx.stats().evaluated_last, 0);
        assert_eq!(idx.stats().distinct_patterns, 1);

        // Re-registering the same structure allocates a fresh id; the old id
        // is never reused.
        let a3 = idx.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        assert_ne!(a3, a);
        assert_eq!(a3.index(), 2);
        assert_eq!(idx.len(), 2);
        let results = idx.evaluate_witnesses(&book_doc());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, a3);
    }

    #[test]
    fn retain_by_id_counts_like_register() {
        let mut by_id = PatternIndex::new();
        let mut by_pattern = PatternIndex::new();
        let a = by_id.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        by_pattern.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        by_id.retain(a);
        by_pattern.register(parse_pattern("S//book->x1[.//author->x2]").unwrap());
        assert_eq!(by_id.refcount(a), 2);
        assert_eq!(by_id.stats(), by_pattern.stats());
        assert!(!by_id.unregister(a));
        assert!(by_id.unregister(a));
    }

    #[test]
    #[should_panic(expected = "retain of a dropped pattern")]
    fn retain_of_dropped_pattern_panics() {
        let mut idx = PatternIndex::new();
        let a = idx.register(parse_pattern("S//book->x1").unwrap());
        assert!(idx.unregister(a));
        idx.retain(a);
    }

    #[test]
    #[should_panic(expected = "unregister of a dropped pattern")]
    fn unregister_of_dropped_pattern_panics() {
        let mut idx = PatternIndex::new();
        let a = idx.register(parse_pattern("S//book->x1").unwrap());
        assert!(idx.unregister(a));
        idx.unregister(a);
    }

    #[test]
    fn non_matching_patterns_are_omitted() {
        let mut idx = PatternIndex::new();
        idx.register(parse_pattern("S//book->x1[.//isbn->x9][.//missing->x8]").unwrap());
        let results = idx.evaluate_witnesses(&book_doc());
        assert!(results.is_empty());
    }
}
