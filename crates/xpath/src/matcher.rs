//! Tree-pattern matching against documents.
//!
//! The matcher implements the classic two-pass evaluation for acyclic tree
//! patterns:
//!
//! 1. **Satisfiability (bottom-up):** for each pattern node `p`, compute the
//!    set of document nodes that can root a match of the pattern subtree
//!    rooted at `p` (the node test matches and every pattern child is
//!    satisfiable in the required axis relationship).
//! 2. **Usefulness (top-down):** restrict those sets to nodes that
//!    participate in at least one *complete* witness of the whole pattern
//!    (i.e. they are reachable from a satisfying binding of the pattern
//!    root).
//!
//! Because tree patterns are acyclic, the per-edge binding pairs between
//! useful nodes form a pairwise-consistent (fully reduced) acyclic join whose
//! result is exactly the set of complete witnesses — this is what justifies
//! the paper's factored, binary representation of witnesses (`RbinW`/`Rbin`).

use crate::pattern::{Axis, NodeTest, PatternNode, PatternNodeId, TreePattern};
use crate::witness::{EdgeBinding, Witness};
use mmqjp_xml::{Document, NodeId};
use std::collections::HashSet;

/// Pooled visit stamps of [`PatternMatcher::for_each_path_pair`]'s chain
/// composition: one `u32` per `(path level, document node)`, valid for the
/// current ancestor binding when it equals the current generation. Kept
/// warm by the caller, a chain allocates nothing once the stamps cover the
/// largest `levels × nodes` seen.
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    stamps: Vec<u32>,
    generation: u32,
}

impl ChainScratch {
    /// Make room for `levels` path levels over a document of `nodes` nodes.
    fn reserve(&mut self, levels: usize, nodes: usize) {
        let needed = levels * nodes;
        if self.stamps.len() < needed {
            self.stamps.resize(needed, 0);
        }
    }

    /// A generation no stamp carries yet. Stamps only ever hold past
    /// generations, so on wrap-around they are all cleared.
    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }
}

/// What the composition of one ancestor binding's chain reads, bundled for
/// the recursion.
struct ChainStep<'a> {
    doc: &'a Document,
    useful: &'a [Vec<NodeId>],
    path: &'a [PatternNodeId],
    /// Stamp row width: the document's node count.
    nodes: usize,
    /// The document node bound to `path[0]`.
    ancestor: NodeId,
    generation: u32,
}

/// Evaluates one [`TreePattern`] against documents.
#[derive(Debug, Clone, Copy)]
pub struct PatternMatcher<'p> {
    pattern: &'p TreePattern,
}

impl<'p> PatternMatcher<'p> {
    /// Create a matcher for a pattern.
    pub fn new(pattern: &'p TreePattern) -> Self {
        PatternMatcher { pattern }
    }

    /// The pattern this matcher evaluates.
    pub fn pattern(&self) -> &TreePattern {
        self.pattern
    }

    /// Whether a document node passes a pattern node's node test.
    fn test_matches(doc: &Document, node: NodeId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Tag(t) => doc.node(node).tag() == t,
            NodeTest::Wildcard => true,
            NodeTest::Attribute(a) => doc.node(node).attribute(a).is_some(),
        }
    }

    /// Whether document nodes `(du, dv)` satisfy the axis relationship
    /// required between a pattern node and its child pattern node `child`.
    /// Inlinable across crates: the engines' front instantiates
    /// [`for_each_path_pair`](Self::for_each_path_pair) and calls this once per
    /// candidate pair.
    #[inline]
    fn axis_holds(doc: &Document, du: NodeId, dv: NodeId, child: &PatternNode) -> bool {
        match child.test() {
            // Attribute steps bind the element that carries the attribute,
            // which is the same element the parent step matched.
            NodeTest::Attribute(_) => du == dv,
            _ => match child.axis() {
                Axis::Child => doc.node(dv).parent() == Some(du),
                Axis::Descendant => doc.is_ancestor(du, dv),
            },
        }
    }

    /// Bottom-up satisfiability sets, indexed by pattern node id.
    fn satisfying_sets(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        let n = self.pattern.len();
        let mut sat: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // Children always have larger ids than their parents (insertion
        // order), so iterating ids in reverse processes children first.
        for idx in (0..n).rev() {
            let pid = PatternNodeId(idx as u32);
            let pnode = self.pattern.node(pid);
            let candidates: Vec<NodeId> = if pnode.parent().is_none() {
                // Root step: child axis anchors at the document root element,
                // descendant axis considers every element.
                match pnode.axis() {
                    Axis::Child => vec![NodeId::ROOT],
                    Axis::Descendant => doc.node_ids().collect(),
                }
            } else {
                doc.node_ids().collect()
            };
            let mut matched = Vec::new();
            'cands: for d in candidates {
                if !Self::test_matches(doc, d, pnode.test()) {
                    continue;
                }
                for &c in pnode.children() {
                    let child = self.pattern.node(c);
                    let ok = sat[c.index()]
                        .iter()
                        .any(|&dv| Self::axis_holds(doc, d, dv, child));
                    if !ok {
                        continue 'cands;
                    }
                }
                matched.push(d);
            }
            sat[idx] = matched;
        }
        sat
    }

    /// Top-down useful sets: satisfying nodes that participate in at least
    /// one complete witness. Indexed by pattern node id.
    pub fn useful_nodes(&self, doc: &Document) -> Vec<Vec<NodeId>> {
        let sat = self.satisfying_sets(doc);
        self.useful_from_sat(doc, &sat)
    }

    /// Top-down useful sets from externally computed satisfiability sets —
    /// the entry point for the shared streaming automaton, which evaluates
    /// the bottom-up pass for all registered patterns in one document
    /// traversal. `sat` must be indexed by pattern node id with document
    /// nodes in ascending id order (as [`satisfying_sets`] produces and
    /// [`crate::PatternAutomaton`] reproduces).
    ///
    /// [`satisfying_sets`]: PatternMatcher::useful_nodes
    pub fn useful_from_sat(&self, doc: &Document, sat: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
        let n = self.pattern.len();
        let mut useful: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        useful[0] = sat[0].clone();
        // Parents always precede children in id order.
        for idx in 0..n {
            let pid = PatternNodeId(idx as u32);
            let pnode = self.pattern.node(pid);
            for &c in pnode.children() {
                let child = self.pattern.node(c);
                let mut keep: Vec<NodeId> = Vec::new();
                let mut seen: HashSet<NodeId> = HashSet::new();
                for &dv in &sat[c.index()] {
                    let reachable = useful[idx]
                        .iter()
                        .any(|&du| Self::axis_holds(doc, du, dv, child));
                    if reachable && seen.insert(dv) {
                        keep.push(dv);
                    }
                }
                useful[c.index()] = keep;
            }
        }
        useful
    }

    /// `true` when the document contains at least one complete witness.
    pub fn matches(&self, doc: &Document) -> bool {
        !self.satisfying_sets(doc)[0].is_empty()
    }

    /// Binding pairs for one *adjacent* pattern edge `(parent, child)`,
    /// restricted to useful nodes, handed to `f` in order.
    fn for_each_adjacent_pair(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        parent: PatternNodeId,
        child: PatternNodeId,
        mut f: impl FnMut(NodeId, NodeId),
    ) {
        let child_node = self.pattern.node(child);
        for &du in &useful[parent.index()] {
            for &dv in &useful[child.index()] {
                if Self::axis_holds(doc, du, dv, child_node) {
                    f(du, dv);
                }
            }
        }
    }

    /// Binding pairs for one *adjacent* pattern edge `(parent, child)`,
    /// restricted to useful nodes.
    fn adjacent_pairs(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        parent: PatternNodeId,
        child: PatternNodeId,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        self.for_each_adjacent_pair(doc, useful, parent, child, |du, dv| out.push((du, dv)));
        out
    }

    /// The pattern nodes from `ancestor` down to `descendant`, both ends
    /// included, each the pattern parent of the next — the path
    /// [`for_each_path_pair`](Self::for_each_path_pair) composes. `None`
    /// when `ancestor` is neither `descendant` nor one of its ancestors.
    pub fn path(
        &self,
        ancestor: PatternNodeId,
        descendant: PatternNodeId,
    ) -> Option<Vec<PatternNodeId>> {
        let mut path = vec![descendant];
        let mut cur = descendant;
        while cur != ancestor {
            cur = self.pattern.node(cur).parent()?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The pairs of [`chain_pairs`](Self::chain_pairs) for the edge between
    /// the two ends of `path` (as [`path`](Self::path) returns it), in the
    /// same order, handed to `f` instead of collected. Nothing is
    /// allocated: a self edge reads one useful set, an adjacent edge tests
    /// the two ends' useful sets pairwise, and a multi-step chain is
    /// composed depth first, one ancestor binding at a time, in `scratch`.
    ///
    /// The composition visits a document node at most once per ancestor
    /// binding and path level. That is exactly `chain_pairs`' per-step
    /// dedup: the pairs of one ancestor binding are contiguous in every
    /// composed step, and a node reached again at a level adds no pair the
    /// first visit did not. `scratch` remembers visits by stamping each
    /// `(level, node)` with a generation that is bumped per ancestor
    /// binding, so no set is built or cleared per chain.
    pub fn for_each_path_pair(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        path: &[PatternNodeId],
        scratch: &mut ChainScratch,
        mut f: impl FnMut(NodeId, NodeId),
    ) {
        match *path {
            [] => {}
            [node] => {
                for &d in &useful[node.index()] {
                    f(d, d);
                }
            }
            [parent, child] => self.for_each_adjacent_pair(doc, useful, parent, child, f),
            _ => {
                let nodes = doc.len();
                scratch.reserve(path.len() - 1, nodes);
                for &ancestor in &useful[path[0].index()] {
                    let step = ChainStep {
                        doc,
                        useful,
                        path,
                        nodes,
                        ancestor,
                        generation: scratch.next_generation(),
                    };
                    self.compose(&step, 1, ancestor, &mut scratch.stamps, &mut f);
                }
            }
        }
    }

    /// Extend the chain from `mid`, bound at `path[level - 1]`, to
    /// `path[level]`.
    fn compose(
        &self,
        step: &ChainStep<'_>,
        level: usize,
        mid: NodeId,
        stamps: &mut [u32],
        f: &mut impl FnMut(NodeId, NodeId),
    ) {
        let pnode = step.path[level];
        let child = self.pattern.node(pnode);
        let last = level + 1 == step.path.len();
        let row = (level - 1) * step.nodes;
        for &b in &step.useful[pnode.index()] {
            if !Self::axis_holds(step.doc, mid, b, child) {
                continue;
            }
            let stamp = &mut stamps[row + b.index()];
            if *stamp == step.generation {
                continue;
            }
            *stamp = step.generation;
            if last {
                f(step.ancestor, b);
            } else {
                self.compose(step, level + 1, b, stamps, f);
            }
        }
    }

    /// Binding pairs for an arbitrary ancestor/descendant pair of pattern
    /// nodes (`ancestor` must be a proper pattern-ancestor of `descendant`).
    /// The pairs are computed by composing adjacent-edge pairs along the
    /// pattern path, so intermediate structural constraints are respected
    /// even though the intermediate bindings are projected away.
    pub fn chain_pairs(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        ancestor: PatternNodeId,
        descendant: PatternNodeId,
    ) -> Vec<(NodeId, NodeId)> {
        // A degenerate "self edge" (ancestor == descendant) asks for the
        // useful bindings of a single pattern node, paired with themselves.
        // The Join Processor uses these to constrain value-join nodes whose
        // reduced tree consists of a single node.
        if ancestor == descendant {
            return useful[ancestor.index()].iter().map(|&d| (d, d)).collect();
        }
        // Build the pattern path ancestor -> ... -> descendant.
        let mut path = vec![descendant];
        let mut cur = descendant;
        while cur != ancestor {
            match self.pattern.node(cur).parent() {
                Some(p) => {
                    path.push(p);
                    cur = p;
                }
                None => return Vec::new(), // not actually an ancestor
            }
        }
        path.reverse();
        if path.len() < 2 {
            return Vec::new();
        }
        // Compose adjacent pairs along the path.
        let mut pairs = self.adjacent_pairs(doc, useful, path[0], path[1]);
        for win in path.windows(2).skip(1) {
            let next = self.adjacent_pairs(doc, useful, win[0], win[1]);
            let mut composed = Vec::new();
            let mut seen = HashSet::new();
            for &(a, mid) in &pairs {
                for &(mid2, b) in &next {
                    if mid == mid2 && seen.insert((a, b)) {
                        composed.push((a, b));
                    }
                }
            }
            pairs = composed;
        }
        pairs
    }

    /// Edge bindings for a requested set of pattern-node pairs, using the
    /// variables bound at those nodes. Pattern nodes without variables are
    /// skipped (callers normally run
    /// [`TreePattern::assign_canonical_variables`] first).
    pub fn edge_bindings(
        &self,
        doc: &Document,
        edges: &[(PatternNodeId, PatternNodeId)],
    ) -> Vec<EdgeBinding> {
        let useful = self.useful_nodes(doc);
        self.edge_bindings_from_useful(doc, &useful, edges)
    }

    /// Edge bindings from externally computed satisfiability sets (see
    /// [`useful_from_sat`](PatternMatcher::useful_from_sat)).
    pub fn edge_bindings_from_sat(
        &self,
        doc: &Document,
        sat: &[Vec<NodeId>],
        edges: &[(PatternNodeId, PatternNodeId)],
    ) -> Vec<EdgeBinding> {
        let useful = self.useful_from_sat(doc, sat);
        self.edge_bindings_from_useful(doc, &useful, edges)
    }

    /// Edge bindings from externally computed *useful* sets (e.g. a shared
    /// automaton pass that already ran the top-down usefulness pruning).
    pub fn edge_bindings_from_useful(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        edges: &[(PatternNodeId, PatternNodeId)],
    ) -> Vec<EdgeBinding> {
        let mut out = Vec::new();
        for &(anc, desc) in edges {
            let (Some(anc_var), Some(desc_var)) = (
                self.pattern.node(anc).variable(),
                self.pattern.node(desc).variable(),
            ) else {
                continue;
            };
            for (du, dv) in self.chain_pairs(doc, useful, anc, desc) {
                out.push(EdgeBinding {
                    ancestor_var: anc_var.to_owned(),
                    descendant_var: desc_var.to_owned(),
                    ancestor: du,
                    descendant: dv,
                });
            }
        }
        out
    }

    /// Edge bindings for every adjacent edge of the pattern (the paper's
    /// fully shredded representation).
    pub fn all_edge_bindings(&self, doc: &Document) -> Vec<EdgeBinding> {
        let edges = self.pattern.edges();
        self.edge_bindings(doc, &edges)
    }

    /// Enumerate all complete witnesses (bindings of every variable-carrying
    /// pattern node). Exponential in the worst case; used by tests, examples
    /// and the sequential baseline on the paper's small documents.
    ///
    /// Pattern node ids are assigned in insertion (pre-)order, so a node's
    /// parent always has a smaller id. Enumerating bindings in id order
    /// therefore always has the parent's binding available.
    pub fn witnesses(&self, doc: &Document) -> Vec<Witness> {
        let useful = self.useful_nodes(doc);
        self.witnesses_from_useful(doc, &useful)
    }

    /// Complete witnesses from externally computed satisfiability sets (see
    /// [`useful_from_sat`](PatternMatcher::useful_from_sat)).
    pub fn witnesses_from_sat(&self, doc: &Document, sat: &[Vec<NodeId>]) -> Vec<Witness> {
        let useful = self.useful_from_sat(doc, sat);
        self.witnesses_from_useful(doc, &useful)
    }

    /// Complete witnesses from externally computed *useful* sets (e.g. a
    /// shared automaton pass that already ran the top-down usefulness
    /// pruning).
    pub fn witnesses_from_useful(&self, doc: &Document, useful: &[Vec<NodeId>]) -> Vec<Witness> {
        if useful[0].is_empty() {
            return Vec::new();
        }
        let mut results = Vec::new();
        let mut partial: Vec<NodeId> = Vec::with_capacity(self.pattern.len());
        self.enumerate_in_id_order(doc, useful, &mut partial, &mut results);
        results
    }

    fn enumerate_in_id_order(
        &self,
        doc: &Document,
        useful: &[Vec<NodeId>],
        partial: &mut Vec<NodeId>,
        results: &mut Vec<Witness>,
    ) {
        let idx = partial.len();
        if idx == self.pattern.len() {
            let bindings: Vec<(String, NodeId)> = self
                .pattern
                .nodes()
                .filter_map(|p| {
                    p.variable()
                        .map(|v| (v.to_owned(), partial[p.id().index()]))
                })
                .collect();
            results.push(Witness::new(bindings));
            return;
        }
        let pid = PatternNodeId(idx as u32);
        let pnode = self.pattern.node(pid);
        for &dv in &useful[idx] {
            let compatible = match pnode.parent() {
                None => true,
                Some(parent) => {
                    let du = partial[parent.index()];
                    Self::axis_holds(doc, du, dv, pnode)
                }
            };
            if compatible {
                partial.push(dv);
                self.enumerate_in_id_order(doc, useful, partial, results);
                partial.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use mmqjp_xml::{rss, DocumentBuilder};

    /// Figure 1's book announcement.
    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
    }

    /// Figure 2's blog article.
    fn d2() -> Document {
        rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/topics/books/rss-book",
            "Beginning RSS and Atom Programming",
            "Book Announcement",
            "Just heard ...",
        )
    }

    #[test]
    fn matches_simple_patterns() {
        let book = parse_pattern("S//book").unwrap();
        let blog = parse_pattern("S//blog").unwrap();
        assert!(PatternMatcher::new(&book).matches(&d1()));
        assert!(!PatternMatcher::new(&book).matches(&d2()));
        assert!(PatternMatcher::new(&blog).matches(&d2()));
    }

    #[test]
    fn q1_block_witnesses_on_d1() {
        let p = parse_pattern("S//book->x1[.//author->x2][.//title->x3]").unwrap();
        let m = PatternMatcher::new(&p);
        let ws = m.witnesses(&d1());
        // Two authors × one title = two witnesses.
        assert_eq!(ws.len(), 2);
        for w in &ws {
            assert_eq!(w.get("x1"), Some(NodeId::from_raw(0)));
            assert_eq!(w.get("x3"), Some(NodeId::from_raw(3)));
        }
        let authors: HashSet<NodeId> = ws.iter().map(|w| w.get("x2").unwrap()).collect();
        assert_eq!(
            authors,
            HashSet::from([NodeId::from_raw(1), NodeId::from_raw(2)])
        );
    }

    #[test]
    fn unsatisfiable_predicate_yields_nothing() {
        // d2 (blog) has no isbn; the predicate makes the whole block
        // unsatisfiable, so no witnesses and no edge bindings at all.
        let p = parse_pattern("S//blog->x4[.//author->x5][.//isbn->x6]").unwrap();
        let m = PatternMatcher::new(&p);
        assert!(m.witnesses(&d2()).is_empty());
        assert!(m.all_edge_bindings(&d2()).is_empty());
        assert!(!m.matches(&d2()));
    }

    #[test]
    fn edge_bindings_match_table4c() {
        // Rbin after processing d1 (paper Table 4(c)) holds pairs
        // (x1,x2,0,2), (x1,x2,0,3)* — note the paper numbers authors 2,3 in a
        // different order than our fixture, which numbers them 1,2 — plus the
        // title and category pairs. What matters is the multiset of
        // (variable pair, child tag) combinations.
        let p = parse_pattern("S//book->x1[.//author->x2][.//title->x3][.//category->x7]").unwrap();
        let m = PatternMatcher::new(&p);
        let bindings = m.all_edge_bindings(&d1());
        let author_pairs: Vec<_> = bindings
            .iter()
            .filter(|b| b.descendant_var == "x2")
            .collect();
        let title_pairs: Vec<_> = bindings
            .iter()
            .filter(|b| b.descendant_var == "x3")
            .collect();
        let category_pairs: Vec<_> = bindings
            .iter()
            .filter(|b| b.descendant_var == "x7")
            .collect();
        assert_eq!(author_pairs.len(), 2);
        assert_eq!(title_pairs.len(), 1);
        assert_eq!(category_pairs.len(), 2);
        for b in &bindings {
            assert_eq!(b.ancestor, NodeId::from_raw(0));
            assert_eq!(b.ancestor_var, "x1");
        }
    }

    #[test]
    fn child_vs_descendant_axis() {
        let mut b = DocumentBuilder::new("a");
        b.open("b");
        b.child_text("c", "deep");
        b.close();
        b.child_text("c", "shallow");
        let doc = b.finish();

        let child = parse_pattern("/a/c->x").unwrap();
        let m = PatternMatcher::new(&child);
        let ws = m.witnesses(&doc);
        assert_eq!(ws.len(), 1);
        assert_eq!(doc.string_value(ws[0].get("x").unwrap()), "shallow");

        let desc = parse_pattern("/a//c->x").unwrap();
        let m = PatternMatcher::new(&desc);
        assert_eq!(m.witnesses(&doc).len(), 2);
    }

    #[test]
    fn root_child_axis_anchors_at_document_root() {
        let doc = d1();
        let anchored = parse_pattern("/book").unwrap();
        assert!(PatternMatcher::new(&anchored).matches(&doc));
        let wrong = parse_pattern("/author").unwrap();
        assert!(!PatternMatcher::new(&wrong).matches(&doc));
        // Descendant root axis finds authors anywhere.
        let desc = parse_pattern("//author").unwrap();
        assert!(PatternMatcher::new(&desc).matches(&doc));
    }

    #[test]
    fn wildcard_matches_any_tag() {
        let p = parse_pattern("//book/*->x").unwrap();
        let m = PatternMatcher::new(&p);
        // All 7 children of the book root.
        assert_eq!(m.witnesses(&d1()).len(), 7);
    }

    #[test]
    fn attribute_step_binds_carrying_element() {
        let mut b = DocumentBuilder::new("item");
        b.open("link");
        b.attribute("href", "http://example.org/x");
        b.close();
        let doc = b.finish();
        let p = parse_pattern("//link[./@href->h]").unwrap();
        let m = PatternMatcher::new(&p);
        let ws = m.witnesses(&doc);
        assert_eq!(ws.len(), 1);
        let n = ws[0].get("h").unwrap();
        assert_eq!(doc.node(n).tag(), "link");
        // A missing attribute fails the predicate.
        let p2 = parse_pattern("//link[./@rel->r]").unwrap();
        assert!(!PatternMatcher::new(&p2).matches(&doc));
    }

    #[test]
    fn chain_pairs_respect_intermediate_structure() {
        // Pattern a//b//c. Document: b0 { a1 { c2 } }  — c2 is under a1 but
        // the only b is ABOVE a1, so (a1, c2) must NOT be a valid chain pair.
        let mut builder = DocumentBuilder::new("b");
        builder.open("a");
        builder.child_text("c", "x");
        builder.close();
        let doc = builder.finish();

        let p = parse_pattern("//a->va[.//b->vb[.//c->vc]]").unwrap();
        let m = PatternMatcher::new(&p);
        assert!(!m.matches(&doc));
        let edges = vec![(PatternNodeId(0), PatternNodeId(2))];
        assert!(m.edge_bindings(&doc, &edges).is_empty());

        // Now a document where the chain does exist: a { b { c } }.
        let mut builder = DocumentBuilder::new("a");
        builder.open("b");
        builder.child_text("c", "y");
        builder.close();
        let doc2 = builder.finish();
        let pairs = m.edge_bindings(&doc2, &edges);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].ancestor, NodeId::from_raw(0));
        assert_eq!(pairs[0].descendant, NodeId::from_raw(2));
    }

    /// Every `(ancestor, descendant)` pair of pattern nodes: the pooled
    /// composition over [`PatternMatcher::path`] equals `chain_pairs` pair
    /// for pair and in order, with one scratch reused throughout (stale
    /// stamps of earlier chains must not leak). Returns the pairs compared.
    fn pooled_equals_chain_pairs(pattern: &str, doc: &Document) -> usize {
        let p = parse_pattern(pattern).unwrap();
        let m = PatternMatcher::new(&p);
        let useful = m.useful_nodes(doc);
        let mut scratch = ChainScratch::default();
        let mut compared = 0;
        for anc in p.node_ids() {
            for desc in p.node_ids() {
                let mut got = Vec::new();
                if let Some(path) = m.path(anc, desc) {
                    m.for_each_path_pair(doc, &useful, &path, &mut scratch, |a, d| {
                        got.push((a, d));
                    });
                }
                assert_eq!(
                    got,
                    m.chain_pairs(doc, &useful, anc, desc),
                    "{pattern}: {anc:?}->{desc:?}"
                );
                compared += got.len();
            }
        }
        compared
    }

    #[test]
    fn for_each_pair_equals_chain_pairs() {
        // Self, adjacent and multi-step chain edges of a nested pattern.
        let mut b = DocumentBuilder::new("feed");
        for (title, author) in [("t1", Some("a1")), ("t2", None), ("t3", Some("a3"))] {
            b.open("entry");
            b.child_text("title", title);
            if let Some(author) = author {
                b.child_text("author", author);
            }
            b.close();
        }
        let feed = "//feed->f[.//entry->e[.//title->t][.//author->a]]";
        assert!(pooled_equals_chain_pairs(feed, &b.finish()) > 0);

        // Nested same-tag elements under a child axis: a0 { c1 { c2 { b3 }
        // b4 } }. Composing a0 -> c -> b visits c1 first, whose child is
        // b4, then c2, whose child is b3, so the chain's pairs come out as
        // (a0, b4), (a0, b3) — not in (du, dv) order.
        let mut b = DocumentBuilder::new("a");
        b.open("c");
        b.open("c");
        b.child_text("b", "inner");
        b.close();
        b.child_text("b", "outer");
        b.close();
        let nested = b.finish();
        let pattern = "//a->x[.//c->y[./b->z]]";
        assert!(pooled_equals_chain_pairs(pattern, &nested) > 0);
        let p = parse_pattern(pattern).unwrap();
        let m = PatternMatcher::new(&p);
        let chain = m.chain_pairs(
            &nested,
            &m.useful_nodes(&nested),
            PatternNodeId(0),
            PatternNodeId(2),
        );
        let raw = |pairs: &[(NodeId, NodeId)]| -> Vec<(u32, u32)> {
            pairs.iter().map(|(a, d)| (a.raw(), d.raw())).collect()
        };
        assert_eq!(raw(&chain), [(0, 4), (0, 3)], "the order this case pins");

        // An attribute step ending a chain: a { b@id { b@id } b }, where the
        // attribute binds the element carrying it.
        let mut b = DocumentBuilder::new("a");
        b.open("b");
        b.attribute("id", "1");
        b.open("b");
        b.attribute("id", "2");
        b.close();
        b.close();
        b.child_text("b", "no id");
        assert!(pooled_equals_chain_pairs("//a->x[.//b->y[./@id->z]]", &b.finish()) > 0);

        // A three-step chain over repeated, nested tags, where one
        // (ancestor, descendant) pair is reachable along several paths.
        let mut b = DocumentBuilder::new("r");
        for _ in 0..2 {
            b.open("a");
            for _ in 0..2 {
                b.open("b");
                b.open("c");
                b.child_text("d", "1");
                b.open("c");
                b.child_text("d", "2");
                b.close();
                b.close();
                b.close();
            }
            b.close();
        }
        let pattern = "//a->w[.//b->x[.//c->y[.//d->z]]]";
        assert!(pooled_equals_chain_pairs(pattern, &b.finish()) > 0);
    }

    #[test]
    fn useful_nodes_prune_unreachable_matches() {
        // Pattern //a[.//b]: document has two a's, only one contains a b.
        let mut builder = DocumentBuilder::new("root");
        builder.open("a");
        builder.child_text("b", "1");
        builder.close();
        builder.open("a");
        builder.child_text("c", "2");
        builder.close();
        let doc = builder.finish();
        let p = parse_pattern("//a->x[.//b->y]").unwrap();
        let m = PatternMatcher::new(&p);
        let useful = m.useful_nodes(&doc);
        assert_eq!(useful[0].len(), 1); // only the first a
        assert_eq!(useful[1].len(), 1); // only its b
        assert_eq!(m.witnesses(&doc).len(), 1);
    }

    #[test]
    fn multiple_matches_cross_product_witnesses() {
        // Two authors and two categories: 4 witnesses for a pattern binding
        // both.
        let p = parse_pattern("S//book->x1[.//author->x2][.//category->x7]").unwrap();
        let m = PatternMatcher::new(&p);
        assert_eq!(m.witnesses(&d1()).len(), 4);
    }

    #[test]
    fn nested_pattern_witnesses() {
        // feed { entry { title, author }, entry { title } }
        let mut b = DocumentBuilder::new("feed");
        b.open("entry");
        b.child_text("title", "t1");
        b.child_text("author", "a1");
        b.close();
        b.open("entry");
        b.child_text("title", "t2");
        b.close();
        let doc = b.finish();
        let p = parse_pattern("//feed->f[.//entry->e[.//title->t][.//author->a]]").unwrap();
        let m = PatternMatcher::new(&p);
        let ws = m.witnesses(&doc);
        // Only the first entry has both title and author.
        assert_eq!(ws.len(), 1);
        assert_eq!(doc.string_value(ws[0].get("t").unwrap()), "t1");
        assert_eq!(doc.string_value(ws[0].get("a").unwrap()), "a1");
    }

    #[test]
    fn feed_item_pattern_on_rss_document() {
        let item = rss::FeedItem {
            item_url: "u".into(),
            channel_url: "c".into(),
            title: "T".into(),
            timestamp: 5,
            description: "D".into(),
        };
        let doc = item.to_document(mmqjp_xml::DocId(1));
        let p = parse_pattern("S//item->r[.//title->t][.//channel_url->u]").unwrap();
        let m = PatternMatcher::new(&p);
        let ws = m.witnesses(&doc);
        assert_eq!(ws.len(), 1);
        assert_eq!(doc.string_value(ws[0].get("t").unwrap()), "T");
    }
}
