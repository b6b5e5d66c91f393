//! The shared streaming pattern automaton.
//!
//! [`PatternAutomaton`] compiles *all* registered tree patterns into one
//! flat slot table and evaluates every pattern's bottom-up satisfiability
//! pass in a **single** traversal of a [`Document`], driven by open/close
//! element events. Per-document work is one pass over the elements plus
//! per-element bit operations over the slot table, independent of how many
//! queries registered each pattern.
//!
//! Every `(pattern, pattern node)` pair is a *slot*. Slots of one pattern
//! are contiguous and keep the pattern's node-id order, so a pattern child's
//! slot is always greater than its parent's; evaluating slots in descending
//! order at element close therefore sees every pattern child finalized
//! first, exactly mirroring the reverse-id iteration of the two-pass
//! matcher. Each open element carries three bitsets:
//!
//! * its *test mask* (which slots' node tests the element passes, computed
//!   once at open from a tag-dispatch table plus wildcard and attribute
//!   slots),
//! * `child_sat` — the OR of the final satisfiability bits of its direct
//!   children (checked for child-axis pattern edges),
//! * `desc_sat` — the OR over all strict descendants (checked for
//!   descendant-axis edges).
//!
//! Attribute steps bind the element carrying the attribute, so they are
//! dependencies on the *same* element's bits. Pattern roots with a child
//! axis only ever bind the document root element; their bits are cleared for
//! every other element. The result of a pass ([`SharedPass`]) holds, for
//! each pattern, the same satisfiability sets (ascending element id) the
//! two-pass matcher computes — the top-down usefulness pass and
//! witness/edge-binding enumeration are then shared with the DOM path via
//! [`PatternMatcher::useful_from_sat`] and friends, which is what makes the
//! streaming front end byte-identical to the reference evaluator.

use crate::index::PatternId;
use crate::pattern::{Axis, NodeTest, TreePattern};
use mmqjp_xml::{Document, NodeId};
use std::collections::HashMap;

#[cfg(doc)]
use crate::matcher::PatternMatcher;

/// How a slot depends on one of its pattern children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepKind {
    /// Attribute step: must hold at the same element.
    SameElement,
    /// Child axis: must hold at some direct child element.
    Child,
    /// Descendant axis: must hold at some strict descendant element.
    Descendant,
}

/// One pattern's slot range in the automaton.
#[derive(Debug, Clone)]
struct PatternEntry {
    key: PatternId,
    base: u32,
    len: u32,
}

/// All registered tree patterns compiled into one event-driven evaluator.
#[derive(Debug, Clone, Default)]
pub struct PatternAutomaton {
    patterns: Vec<PatternEntry>,
    slot_count: usize,
    /// Bitset words per element row.
    words: usize,
    /// Tag dispatch: slots whose node test is this tag.
    by_tag: HashMap<String, Vec<u32>>,
    /// Mask of wildcard slots (pass every element's test).
    wildcard_mask: Vec<u64>,
    /// Attribute-test slots with the attribute name to probe.
    attr_slots: Vec<(u32, String)>,
    /// Mask that *keeps* everything except child-axis pattern roots; ANDed
    /// into every non-root element's bits.
    non_root_keep: Vec<u64>,
    /// Per slot: dependencies on pattern children (child slot, kind).
    deps: Vec<Vec<(u32, DepKind)>>,
    /// Per slot: the parent slot and the axis kind linking them (`None` for
    /// pattern roots) — the top-down usefulness pass walks these upward.
    up: Vec<Option<(u32, DepKind)>>,
}

impl PatternAutomaton {
    /// Compile an automaton over `(id, pattern)` pairs. Slot layout follows
    /// the iteration order, so callers should pass patterns in a stable
    /// order (e.g. ascending [`PatternId`], as
    /// [`PatternIndex::patterns`](crate::PatternIndex::patterns) does).
    pub fn new<'p>(patterns: impl IntoIterator<Item = (PatternId, &'p TreePattern)>) -> Self {
        let mut a = PatternAutomaton::default();
        let mut slots = 0u32;
        let mut compiled: Vec<(PatternId, &TreePattern, u32)> = Vec::new();
        for (key, pattern) in patterns {
            let base = slots;
            let len = pattern.len() as u32;
            slots += len;
            a.patterns.push(PatternEntry { key, base, len });
            compiled.push((key, pattern, base));
        }
        a.slot_count = slots as usize;
        a.words = a.slot_count.div_ceil(64);
        a.wildcard_mask = vec![0; a.words];
        a.non_root_keep = vec![u64::MAX; a.words];
        a.deps = vec![Vec::new(); a.slot_count];
        a.up = vec![None; a.slot_count];
        for (_, pattern, base) in compiled {
            for pnode in pattern.nodes() {
                let slot = base + pnode.id().raw();
                match pnode.test() {
                    NodeTest::Tag(t) => a.by_tag.entry(t.clone()).or_default().push(slot),
                    NodeTest::Wildcard => set_bit(&mut a.wildcard_mask, slot),
                    NodeTest::Attribute(name) => a.attr_slots.push((slot, name.clone())),
                }
                if pnode.parent().is_none() && pnode.axis() == Axis::Child {
                    clear_bit(&mut a.non_root_keep, slot);
                }
                for &c in pnode.children() {
                    let child = pattern.node(c);
                    let kind = match child.test() {
                        NodeTest::Attribute(_) => DepKind::SameElement,
                        _ => match child.axis() {
                            Axis::Child => DepKind::Child,
                            Axis::Descendant => DepKind::Descendant,
                        },
                    };
                    a.deps[slot as usize].push((base + c.raw(), kind));
                    a.up[(base + c.raw()) as usize] = Some((slot, kind));
                }
            }
        }
        a
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Begin a document pass over caller-provided scratch buffers (reused
    /// across documents to keep the hot path allocation-free).
    pub fn start<'a>(&'a self, scratch: &'a mut AutomatonScratch) -> AutomatonRun<'a> {
        scratch.reset(self.words);
        AutomatonRun {
            automaton: self,
            scratch,
        }
    }

    /// Evaluate all compiled patterns over a built document in one
    /// traversal, replaying its tree as open/close events.
    pub fn pass_over(&self, doc: &Document) -> SharedPass {
        let mut scratch = AutomatonScratch::default();
        self.pass_over_with(doc, &mut scratch)
    }

    /// [`pass_over`](Self::pass_over) with reusable scratch buffers.
    pub fn pass_over_with(&self, doc: &Document, scratch: &mut AutomatonScratch) -> SharedPass {
        let mut pass = SharedPass::default();
        self.pass_over_reusing(doc, scratch, &mut pass);
        pass
    }

    /// [`pass_over`](Self::pass_over) reusing both the scratch buffers and
    /// the result's own buffers — with a warm `pass`, a document pass
    /// performs no heap allocation beyond result-set growth.
    pub fn pass_over_reusing(
        &self,
        doc: &Document,
        scratch: &mut AutomatonScratch,
        pass: &mut SharedPass,
    ) {
        // Every document has at least its root element, so every document is
        // traversed — a root-only document can match a pattern too.
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        stack.push(Step::Open(NodeId::ROOT));
        let mut run = self.start(scratch);
        while let Some(step) = stack.pop() {
            match step {
                Step::Open(n) => {
                    let node = doc.node(n);
                    run.open(node.tag(), |name| node.attribute(name).is_some());
                    stack.push(Step::Close);
                    for &c in node.children().iter().rev() {
                        stack.push(Step::Open(c));
                    }
                }
                Step::Close => run.close(),
            }
        }
        run.finish_into(pass);
        scratch.stack = stack;
    }
}

/// One open element's state during a pass.
#[derive(Debug, Default, Clone)]
struct Frame {
    element: u32,
    /// Test mask at open; becomes the final satisfiability bits at close.
    mask: Vec<u64>,
    /// OR of direct children's final bits.
    child_sat: Vec<u64>,
    /// OR over all strict descendants' final bits.
    desc_sat: Vec<u64>,
}

/// One step of the replayed open/close event stream of a built document.
#[derive(Debug, Clone, Copy)]
enum Step {
    Open(NodeId),
    Close,
}

/// Reusable buffers for [`AutomatonRun`]s. One scratch serves any number of
/// sequential passes; reusing it across documents keeps the per-document
/// pass free of heap allocation (rows, frames, the parent table and the
/// event stack all keep their capacity).
#[derive(Debug, Default, Clone)]
pub struct AutomatonScratch {
    /// Pending events of [`PatternAutomaton::pass_over_reusing`].
    stack: Vec<Step>,
    frames: Vec<Frame>,
    /// Recycled frames (their vectors keep capacity across elements).
    spare: Vec<Frame>,
    /// Final satisfiability bits per element, `words` per row.
    sat_bits: Vec<u64>,
    /// Useful bits per element (filled by `finish`).
    useful_bits: Vec<u64>,
    /// OR of the useful rows of each element's strict ancestors.
    anc_bits: Vec<u64>,
    /// Per element: parent element id + 1 (`0` for the document root).
    parents: Vec<u32>,
    count: u32,
}

impl AutomatonScratch {
    fn reset(&mut self, _words: usize) {
        self.frames.clear();
        self.sat_bits.clear();
        self.useful_bits.clear();
        self.anc_bits.clear();
        self.parents.clear();
        self.count = 0;
    }
}

/// An in-progress document pass over a [`PatternAutomaton`].
#[derive(Debug)]
pub struct AutomatonRun<'a> {
    automaton: &'a PatternAutomaton,
    scratch: &'a mut AutomatonScratch,
}

impl AutomatonRun<'_> {
    /// Feed an element-open event. `has_attr` probes the element's
    /// attributes by name.
    pub fn open<F: Fn(&str) -> bool>(&mut self, tag: &str, has_attr: F) {
        let a = self.automaton;
        let s = &mut *self.scratch;
        let mut frame = s.spare.pop().unwrap_or_default();
        frame.element = s.count;
        frame.mask.clear();
        frame.mask.extend_from_slice(&a.wildcard_mask);
        frame.child_sat.clear();
        frame.child_sat.resize(a.words, 0);
        frame.desc_sat.clear();
        frame.desc_sat.resize(a.words, 0);
        if let Some(slots) = a.by_tag.get(tag) {
            for &slot in slots {
                set_bit(&mut frame.mask, slot);
            }
        }
        for (slot, name) in &a.attr_slots {
            if has_attr(name) {
                set_bit(&mut frame.mask, *slot);
            }
        }
        s.parents.push(s.frames.last().map_or(0, |f| f.element + 1));
        s.count += 1;
        s.sat_bits.extend(std::iter::repeat(0).take(a.words));
        s.frames.push(frame);
    }

    /// Feed an element-close event, finalizing the innermost open element's
    /// satisfiability bits.
    pub fn close(&mut self) {
        let a = self.automaton;
        let s = &mut *self.scratch;
        let Some(mut frame) = s.frames.pop() else {
            return;
        };
        // Descending slot order over the *set* bits only: every pattern
        // child (larger slot) of a slot is finalized before the slot itself
        // is checked, and slots whose node test already failed cost nothing.
        for w in (0..a.words).rev() {
            let mut bits = frame.mask[w];
            while bits != 0 {
                let b = 63 - bits.leading_zeros();
                bits &= !(1u64 << b);
                let slot = (w as u32) * 64 + b;
                let deps = &a.deps[slot as usize];
                if deps.is_empty() {
                    continue;
                }
                let ok = deps.iter().all(|&(c, kind)| match kind {
                    DepKind::SameElement => get_bit(&frame.mask, c),
                    DepKind::Child => get_bit(&frame.child_sat, c),
                    DepKind::Descendant => get_bit(&frame.desc_sat, c),
                });
                if !ok {
                    clear_bit(&mut frame.mask, slot);
                }
            }
        }
        if frame.element != 0 {
            for (m, keep) in frame.mask.iter_mut().zip(&a.non_root_keep) {
                *m &= keep;
            }
        }
        let row = frame.element as usize * a.words;
        s.sat_bits[row..row + a.words].copy_from_slice(&frame.mask);
        if let Some(parent) = s.frames.last_mut() {
            for w in 0..a.words {
                parent.child_sat[w] |= frame.mask[w];
                parent.desc_sat[w] |= frame.mask[w] | frame.desc_sat[w];
            }
        }
        s.spare.push(frame);
    }

    /// Finish the pass: run the top-down usefulness pass over the stored
    /// satisfiability rows (the exact bit-level analogue of
    /// [`PatternMatcher::useful_from_sat`]) and extract per-pattern useful
    /// sets in ascending element-id order — the order, sets and downstream
    /// passes are all identical to the per-pattern matcher's. The result goes
    /// into a reused [`SharedPass`], keeping its buffers (the slot-set
    /// vectors retain capacity across documents).
    pub fn finish_into(self, pass: &mut SharedPass) {
        let a = self.automaton;
        let s = self.scratch;
        let n = s.count as usize;
        let words = a.words;
        s.useful_bits.clear();
        s.useful_bits.resize(n * words, 0);
        s.anc_bits.clear();
        s.anc_bits.resize(n * words, 0);
        // Elements in pre-order (ascending id): ancestors are resolved
        // before their descendants, parent slots before child slots.
        for e in 0..n {
            let row = e * words;
            if e > 0 {
                let p = (s.parents[e] - 1) as usize * words;
                for w in 0..words {
                    s.anc_bits[row + w] = s.anc_bits[p + w] | s.useful_bits[p + w];
                }
            }
            for w in 0..words {
                let mut bits = s.sat_bits[row + w];
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let slot = (w as u32) * 64 + b;
                    let useful = match a.up[slot as usize] {
                        // Pattern roots: useful = sat.
                        None => true,
                        // Attribute steps bind the same element; the parent
                        // slot is smaller, so its bit is already final.
                        Some((ps, DepKind::SameElement)) => {
                            get_bit(&s.useful_bits[row..row + words], ps)
                        }
                        Some((ps, DepKind::Child)) => {
                            e > 0 && {
                                let p = (s.parents[e] - 1) as usize * words;
                                get_bit(&s.useful_bits[p..p + words], ps)
                            }
                        }
                        Some((ps, DepKind::Descendant)) => {
                            get_bit(&s.anc_bits[row..row + words], ps)
                        }
                    };
                    if useful {
                        s.useful_bits[row + w] |= 1u64 << b;
                    }
                }
            }
        }
        // Extraction: ascending element id per slot, touching set bits only.
        pass.index.clear();
        pass.index.extend(
            a.patterns
                .iter()
                .map(|entry| (entry.key, entry.base, entry.len)),
        );
        pass.sets.truncate(a.slot_count);
        pass.sets.resize_with(a.slot_count, Vec::new);
        for set in &mut pass.sets {
            set.clear();
        }
        for e in 0..n {
            let row = e * words;
            for w in 0..words {
                let mut bits = s.useful_bits[row + w];
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let slot = w * 64 + b as usize;
                    pass.sets[slot].push(NodeId::from_raw(e as u32));
                }
            }
        }
    }
}

/// The result of one shared automaton pass: per-pattern *useful* sets (the
/// output of the bottom-up satisfiability pass followed by the top-down
/// usefulness pass), identical to what
/// [`PatternMatcher::useful_nodes`](crate::PatternMatcher::useful_nodes)
/// computes pattern by pattern.
#[derive(Debug, Clone, Default)]
pub struct SharedPass {
    /// `(pattern, first slot, slot count)` in ascending pattern-id order.
    index: Vec<(PatternId, u32, u32)>,
    /// Slot-indexed useful sets (ascending document-node ids).
    sets: Vec<Vec<NodeId>>,
}

impl SharedPass {
    /// The useful sets of one pattern (indexed by pattern node id, document
    /// nodes ascending), if the pattern was compiled into the automaton that
    /// produced this pass.
    pub fn useful(&self, id: PatternId) -> Option<&[Vec<NodeId>]> {
        let i = self
            .index
            .binary_search_by_key(&id, |&(key, _, _)| key)
            .ok()?;
        let (_, base, len) = self.index[i];
        Some(&self.sets[base as usize..(base + len) as usize])
    }

    /// Number of patterns evaluated.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no patterns were evaluated.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

fn set_bit(words: &mut [u64], bit: u32) {
    words[(bit / 64) as usize] |= 1 << (bit % 64);
}

fn clear_bit(words: &mut [u64], bit: u32) {
    words[(bit / 64) as usize] &= !(1 << (bit % 64));
}

fn get_bit(words: &[u64], bit: u32) -> bool {
    words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PatternMatcher;
    use crate::parser::parse_pattern;
    use mmqjp_xml::{rss, DocumentBuilder};

    fn patterns() -> Vec<TreePattern> {
        [
            "S//book->x1[.//author->x2][.//title->x3]",
            "S//book->x1[.//author->x2][.//title->x3][.//category->x7]",
            "S//blog->x4[.//author->x5]",
            "/book->r",
            "/author->r",
            "//author->a",
            "//book/*->x",
            "//a->va[.//b->vb[.//c->vc]]",
            "//a->x[.//b->y]",
            "//feed->f[.//entry->e[.//title->t][.//author->a]]",
            "//link[./@href->h]",
            "//link[./@rel->r]",
            "S//*->w",
            "/a/c->x",
            "/a//c->x",
        ]
        .iter()
        .map(|s| parse_pattern(s).unwrap())
        .collect()
    }

    fn docs() -> Vec<Document> {
        let mut out = vec![
            rss::book_announcement(
                &["Danny Ayers", "Andrew Watt"],
                "Beginning RSS and Atom Programming",
                &["Scripting & Programming", "Web Site Development"],
                "Wrox",
                "0764579169",
            ),
            rss::blog_article(
                "Danny Ayers",
                "http://dannyayers.com/topics/books/rss-book",
                "Beginning RSS and Atom Programming",
                "Book Announcement",
                "Just heard ...",
            ),
        ];
        let mut b = DocumentBuilder::new("a");
        b.open("b");
        b.child_text("c", "deep");
        b.close();
        b.child_text("c", "shallow");
        out.push(b.finish());

        let mut b = DocumentBuilder::new("b");
        b.open("a");
        b.child_text("c", "x");
        b.close();
        out.push(b.finish());

        let mut b = DocumentBuilder::new("feed");
        b.open("entry");
        b.child_text("title", "t1");
        b.child_text("author", "a1");
        b.close();
        b.open("entry");
        b.child_text("title", "t2");
        b.close();
        out.push(b.finish());

        let mut b = DocumentBuilder::new("item");
        b.open("link");
        b.attribute("href", "http://example.org/x");
        b.close();
        out.push(b.finish());

        let mut b = DocumentBuilder::new("root");
        b.open("a");
        b.child_text("b", "1");
        b.close();
        b.open("a");
        b.child_text("c", "2");
        b.close();
        out.push(b.finish());

        // A root-only document: the root element alone can match.
        let mut b = DocumentBuilder::new("link");
        b.attribute("href", "http://example.org/y");
        b.text("anchor");
        out.push(b.finish());

        out
    }

    /// The automaton's shared pass must reproduce the two-pass matcher's
    /// witnesses and edge bindings for every (pattern, document) pair.
    #[test]
    fn shared_pass_is_identical_to_per_pattern_matcher() {
        let pats = patterns();
        let keyed: Vec<(PatternId, &TreePattern)> = pats
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId(i as u32), p))
            .collect();
        let automaton = PatternAutomaton::new(keyed.iter().map(|&(id, p)| (id, p)));
        assert_eq!(automaton.pattern_count(), pats.len());
        for doc in docs() {
            let pass = automaton.pass_over(&doc);
            assert_eq!(pass.len(), pats.len());
            assert!(!pass.is_empty());
            for (id, pattern) in &keyed {
                let m = PatternMatcher::new(pattern);
                let useful = pass.useful(*id).unwrap();
                assert_eq!(
                    useful,
                    m.useful_nodes(&doc).as_slice(),
                    "useful sets diverged for pattern {id:?} on doc rooted {}",
                    doc.root().tag()
                );
                assert_eq!(
                    m.witnesses_from_useful(&doc, useful),
                    m.witnesses(&doc),
                    "witnesses diverged for pattern {id:?} on doc rooted {}",
                    doc.root().tag()
                );
                let edges = pattern.edges();
                assert_eq!(
                    m.edge_bindings_from_useful(&doc, useful, &edges),
                    m.edge_bindings(&doc, &edges),
                    "edge bindings diverged for pattern {id:?}"
                );
            }
        }
    }

    #[test]
    fn empty_automaton_passes_cleanly() {
        let automaton = PatternAutomaton::new(std::iter::empty());
        let doc = Document::new("x");
        let pass = automaton.pass_over(&doc);
        assert!(pass.is_empty());
        assert_eq!(pass.useful(PatternId(0)), None);
    }

    #[test]
    fn root_only_document_is_traversed() {
        let pattern = parse_pattern("S//book->b[./@isbn->i]").unwrap();
        let automaton = PatternAutomaton::new([(PatternId(0), &pattern)]);
        let mut b = DocumentBuilder::new("book");
        b.attribute("isbn", "123");
        b.text("Foo");
        let doc = b.finish();
        let root = vec![NodeId::ROOT];
        let pass = automaton.pass_over(&doc);
        assert_eq!(
            pass.useful(PatternId(0)).unwrap(),
            &[root.clone(), root][..]
        );
    }
}
