//! The arena-backed XML document with pre-order node ids.

use crate::error::{XmlError, XmlResult};
use crate::node::{Node, NodeId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Identifier of a document within a stream.
///
/// Documents are identified by a monotonically increasing `u64` assigned by
/// the publisher or by the engine at ingestion time (the paper's `docid`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DocId(pub u64);

impl DocId {
    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Event timestamp, in abstract time units.
///
/// The paper assumes timestamps are assigned either by publishers or by the
/// pub/sub system itself; the window constraint `T` of `FOLLOWED BY` / `JOIN`
/// is expressed in the same units.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The raw numeric timestamp.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - other`.
    pub fn delta(self, other: Timestamp) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An XML document (event) flowing through the publish/subscribe system.
///
/// Nodes live in a flat arena (`Vec<Node>`), indexed by their pre-order id.
/// This makes witnesses produced by the XPath Evaluator cheap to encode (a
/// `NodeId` is a `u32`) and ancestor checks cheap to evaluate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    pub(crate) id: DocId,
    pub(crate) timestamp: Timestamp,
    pub(crate) nodes: Vec<Node>,
}

impl Document {
    /// Create a document with a single root element.
    pub fn new(root_tag: impl Into<String>) -> Self {
        Document {
            id: DocId::default(),
            timestamp: Timestamp::default(),
            nodes: vec![Node::new_element(NodeId::ROOT, root_tag, None)],
        }
    }

    /// The document id.
    pub fn id(&self) -> DocId {
        self.id
    }

    /// Set the document id, returning `self` for chaining.
    pub fn with_id(mut self, id: DocId) -> Self {
        self.id = id;
        self
    }

    /// Set the document id in place.
    pub fn set_id(&mut self, id: DocId) {
        self.id = id;
    }

    /// The event timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Set the event timestamp, returning `self` for chaining.
    pub fn with_timestamp(mut self, ts: Timestamp) -> Self {
        self.timestamp = ts;
        self
    }

    /// Set the event timestamp in place.
    pub fn set_timestamp(&mut self, ts: Timestamp) {
        self.timestamp = ts;
    }

    /// Number of element nodes in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the document contains only the root (never truly empty).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Access a node by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Access a node by id, returning an error for out-of-range ids.
    pub fn try_node(&self, id: NodeId) -> XmlResult<&Node> {
        self.nodes.get(id.index()).ok_or(XmlError::InvalidNodeId {
            id: id.raw(),
            len: self.nodes.len(),
        })
    }

    /// Iterate over all nodes in pre-order (i.e. ascending id).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterate over all node ids in pre-order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId::from_raw)
    }

    /// The *string value* of a node as defined by XPath semantics: the
    /// concatenation of all text content in the subtree rooted at the node.
    ///
    /// Value joins in XSCL compare these string values (Section 2 of the
    /// paper). For leaf elements this is simply the element text.
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.push_string_value(id, &mut out);
        out
    }

    /// Append the [string value](Self::string_value) of a node to `out`, so
    /// a caller can reuse one buffer across nodes.
    ///
    /// Iterative, so nesting depth cannot overflow the stack: the text of a
    /// subtree in document order is its nodes' text in id order.
    pub fn push_string_value(&self, id: NodeId, out: &mut String) {
        for node in self.subtree(id) {
            if let Some(t) = node.text() {
                out.push_str(t);
            }
        }
    }

    /// The nodes of the subtree rooted at `id`, in pre-order. With pre-order
    /// ids these are `id, id + 1, …` up to the first node whose parent lies
    /// before `id`.
    pub fn subtree(&self, id: NodeId) -> impl Iterator<Item = &Node> {
        let (head, rest) = self.nodes[id.index()..].split_at(1);
        head.iter()
            .chain(rest.iter().take_while(move |n| n.parent >= Some(id)))
    }

    /// `true` if `ancestor` is a proper ancestor of `descendant`.
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        if ancestor == descendant {
            return false;
        }
        let mut cur = self.node(descendant).parent();
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.node(p).parent();
        }
        false
    }

    /// `true` if `ancestor` equals `descendant` or is a proper ancestor.
    pub fn is_ancestor_or_self(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        ancestor == descendant || self.is_ancestor(ancestor, descendant)
    }

    /// The depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = self.node(id).parent();
        while let Some(p) = cur {
            depth += 1;
            cur = self.node(p).parent();
        }
        depth
    }

    /// Ids of all descendants of `id` (excluding `id` itself), in pre-order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).children().iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.node(n).children().iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Ids of all descendants-or-self of `id`, in pre-order.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = vec![id];
        out.extend(self.descendants(id));
        out
    }

    /// The least common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut a_chain = Vec::new();
        let mut cur = Some(a);
        while let Some(n) = cur {
            a_chain.push(n);
            cur = self.node(n).parent();
        }
        let mut cur = Some(b);
        while let Some(n) = cur {
            if a_chain.contains(&n) {
                return n;
            }
            cur = self.node(n).parent();
        }
        NodeId::ROOT
    }

    /// All leaf node ids (elements with no element children), in pre-order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.id())
            .collect()
    }

    /// All node ids whose tag equals `tag`, in pre-order.
    pub fn nodes_with_tag(&self, tag: &str) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.tag() == tag)
            .map(|n| n.id())
            .collect()
    }

    /// Find the first node (in pre-order) matching tag, if any.
    pub fn first_with_tag(&self, tag: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.tag() == tag).map(|n| n.id())
    }

    /// Append a child element to `parent` and return the new child id.
    ///
    /// Children must be appended in document order: because ids are pre-order
    /// indices, a child may only be added to a node that is currently the
    /// *last* node on the rightmost path of the tree. The [`DocumentBuilder`]
    /// upholds this automatically; direct users get an error otherwise.
    ///
    /// [`DocumentBuilder`]: crate::DocumentBuilder
    pub fn append_child(&mut self, parent: NodeId, tag: impl Into<String>) -> XmlResult<NodeId> {
        if parent.index() >= self.nodes.len() {
            return Err(XmlError::InvalidNodeId {
                id: parent.raw(),
                len: self.nodes.len(),
            });
        }
        // Pre-order constraint: the parent must be an ancestor-or-self of the
        // most recently added node, so that the new node's id is the next
        // pre-order index.
        let last = NodeId::from_raw(self.nodes.len() as u32 - 1);
        if !self.is_ancestor_or_self(parent, last) {
            return Err(XmlError::NotAnElement { id: parent.raw() });
        }
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(Node::new_element(id, tag, Some(parent)));
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Set the text content of a node.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) {
        self.nodes[id.index()].text = Some(text.into());
    }

    /// Append text content to a node (used by the parser for mixed content).
    /// An owned run that starts a node's text is moved in, not copied.
    pub fn push_text<'t>(&mut self, id: NodeId, text: impl Into<Cow<'t, str>>) {
        let text = text.into();
        match &mut self.nodes[id.index()].text {
            Some(existing) => existing.push_str(&text),
            slot @ None => *slot = Some(text.into_owned()),
        }
    }

    /// Add an attribute to a node.
    pub fn set_attribute(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        self.nodes[id.index()]
            .attributes
            .push((name.into(), value.into()));
    }

    /// Validate internal structural invariants (parent/child symmetry and
    /// pre-order id assignment). Used by tests and debug assertions.
    pub fn check_invariants(&self) -> XmlResult<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id().index() != i {
                return Err(XmlError::InvalidNodeId {
                    id: node.id().raw(),
                    len: self.nodes.len(),
                });
            }
            for &c in node.children() {
                let child = self.try_node(c)?;
                if child.parent() != Some(node.id()) {
                    return Err(XmlError::InvalidNodeId {
                        id: c.raw(),
                        len: self.nodes.len(),
                    });
                }
                if c.raw() <= node.id().raw() {
                    return Err(XmlError::InvalidNodeId {
                        id: c.raw(),
                        len: self.nodes.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_doc() -> Document {
        // <book><author>..</author><author>..</author><title>..</title>
        //       <category>..</category><category>..</category>
        //       <publisher>Wrox</publisher><isbn>..</isbn></book>
        let mut d = Document::new("book");
        let a1 = d.append_child(NodeId::ROOT, "author").unwrap();
        d.set_text(a1, "Danny Ayers");
        let a2 = d.append_child(NodeId::ROOT, "author").unwrap();
        d.set_text(a2, "Andrew Watt");
        let t = d.append_child(NodeId::ROOT, "title").unwrap();
        d.set_text(t, "Beginning RSS and Atom Programming");
        let c1 = d.append_child(NodeId::ROOT, "category").unwrap();
        d.set_text(c1, "Scripting & Programming");
        let c2 = d.append_child(NodeId::ROOT, "category").unwrap();
        d.set_text(c2, "Web Site Development");
        let p = d.append_child(NodeId::ROOT, "publisher").unwrap();
        d.set_text(p, "Wrox");
        let i = d.append_child(NodeId::ROOT, "isbn").unwrap();
        d.set_text(i, "0764579169");
        d
    }

    #[test]
    fn preorder_ids_match_figure1() {
        let d = figure1_doc();
        assert_eq!(d.len(), 8);
        assert_eq!(d.node(NodeId::from_raw(0)).tag(), "book");
        assert_eq!(d.node(NodeId::from_raw(1)).tag(), "author");
        assert_eq!(d.node(NodeId::from_raw(2)).tag(), "author");
        assert_eq!(d.node(NodeId::from_raw(3)).tag(), "title");
        assert_eq!(d.node(NodeId::from_raw(4)).tag(), "category");
        assert_eq!(d.node(NodeId::from_raw(7)).tag(), "isbn");
        d.check_invariants().unwrap();
    }

    #[test]
    fn string_value_of_leaf_and_subtree() {
        let d = figure1_doc();
        assert_eq!(d.string_value(NodeId::from_raw(1)), "Danny Ayers");
        // string value of the root concatenates all text in document order
        let root_sv = d.string_value(NodeId::ROOT);
        assert!(root_sv.starts_with("Danny AyersAndrew Watt"));
        assert!(root_sv.ends_with("0764579169"));
    }

    #[test]
    fn ancestor_relationships() {
        let d = figure1_doc();
        assert!(d.is_ancestor(NodeId::ROOT, NodeId::from_raw(3)));
        assert!(!d.is_ancestor(NodeId::from_raw(3), NodeId::ROOT));
        assert!(!d.is_ancestor(NodeId::from_raw(1), NodeId::from_raw(1)));
        assert!(d.is_ancestor_or_self(NodeId::from_raw(1), NodeId::from_raw(1)));
        assert_eq!(d.depth(NodeId::ROOT), 0);
        assert_eq!(d.depth(NodeId::from_raw(5)), 1);
    }

    #[test]
    fn descendants_and_leaves() {
        let d = figure1_doc();
        let desc = d.descendants(NodeId::ROOT);
        assert_eq!(desc.len(), 7);
        assert_eq!(desc[0], NodeId::from_raw(1));
        let dos = d.descendants_or_self(NodeId::ROOT);
        assert_eq!(dos.len(), 8);
        assert_eq!(dos[0], NodeId::ROOT);
        assert_eq!(d.leaves().len(), 7);
    }

    #[test]
    fn lca_flat_document() {
        let d = figure1_doc();
        assert_eq!(
            d.lca(NodeId::from_raw(1), NodeId::from_raw(3)),
            NodeId::ROOT
        );
        assert_eq!(
            d.lca(NodeId::from_raw(2), NodeId::from_raw(2)),
            NodeId::from_raw(2)
        );
        assert_eq!(d.lca(NodeId::ROOT, NodeId::from_raw(4)), NodeId::ROOT);
    }

    #[test]
    fn lca_nested_document() {
        let mut d = Document::new("r");
        let a = d.append_child(NodeId::ROOT, "a").unwrap();
        let b = d.append_child(a, "b").unwrap();
        let c = d.append_child(a, "c").unwrap();
        let e = d.append_child(NodeId::ROOT, "e").unwrap();
        assert_eq!(d.lca(b, c), a);
        assert_eq!(d.lca(b, e), NodeId::ROOT);
        assert_eq!(d.lca(a, b), a);
    }

    #[test]
    fn nodes_with_tag_lookup() {
        let d = figure1_doc();
        assert_eq!(d.nodes_with_tag("author").len(), 2);
        assert_eq!(d.nodes_with_tag("isbn").len(), 1);
        assert!(d.nodes_with_tag("missing").is_empty());
        assert_eq!(d.first_with_tag("title"), Some(NodeId::from_raw(3)));
        assert_eq!(d.first_with_tag("missing"), None);
    }

    #[test]
    fn append_child_rejects_out_of_order() {
        let mut d = Document::new("r");
        let a = d.append_child(NodeId::ROOT, "a").unwrap();
        let _b = d.append_child(NodeId::ROOT, "b").unwrap();
        // `a` is no longer on the rightmost path; appending to it would break
        // the pre-order id invariant.
        assert!(d.append_child(a, "c").is_err());
    }

    #[test]
    fn append_child_rejects_bad_parent() {
        let mut d = Document::new("r");
        assert!(d.append_child(NodeId::from_raw(10), "x").is_err());
    }

    #[test]
    fn id_and_timestamp_builders() {
        let d = Document::new("r")
            .with_id(DocId(7))
            .with_timestamp(Timestamp(99));
        assert_eq!(d.id().raw(), 7);
        assert_eq!(d.timestamp().raw(), 99);
        assert_eq!(d.id().to_string(), "d7");
        assert_eq!(d.timestamp().to_string(), "t99");
    }

    #[test]
    fn timestamp_delta_saturates() {
        assert_eq!(Timestamp(10).delta(Timestamp(3)), 7);
        assert_eq!(Timestamp(3).delta(Timestamp(10)), 0);
    }

    #[test]
    fn push_text_concatenates() {
        let mut d = Document::new("r");
        d.push_text(NodeId::ROOT, "foo");
        d.push_text(NodeId::ROOT, "bar");
        assert_eq!(d.string_value(NodeId::ROOT), "foobar");
    }

    #[test]
    fn string_value_of_a_deep_document_fits_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut d = Document::new("r");
                let mut node = NodeId::ROOT;
                for i in 0..100_000u32 {
                    node = d.append_child(node, "n").unwrap();
                    if i % 25_000 == 0 {
                        d.set_text(node, "x");
                    }
                }
                d.set_text(node, "end");
                let sibling = d.append_child(NodeId::ROOT, "s").unwrap();
                d.set_text(sibling, "!");
                assert_eq!(d.string_value(NodeId::ROOT), "xxxxend!");
                assert_eq!(d.string_value(NodeId::from_raw(2)), "xxxend");
                assert_eq!(d.subtree(NodeId::from_raw(1)).count(), 100_000);
                assert_eq!(d.string_value(sibling), "!");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn attributes_roundtrip() {
        let mut d = Document::new("r");
        d.set_attribute(NodeId::ROOT, "href", "http://example.org");
        assert_eq!(d.root().attribute("href"), Some("http://example.org"));
    }

    #[test]
    fn parsed_document_accessors() {
        let d = crate::parse_document("<a x=\"1\"><b>t</b><c>u</c></a>").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.root().tag(), "a");
        assert_eq!(d.root().attribute("x"), Some("1"));
        assert_eq!(d.root().attribute("y"), None);
        assert_eq!(d.node(NodeId::from_raw(1)).parent(), Some(NodeId::ROOT));
        assert!(d.is_ancestor(NodeId::ROOT, NodeId::from_raw(2)));
        assert!(!d.is_ancestor(NodeId::from_raw(1), NodeId::from_raw(2)));
        assert_eq!(d.string_value(NodeId::ROOT), "tu");
        assert_eq!(d.node_ids().count(), 3);
    }

    #[test]
    fn try_node_out_of_range() {
        let d = Document::new("r");
        assert!(d.try_node(NodeId::from_raw(5)).is_err());
        assert!(d.try_node(NodeId::ROOT).is_ok());
    }

    #[test]
    fn is_empty_only_root() {
        let mut d = Document::new("r");
        assert!(d.is_empty());
        d.append_child(NodeId::ROOT, "a").unwrap();
        assert!(!d.is_empty());
    }
}
