//! Ergonomic programmatic construction of documents.

use crate::document::{DocId, Document, Timestamp};
use crate::node::NodeId;

/// A convenience builder for constructing [`Document`]s in document order.
///
/// The builder maintains a cursor (a stack of open elements). Elements are
/// appended under the element at the top of the stack; [`open`](Self::open)
/// pushes a new element onto the stack and [`close`](Self::close) pops it.
///
/// ```
/// use mmqjp_xml::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new("blog");
/// b.child_text("author", "Danny Ayers");
/// b.open("meta");
/// b.child_text("category", "Book Announcement");
/// b.close();
/// let doc = b.finish();
/// assert_eq!(doc.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl DocumentBuilder {
    /// Start a document with the given root tag.
    pub fn new(root_tag: impl Into<String>) -> Self {
        let doc = Document::new(root_tag);
        DocumentBuilder {
            doc,
            stack: vec![NodeId::ROOT],
        }
    }

    /// The id of the element the builder is currently inside.
    pub fn current(&self) -> NodeId {
        // lint:allow the stack is seeded with ROOT and close() refuses to pop it
        *self.stack.last().expect("builder stack is never empty")
    }

    /// Open a child element under the current element and descend into it.
    /// Returns the new element's id.
    pub fn open(&mut self, tag: impl Into<String>) -> NodeId {
        let id = self
            .doc
            .append_child(self.current(), tag)
            // lint:allow the cursor is always the rightmost open element, so appending under it cannot violate pre-order
            .expect("builder maintains pre-order invariant");
        self.stack.push(id);
        id
    }

    /// Close the current element, moving the cursor back to its parent.
    ///
    /// # Panics
    /// Panics if called more times than [`open`](Self::open) (the root cannot
    /// be closed).
    pub fn close(&mut self) {
        assert!(
            self.stack.len() > 1,
            "DocumentBuilder::close called with no open element"
        );
        self.stack.pop();
    }

    /// Append a child element with text content (a leaf) under the current
    /// element without descending into it. Returns the new element's id.
    pub fn child_text(&mut self, tag: impl Into<String>, text: impl Into<String>) -> NodeId {
        let id = self
            .doc
            .append_child(self.current(), tag)
            // lint:allow the cursor is always the rightmost open element, so appending under it cannot violate pre-order
            .expect("builder maintains pre-order invariant");
        self.doc.set_text(id, text);
        id
    }

    /// Append an empty child element under the current element without
    /// descending into it. Returns the new element's id.
    pub fn child(&mut self, tag: impl Into<String>) -> NodeId {
        self.doc
            .append_child(self.current(), tag)
            // lint:allow the cursor is always the rightmost open element, so appending under it cannot violate pre-order
            .expect("builder maintains pre-order invariant")
    }

    /// Set text on the current element.
    pub fn text(&mut self, text: impl Into<String>) {
        let cur = self.current();
        let text: String = text.into();
        self.doc.push_text(cur, text);
    }

    /// Set an attribute on the current element.
    pub fn attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let cur = self.current();
        self.doc.set_attribute(cur, name, value);
    }

    /// Set the document id.
    pub fn doc_id(&mut self, id: DocId) {
        self.doc.set_id(id);
    }

    /// Set the document timestamp.
    pub fn timestamp(&mut self, ts: Timestamp) {
        self.doc.set_timestamp(ts);
    }

    /// Finish building, closing any still-open elements, and return the
    /// document.
    pub fn finish(mut self) -> Document {
        self.stack.truncate(1);
        debug_assert!(self.doc.check_invariants().is_ok());
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_document() {
        let mut b = DocumentBuilder::new("item");
        b.child_text("title", "Hello");
        b.child_text("description", "World");
        let d = b.finish();
        assert_eq!(d.len(), 3);
        assert_eq!(d.node(NodeId::from_raw(1)).tag(), "title");
        assert_eq!(d.string_value(NodeId::from_raw(2)), "World");
        d.check_invariants().unwrap();
    }

    #[test]
    fn builds_nested_document() {
        let mut b = DocumentBuilder::new("root");
        b.open("a");
        b.child_text("b", "1");
        b.open("c");
        b.child_text("d", "2");
        b.close();
        b.close();
        b.child_text("e", "3");
        let d = b.finish();
        assert_eq!(d.len(), 6);
        // pre-order: root=0, a=1, b=2, c=3, d=4, e=5
        assert_eq!(d.node(NodeId::from_raw(1)).tag(), "a");
        assert_eq!(d.node(NodeId::from_raw(4)).tag(), "d");
        assert_eq!(d.node(NodeId::from_raw(5)).tag(), "e");
        assert_eq!(d.node(NodeId::from_raw(5)).parent(), Some(NodeId::ROOT));
        assert!(d.is_ancestor(NodeId::from_raw(1), NodeId::from_raw(4)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn finish_closes_open_elements() {
        let mut b = DocumentBuilder::new("root");
        b.open("a");
        b.open("b");
        let d = b.finish();
        assert_eq!(d.len(), 3);
        d.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "no open element")]
    fn close_root_panics() {
        let mut b = DocumentBuilder::new("root");
        b.close();
    }

    #[test]
    fn attributes_and_metadata() {
        let mut b = DocumentBuilder::new("item");
        b.attribute("id", "42");
        b.doc_id(DocId(9));
        b.timestamp(Timestamp(100));
        b.text("inline");
        let d = b.finish();
        assert_eq!(d.root().attribute("id"), Some("42"));
        assert_eq!(d.id(), DocId(9));
        assert_eq!(d.timestamp(), Timestamp(100));
        assert_eq!(d.string_value(NodeId::ROOT), "inline");
    }

    #[test]
    fn child_without_text() {
        let mut b = DocumentBuilder::new("r");
        let c = b.child("empty");
        let d = b.finish();
        assert_eq!(d.node(c).tag(), "empty");
        assert_eq!(d.node(c).text(), None);
    }
}
