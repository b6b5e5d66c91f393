//! Query match outputs and default output-document construction
//! (Algorithm 3 and the `SELECT *` semantics of Section 2).

use crate::error::{CoreError, CoreResult};
use mmqjp_xml::{DocId, Document, NodeId};
use mmqjp_xscl::QueryId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One variable binding reported in a match.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Binding {
    /// The query's (canonical) variable name.
    pub variable: String,
    /// The document the node belongs to.
    pub doc: DocId,
    /// The bound node.
    pub node: NodeId,
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.variable, self.doc, self.node)
    }
}

/// One match of a registered query: a pair of documents satisfying the
/// query's value joins and temporal constraint (or a single document for
/// single-block subscriptions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutput {
    /// The query that matched.
    pub query: QueryId,
    /// The query's `PUBLISH` stream, if any.
    pub publish: Option<String>,
    /// The document matched by the query's *left* block. For single-block
    /// subscriptions this equals `right_doc`.
    pub left_doc: DocId,
    /// The document matched by the query's *right* block (the current
    /// document when the match was produced).
    pub right_doc: DocId,
    /// The variable bindings of the match (one entry per meta-variable of
    /// the query's template, or per pattern variable for single-block
    /// subscriptions).
    pub bindings: Vec<Binding>,
    /// The constructed output document (`SELECT *` semantics), when the
    /// engine retains documents; `None` otherwise or for
    /// `SELECT BINDINGS` queries.
    pub document: Option<Document>,
}

impl MatchOutput {
    /// The binding of a given variable, if present.
    pub fn binding(&self, variable: &str) -> Option<&Binding> {
        self.bindings.iter().find(|b| b.variable == variable)
    }

    /// Compare two matches by `(query, left_doc, right_doc, bindings)`.
    ///
    /// This is a total order on the matches a batch can produce: the bindings
    /// determine the result tuple the match was built from, so two matches
    /// comparing `Equal` are identical (including their constructed output
    /// document). Used by [`sort_matches`] to impose the canonical order.
    pub fn canonical_cmp(&self, other: &MatchOutput) -> std::cmp::Ordering {
        self.query
            .cmp(&other.query)
            .then_with(|| self.left_doc.cmp(&other.left_doc))
            .then_with(|| self.right_doc.cmp(&other.right_doc))
            .then_with(|| self.bindings.cmp(&other.bindings))
    }
}

/// Sort matches into the canonical `(query, left_doc, right_doc, bindings)`
/// order.
///
/// [`ShardedEngine`](crate::ShardedEngine) returns every batch in this order
/// so its output is deterministic and directly comparable with a
/// canonically-sorted single-engine run, independent of shard count and
/// thread interleaving.
pub fn sort_matches(matches: &mut [MatchOutput]) {
    matches.sort_by(MatchOutput::canonical_cmp);
}

impl fmt::Display for MatchOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} matched ({} FOLLOWED BY {})",
            self.query, self.left_doc, self.right_doc
        )
    }
}

/// Construct the default (`SELECT *`) output document for a join match: a new
/// root element whose two children are the subtrees of the left and right
/// input documents rooted at the query blocks' root bindings.
pub fn construct_join_output(
    left_doc: &Document,
    left_root: NodeId,
    right_doc: &Document,
    right_root: NodeId,
) -> CoreResult<Document> {
    let mut out = Document::new("result");
    copy_subtree(left_doc, left_root, &mut out, NodeId::ROOT)?;
    copy_subtree(right_doc, right_root, &mut out, NodeId::ROOT)?;
    Ok(out)
}

/// Copy the subtree of `src` rooted at `src_node` under `dst_parent` in
/// `dst`.
///
/// Iterative, so nesting depth cannot overflow the stack. The subtree's ids
/// are contiguous in pre-order and land contiguously in `dst`, so a node's
/// copy is at the same offset from the copied root as the node from
/// `src_node`.
fn copy_subtree(
    src: &Document,
    src_node: NodeId,
    dst: &mut Document,
    dst_parent: NodeId,
) -> CoreResult<()> {
    let base = dst.len() as u32;
    let copy_of = |id: NodeId| NodeId::from_raw(base + (id.raw() - src_node.raw()));
    for node in src.subtree(src_node) {
        let parent = match node.parent() {
            Some(p) if node.id() != src_node => copy_of(p),
            _ => dst_parent,
        };
        let new_id = dst
            .append_child(parent, node.tag())
            .map_err(|_| CoreError::internal("output document is built in pre-order"))?;
        if let Some(text) = node.text() {
            dst.set_text(new_id, text);
        }
        for (name, value) in node.attributes() {
            dst.set_attribute(new_id, name.clone(), value.clone());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::{rss, serialize};

    #[test]
    fn binding_accessors_and_display() {
        let b = Binding {
            variable: "S//book//author".into(),
            doc: DocId(1),
            node: NodeId::from_raw(2),
        };
        assert_eq!(b.to_string(), "S//book//author@d1:n2");
        let m = MatchOutput {
            query: QueryId(3),
            publish: None,
            left_doc: DocId(1),
            right_doc: DocId(2),
            bindings: vec![b.clone()],
            document: None,
        };
        assert_eq!(m.binding("S//book//author"), Some(&b));
        assert!(m.binding("missing").is_none());
        assert!(m.to_string().contains("Q3"));
    }

    #[test]
    fn canonical_order_sorts_by_query_docs_then_bindings() {
        let m = |q: u64, l: u64, r: u64, node: u32| MatchOutput {
            query: QueryId(q),
            publish: None,
            left_doc: DocId(l),
            right_doc: DocId(r),
            bindings: vec![Binding {
                variable: "v".into(),
                doc: DocId(l),
                node: NodeId::from_raw(node),
            }],
            document: None,
        };
        let mut matches = vec![m(2, 1, 3, 0), m(1, 2, 3, 0), m(1, 1, 3, 5), m(1, 1, 3, 2)];
        sort_matches(&mut matches);
        let keys: Vec<(u64, u64, u32)> = matches
            .iter()
            .map(|o| (o.query.raw(), o.left_doc.raw(), o.bindings[0].node.raw()))
            .collect();
        assert_eq!(keys, vec![(1, 1, 2), (1, 1, 5), (1, 2, 0), (2, 1, 0)]);
        assert_eq!(
            matches[0].canonical_cmp(&matches[0]),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn join_output_has_two_subtrees_under_new_root() {
        let d1 = rss::book_announcement(
            &["Danny Ayers"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming"],
            "Wrox",
            "0764579169",
        );
        let d2 = rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/",
            "Beginning RSS and Atom Programming",
            "Book Announcement",
            "Just heard ...",
        );
        let out = construct_join_output(&d1, NodeId::ROOT, &d2, NodeId::ROOT).unwrap();
        assert_eq!(out.root().tag(), "result");
        assert_eq!(out.root().children().len(), 2);
        let xml = serialize(&out);
        assert!(xml.starts_with("<result><book>"));
        assert!(xml.contains("<blog>"));
        assert!(xml.contains("Danny Ayers"));
        out.check_invariants().unwrap();
        // Every node of both inputs is present plus the new root.
        assert_eq!(out.len(), d1.len() + d2.len() + 1);
    }

    #[test]
    fn join_output_of_deep_documents_fits_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut deep = Document::new("r");
                let mut node = NodeId::ROOT;
                for _ in 0..100_000 {
                    node = deep.append_child(node, "n").unwrap();
                }
                deep.set_text(node, "leaf");
                deep.set_attribute(node, "k", "v");
                let tail = deep.append_child(NodeId::ROOT, "tail").unwrap();
                let out = construct_join_output(&deep, NodeId::from_raw(1), &deep, tail).unwrap();
                assert_eq!(out.len(), 1 + 100_000 + 1);
                let leaf = NodeId::from_raw(100_000);
                assert_eq!(out.node(leaf).text(), Some("leaf"));
                assert_eq!(out.node(leaf).attribute("k"), Some("v"));
                assert_eq!(out.depth(leaf), 100_000);
                assert_eq!(
                    out.root().children(),
                    &[NodeId::from_raw(1), NodeId::from_raw(100_001)]
                );
                assert_eq!(out.node(NodeId::from_raw(100_001)).tag(), "tail");
                out.check_invariants().unwrap();
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn join_output_with_subtree_roots() {
        // Using a non-root binding only copies that subtree.
        let d1 = rss::book_announcement(&["A"], "T", &["C"], "P", "I");
        let author = d1.first_with_tag("author").unwrap();
        let d2 = rss::blog_article("A", "u", "T", "C", "D");
        let title = d2.first_with_tag("title").unwrap();
        let out = construct_join_output(&d1, author, &d2, title).unwrap();
        assert_eq!(out.len(), 3);
        let xml = serialize(&out);
        assert_eq!(xml, "<result><author>A</author><title>T</title></result>");
    }
}
