//! Witness types: the output of Stage-1 XPath evaluation.

use crate::pattern::{NodeTest, PatternNodeId, TreePattern};
use mmqjp_xml::{Document, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete witness: one binding of every variable of a tree pattern to a
/// document node, such that all structural constraints of the pattern hold.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Witness {
    bindings: Vec<(String, NodeId)>,
}

impl Witness {
    /// Create a witness from `(variable, node)` bindings. Bindings are sorted
    /// by variable name so witnesses compare structurally.
    pub fn new(mut bindings: Vec<(String, NodeId)>) -> Self {
        bindings.sort();
        Witness { bindings }
    }

    /// The node bound to `variable`, if present.
    pub fn get(&self, variable: &str) -> Option<NodeId> {
        self.bindings
            .iter()
            .find(|(v, _)| v == variable)
            .map(|(_, n)| *n)
    }

    /// All bindings, sorted by variable name.
    pub fn bindings(&self) -> &[(String, NodeId)] {
        &self.bindings
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` when no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .bindings
            .iter()
            .map(|(v, n)| format!("{v}={n}"))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// A pair of variable bindings for one edge of the (possibly reduced)
/// variable tree pattern — the unit stored in the Join Processor's binary
/// witness relations `RbinW` / `Rbin`, spelled out with variable names.
///
/// This is the reference matcher's output
/// ([`PatternMatcher::edge_bindings`](crate::PatternMatcher::edge_bindings),
/// [`PatternIndex::evaluate_edge_bindings`](crate::PatternIndex::evaluate_edge_bindings)).
/// The engines never build one: their Stage 1 emits integer witness rows
/// whose variables were resolved to symbols at registration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeBinding {
    /// Variable bound at the ancestor end of the edge.
    pub ancestor_var: String,
    /// Variable bound at the descendant end of the edge.
    pub descendant_var: String,
    /// Document node bound to the ancestor variable.
    pub ancestor: NodeId,
    /// Document node bound to the descendant variable.
    pub descendant: NodeId,
}

impl fmt::Display for EdgeBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}={}, {}={})",
            self.ancestor_var, self.ancestor, self.descendant_var, self.descendant
        )
    }
}

/// All witnesses of one pattern over one document, plus the document they
/// were produced from. Convenience container used by tests and the
/// sequential baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessSet {
    /// Signature of the pattern that produced these witnesses.
    pub pattern_signature: String,
    /// The witnesses.
    pub witnesses: Vec<Witness>,
}

impl WitnessSet {
    /// Number of witnesses.
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// `true` when the pattern did not match the document at all.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }
}

/// The string value a binding contributes to value joins.
///
/// For ordinary element steps this is the XPath string value of the bound
/// node. For attribute steps (`@name`) — which are represented by binding the
/// carrying element — it is the attribute's value. The reference definition
/// the engines' witness ingest is tested against.
pub fn binding_string_value(
    doc: &Document,
    pattern: &TreePattern,
    pattern_node: PatternNodeId,
    node: NodeId,
) -> String {
    match pattern.node(pattern_node).test() {
        NodeTest::Attribute(name) => doc
            .node(node)
            .attribute(name)
            .map(|s| s.to_owned())
            .unwrap_or_default(),
        _ => doc.string_value(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use mmqjp_xml::DocumentBuilder;

    #[test]
    fn witness_accessors() {
        let w = Witness::new(vec![
            ("x2".into(), NodeId::from_raw(5)),
            ("x1".into(), NodeId::from_raw(0)),
        ]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.get("x1"), Some(NodeId::from_raw(0)));
        assert_eq!(w.get("x2"), Some(NodeId::from_raw(5)));
        assert_eq!(w.get("x3"), None);
        // Bindings are sorted by variable name.
        assert_eq!(w.bindings()[0].0, "x1");
        assert!(w.to_string().contains("x1=n0"));
    }

    #[test]
    fn witness_equality_is_order_insensitive() {
        let a = Witness::new(vec![
            ("b".into(), NodeId::from_raw(2)),
            ("a".into(), NodeId::from_raw(1)),
        ]);
        let b = Witness::new(vec![
            ("a".into(), NodeId::from_raw(1)),
            ("b".into(), NodeId::from_raw(2)),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_binding_display() {
        let e = EdgeBinding {
            ancestor_var: "x1".into(),
            descendant_var: "x2".into(),
            ancestor: NodeId::from_raw(0),
            descendant: NodeId::from_raw(2),
        };
        assert_eq!(e.to_string(), "(x1=n0, x2=n2)");
    }

    #[test]
    fn witness_set_len() {
        let ws = WitnessSet {
            pattern_signature: "sig".into(),
            witnesses: vec![Witness::new(vec![("x".into(), NodeId::ROOT)])],
        };
        assert_eq!(ws.len(), 1);
        assert!(!ws.is_empty());
    }

    #[test]
    fn binding_string_value_element_and_attribute() {
        let mut b = DocumentBuilder::new("link");
        b.attribute("href", "http://example.org");
        b.text("anchor text");
        let doc = b.finish();

        let elem_pattern = parse_pattern("//link->l").unwrap();
        let v = binding_string_value(&doc, &elem_pattern, PatternNodeId::ROOT, NodeId::ROOT);
        assert_eq!(v, "anchor text");

        let attr_pattern = parse_pattern("//link[./@href->h]").unwrap();
        let attr_node = attr_pattern.variable_node("h").unwrap();
        let v = binding_string_value(&doc, &attr_pattern, attr_node, NodeId::ROOT);
        assert_eq!(v, "http://example.org");
    }
}
