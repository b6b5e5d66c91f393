//! The Stage-1 reference, in the engines' data format: the DOM matcher's
//! `EdgeBinding`s (`PatternIndex::evaluate_edge_bindings`) mapped onto the
//! integer witness rows the front emits, so the front and the reference can
//! be compared row for row and fed through the one ingest body.

use mmqjp_core::front::{Edge, RequestedEdge, RequestedEdges, WitnessRow};
use mmqjp_core::{IngestScratch, WitnessBatch};
use mmqjp_relational::StringInterner;
use mmqjp_xml::Document;
use mmqjp_xpath::{EdgeBinding, PatternId, PatternIndex};
use std::collections::HashMap;

/// The bare edge lists of `requested`, as `evaluate_edge_bindings` takes
/// them.
pub fn edge_lists(requested: &RequestedEdges) -> HashMap<PatternId, Vec<Edge>> {
    requested
        .iter()
        .map(|(pid, edges)| (*pid, edges.iter().map(|r| r.edge).collect()))
        .collect()
}

/// Resolve bare edge lists against the index's patterns, the way
/// registration does.
pub fn resolve_edges(
    index: &PatternIndex,
    lists: &HashMap<PatternId, Vec<Edge>>,
    interner: &StringInterner,
) -> RequestedEdges {
    lists
        .iter()
        .map(|(pid, edges)| {
            let pattern = index.pattern(*pid);
            let resolved = edges
                .iter()
                .map(|&e| {
                    RequestedEdge::resolve(pattern, e, interner).expect("canonical variables")
                })
                .collect();
            (*pid, resolved)
        })
        .collect()
}

/// The reference bindings of the patterns `requested` covers, as rows: each
/// binding's variable names identify its pattern edge, and the row names
/// that edge by its position in the pattern's requested list. Bindings of
/// patterns without requested edges (the reference's all-edges fallback)
/// are dropped.
pub fn rows_from_bindings(
    index: &PatternIndex,
    requested: &RequestedEdges,
    bindings: &[(PatternId, Vec<EdgeBinding>)],
) -> Vec<WitnessRow> {
    let mut rows = Vec::new();
    for (pid, edge_bindings) in bindings {
        let Some(list) = requested.get(pid) else {
            continue;
        };
        let pattern = index.pattern(*pid);
        for b in edge_bindings {
            let node = |var: &str| pattern.variable_node(var).expect("variable of its pattern");
            let edge = (node(&b.ancestor_var), node(&b.descendant_var));
            let position = list
                .iter()
                .position(|r| r.edge == edge)
                .expect("a binding of a requested edge");
            rows.push(WitnessRow {
                pid: *pid,
                edge: position as u32,
                node1: b.ancestor,
                node2: b.descendant,
            });
        }
    }
    rows
}

/// One document's witness batch from `rows`, through the engines' ingest.
pub fn ingest_rows(
    doc: &Document,
    rows: &[WitnessRow],
    requested: &RequestedEdges,
    interner: &StringInterner,
) -> WitnessBatch {
    let mut batch = WitnessBatch::new();
    batch
        .ingest_document(
            doc,
            rows,
            requested,
            interner,
            &mut IngestScratch::default(),
        )
        .expect("rows name requested edges");
    batch
}
