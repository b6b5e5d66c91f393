//! Enumeration of possible query templates for a document schema
//! (paper Table 3).
//!
//! Table 3 of the paper reports how many distinct query templates exist as a
//! function of the number of value joins per query, for two schema families:
//!
//! * the **flat** (2-level) schema, where every query block reduces to a root
//!   with some join leaves (or a single join node);
//! * the **complex** (3-level) schema with branching factor 4, where join
//!   leaves may additionally share intermediate least-common-ancestor nodes.
//!
//! The counts are obtained constructively: we enumerate candidate reduced
//! join graphs and de-duplicate them through the same
//! [`TemplateCatalog`] used by the engine,
//! so the numbers reported by the benchmark are produced by exactly the
//! machinery whose sharing behaviour they describe.

use crate::ast::{JoinOp, Window};
use crate::join_graph::JoinGraph;
use crate::minor::ReducedGraph;
use crate::template::TemplateCatalog;
use mmqjp_xpath::{Axis, NodeTest, PatternNodeId, TreePattern};

/// Enumerate the distinct templates for queries with exactly `k` value joins
/// over a flat (2-level) document schema, returning the number of templates.
///
/// A flat query block reduces to either a single join node or a root with
/// `m ≥ 2` join leaves; the value joins form a bipartite graph between the
/// left and right join leaves in which every leaf participates. We enumerate
/// all simple bipartite graphs with `k` edges and no isolated vertices over
/// `1..=k` left and `1..=k` right vertices and count isomorphism classes.
pub fn count_flat_templates(k: usize) -> usize {
    let mut catalog = TemplateCatalog::new();
    for graph in enumerate_bipartite_edge_sets(k) {
        let reduced = flat_reduced_graph(&graph);
        catalog.insert(&reduced);
    }
    catalog.len()
}

/// Enumerate the distinct templates for queries with exactly `k` value joins
/// over the 3-level schema with the given branching factor (the paper uses
/// 4), returning the number of templates.
///
/// In addition to the bipartite value-join structure, each side's join leaves
/// are distributed over intermediate nodes; intermediates holding at least
/// two join leaves survive the graph-minor reduction as LCA nodes.
pub fn count_complex_templates(k: usize, branching: usize) -> usize {
    let mut catalog = TemplateCatalog::new();
    for graph in enumerate_bipartite_edge_sets(k) {
        let left_leaves = graph.left_vertices;
        let right_leaves = graph.right_vertices;
        for left_partition in partitions(left_leaves, branching) {
            for right_partition in partitions(right_leaves, branching) {
                let reduced = complex_reduced_graph(&graph, &left_partition, &right_partition);
                catalog.insert(&reduced);
            }
        }
    }
    catalog.len()
}

/// A labeled bipartite value-join structure: `edges[(i, j)]` connects left
/// leaf `i` to right leaf `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteEdges {
    /// Number of left join leaves (every one participates in some edge).
    pub left_vertices: usize,
    /// Number of right join leaves.
    pub right_vertices: usize,
    /// The edge set.
    pub edges: Vec<(usize, usize)>,
}

/// Enumerate all labeled simple bipartite graphs with exactly `k` edges and
/// no isolated vertices, over `1..=k` vertices per side.
pub fn enumerate_bipartite_edge_sets(k: usize) -> Vec<BipartiteEdges> {
    let mut out = Vec::new();
    if k == 0 {
        return out;
    }
    for m in 1..=k {
        for n in 1..=k {
            let all_edges: Vec<(usize, usize)> =
                (0..m).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
            if all_edges.len() < k {
                continue;
            }
            let mut chosen = Vec::new();
            choose_edges(&all_edges, 0, k, &mut chosen, m, n, &mut out);
        }
    }
    out
}

fn choose_edges(
    all: &[(usize, usize)],
    start: usize,
    remaining: usize,
    chosen: &mut Vec<(usize, usize)>,
    m: usize,
    n: usize,
    out: &mut Vec<BipartiteEdges>,
) {
    if remaining == 0 {
        // every vertex must be covered
        let mut left_cov = vec![false; m];
        let mut right_cov = vec![false; n];
        for &(i, j) in chosen.iter() {
            left_cov[i] = true;
            right_cov[j] = true;
        }
        if left_cov.into_iter().all(|c| c) && right_cov.into_iter().all(|c| c) {
            out.push(BipartiteEdges {
                left_vertices: m,
                right_vertices: n,
                edges: chosen.clone(),
            });
        }
        return;
    }
    if all.len() - start < remaining {
        return;
    }
    for idx in start..all.len() {
        chosen.push(all[idx]);
        choose_edges(all, idx + 1, remaining - 1, chosen, m, n, out);
        chosen.pop();
    }
}

/// All ways to partition `n` labeled leaves into at most `groups` unlabeled
/// groups of size at most `groups` each (the 3-level schema has `branching`
/// intermediates with `branching` leaf slots each). Returned as, for each
/// leaf, its group id. Group ids are normalized (first occurrence order) so
/// relabeled-equal assignments are produced once.
pub fn partitions(n: usize, groups: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut assignment = vec![0usize; n];
    fn rec(
        i: usize,
        n: usize,
        groups: usize,
        used_groups: usize,
        assignment: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if i == n {
            // check group sizes <= groups (branching factor)
            let mut sizes = vec![0usize; used_groups];
            for &g in assignment.iter() {
                sizes[g] += 1;
            }
            if sizes.iter().all(|&s| s <= groups) {
                out.push(assignment.clone());
            }
            return;
        }
        // Normalized set partition enumeration: leaf i can join any existing
        // group or open the next one.
        for g in 0..=used_groups.min(groups.saturating_sub(1)) {
            if g > used_groups {
                break;
            }
            assignment[i] = g;
            let new_used = used_groups.max(g + 1);
            rec(i + 1, n, groups, new_used, assignment, out);
        }
    }
    if n == 0 {
        return out;
    }
    rec(0, n, groups, 0, &mut assignment, &mut out);
    out
}

/// Build the reduced graph a flat-schema query with this value-join structure
/// would have.
fn flat_reduced_graph(graph: &BipartiteEdges) -> ReducedGraph {
    let left = flat_pattern("lhs", graph.left_vertices);
    let right = flat_pattern("rhs", graph.right_vertices);
    build_reduced(
        &left,
        graph.left_vertices,
        &right,
        graph.right_vertices,
        &graph.edges,
    )
}

/// Build the reduced graph a 3-level-schema query would have, given which
/// intermediate group each join leaf belongs to.
fn complex_reduced_graph(
    graph: &BipartiteEdges,
    left_partition: &[usize],
    right_partition: &[usize],
) -> ReducedGraph {
    let left = grouped_pattern("lhs", left_partition);
    let right = grouped_pattern("rhs", right_partition);
    build_reduced(
        &left,
        graph.left_vertices,
        &right,
        graph.right_vertices,
        &graph.edges,
    )
}

/// A flat pattern: root with `leaves` join leaves (tags leaf0, leaf1, ...).
fn flat_pattern(root_tag: &str, leaves: usize) -> TreePattern {
    let mut p = TreePattern::new(Some("S".into()), Axis::Descendant, NodeTest::tag(root_tag));
    for i in 0..leaves {
        p.add_child(
            PatternNodeId::ROOT,
            Axis::Descendant,
            NodeTest::tag(format!("leaf{i}")),
        );
    }
    p.assign_canonical_variables();
    p
}

/// A 3-level pattern: root, one intermediate per group, leaves under their
/// group's intermediate.
fn grouped_pattern(root_tag: &str, partition: &[usize]) -> TreePattern {
    let mut p = TreePattern::new(Some("S".into()), Axis::Descendant, NodeTest::tag(root_tag));
    let num_groups = partition.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut group_nodes = Vec::with_capacity(num_groups);
    for g in 0..num_groups {
        group_nodes.push(p.add_child(
            PatternNodeId::ROOT,
            Axis::Descendant,
            NodeTest::tag(format!("mid{g}")),
        ));
    }
    for (leaf, &g) in partition.iter().enumerate() {
        p.add_child(
            group_nodes[g],
            Axis::Descendant,
            NodeTest::tag(format!("leaf{leaf}")),
        );
    }
    p.assign_canonical_variables();
    p
}

/// Build a reduced graph from two patterns whose join leaves are the nodes
/// tagged `leaf{i}`, connected by the given bipartite edges.
fn build_reduced(
    left: &TreePattern,
    left_leaves: usize,
    right: &TreePattern,
    right_leaves: usize,
    edges: &[(usize, usize)],
) -> ReducedGraph {
    let find_leaf = |p: &TreePattern, i: usize| -> PatternNodeId {
        let tag = format!("leaf{i}");
        p.nodes()
            .find(|n| matches!(n.test(), NodeTest::Tag(t) if *t == tag))
            .map(|n| n.id())
            .expect("leaf exists by construction")
    };
    let value_edges: Vec<(PatternNodeId, PatternNodeId)> = edges
        .iter()
        .map(|&(i, j)| {
            debug_assert!(i < left_leaves && j < right_leaves);
            (find_leaf(left, i), find_leaf(right, j))
        })
        .collect();
    let jg = JoinGraph {
        left: left.clone(),
        right: right.clone(),
        value_edges,
        op: JoinOp::FollowedBy,
        window: Window::Infinite,
    };
    ReducedGraph::from_join_graph(&jg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_template_counts_match_table3() {
        // Paper Table 3, "#QT (flat schema)" column: 1, 3, 6, 16.
        assert_eq!(count_flat_templates(1), 1);
        assert_eq!(count_flat_templates(2), 3);
        assert_eq!(count_flat_templates(3), 6);
        assert_eq!(count_flat_templates(4), 16);
    }

    #[test]
    fn complex_template_counts_match_table3() {
        // Paper Table 3, "#QT (complex schema)" column: 1, 3, 16, < 230.
        assert_eq!(count_complex_templates(1, 4), 1);
        assert_eq!(count_complex_templates(2, 4), 3);
        assert_eq!(count_complex_templates(3, 4), 16);
    }

    #[test]
    #[ignore = "k=4 complex enumeration is a few seconds; run explicitly or via the table3 bench"]
    fn complex_k4_is_below_230() {
        let n = count_complex_templates(4, 4);
        assert!(n < 230, "expected < 230 templates, got {n}");
        assert!(n > 16);
    }

    #[test]
    fn bipartite_enumeration_basics() {
        // k=1: only one labeled graph (1x1, single edge).
        assert_eq!(enumerate_bipartite_edge_sets(1).len(), 1);
        assert!(enumerate_bipartite_edge_sets(0).is_empty());
        // Every enumerated graph covers all its vertices.
        for g in enumerate_bipartite_edge_sets(3) {
            let mut lcov = vec![false; g.left_vertices];
            let mut rcov = vec![false; g.right_vertices];
            for (i, j) in &g.edges {
                lcov[*i] = true;
                rcov[*j] = true;
            }
            assert!(lcov.into_iter().all(|c| c));
            assert!(rcov.into_iter().all(|c| c));
            assert_eq!(g.edges.len(), 3);
        }
    }

    #[test]
    fn partition_enumeration() {
        // 1 leaf: one partition.
        assert_eq!(partitions(1, 4).len(), 1);
        // 2 leaves: together or separate.
        assert_eq!(partitions(2, 4).len(), 2);
        // 3 leaves: Bell number B3 = 5 (all group sizes fit within 4).
        assert_eq!(partitions(3, 4).len(), 5);
        // 0 leaves: no partitions.
        assert!(partitions(0, 4).is_empty());
        // Branching 1 forces all leaves into singleton groups... except that
        // group sizes are capped at 1, so only the all-singletons assignment
        // survives; with normalized group ids that is exactly one partition
        // only when n == 1.
        assert_eq!(partitions(1, 1).len(), 1);
    }

    #[test]
    fn flat_and_complex_agree_for_k1_and_k2() {
        // With at most two value joins the intermediate level never creates
        // new shapes (a single intermediate either holds all leaves — and is
        // the LCA root — or is spliced), so the counts coincide with the
        // flat schema. This matches Table 3.
        for k in 1..=2 {
            assert_eq!(count_flat_templates(k), count_complex_templates(k, 4));
        }
    }
}
