//! Query templates (Sections 4.1–4.2 of the paper).
//!
//! Two queries belong to the same *query template* exactly when their reduced
//! join graphs are isomorphic (respecting sides, tree structure, edge axis
//! labels and value-join edges). All queries of one template are evaluated by
//! a single relational conjunctive query in the Join Processor; the
//! per-query differences (which concrete variables play which role, the
//! window length) are data in the template's `RT` relation.
//!
//! [`TemplateCatalog`] maintains the set of templates discovered so far.
//! Insertion buckets candidates by a cheap invariant and then runs an exact
//! isomorphism test (backtracking over the tiny reduced graphs), so the
//! catalog is *sound*: queries are never merged into a template whose join
//! structure differs from theirs.

use crate::join_graph::Side;
use crate::minor::ReducedGraph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a query template within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TemplateId(pub u32);

impl TemplateId {
    /// Raw index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Raw index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A query template: the representative reduced join graph of its equivalence
/// class, with node positions acting as meta-variables.
///
/// Meta-variable numbering follows the paper's Figure 5: left-tree nodes
/// first (in the representative's construction order), then right-tree
/// nodes. Meta-variable `i` is displayed as `var{i+1}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// The template id.
    pub id: TemplateId,
    /// The representative reduced graph.
    pub graph: ReducedGraph,
}

impl QueryTemplate {
    /// Total number of meta-variables (nodes of both sides).
    pub fn num_meta_vars(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of meta-variables on the left side.
    pub fn num_left(&self) -> usize {
        self.graph.left.len()
    }

    /// Number of meta-variables on the right side.
    pub fn num_right(&self) -> usize {
        self.graph.right.len()
    }

    /// Display name of a meta-variable position (`var1`, `var2`, ...).
    pub fn meta_var_name(&self, position: usize) -> String {
        format!("var{}", position + 1)
    }

    /// The (side, within-side index) of a global meta-variable position.
    pub fn position_side(&self, position: usize) -> (Side, usize) {
        if position < self.num_left() {
            (Side::Left, position)
        } else {
            (Side::Right, position - self.num_left())
        }
    }

    /// Global meta-variable position of a (side, within-side index) pair.
    pub fn global_position(&self, side: Side, idx: usize) -> usize {
        match side {
            Side::Left => idx,
            Side::Right => self.num_left() + idx,
        }
    }

    /// Structural edges of the template as global meta-variable position
    /// pairs `(parent, child)`, left side first.
    pub fn structural_edges(&self) -> Vec<(usize, usize, Side)> {
        let mut out = Vec::new();
        for (p, c) in self.graph.left.edges() {
            out.push((p, c, Side::Left));
        }
        for (p, c) in self.graph.right.edges() {
            out.push((
                self.global_position(Side::Right, p),
                self.global_position(Side::Right, c),
                Side::Right,
            ));
        }
        out
    }

    /// Value-join edges as global meta-variable position pairs
    /// `(left position, right position)`.
    pub fn value_edges(&self) -> Vec<(usize, usize)> {
        self.graph
            .value_edges
            .iter()
            .map(|&(l, r)| (l, self.global_position(Side::Right, r)))
            .collect()
    }
}

/// The result of registering one query's reduced graph in the catalog: which
/// template it belongs to and how its variables map onto the template's
/// meta-variable positions. `assignment[i]` is the query's (canonical)
/// variable name that plays the role of meta-variable `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemplateMembership {
    /// The template the query belongs to.
    pub template: TemplateId,
    /// Per meta-variable position, the query's variable name.
    pub assignment: Vec<String>,
}

/// The catalog of all templates discovered so far.
///
/// Templates can be [`remove`](TemplateCatalog::remove)d when their last
/// member query departs: the slot is tombstoned (ids are never reused) and
/// the structure stops matching future inserts, so a later isomorphic query
/// starts a fresh template.
#[derive(Debug, Clone, Default)]
pub struct TemplateCatalog {
    /// Template slots; `None` marks a retired template (boxed so the
    /// tombstone costs a pointer under unbounded churn).
    templates: Vec<Option<Box<QueryTemplate>>>,
    by_invariant: HashMap<String, Vec<TemplateId>>,
    live: usize,
    memberships: usize,
}

impl TemplateCatalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        TemplateCatalog::default()
    }

    /// Number of distinct live templates.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live templates exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of `insert` calls. A registry that memoizes what it derives
    /// per query shape inserts once per orientation of each shape it builds,
    /// so this counts its shape misses, not its registered orientations.
    pub fn memberships(&self) -> usize {
        self.memberships
    }

    /// A template by id. Panics for retired (removed) ids.
    pub fn template(&self, id: TemplateId) -> &QueryTemplate {
        self.templates[id.index()]
            .as_deref()
            .expect("template id refers to a retired template")
    }

    /// Iterate over all live templates.
    pub fn templates(&self) -> impl Iterator<Item = &QueryTemplate> {
        self.templates.iter().filter_map(|t| t.as_deref())
    }

    /// Retire a template whose last member query departed. The slot is
    /// tombstoned — the id is never reused — and the structure will no
    /// longer be found by [`find`](TemplateCatalog::find) or matched by
    /// future inserts. Returns the removed template, or `None` when the id
    /// was already retired.
    pub fn remove(&mut self, id: TemplateId) -> Option<QueryTemplate> {
        let template = *self.templates.get_mut(id.index())?.take()?;
        self.live -= 1;
        let invariant = template.graph.invariant();
        if let Some(candidates) = self.by_invariant.get_mut(&invariant) {
            candidates.retain(|&tid| tid != id);
            if candidates.is_empty() {
                self.by_invariant.remove(&invariant);
            }
        }
        Some(template)
    }

    /// Register a query's reduced graph: find the template it belongs to (or
    /// create one) and return the membership.
    pub fn insert(&mut self, graph: &ReducedGraph) -> TemplateMembership {
        self.memberships += 1;
        let invariant = graph.invariant();
        if let Some(candidates) = self.by_invariant.get(&invariant) {
            for &tid in candidates {
                let template = self.templates[tid.index()]
                    .as_deref()
                    .expect("by_invariant only references live templates");
                if let Some(assignment) = assignment(graph, template) {
                    return TemplateMembership {
                        template: tid,
                        assignment,
                    };
                }
            }
        }
        // New template: the graph itself is the representative; the identity
        // mapping gives the assignment.
        let id = TemplateId(self.templates.len() as u32);
        let template = QueryTemplate {
            id,
            graph: graph.clone(),
        };
        let assignment: Vec<String> = (0..template.num_meta_vars())
            .map(|i| graph_variable(graph, i).to_owned())
            .collect();
        self.templates.push(Some(Box::new(template)));
        self.live += 1;
        self.by_invariant.entry(invariant).or_default().push(id);
        TemplateMembership {
            template: id,
            assignment,
        }
    }

    /// Check whether a graph already has a matching live template, without
    /// inserting.
    pub fn find(&self, graph: &ReducedGraph) -> Option<TemplateId> {
        let invariant = graph.invariant();
        let candidates = self.by_invariant.get(&invariant)?;
        candidates
            .iter()
            .copied()
            .find(|tid| isomorphism(graph, &self.template(*tid).graph).is_some())
    }
}

/// How `graph` joins `template`, if the two are isomorphic: per
/// meta-variable position of the template, the graph's variable playing
/// that role. This is the assignment [`TemplateCatalog::insert`] returns for
/// a graph that joins an existing template.
pub fn assignment(graph: &ReducedGraph, template: &QueryTemplate) -> Option<Vec<String>> {
    // mapping[i] = template position of graph position i; the assignment
    // is its inverse, read through the graph's variables.
    let mapping = isomorphism(graph, &template.graph)?;
    let mut assignment = vec![String::new(); template.num_meta_vars()];
    for (graph_pos, &template_pos) in mapping.iter().enumerate() {
        assignment[template_pos] = graph_variable(graph, graph_pos).to_owned();
    }
    Some(assignment)
}

/// The variable at a global node position of a reduced graph (left nodes
/// first, then right nodes).
fn graph_variable(graph: &ReducedGraph, position: usize) -> &str {
    if position < graph.left.len() {
        &graph.left.nodes[position].variable
    } else {
        &graph.right.nodes[position - graph.left.len()].variable
    }
}

/// Find an isomorphism from `a` to `b`, returning for each global node
/// position of `a` the corresponding global position of `b`. The isomorphism
/// must map left to left and right to right, preserve parent/child structure,
/// edge axis labels, join-node flags and the value-edge set.
pub fn isomorphism(a: &ReducedGraph, b: &ReducedGraph) -> Option<Vec<usize>> {
    if a.left.len() != b.left.len()
        || a.right.len() != b.right.len()
        || a.value_edges.len() != b.value_edges.len()
    {
        return None;
    }
    let nl = a.left.len();
    let total = a.num_nodes();

    // Per-node candidate compatibility (side, axis, join flag, value degree,
    // parent handled during search).
    let side_of = |pos: usize| if pos < nl { Side::Left } else { Side::Right };
    let local = |pos: usize| if pos < nl { pos } else { pos - nl };
    let node_of = |g: &ReducedGraph, pos: usize| -> crate::minor::ReducedNode {
        if pos < nl {
            g.left.nodes[pos].clone()
        } else {
            g.right.nodes[pos - nl].clone()
        }
    };

    let a_value_edges: std::collections::HashSet<(usize, usize)> =
        a.value_edges.iter().map(|&(l, r)| (l, nl + r)).collect();
    let b_value_edges: std::collections::HashSet<(usize, usize)> =
        b.value_edges.iter().map(|&(l, r)| (l, nl + r)).collect();

    // mapping[a_pos] = Some(b_pos)
    let mut mapping: Vec<Option<usize>> = vec![None; total];
    let mut used: Vec<bool> = vec![false; total];

    // Order: left positions then right positions (parents precede children in
    // ReducedTree construction order, so a node's parent is always mapped
    // before the node itself).
    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        pos: usize,
        total: usize,
        nl: usize,
        a: &ReducedGraph,
        b: &ReducedGraph,
        a_value_edges: &std::collections::HashSet<(usize, usize)>,
        b_value_edges: &std::collections::HashSet<(usize, usize)>,
        mapping: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
        side_of: &dyn Fn(usize) -> Side,
        local: &dyn Fn(usize) -> usize,
        node_of: &dyn Fn(&ReducedGraph, usize) -> crate::minor::ReducedNode,
    ) -> bool {
        if pos == total {
            return true;
        }
        let a_node = node_of(a, pos);
        let side = side_of(pos);
        for b_pos in 0..total {
            if used[b_pos] || side_of(b_pos) != side {
                continue;
            }
            let b_node = node_of(b, b_pos);
            if a_node.is_join_node != b_node.is_join_node || a_node.axis != b_node.axis {
                continue;
            }
            if a.value_degree(side, local(pos)) != b.value_degree(side, local(b_pos)) {
                continue;
            }
            // Parent consistency.
            let a_parent_global = a_node
                .parent
                .map(|p| if side == Side::Left { p } else { nl + p });
            let b_parent_global = b_node
                .parent
                .map(|p| if side == Side::Left { p } else { nl + p });
            match (a_parent_global, b_parent_global) {
                (None, None) => {}
                (Some(ap), Some(bp)) => {
                    if mapping[ap] != Some(bp) {
                        continue;
                    }
                }
                _ => continue,
            }
            // Value-edge consistency with already-mapped opposite-side nodes.
            let mut consistent = true;
            for &(l, r) in a_value_edges.iter() {
                let (this, other) = if side == Side::Left { (l, r) } else { (r, l) };
                if this != pos {
                    continue;
                }
                if let Some(mapped_other) = mapping[other] {
                    let edge = if side == Side::Left {
                        (b_pos, mapped_other)
                    } else {
                        (mapped_other, b_pos)
                    };
                    if !b_value_edges.contains(&edge) {
                        consistent = false;
                        break;
                    }
                }
            }
            if !consistent {
                continue;
            }
            mapping[pos] = Some(b_pos);
            used[b_pos] = true;
            if backtrack(
                pos + 1,
                total,
                nl,
                a,
                b,
                a_value_edges,
                b_value_edges,
                mapping,
                used,
                side_of,
                local,
                node_of,
            ) {
                return true;
            }
            mapping[pos] = None;
            used[b_pos] = false;
        }
        false
    }

    if backtrack(
        0,
        total,
        nl,
        a,
        b,
        &a_value_edges,
        &b_value_edges,
        &mut mapping,
        &mut used,
        &side_of,
        &local,
        &node_of,
    ) {
        // Final sanity check: value-edge sets must correspond exactly.
        let mapped: std::collections::HashSet<(usize, usize)> = a_value_edges
            .iter()
            .map(|&(l, r)| (mapping[l].unwrap(), mapping[r].unwrap()))
            .collect();
        if mapped == b_value_edges {
            Some(mapping.into_iter().map(|m| m.unwrap()).collect())
        } else {
            None
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::JoinGraph;
    use crate::minor::ReducedGraph;
    use crate::normalize::normalize_query;
    use crate::parser::parse_query;

    fn reduced(text: &str) -> ReducedGraph {
        let q = normalize_query(&parse_query(text).unwrap()).unwrap().query;
        ReducedGraph::from_join_graph(&JoinGraph::from_query(&q).unwrap())
    }

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";

    #[test]
    fn q1_q2_q3_share_one_template() {
        // The paper's Figure 5: all three example queries belong to the same
        // template with six meta-variables.
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&reduced(Q1));
        let m2 = catalog.insert(&reduced(Q2));
        let m3 = catalog.insert(&reduced(Q3));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.memberships(), 3);
        assert_eq!(m1.template, m2.template);
        assert_eq!(m2.template, m3.template);
        let t = catalog.template(m1.template);
        assert_eq!(t.num_meta_vars(), 6);
        assert_eq!(t.num_left(), 3);
        assert_eq!(t.num_right(), 3);
        // Q1's assignment covers book/author/title on the left and
        // blog/author/title on the right (canonical names).
        assert!(m1.assignment.contains(&"S//book".to_owned()));
        assert!(m1.assignment.contains(&"S//blog//title".to_owned()));
        // Q3's assignment uses blog definitions on both sides (Table 4(a)).
        assert!(m3.assignment.iter().all(|v| v.starts_with("S//blog")));
    }

    #[test]
    fn different_join_structure_different_template() {
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&reduced(Q1));
        // A fan-out query: one left variable joined to two right variables.
        let fan = reduced(
            "S//book->b[.//author->a] FOLLOWED BY{a=n AND a=d, 10} \
             S//blog->g[.//author->n][.//description->d]",
        );
        let m2 = catalog.insert(&fan);
        assert_ne!(m1.template, m2.template);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn single_value_join_template() {
        let mut catalog = TemplateCatalog::new();
        let g = reduced("S//book->b[.//author->a] FOLLOWED BY{a=x, 10} S//blog->g[.//author->x]");
        let m = catalog.insert(&g);
        let t = catalog.template(m.template);
        // Both sides reduce to a single node: 2 meta-variables, 1 value edge,
        // no structural edges.
        assert_eq!(t.num_meta_vars(), 2);
        assert!(t.structural_edges().is_empty());
        assert_eq!(t.value_edges(), vec![(0, 1)]);
        assert_eq!(t.meta_var_name(0), "var1");
        assert_eq!(t.position_side(0), (Side::Left, 0));
        assert_eq!(t.position_side(1), (Side::Right, 0));
        assert_eq!(t.global_position(Side::Right, 0), 1);
    }

    #[test]
    fn asymmetric_templates_are_not_merged() {
        // 2 left leaves joined to 1 right leaf vs 1 left leaf joined to 2
        // right leaves: different templates under FOLLOWED BY (the operator
        // is asymmetric).
        let fan_right = reduced(
            "S//book->b[.//author->a] FOLLOWED BY{a=n AND a=d, 10} \
             S//blog->g[.//author->n][.//description->d]",
        );
        let fan_left = reduced(
            "S//book->b[.//author->a][.//title->t] FOLLOWED BY{a=n AND t=n, 10} \
             S//blog->g[.//author->n]",
        );
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&fan_right);
        let m2 = catalog.insert(&fan_left);
        assert_ne!(m1.template, m2.template);
        assert!(isomorphism(&fan_right, &fan_left).is_none());
    }

    #[test]
    fn isomorphism_is_found_under_sibling_permutation() {
        // Same structure, predicates listed in a different order and leaves
        // named differently: still one template.
        let a = reduced(Q1);
        let b = reduced(
            "S//post->p[.//subject->s][.//who->w] \
             FOLLOWED BY{s=s2 AND w=w2, 42} \
             S//comment->c[.//subject->s2][.//who->w2]",
        );
        let mapping = isomorphism(&a, &b).unwrap();
        assert_eq!(mapping.len(), 6);
        // Roots map to roots.
        assert_eq!(mapping[0], 0);
        // And value edges are preserved (checked internally); the mapped
        // assignment must pair authors with authors or titles with titles,
        // i.e. respect the edge structure.
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&a);
        let m2 = catalog.insert(&b);
        assert_eq!(m1.template, m2.template);
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn membership_assignment_respects_value_edges() {
        // For Q1 the template's value edges must connect the positions that
        // hold author-author and title-title, never author-title.
        let mut catalog = TemplateCatalog::new();
        let m = catalog.insert(&reduced(Q1));
        let t = catalog.template(m.template);
        for (l, r) in t.value_edges() {
            let lvar = &m.assignment[l];
            let rvar = &m.assignment[r];
            let lsuffix = lvar.rsplit('/').next().unwrap();
            let rsuffix = rvar.rsplit('/').next().unwrap();
            assert_eq!(lsuffix, rsuffix, "{lvar} joined with {rvar}");
        }
    }

    #[test]
    fn find_without_insert() {
        let mut catalog = TemplateCatalog::new();
        let g1 = reduced(Q1);
        assert!(catalog.find(&g1).is_none());
        let m = catalog.insert(&g1);
        assert_eq!(catalog.find(&g1), Some(m.template));
        assert_eq!(catalog.find(&reduced(Q2)), Some(m.template));
        assert!(!catalog.is_empty());
        assert_eq!(catalog.templates().count(), 1);
        assert_eq!(m.template.to_string(), "T0");
        assert_eq!(m.template.raw(), 0);
    }

    #[test]
    fn remove_retires_the_template_and_never_reuses_its_id() {
        let mut catalog = TemplateCatalog::new();
        let g1 = reduced(Q1);
        let m1 = catalog.insert(&g1);
        let removed = catalog.remove(m1.template).unwrap();
        assert_eq!(removed.id, m1.template);
        assert_eq!(catalog.len(), 0);
        assert!(catalog.is_empty());
        assert!(catalog.find(&g1).is_none());
        assert_eq!(catalog.templates().count(), 0);
        // Removing again is a no-op.
        assert!(catalog.remove(m1.template).is_none());
        // A later isomorphic insert starts a fresh template under a new id.
        let m2 = catalog.insert(&reduced(Q2));
        assert_ne!(m2.template, m1.template);
        assert_eq!(m2.template.index(), 1);
        assert_eq!(catalog.len(), 1);
        // The retired slot stays retired; the new one is live.
        assert_eq!(catalog.find(&g1), Some(m2.template));
        assert_eq!(catalog.memberships(), 2);
    }

    #[test]
    fn three_value_join_perfect_matching_vs_star() {
        // Perfect matching of 3 leaves vs a star (one left leaf joined to 3
        // right leaves): different templates.
        let matching = reduced(
            "S//a->r[.//p->p1][.//q->q1][.//s->s1] \
             FOLLOWED BY{p1=p2 AND q1=q2 AND s1=s2, 10} \
             S//b->r2[.//p->p2][.//q->q2][.//s->s2]",
        );
        let star = reduced(
            "S//a->r[.//p->p1] \
             FOLLOWED BY{p1=p2 AND p1=q2 AND p1=s2, 10} \
             S//b->r2[.//p->p2][.//q->q2][.//s->s2]",
        );
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&matching);
        let m2 = catalog.insert(&star);
        assert_ne!(m1.template, m2.template);
        assert_eq!(catalog.template(m1.template).num_meta_vars(), 8);
        assert_eq!(catalog.template(m2.template).num_meta_vars(), 5);
    }
}
