//! Conjunctive queries over small databases of named relations, with their
//! answers spelled out.
//!
//! The property tests only compare the compiled [`PhysicalPlan`] with the
//! nested-loop [`reference`]; these tests pin both to literal answers, so a
//! judge that drifted would be caught on its own. Every answer goes through
//! [`evaluate`], which asks both evaluators and requires them to agree.

use crate::reference::{self, sorted_rows};
use mmqjp_relational::{
    ConjunctiveQuery, ExecScratch, PhysicalPlan, PlanInput, RelResult, Relation, Schema,
    StringInterner, Value,
};

/// Named relations: what an atom's relation name refers to.
pub(crate) type Relations = Vec<(&'static str, Relation)>;

/// A relation over `columns` holding `rows`.
pub(crate) fn relation_of<const N: usize>(columns: [&str; N], rows: &[[Value; N]]) -> Relation {
    let mut r = Relation::new(Schema::new(columns));
    for row in rows {
        r.push_array(*row).unwrap();
    }
    r
}

/// `rows` of integers as values, in the form the evaluators answer in.
pub(crate) fn ints<const N: usize>(rows: &[[i64; N]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| row.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

/// The `label` fixture's colours, `red` < `blue`.
pub(crate) fn colors() -> (Value, Value) {
    let interner = StringInterner::new();
    (
        Value::Sym(interner.intern("red")),
        Value::Sym(interner.intern("blue")),
    )
}

/// `edge` = 1→2, 2→3, 3→4, 2→4 and `label` = 1 red, 2 blue, 3 red,
/// 4 blue.
pub(crate) fn edges_db() -> Relations {
    let int = Value::Int;
    let (red, blue) = colors();
    let edge = relation_of(
        ["src", "dst"],
        &[
            [int(1), int(2)],
            [int(2), int(3)],
            [int(3), int(4)],
            [int(2), int(4)],
        ],
    );
    let label = relation_of(
        ["node", "color"],
        &[[int(1), red], [int(2), blue], [int(3), red], [int(4), blue]],
    );
    vec![("edge", edge), ("label", label)]
}

/// `query` compiled against the arities of `db`.
pub(crate) fn compile(query: &ConjunctiveQuery, db: &Relations) -> RelResult<PhysicalPlan> {
    PhysicalPlan::compile(query, |name| {
        db.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r.schema().arity())
    })
}

/// The plan's inputs: the relation of `db` behind each name it reads.
pub(crate) fn inputs_of<'a>(plan: &PhysicalPlan, db: &'a Relations) -> Vec<PlanInput<'a>> {
    plan.relations()
        .iter()
        .map(|name| PlanInput::from(&db.iter().find(|(n, _)| *n == name).unwrap().1))
        .collect()
}

/// `query` executed as a compiled plan over `db`.
pub(crate) fn compiled(query: &ConjunctiveQuery, db: &Relations, distinct: bool) -> Relation {
    let mut plan = compile(query, db).unwrap();
    let inputs = inputs_of(&plan, db);
    plan.execute(&inputs, &mut ExecScratch::new(), distinct)
        .unwrap()
}

/// `query` over `db` by the nested-loop reference, sorted, after checking
/// that the compiled plan returns the same bag.
pub(crate) fn evaluate(query: &ConjunctiveQuery, db: &Relations) -> Vec<Vec<Value>> {
    let named: Vec<(&str, &Relation)> = db.iter().map(|(name, rel)| (*name, rel)).collect();
    let expected = reference::evaluate(query, &named);
    assert_eq!(
        sorted_rows(&compiled(query, db, false)),
        expected,
        "compiled plan vs reference on {query}"
    );
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_relational::{Atom, ChunkedRows, RelError, SegmentedRelation, Term};

    fn two_hop() -> ConjunctiveQuery {
        // path2(X, Z) :- edge(X, Y), edge(Y, Z)
        ConjunctiveQuery::new(["X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]))
    }

    #[test]
    fn two_hop_paths() {
        // 1→2→3, 1→2→4, 2→3→4
        assert_eq!(
            evaluate(&two_hop(), &edges_db()),
            ints(&[[1, 3], [1, 4], [2, 4]])
        );
    }

    #[test]
    fn constants_filter() {
        // from2(Z) :- edge(2, Z)
        let q = ConjunctiveQuery::new(["Z"])
            .atom(Atom::new("edge", [Term::constant(2i64), Term::var("Z")]));
        assert_eq!(evaluate(&q, &edges_db()), ints(&[[3], [4]]));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let int = Value::Int;
        let db = vec![(
            "pair",
            relation_of(
                ["a", "b"],
                &[[int(1), int(1)], [int(1), int(2)], [int(3), int(3)]],
            ),
        )];
        // diag(X) :- pair(X, X)
        let q =
            ConjunctiveQuery::new(["X"]).atom(Atom::new("pair", [Term::var("X"), Term::var("X")]));
        assert_eq!(evaluate(&q, &db), ints(&[[1], [3]]));
    }

    #[test]
    fn three_way_join_with_labels() {
        // same_color_edge(X, Y) :- edge(X, Y), label(X, C), label(Y, C)
        let q = ConjunctiveQuery::new(["X", "Y"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C")]))
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]));
        // Edges between equally coloured nodes: 2→4 (blue, blue).
        assert_eq!(evaluate(&q, &edges_db()), ints(&[[2, 4]]));
    }

    #[test]
    fn disconnected_query_is_cross_product() {
        let (red, _) = colors();
        let q = ConjunctiveQuery::new(["X", "N"])
            .atom(Atom::new("edge", [Term::var("X"), Term::constant(2i64)]))
            .atom(Atom::new("label", [Term::var("N"), Term::constant(red)]));
        assert!(!q.is_connected());
        // One edge into 2 (1→2) times two red nodes (1 and 3).
        assert_eq!(evaluate(&q, &edges_db()), ints(&[[1, 1], [1, 3]]));
    }

    #[test]
    fn malformed_queries_rejected() {
        let db = edges_db();
        let rejects = |q: &ConjunctiveQuery| compile(q, &db).unwrap_err();
        // Unknown relation.
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("nope", [Term::var("X")]));
        assert!(matches!(rejects(&q), RelError::UnknownRelation { .. }));
        // Arity mismatch.
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("edge", [Term::var("X")]));
        assert!(matches!(rejects(&q), RelError::MalformedQuery { .. }));
        // Unbound head.
        let q =
            ConjunctiveQuery::new(["Q"]).atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]));
        assert!(matches!(rejects(&q), RelError::MalformedQuery { .. }));
        // Empty body.
        let q = ConjunctiveQuery::new(["X"]);
        assert!(matches!(rejects(&q), RelError::MalformedQuery { .. }));
    }

    #[test]
    fn empty_relation_short_circuits() {
        let mut db = edges_db();
        db.push(("empty", Relation::new(Schema::new(["x", "y"]))));
        let q = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("empty", [Term::var("Y"), Term::var("Z")]));
        assert!(evaluate(&q, &db).is_empty());
        assert_eq!(compiled(&q, &db, false).schema().columns(), &["X"]);
    }

    #[test]
    fn duplicate_semantics_are_bag() {
        // Two identical tuples produce two identical outputs (bag semantics,
        // like SQL without DISTINCT); `distinct` keeps one.
        let db = vec![("r", relation_of(["a"], &[[Value::Int(1)], [Value::Int(1)]]))];
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("r", [Term::var("X")]));
        assert_eq!(evaluate(&q, &db), ints(&[[1], [1]]));
        assert_eq!(sorted_rows(&compiled(&q, &db, true)), ints(&[[1]]));
    }

    #[test]
    fn segmented_relations_evaluate_like_flat_ones() {
        let db = edges_db();
        let flat = evaluate(&two_hop(), &db);

        // The edge relation split across three buckets.
        let mut seg = SegmentedRelation::new(Schema::new(["src", "dst"]));
        for (i, t) in db[0].1.iter().enumerate() {
            seg.push((i % 3) as u64, t.to_vec()).unwrap();
        }
        assert_eq!(seg.len(), 4);
        let chunked = ChunkedRows::from_segmented(&seg);
        let mut plan = compile(&two_hop(), &db).unwrap();
        let segmented = plan
            .execute(&[PlanInput::from(&chunked)], &mut ExecScratch::new(), false)
            .unwrap();
        assert_eq!(sorted_rows(&segmented), flat);
        assert_eq!(flat, ints(&[[1, 3], [1, 4], [2, 4]]));
    }

    #[test]
    fn head_order_defines_output_columns() {
        let db = edges_db();
        let q = ConjunctiveQuery::new(["Z", "X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Z")]));
        assert_eq!(compiled(&q, &db, false).schema().columns(), &["Z", "X"]);
        assert_eq!(evaluate(&q, &db), ints(&[[2, 1], [3, 2], [4, 2], [4, 3]]));
    }

    #[test]
    fn plan_order_is_connected_when_possible() {
        // The written order puts `label(Y, C)` first. In whatever order an
        // evaluator joins, the answer is each edge's source with the colour
        // of its target.
        let (red, blue) = colors();
        let q = ConjunctiveQuery::new(["X", "C"])
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]))
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C2")]));
        assert!(q.is_connected());
        let int = Value::Int;
        assert_eq!(
            evaluate(&q, &edges_db()),
            [
                vec![int(1), blue],
                vec![int(2), red],
                vec![int(2), blue],
                vec![int(3), blue]
            ]
        );
    }
}
