//! The compiled [`PhysicalPlan`](mmqjp_relational::PhysicalPlan) against the
//! nested-loop interpreter ([`crate::reference`]) on the fixtures of
//! [`crate::database`]: flat and chunked inputs, `distinct` on and off.

#[cfg(test)]
mod tests {
    use crate::database::{compile, edges_db, evaluate, ints, Relations};
    use crate::reference::sorted_rows;
    use mmqjp_relational::{
        Atom, ChunkedRows, ConjunctiveQuery, ExecScratch, PlanInput, Relation, SegmentedRelation,
        Term, Value,
    };

    /// The rows of `query` over `db` from the compiled plan, sorted, once
    /// per input layout (flat, then every relation in buckets of two rows).
    fn compiled_both_ways(
        query: &ConjunctiveQuery,
        db: &Relations,
        distinct: bool,
    ) -> [(Vec<Vec<Value>>, Relation); 2] {
        let segmented: Vec<SegmentedRelation> = db
            .iter()
            .map(|(_, rel)| {
                let mut seg = SegmentedRelation::new(rel.schema().clone());
                for (i, row) in rel.iter().enumerate() {
                    seg.push((i / 2) as u64, row.to_vec()).unwrap();
                }
                seg
            })
            .collect();
        let chunked: Vec<ChunkedRows<'_>> =
            segmented.iter().map(ChunkedRows::from_segmented).collect();
        let slot = |name: &String| db.iter().position(|(n, _)| *n == name).unwrap();
        let plan = compile(query, db).unwrap();
        [false, true].map(|use_chunks| {
            let inputs: Vec<PlanInput<'_>> = plan
                .relations()
                .iter()
                .map(|name| {
                    if use_chunks {
                        PlanInput::from(&chunked[slot(name)])
                    } else {
                        PlanInput::from(&db[slot(name)].1)
                    }
                })
                .collect();
            let out = plan
                .clone()
                .execute(&inputs, &mut ExecScratch::new(), distinct)
                .unwrap();
            (sorted_rows(&out), out)
        })
    }

    /// `query` over `db`: the interpreter's bag, after checking that the
    /// compiled plan returns it flat and chunked, and its set with
    /// `distinct`.
    fn check(query: &ConjunctiveQuery, db: &Relations) -> Vec<Vec<Value>> {
        let interpreted = evaluate(query, db);
        let mut set = interpreted.clone();
        set.dedup();
        for distinct in [false, true] {
            let expected = if distinct { &set } else { &interpreted };
            for (rows, out) in compiled_both_ways(query, db, distinct) {
                assert_eq!(&rows, expected, "{query}, distinct {distinct}");
                assert_eq!(out.schema().columns(), query.head.as_slice());
            }
        }
        interpreted
    }

    #[test]
    fn two_hop_paths_match_the_interpreter_as_a_bag() {
        let two_hop = ConjunctiveQuery::new(["X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]));
        assert_eq!(
            check(&two_hop, &edges_db()),
            ints(&[[1, 3], [1, 4], [2, 4]])
        );

        // Projecting the middle node away leaves 2 twice (1→2→3, 1→2→4).
        let via = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]));
        assert_eq!(check(&via, &edges_db()), ints(&[[1], [1], [2]]));
    }

    #[test]
    fn duplicate_head_variables_match_the_interpreter() {
        // A repeated head variable repeats its column, in both evaluators.
        let q = ConjunctiveQuery::new(["X", "X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]));
        assert_eq!(
            check(&q, &edges_db()),
            ints(&[[1, 1], [2, 2], [2, 2], [3, 3]])
        );

        let q = ConjunctiveQuery::new(["Z", "X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]));
        assert_eq!(
            check(&q, &edges_db()),
            ints(&[[3, 1, 3], [4, 1, 4], [4, 2, 4]])
        );
    }
}
