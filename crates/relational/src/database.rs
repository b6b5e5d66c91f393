//! A named collection of relations plus the conjunctive-query evaluator.

use crate::conjunctive::{Atom, ConjunctiveQuery, Term};
use crate::error::{RelError, RelResult};
use crate::ops;
use crate::plan::{hash_value, mix_hash, scaled_distinct, DISTINCT_SAMPLE};
use crate::relation::{Relation, RowRef, Rows};
use crate::schema::Schema;
use crate::segment::{SegmentedRelation, SegmentedTuples};
use crate::value::Value;
use std::collections::HashMap;

/// A relation as stored in a [`Database`]: either a flat [`Relation`] or a
/// [`SegmentedRelation`].
///
/// The MMQJP engine keeps its windowed join state segmented by timestamp
/// bucket (so window expiry is a whole-bucket drop) and moves it into the
/// evaluation database *without flattening*; per-batch witness relations stay
/// flat. Conjunctive-query evaluation only ever scans atoms tuple by tuple,
/// so both layouts evaluate identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredRelation {
    /// A single contiguous relation.
    Flat(Relation),
    /// A bucketed relation with stable row handles.
    Segmented(SegmentedRelation),
}

impl StoredRelation {
    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        match self {
            StoredRelation::Flat(r) => r.schema(),
            StoredRelation::Segmented(r) => r.schema(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            StoredRelation::Flat(r) => r.len(),
            StoredRelation::Segmented(r) => r.len(),
        }
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all tuples (for segmented relations: bucket order, then
    /// insertion order).
    pub fn iter(&self) -> StoredTuples<'_> {
        match self {
            StoredRelation::Flat(r) => StoredTuples::Flat(r.iter()),
            StoredRelation::Segmented(r) => StoredTuples::Segmented(r.iter()),
        }
    }

    /// Remove all tuples, keeping the schema and layout.
    pub fn clear(&mut self) {
        match self {
            StoredRelation::Flat(r) => r.clear(),
            StoredRelation::Segmented(r) => r.clear(),
        }
    }

    /// The flat relation, if this is [`StoredRelation::Flat`].
    pub fn into_flat(self) -> Option<Relation> {
        match self {
            StoredRelation::Flat(r) => Some(r),
            StoredRelation::Segmented(_) => None,
        }
    }

    /// The segmented relation, if this is [`StoredRelation::Segmented`].
    pub fn into_segmented(self) -> Option<SegmentedRelation> {
        match self {
            StoredRelation::Flat(_) => None,
            StoredRelation::Segmented(r) => Some(r),
        }
    }
}

impl From<Relation> for StoredRelation {
    fn from(r: Relation) -> Self {
        StoredRelation::Flat(r)
    }
}

impl From<SegmentedRelation> for StoredRelation {
    fn from(r: SegmentedRelation) -> Self {
        StoredRelation::Segmented(r)
    }
}

/// Iterator over the rows of a [`StoredRelation`], yielding [`RowRef`]s.
#[derive(Debug, Clone)]
pub enum StoredTuples<'a> {
    /// Rows of a flat relation.
    Flat(Rows<'a>),
    /// Rows of a segmented relation.
    Segmented(SegmentedTuples<'a>),
}

impl<'a> Iterator for StoredTuples<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        match self {
            StoredTuples::Flat(i) => i.next(),
            StoredTuples::Segmented(i) => i.next(),
        }
    }
}

/// A named collection of in-memory relations over which conjunctive queries
/// are evaluated.
///
/// The evaluator is a classic bottom-up hash-join pipeline:
///
/// 1. each body atom is turned into a *binding relation* whose columns are
///    the atom's variables (constant terms become selections, repeated
///    variables become intra-atom equality selections);
/// 2. binding relations are joined left-to-right following a greedy
///    *connected* ordering — the next atom always shares at least one
///    variable with the variables bound so far (when possible), preferring
///    the atom with the smallest estimated join output (from sampled
///    distinct counts over the shared variables);
/// 3. the final binding relation is projected onto the head variables.
///
/// This mirrors the behaviour a relational optimizer would exhibit on the
/// per-template queries generated by the MMQJP Join Processor, which are
/// acyclic and connected by construction.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: HashMap<String, StoredRelation>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register (or replace) a relation under a name. Accepts both flat
    /// [`Relation`]s and [`SegmentedRelation`]s (see [`StoredRelation`]).
    pub fn register(&mut self, name: impl Into<String>, relation: impl Into<StoredRelation>) {
        self.relations.insert(name.into(), relation.into());
    }

    /// Remove a relation, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<StoredRelation> {
        self.relations.remove(name)
    }

    /// Get a relation by name.
    pub fn get(&self, name: &str) -> RelResult<&StoredRelation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation {
                relation: name.to_owned(),
            })
    }

    /// Get a mutable relation by name.
    pub fn get_mut(&mut self, name: &str) -> RelResult<&mut StoredRelation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelError::UnknownRelation {
                relation: name.to_owned(),
            })
    }

    /// `true` if a relation with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all registered relations (unordered).
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Evaluate a conjunctive query, returning a relation whose columns are
    /// the head variables.
    pub fn evaluate(&self, query: &ConjunctiveQuery) -> RelResult<Relation> {
        query
            .validate()
            .map_err(|reason| RelError::MalformedQuery { reason })?;

        // Build per-atom binding relations.
        let mut bindings: Vec<Relation> = Vec::with_capacity(query.body.len());
        for atom in &query.body {
            bindings.push(self.atom_bindings(atom)?);
        }

        // Greedy connected join ordering over atom indices.
        let order = plan_order(query, &bindings);

        let mut current = bindings[order[0]].clone();
        for &i in order.iter().skip(1) {
            current = join_bindings(&current, &bindings[i])?;
            if current.is_empty() {
                // Short-circuit: the result is empty no matter what the
                // remaining atoms contribute. Return an empty relation with
                // the head schema (the partial join may not even contain all
                // head variables yet).
                return Ok(Relation::new(Schema::new(query.head.clone())));
            }
        }

        // Project onto the head.
        let head_refs: Vec<&str> = query.head.iter().map(|s| s.as_str()).collect();
        ops::project(&current, &head_refs)
    }

    /// Evaluate a query and return only the number of result tuples. Saves
    /// the final projection allocation when callers only need counts.
    pub fn evaluate_count(&self, query: &ConjunctiveQuery) -> RelResult<usize> {
        Ok(self.evaluate(query)?.len())
    }

    /// Turn an atom into a relation whose columns are the atom's variables.
    fn atom_bindings(&self, atom: &Atom) -> RelResult<Relation> {
        let rel = self.get(&atom.relation)?;
        if atom.terms.len() != rel.schema().arity() {
            return Err(RelError::MalformedQuery {
                reason: format!(
                    "atom {} has arity {}, relation has arity {}",
                    atom,
                    atom.terms.len(),
                    rel.schema().arity()
                ),
            });
        }

        // Determine output columns: first occurrence position of each variable.
        let vars = atom.variables();
        let var_first_pos: Vec<(String, usize)> = vars
            .iter()
            .map(|v| {
                let pos = atom
                    .terms
                    .iter()
                    .position(|t| t.as_var() == Some(*v))
                    .expect("variable came from this atom"); // lint:allow position found above
                ((*v).to_owned(), pos)
            })
            .collect();

        let schema = Schema::new(var_first_pos.iter().map(|(v, _)| v.clone()));
        let mut out = Relation::new(schema);

        'tuples: for t in rel.iter() {
            // Constant selections and repeated-variable equality.
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if &t[pos] != c {
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => {
                        // Check equality with the first occurrence of v.
                        let first = var_first_pos
                            .iter()
                            .find(|(name, _)| name == v)
                            .map(|(_, p)| *p)
                            .expect("variable indexed"); // lint:allow var_first_pos covers every variable
                        if t[first] != t[pos] {
                            continue 'tuples;
                        }
                    }
                }
            }
            out.push_values(
                var_first_pos
                    .iter()
                    .map(|(_, pos)| t[*pos].clone())
                    .collect(),
            )?;
        }
        Ok(out)
    }
}

/// Pick a join order: start from the smallest binding relation, then always
/// take a connected atom (sharing a variable with what is already joined)
/// with the smallest estimated *growth ratio* — `|atom| /
/// distinct(shared-variable tuple)`, the factor it multiplies the
/// intermediate by — tie-breaking on more shared variables, fewer tuples
/// and body position. The divisor is a sampled distinct estimate of the
/// shared variables *combined* (per-sample hashes mixed into one tuple
/// hash), not a product of per-column estimates: a product assumes
/// independence and overstates the selectivity of correlated columns.
/// Ratios are compared exactly by cross-multiplying in 128 bits, never by
/// dividing: absolute output estimates compound the error of every previous
/// step and collapse to ties under integer division. Falls back to a cross
/// product only when the query is disconnected.
///
/// The same heuristic as the compiled executor's planner
/// ([`plan`](crate::plan)), but nothing depends on the two agreeing: a
/// compiled plan memoizes its order across executions, and the equivalence
/// proptests compare results as bags.
fn plan_order(query: &ConjunctiveQuery, bindings: &[Relation]) -> Vec<usize> {
    let n = query.body.len();
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // Start with the smallest relation.
    remaining.sort_by_key(|&i| bindings[i].len());
    let first = remaining.remove(0);
    let mut order = vec![first];
    if n == 1 {
        return order;
    }
    let mut bound_vars: Vec<String> = query.body[first]
        .variables()
        .into_iter()
        .map(|s| s.to_owned())
        .collect();

    // Sampled per-column hashes, one flattened column-major matrix per
    // binding relation (column k of a binding relation is the atom's k-th
    // distinct variable in first-occurrence order). The greedy estimates
    // the distinct count of any bound-variable *combination* from them.
    let samples: Vec<Vec<u64>> = bindings
        .iter()
        .map(|b| {
            let nrows = b.len();
            let sc = nrows.min(DISTINCT_SAMPLE);
            let mut s = Vec::with_capacity(sc * b.schema().arity());
            if let Some(step) = nrows.checked_div(sc) {
                for c in 0..b.schema().arity() {
                    let col = b.col_values(c);
                    for j in 0..sc {
                        s.push(hash_value(&col[j * step]));
                    }
                }
            }
            s
        })
        .collect();

    while !remaining.is_empty() {
        // (pos in remaining, connected, size, combined distinct, shared)
        let mut best: Option<(usize, bool, u64, u64, usize)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let nrows = bindings[i].len();
            let sc = nrows.min(DISTINCT_SAMPLE);
            let mut combo = [0u64; DISTINCT_SAMPLE];
            let mut shared = 0usize;
            for (k, v) in query.body[i].variables().iter().enumerate() {
                if bound_vars.iter().any(|b| b == *v) {
                    shared += 1;
                    let hs = &samples[i][k * sc..(k + 1) * sc];
                    for (c, &h) in combo[..sc].iter_mut().zip(hs) {
                        *c = mix_hash(*c, h);
                    }
                }
            }
            // Distinct estimate of the *combined* shared-variable tuple.
            let sel = if shared > 0 && sc > 0 {
                scaled_distinct(&mut combo[..sc], nrows).max(1)
            } else {
                1
            };
            let candidate = (pos, shared > 0, nrows as u64, sel, shared);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    // Prefer connected over cross products, then the
                    // smallest growth ratio size/sel (cross-multiplied),
                    // then more shared variables, then fewer tuples, then
                    // earlier body position.
                    let (c_ratio, b_ratio) = (
                        u128::from(candidate.2) * u128::from(b.3),
                        u128::from(b.2) * u128::from(candidate.3),
                    );
                    let better = if candidate.1 != b.1 {
                        candidate.1
                    } else if c_ratio != b_ratio {
                        c_ratio < b_ratio
                    } else if candidate.4 != b.4 {
                        candidate.4 > b.4
                    } else if candidate.2 != b.2 {
                        candidate.2 < b.2
                    } else {
                        false
                    };
                    if better {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        let (pos, ..) = best.expect("remaining is non-empty"); // lint:allow loop ran over non-empty remaining
        let i = remaining.remove(pos);
        for v in query.body[i].variables() {
            if !bound_vars.iter().any(|b| b == v) {
                bound_vars.push(v.to_owned());
            }
        }
        order.push(i);
    }
    order
}

/// Join two binding relations on their shared columns, producing a binding
/// relation over the union of their columns.
fn join_bindings(left: &Relation, right: &Relation) -> RelResult<Relation> {
    let shared: Vec<&str> = left
        .schema()
        .columns()
        .iter()
        .filter(|c| right.schema().contains(c))
        .map(|s| s.as_str())
        .collect();
    if shared.is_empty() {
        // Disconnected query: cross product. The right columns do not collide
        // with the left because the schemas share no names.
        return ops::cross_product(left, right);
    }
    let joined = ops::hash_join(left, right, &shared, &shared)?;
    // Keep left columns plus right-only columns (which kept their names).
    let mut keep: Vec<&str> = left.schema().columns().iter().map(|s| s.as_str()).collect();
    for c in right.schema().columns() {
        if !left.schema().contains(c) {
            keep.push(c.as_str());
        }
    }
    ops::project(&joined, &keep)
}

/// Convenience: build a relation from column names and rows of values.
pub fn relation_from_rows<const N: usize>(columns: [&str; N], rows: Vec<[Value; N]>) -> Relation {
    let mut r = Relation::new(Schema::new(columns));
    for row in rows {
        r.push_values(row.to_vec())
            .expect("arity matches by construction"); // lint:allow arity fixed by const generic
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_db() -> Database {
        let mut db = Database::new();
        let edge = relation_from_rows(
            ["src", "dst"],
            vec![
                [Value::int(1), Value::int(2)],
                [Value::int(2), Value::int(3)],
                [Value::int(3), Value::int(4)],
                [Value::int(2), Value::int(4)],
            ],
        );
        db.register("edge", edge);
        let label = relation_from_rows(
            ["node", "color"],
            vec![
                [Value::int(1), Value::str("red")],
                [Value::int(2), Value::str("blue")],
                [Value::int(3), Value::str("red")],
                [Value::int(4), Value::str("blue")],
            ],
        );
        db.register("label", label);
        db
    }

    #[test]
    fn register_get_remove() {
        let mut db = edges_db();
        assert!(db.contains("edge"));
        assert_eq!(db.get("edge").unwrap().len(), 4);
        assert!(db.get("missing").is_err());
        db.get_mut("edge").unwrap().clear();
        assert_eq!(db.get("edge").unwrap().len(), 0);
        assert!(db.remove("edge").is_some());
        assert!(!db.contains("edge"));
        assert!(db.relation_names().contains(&"label"));
    }

    #[test]
    fn two_hop_paths() {
        let db = edges_db();
        // path2(X, Z) :- edge(X, Y), edge(Y, Z)
        let q = ConjunctiveQuery::new(["X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]));
        let r = db.evaluate(&q).unwrap().sorted();
        // 1->2->3, 1->2->4, 2->3->4
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), vec![Value::int(1), Value::int(3)]);
        assert_eq!(db.evaluate_count(&q).unwrap(), 3);
    }

    #[test]
    fn constants_filter() {
        let db = edges_db();
        // from2(Z) :- edge(2, Z)
        let q = ConjunctiveQuery::new(["Z"])
            .atom(Atom::new("edge", [Term::constant(2i64), Term::var("Z")]));
        let r = db.evaluate(&q).unwrap().sorted();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0)[0], Value::int(3));
        assert_eq!(r.row(1)[0], Value::int(4));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = Database::new();
        db.register(
            "pair",
            relation_from_rows(
                ["a", "b"],
                vec![
                    [Value::int(1), Value::int(1)],
                    [Value::int(1), Value::int(2)],
                    [Value::int(3), Value::int(3)],
                ],
            ),
        );
        // diag(X) :- pair(X, X)
        let q =
            ConjunctiveQuery::new(["X"]).atom(Atom::new("pair", [Term::var("X"), Term::var("X")]));
        let r = db.evaluate(&q).unwrap().sorted();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0)[0], Value::int(1));
        assert_eq!(r.row(1)[0], Value::int(3));
    }

    #[test]
    fn three_way_join_with_labels() {
        let db = edges_db();
        // same_color_edge(X, Y) :- edge(X, Y), label(X, C), label(Y, C)
        let q = ConjunctiveQuery::new(["X", "Y"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C")]))
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]));
        let r = db.evaluate(&q).unwrap().sorted();
        // edges between same-colored nodes: 2->4 (blue,blue)
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::int(2), Value::int(4)]);
    }

    #[test]
    fn disconnected_query_is_cross_product() {
        let db = edges_db();
        let q = ConjunctiveQuery::new(["X", "N"])
            .atom(Atom::new("edge", [Term::var("X"), Term::constant(2i64)]))
            .atom(Atom::new(
                "label",
                [Term::var("N"), Term::constant(Value::str("red"))],
            ));
        let r = db.evaluate(&q).unwrap();
        // one edge into 2 (1->2), two red nodes => 2 result tuples
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn malformed_queries_rejected() {
        let db = edges_db();
        // unknown relation
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("nope", [Term::var("X")]));
        assert!(matches!(
            db.evaluate(&q).unwrap_err(),
            RelError::UnknownRelation { .. }
        ));
        // arity mismatch
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("edge", [Term::var("X")]));
        assert!(matches!(
            db.evaluate(&q).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
        // unbound head
        let q =
            ConjunctiveQuery::new(["Q"]).atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]));
        assert!(matches!(
            db.evaluate(&q).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
        // empty body
        let q = ConjunctiveQuery::new(["X"]);
        assert!(matches!(
            db.evaluate(&q).unwrap_err(),
            RelError::MalformedQuery { .. }
        ));
    }

    #[test]
    fn empty_relation_short_circuits() {
        let mut db = edges_db();
        db.register("empty", Relation::new(Schema::new(["x", "y"])));
        let q = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("empty", [Term::var("Y"), Term::var("Z")]));
        let r = db.evaluate(&q).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_semantics_are_bag() {
        // Two identical edge tuples produce two identical outputs (bag
        // semantics, like SQL without DISTINCT).
        let mut db = Database::new();
        db.register(
            "r",
            relation_from_rows(["a"], vec![[Value::int(1)], [Value::int(1)]]),
        );
        let q = ConjunctiveQuery::new(["X"]).atom(Atom::new("r", [Term::var("X")]));
        assert_eq!(db.evaluate(&q).unwrap().len(), 2);
        assert_eq!(db.evaluate(&q).unwrap().distinct().len(), 1);
    }

    #[test]
    fn segmented_relations_evaluate_like_flat_ones() {
        let db = edges_db();
        let q = ConjunctiveQuery::new(["X", "Z"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("edge", [Term::var("Y"), Term::var("Z")]));
        let flat = db.evaluate(&q).unwrap().sorted();

        // Re-register the edge relation split across three buckets.
        let mut seg = SegmentedRelation::new(Schema::new(["src", "dst"]));
        for (i, t) in db.get("edge").unwrap().iter().enumerate() {
            seg.push((i % 3) as u64, t.to_vec()).unwrap();
        }
        let mut db2 = edges_db();
        db2.register("edge", seg);
        assert_eq!(db2.get("edge").unwrap().len(), 4);
        assert!(db2
            .remove("label")
            .and_then(StoredRelation::into_flat)
            .is_some());
        db2.register(
            "label",
            db.get("label").unwrap().clone().into_flat().unwrap(),
        );
        let segmented = db2.evaluate(&q).unwrap().sorted();
        assert_eq!(flat, segmented);
        // Variant accessors refuse the wrong layout.
        assert!(db2.remove("edge").unwrap().into_flat().is_none());
    }

    #[test]
    fn head_order_defines_output_columns() {
        let db = edges_db();
        let q = ConjunctiveQuery::new(["Z", "X"])
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Z")]));
        let r = db.evaluate(&q).unwrap();
        assert_eq!(r.schema().columns(), &["Z", "X"]);
    }

    #[test]
    fn plan_order_is_connected_when_possible() {
        let db = edges_db();
        let q = ConjunctiveQuery::new(["X", "C"])
            .atom(Atom::new("label", [Term::var("Y"), Term::var("C")]))
            .atom(Atom::new("edge", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("label", [Term::var("X"), Term::var("C2")]));
        // Just ensure evaluation succeeds and is correct regardless of the
        // declared atom order.
        let r = db.evaluate(&q).unwrap();
        assert!(!r.is_empty());
        assert!(q.is_connected());
    }
}
