//! The relational test oracle: a nested-loop evaluator for conjunctive
//! queries.
//!
//! It judges `PhysicalPlan` execution, so it shares none of the kernel's
//! machinery: no hashing, no join order, no index, no row ids. It walks the
//! body atoms in written order and extends every partial binding with every
//! row that agrees with it, then projects the bindings onto the head. It
//! uses only the data model of `mmqjp-relational`; `cargo run -p xtask --
//! lint` keeps it that way.

use mmqjp_relational::{Atom, ConjunctiveQuery, Relation, RowRef, Term, Value};

/// A partial binding: each bound variable with its value, in binding order.
type Binding<'q> = Vec<(&'q str, Value)>;

/// Evaluate `query` over the named `relations` with bag semantics: one head
/// tuple per satisfying assignment of the body variables, sorted.
///
/// # Panics
/// Panics if an atom names an unknown relation or has the wrong arity, or if
/// a head variable is not bound by the body.
pub fn evaluate(query: &ConjunctiveQuery, relations: &[(&str, &Relation)]) -> Vec<Vec<Value>> {
    let mut bindings: Vec<Binding<'_>> = vec![Vec::new()];
    for atom in &query.body {
        let relation = relation_of(relations, atom);
        let mut extended = Vec::new();
        for binding in &bindings {
            for row in relation.iter() {
                extended.extend(extend(binding, atom, row));
            }
        }
        bindings = extended;
    }
    let mut out: Vec<Vec<Value>> = bindings
        .iter()
        .map(|binding| {
            query
                .head
                .iter()
                .map(|var| lookup(binding, var).expect("head variable bound by the body"))
                .collect()
        })
        .collect();
    out.sort();
    out
}

/// `binding` extended by `row` as an instance of `atom`: `None` unless every
/// constant equals its column and every variable, whether bound by an
/// earlier atom or earlier in this one, equals its column.
fn extend<'q>(binding: &Binding<'q>, atom: &'q Atom, row: RowRef<'_>) -> Option<Binding<'q>> {
    let mut next = binding.clone();
    for (term, &value) in atom.terms.iter().zip(row.iter()) {
        match term {
            Term::Const(c) if *c != value => return None,
            Term::Const(_) => {}
            Term::Var(var) => match lookup(&next, var) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => next.push((var, value)),
            },
        }
    }
    Some(next)
}

fn lookup(binding: &Binding<'_>, var: &str) -> Option<Value> {
    binding
        .iter()
        .find(|(v, _)| *v == var)
        .map(|&(_, value)| value)
}

fn relation_of<'r>(relations: &[(&str, &'r Relation)], atom: &Atom) -> &'r Relation {
    let (_, relation) = relations
        .iter()
        .find(|(name, _)| *name == atom.relation)
        .unwrap_or_else(|| panic!("unknown relation `{}`", atom.relation));
    assert_eq!(
        atom.terms.len(),
        relation.schema().arity(),
        "arity of atom {atom}"
    );
    relation
}

/// The rows of `relation`, sorted: the form [`evaluate`] answers in.
pub fn sorted_rows(relation: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = relation.iter().map(|row| row.to_vec()).collect();
    rows.sort();
    rows
}
