//! Datalog-style conjunctive queries.
//!
//! A conjunctive query has a head (the output variables) and a body (a list
//! of relational atoms over variables and constants). The MMQJP Join
//! Processor generates one conjunctive query `CQ_T` per query template
//! (Section 4.4 of the paper) and evaluates it against the witness relations
//! and the template's `RT` relation.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A term in an atom: either a named variable or a constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A query variable; occurrences of the same name must bind equal values.
    Var(String),
    /// A constant that the corresponding column must equal.
    Const(Value),
}

impl Term {
    /// Construct a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Construct a constant term.
    pub fn constant(value: impl Into<Value>) -> Term {
        Term::Const(value.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A single body atom: a relation name applied to a list of terms.
///
/// The atom's arity must match the arity of the relation it refers to; this
/// is checked when the query is compiled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Atom {
    /// Name of the relation: a slot of the compiled
    /// [`PhysicalPlan`](crate::PhysicalPlan) ([`relations`]).
    ///
    /// [`relations`]: crate::PhysicalPlan::relations
    pub relation: String,
    /// Positional terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new<I>(relation: impl Into<String>, terms: I) -> Atom
    where
        I: IntoIterator<Item = Term>,
    {
        Atom {
            relation: relation.into(),
            terms: terms.into_iter().collect(),
        }
    }

    /// The distinct variable names mentioned by this atom, in first-occurrence
    /// order.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}({})", self.relation, terms.join(", "))
    }
}

/// A conjunctive query: `head(v1, ..., vk) :- atom1, atom2, ...`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    /// Output variables, in output-column order.
    pub head: Vec<String>,
    /// Body atoms.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Start a query with the given head variables.
    pub fn new<I, S>(head: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ConjunctiveQuery {
            head: head.into_iter().map(Into::into).collect(),
            body: Vec::new(),
        }
    }

    /// Add a body atom (builder style).
    pub fn atom(mut self, atom: Atom) -> Self {
        self.body.push(atom);
        self
    }

    /// Add a body atom in place.
    pub fn push_atom(&mut self, atom: Atom) {
        self.body.push(atom);
    }

    /// All distinct variables appearing in the body, in first-occurrence
    /// order.
    fn body_variables(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.body {
            for t in &a.terms {
                if let Term::Var(v) = t {
                    if seen.insert(v.as_str()) {
                        out.push(v.as_str());
                    }
                }
            }
        }
        out
    }

    /// Check structural validity: non-empty body and every head variable
    /// bound by some body atom. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.body.is_empty() {
            return Err("query body is empty".to_owned());
        }
        let body_vars: BTreeSet<&str> = self.body_variables().into_iter().collect();
        for h in &self.head {
            if !body_vars.contains(h.as_str()) {
                return Err(format!("head variable `{h}` is not bound in the body"));
            }
        }
        Ok(())
    }

    /// Number of body atoms.
    pub fn num_atoms(&self) -> usize {
        self.body.len()
    }

    /// `true` when the join graph of the body is connected (every atom can be
    /// reached from the first through shared variables). Queries generated by
    /// the MMQJP engine are always connected; disconnected bodies degrade to
    /// cross products.
    pub fn is_connected(&self) -> bool {
        if self.body.len() <= 1 {
            return true;
        }
        let mut reached = vec![false; self.body.len()];
        reached[0] = true;
        let mut vars: BTreeSet<&str> = self.body[0].variables().into_iter().collect();
        loop {
            let mut progress = false;
            for (i, atom) in self.body.iter().enumerate() {
                if reached[i] {
                    continue;
                }
                if atom.variables().iter().any(|v| vars.contains(v)) {
                    reached[i] = true;
                    vars.extend(atom.variables());
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        reached.into_iter().all(|r| r)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body: Vec<String> = self.body.iter().map(|a| a.to_string()).collect();
        write!(f, "out({}) :- {}", self.head.join(", "), body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_constructors() {
        assert_eq!(Term::var("X"), Term::Var("X".to_owned()));
        assert_eq!(Term::constant(3i64), Term::Const(Value::Int(3)));
        assert_eq!(Term::var("X").to_string(), "X");
        assert_eq!(Term::constant(3i64).to_string(), "3");
    }

    #[test]
    fn atom_variables_dedup_in_order() {
        let a = Atom::new(
            "R",
            [
                Term::var("X"),
                Term::var("Y"),
                Term::var("X"),
                Term::constant(1i64),
            ],
        );
        assert_eq!(a.variables(), vec!["X", "Y"]);
        assert_eq!(a.to_string(), "R(X, Y, X, 1)");
    }

    #[test]
    fn query_builder_and_display() {
        let q = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("R", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("S", [Term::var("Y")]));
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.body_variables(), vec!["X", "Y"]);
        assert!(q.to_string().contains(":-"));
        assert!(q.validate().is_ok());
        assert!(q.is_connected());
    }

    #[test]
    fn validate_rejects_unbound_head() {
        let q = ConjunctiveQuery::new(["Z"]).atom(Atom::new("R", [Term::var("X")]));
        assert!(q.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_body() {
        let q = ConjunctiveQuery::new(["X"]);
        assert!(q.validate().is_err());
    }

    #[test]
    fn connectivity_detection() {
        let connected = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("R", [Term::var("X"), Term::var("Y")]))
            .atom(Atom::new("S", [Term::var("Y"), Term::var("Z")]));
        assert!(connected.is_connected());

        let disconnected = ConjunctiveQuery::new(["X"])
            .atom(Atom::new("R", [Term::var("X")]))
            .atom(Atom::new("S", [Term::var("Z")]));
        assert!(!disconnected.is_connected());

        let single = ConjunctiveQuery::new(["X"]).atom(Atom::new("R", [Term::var("X")]));
        assert!(single.is_connected());
    }

    #[test]
    fn push_atom_in_place() {
        let mut q = ConjunctiveQuery::new(["X"]);
        q.push_atom(Atom::new("R", [Term::var("X")]));
        assert_eq!(q.num_atoms(), 1);
    }
}
