//! # mmqjp-relational
//!
//! A compact in-memory relational engine that serves as the **Join Processor
//! substrate** of the MMQJP reproduction (Hong et al., SIGMOD 2007).
//!
//! The original paper translated each per-template conjunctive query into SQL
//! and executed it on Microsoft SQL Server 2005. This crate replaces that
//! external dependency with an embedded engine providing exactly the
//! machinery the Join Processor needs:
//!
//! * [`Value`], [`Tuple`], [`Schema`], [`Relation`] — the data model.
//!   Relations store their values **column-major** (one contiguous `Vec` per
//!   column), with borrowed [`RowRef`] views for row-oriented access. String
//!   values and variable names are interned through [`StringInterner`] so
//!   equality joins compare fixed-width symbols.
//! * [`ops`] — relational algebra operators: selection, projection, hash
//!   equi-join, natural join, semi-join, anti-join, union, difference,
//!   cross product, distinct.
//! * [`HashIndex`] — multi-column hash indexes over relations.
//! * [`SegmentedRelation`] — bucketed relation storage with stable
//!   [`RowHandle`]s, used for windowed join state whose expiry must be a
//!   whole-bucket drop rather than a retain-and-rebuild.
//! * [`ConjunctiveQuery`] / [`Database`] — a Datalog-style conjunctive query
//!   representation with a greedy connected-join planner and a hash-join
//!   executor. This is what evaluates each query template's `CQ_T`. The
//!   database stores [`StoredRelation`]s, so flat and segmented relations
//!   evaluate through the same code path.
//! * [`PhysicalPlan`] — the compiled form of a conjunctive query: column
//!   names interned to dense [`ColId`]s, filters and join keys resolved to
//!   positions at compile time, and a late-materialization executor that
//!   joins row ids over borrowed inputs (flat or segmented via
//!   [`ChunkedRows`]) with pooled [`ExecScratch`] buffers, shares the join
//!   tables of batch-shared inputs across plans and materializes each output
//!   tuple exactly once. This is what the MMQJP engine executes per batch;
//!   the interpreting [`Database::evaluate`] remains as the test oracle
//!   (equal as bags — row order is the executor's own).
//! * [`FxHasher`] — a vendored Fx-style hasher ([`FxHashMap`],
//!   [`FxHashSet`]) for the join-key hashes and index segments.
//!
//! The engine is deliberately not a general DBMS: no transactions, no
//! persistence, no SQL parser. It is, however, a complete and correct
//! evaluator for conjunctive queries over in-memory relations, which is all
//! the MMQJP Join Processor requires — and it preserves the paper's
//! performance structure (set-oriented, shared evaluation per template versus
//! per-query loops).
//!
//! # Example
//!
//! ```
//! use mmqjp_relational::{Database, Relation, Schema, Value, ConjunctiveQuery, Atom, Term};
//!
//! let mut db = Database::new();
//! let mut parent = Relation::new(Schema::new(["parent", "child"]));
//! parent.push_values(vec![Value::str("alice"), Value::str("bob")]).unwrap();
//! parent.push_values(vec![Value::str("bob"), Value::str("carol")]).unwrap();
//! db.register("parent", parent);
//!
//! // grandparent(X, Z) :- parent(X, Y), parent(Y, Z)
//! let q = ConjunctiveQuery::new(["X", "Z"])
//!     .atom(Atom::new("parent", [Term::var("X"), Term::var("Y")]))
//!     .atom(Atom::new("parent", [Term::var("Y"), Term::var("Z")]));
//! let result = db.evaluate(&q).unwrap();
//! assert_eq!(result.len(), 1);
//! assert_eq!(result.row(0)[0], Value::str("alice"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hot paths return typed errors instead of panicking; the unit tests are
// free to unwrap.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod conjunctive;
mod database;
mod error;
mod fxhash;
mod index;
mod interner;
pub mod ops;
mod plan;
mod relation;
mod schema;
mod segment;
mod value;
pub mod verify;

pub use conjunctive::{Atom, ConjunctiveQuery, Term};
pub use database::{relation_from_rows, Database, StoredRelation, StoredTuples};
pub use error::{RelError, RelResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::HashIndex;
pub use interner::{InternerIndexError, StringInterner, Symbol};
pub use plan::{ChunkedRows, ColId, ExecScratch, PhysicalPlan, PlanInput};
pub use relation::{Relation, RowRef, Rows, Tuple};
pub use schema::Schema;
pub use segment::{BucketId, RowHandle, SegmentedRelation, SegmentedTuples};
pub use value::Value;
pub use verify::{verify_plan, verify_plan_strict, PlanViolation, SharedKeyRule, VerifyOptions};
