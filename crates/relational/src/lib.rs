//! # mmqjp-relational
//!
//! A compact in-memory relational kernel that serves as the **Join Processor
//! substrate** of the MMQJP reproduction (Hong et al., SIGMOD 2007).
//!
//! The original paper translated each per-template conjunctive query into SQL
//! and executed it on Microsoft SQL Server 2005. This crate replaces that
//! external dependency with exactly the machinery the Join Processor runs:
//!
//! * [`Value`], [`Tuple`], [`Schema`], [`Relation`] — the data model.
//!   Relations store their values **column-major** (one contiguous `Vec` per
//!   column), with borrowed [`RowRef`] views for row-oriented access. String
//!   values and variable names are interned through [`StringInterner`] so a
//!   cell is an integer, a symbol or `NULL`, and equality joins compare
//!   fixed-width values.
//! * [`SegmentedRelation`] — bucketed relation storage with stable
//!   [`RowHandle`]s, used for windowed join state whose expiry must be a
//!   whole-bucket drop rather than a retain-and-rebuild.
//! * [`ConjunctiveQuery`] — a Datalog-style conjunctive query; the engine
//!   builds one `CQ_T` per query template.
//! * [`PhysicalPlan`] — the compiled form of a conjunctive query and its
//!   executor: column names interned to dense [`ColId`]s, filters and join
//!   keys resolved to positions at compile time, and a late-materialization
//!   kernel that joins row ids over borrowed inputs (flat or segmented via
//!   [`ChunkedRows`]) with pooled [`ExecScratch`] buffers, shares the join
//!   tables of batch-shared inputs across plans and materializes each output
//!   tuple exactly once. [`verify_plan`] checks a compiled plan against its
//!   query at registration time. The result is a bag; the integration suite
//!   judges it against a nested-loop reference that shares no code with the
//!   kernel.
//! * [`FxHasher`] — a vendored Fx-style hasher ([`FxHashMap`],
//!   [`FxHashSet`]) for the join-key hashes and the engine's indexes.
//!
//! The kernel is deliberately not a general DBMS: no transactions, no
//! persistence, no SQL parser and no relational-algebra operator library.
//! It evaluates conjunctive queries over in-memory relations, which is all
//! the MMQJP Join Processor requires — and it preserves the paper's
//! performance structure (set-oriented, shared evaluation per template versus
//! per-query loops).
//!
//! # Example
//!
//! ```
//! use mmqjp_relational::{
//!     Atom, ConjunctiveQuery, ExecScratch, PhysicalPlan, PlanInput, Relation, Schema,
//!     StringInterner, Term, Value,
//! };
//!
//! let names = StringInterner::new();
//! let [alice, bob, carol] = ["alice", "bob", "carol"].map(|n| Value::Sym(names.intern(n)));
//! let mut parent = Relation::new(Schema::new(["parent", "child"]));
//! parent.push_array([alice, bob]).unwrap();
//! parent.push_array([bob, carol]).unwrap();
//!
//! // grandparent(X, Z) :- parent(X, Y), parent(Y, Z)
//! let q = ConjunctiveQuery::new(["X", "Z"])
//!     .atom(Atom::new("parent", [Term::var("X"), Term::var("Y")]))
//!     .atom(Atom::new("parent", [Term::var("Y"), Term::var("Z")]));
//! let mut plan = PhysicalPlan::compile(&q, |name| (name == "parent").then_some(2)).unwrap();
//! // One input per distinct relation the plan reads, in `relations()` order.
//! assert_eq!(plan.relations(), ["parent"]);
//! let mut scratch = ExecScratch::new();
//! let result = plan
//!     .execute(&[PlanInput::from(&parent)], &mut scratch, false)
//!     .unwrap();
//! assert_eq!(result.len(), 1);
//! assert_eq!(result.row(0), vec![alice, carol]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hot paths return typed errors instead of panicking; the unit tests are
// free to unwrap.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod conjunctive;
mod error;
mod fxhash;
mod interner;
mod plan;
mod relation;
mod schema;
mod segment;
mod value;
pub mod verify;

pub use conjunctive::{Atom, ConjunctiveQuery, Term};
pub use error::{RelError, RelResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{InternerIndexError, StringInterner, Symbol};
pub use plan::{ChunkedRows, ColId, ExecScratch, ExplainStep, PhysicalPlan, PlanInput};
pub use relation::{Relation, RowRef, Rows, Tuple};
pub use schema::Schema;
pub use segment::{BucketId, RowHandle, SegmentedRelation, SegmentedTuples};
pub use value::Value;
pub use verify::{verify_plan, verify_plan_strict, PlanViolation, SharedKeyRule, VerifyOptions};
