//! # mmqjp-xpath
//!
//! Stage 1 of the MMQJP two-stage query processing pipeline: the **XPath
//! Evaluator**.
//!
//! The paper (Hong et al., SIGMOD 2007) leverages an existing XML
//! publish/subscribe engine (YFilter) to evaluate the *tree pattern
//! components* of all registered XSCL queries against each incoming XML
//! document, producing *witnesses* — bindings of the queries' variables to
//! document nodes. This crate is that component, built from scratch:
//!
//! * [`TreePattern`] / [`PatternNode`] — variable tree patterns supporting the
//!   XPath fragment used by XML pub/sub systems: child (`/`), descendant
//!   (`//`), wildcard (`*`), attributes (`@attr`) and nested predicates
//!   (`[...]`), with optional variable bindings (`->x1`) on any step.
//! * [`parse_pattern`] — parser for the textual form used in the paper's
//!   examples, e.g. `S//book->x1[.//author->x2][.//title->x3]`.
//! * [`PatternMatcher`] — evaluates one pattern against a document, producing
//!   full witnesses ([`Witness`]) and the factored *edge bindings*
//!   ([`EdgeBinding`]) behind the Join Processor's binary witness relations
//!   (`RbinW` / `Rbin`). It is the reference the engines' Stage 1 is tested
//!   against; the engines read node pairs off the shared automaton's useful
//!   sets with [`PatternMatcher::for_each_path_pair`] instead.
//! * [`PatternIndex`] — the multi-query front end: registers the tree
//!   patterns of many query blocks, de-duplicates structurally identical
//!   patterns (the dominant source of sharing in pub/sub workloads) and
//!   evaluates all of them over a document with a shared per-document tag
//!   index.
//! * [`PatternAutomaton`] — the streaming front end: all registered patterns
//!   compiled into one slot table whose bottom-up satisfiability pass runs
//!   in a **single** traversal of a [`Document`](mmqjp_xml::Document),
//!   driven by open/close events. Output is byte-identical to the
//!   per-pattern matcher, which stays the reference path.
//!
//! The matcher implements the standard two-pass algorithm for tree patterns:
//! a bottom-up *satisfiability* pass (which document nodes can root a match
//! of each pattern subtree) followed by a top-down *usefulness* pass (which
//! of those participate in at least one complete witness). Edge bindings are
//! then enumerated only between useful nodes, so a query block with an
//! unsatisfiable predicate correctly produces no bindings at all.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod automaton;
mod error;
mod index;
mod matcher;
mod parser;
mod pattern;
mod witness;

pub use automaton::{AutomatonRun, AutomatonScratch, PatternAutomaton, SharedPass};
pub use error::{XPathError, XPathResult};
pub use index::{PatternId, PatternIndex, PatternIndexStats};
pub use matcher::{ChainScratch, PatternMatcher};
pub use parser::{parse_path, parse_pattern};
pub use pattern::{Axis, NodeTest, PatternNode, PatternNodeId, TreePattern};
pub use witness::{binding_string_value, EdgeBinding, Witness, WitnessSet};
