//! # mmqjp-core
//!
//! **Massively Multi-Query Join Processing** (MMQJP): the core contribution
//! of Hong et al., *"Massively Multi-Query Join Processing in
//! Publish/Subscribe Systems"*, SIGMOD 2007, reproduced as an embeddable Rust
//! library.
//!
//! The engine accepts a large number of continuous XSCL queries — each an
//! inter-document join of two XPath query blocks under a `FOLLOWED BY` or
//! `JOIN` window operator — and processes a stream of XML documents against
//! all of them using the paper's two-stage architecture:
//!
//! 1. **Stage 1 (XPath Evaluator, `mmqjp-xpath`)** evaluates the tree-pattern
//!    components of all registered queries once per document and emits
//!    witnesses, stored in the binary witness relations `RbinW`, `RdocW`,
//!    `RdocTSW` (current document) and `Rbin`, `Rdoc`, `RdocTS` (join state).
//! 2. **Stage 2 (Join Processor, this crate)** evaluates all value-join
//!    components *per query template* rather than per query: queries with
//!    isomorphic reduced join graphs share one relational conjunctive query
//!    `CQ_T`, evaluated set-at-a-time over the witness relations and the
//!    template's `RT` relation (Algorithms 1–3 of the paper). The optional
//!    view-materialization mode (Algorithms 4–5) additionally shares the
//!    value-join probing work *across* templates through the `RL`/`RR`
//!    intermediates and a string-keyed view cache.
//!
//! A naive **Sequential** mode (one conjunctive query per registered query
//! per document) is provided as the paper's baseline.
//!
//! The two stages are one pipeline, `front → route → join → merge`
//! (the crate-private `pipeline` module), and both engines instantiate it:
//! one front ([`front`]) holds all Stage-1 state, matches each document
//! once and routes its witness rows to one shard slot per consumer, where a
//! join stage runs Stage 2, output construction and state maintenance.
//! [`MmqjpEngine`] has one inline slot, served on the caller's thread with
//! nothing to merge. [`ShardedEngine`] has `N` worker-thread slots over a
//! hash-partitioned query population and a canonical merge, whose output
//! equals a single engine's for every shard count and mode; its front runs
//! on the caller's thread too, matching batch `k+1` while the shards join
//! batch `k`. A shard is the only kind of worker thread.
//!
//! # Quick start
//!
//! ```
//! use mmqjp_core::{EngineConfig, MmqjpEngine, ProcessingMode};
//! use mmqjp_xml::rss;
//!
//! let mut engine = MmqjpEngine::new(EngineConfig::default());
//!
//! // Q1 from the paper: a book announcement followed by a blog article by
//! // one of its authors with the same title.
//! let q1 = "S//book->x1[.//author->x2][.//title->x3] \
//!           FOLLOWED BY{x2=x5 AND x3=x6, 100} \
//!           S//blog->x4[.//author->x5][.//title->x6]";
//! engine.register_query_text(q1).unwrap();
//!
//! let d1 = rss::book_announcement(
//!     &["Danny Ayers", "Andrew Watt"],
//!     "Beginning RSS and Atom Programming",
//!     &["Scripting & Programming", "Web Site Development"],
//!     "Wrox", "0764579169");
//! let d2 = rss::blog_article(
//!     "Danny Ayers", "http://dannyayers.com/",
//!     "Beginning RSS and Atom Programming", "Book Announcement", "Just heard ...");
//!
//! assert!(engine.process_document(d1).unwrap().is_empty());
//! let matches = engine.process_document(d2).unwrap();
//! assert_eq!(matches.len(), 1);
//! assert_eq!(engine.stats().results_emitted, 1);
//! # let _ = ProcessingMode::Mmqjp;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hot paths return typed errors instead of panicking; the unit tests are
// free to unwrap.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod audit;
mod config;
mod cqt;
mod engine;
mod error;
mod fault;
pub mod front;
mod output;
mod pipeline;
mod recovery;
mod registry;
mod relations;
mod router;
mod shard;
mod state;
mod stats;
mod view_cache;

pub use audit::AuditViolation;
pub use config::{EngineConfig, FaultPolicy, ProcessingMode};
pub use engine::MmqjpEngine;
pub use error::{CoreError, CoreResult};
pub use fault::{corrupt_bytes, FaultInjector, FaultKind, FaultPlan, QuarantineRecord};
pub use output::{sort_matches, Binding, MatchOutput};
pub use recovery::ReplayLog;
pub use registry::{QueryRuntime, Registry, TemplateRuntime};
pub use relations::{node_key, schemas, IngestScratch, RoutedBatch, WitnessBatch};
pub use router::route_document;
pub use shard::ShardedEngine;
pub use stats::{EngineStats, PhaseTimings};
pub use view_cache::{ViewCache, ViewCacheStats};

// Re-export the identifiers users interact with.
pub use mmqjp_xscl::{QueryId, TemplateId};
