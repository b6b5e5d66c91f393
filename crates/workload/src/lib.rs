//! # mmqjp-workload
//!
//! Synthetic workload generators reproducing the evaluation setup of
//! Hong et al., SIGMOD 2007 (Section 6):
//!
//! * [`zipf`] — the Zipf sampler used to draw the number of value joins per
//!   query (smaller values are more likely as the parameter grows).
//! * [`flat_schema`] — the 2-level ("simple") document schema benchmark of
//!   Section 6.1: two fixed documents with `N` leaves whose corresponding
//!   leaves carry equal string values, plus the random query generator of
//!   Figure 17.
//! * [`complex_schema`] — the 3-level ("complex") schema with branching
//!   factor 4 (16 leaves) and its query generator, which additionally binds
//!   the intermediate nodes along the chosen root-to-leaf paths.
//! * [`rss`] — a synthetic RSS/Atom feed stream standing in for the paper's
//!   private 418-channel / 225 K-item trace (Section 6.3), together with the
//!   corresponding random query generator over the five feed-item fields.
//! * [`churn`] — a churn-heavy *windowed* variant of the RSS workload for
//!   sustained-throughput experiments: finite heterogeneous windows over a
//!   long stream, so join state continuously expires while value joins keep
//!   firing.
//! * [`params`] — the default parameter values of Table 5 and the scale
//!   knobs used by the benchmark harness.
//!
//! All generators are deterministic given a seed, so experiments are
//! repeatable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod complex_schema;
pub mod flat_schema;
pub mod params;
pub mod rss;
pub mod zipf;

pub use churn::{ChurnConfig, ChurnWorkload};
pub use complex_schema::ComplexSchemaWorkload;
pub use flat_schema::FlatSchemaWorkload;
pub use params::{BenchScale, Defaults};
pub use rss::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
pub use zipf::Zipf;
