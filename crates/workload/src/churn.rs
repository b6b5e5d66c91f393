//! Churn-heavy windowed workload for sustained-throughput experiments.
//!
//! The paper's RSS experiment (Section 6.3) uses infinite windows, so join
//! state only ever grows; it cannot show whether state *management* keeps up
//! over time. This workload pairs the synthetic RSS stream with finite,
//! heterogeneous time windows and a deliberately small value vocabulary, so
//! that on a long stream
//!
//! * join state continuously enters **and leaves** the windows (churn), and
//! * value joins keep firing throughout (small vocabularies ⇒ repeats).
//!
//! An engine with incremental, bucketed expiry sustains a flat docs/s rate
//! on this stream; one that rebuilds its state indexes (or drops its view
//! cache) on every expiry degrades as the stream grows. The long-stream
//! boundedness and mode-equivalence tests are built on this generator.

use crate::rss::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::Document;
use mmqjp_xscl::{Window, XsclQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the churn workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of feed items in the stream (timestamps advance by 2 per
    /// item, so the stream spans `2 × items` time units).
    pub items: usize,
    /// Number of registered queries, split evenly across `windows`.
    pub num_queries: usize,
    /// The finite time windows assigned to the queries (heterogeneous
    /// windows make per-shard maxima differ under sharding).
    pub windows: Vec<u64>,
    /// Title vocabulary size (small ⇒ heavy cross-item joining).
    pub title_vocabulary: usize,
    /// Description vocabulary size.
    pub description_vocabulary: usize,
    /// Number of channels.
    pub channels: usize,
    /// Zipf parameter for the per-query number of value joins and the
    /// stream's vocabulary popularity.
    pub skew: f64,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            items: 2_000,
            num_queries: 100,
            windows: vec![40, 120, 400],
            title_vocabulary: 40,
            description_vocabulary: 80,
            channels: 25,
            skew: 0.8,
            seed: 77,
        }
    }
}

/// Generator of the churn workload: windowed queries plus a long, join-heavy
/// document stream.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    config: ChurnConfig,
}

impl ChurnWorkload {
    /// Create a workload for the given configuration.
    pub fn new(config: ChurnConfig) -> Self {
        assert!(!config.windows.is_empty(), "need at least one window");
        ChurnWorkload { config }
    }

    /// The configuration this workload was built with.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Generate the windowed query set: exactly `num_queries` random RSS
    /// join queries, split as evenly as possible across the configured
    /// windows (earlier windows receive the remainder).
    pub fn queries(&self) -> Vec<XsclQuery> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let num_windows = self.config.windows.len();
        let per_window = self.config.num_queries / num_windows;
        let remainder = self.config.num_queries % num_windows;
        let mut queries = Vec::with_capacity(self.config.num_queries);
        for (i, &window) in self.config.windows.iter().enumerate() {
            let generator =
                RssQueryGenerator::new(self.config.skew).with_window(Window::Time(window));
            let count = per_window + usize::from(i < remainder);
            queries.extend(generator.generate_queries(count, &mut rng));
        }
        queries
    }

    /// Generate the document stream (strictly increasing timestamps).
    pub fn documents(&self) -> Vec<Document> {
        RssStreamGenerator::new(RssStreamConfig {
            items: self.config.items,
            channels: self.config.channels,
            title_vocabulary: self.config.title_vocabulary,
            description_vocabulary: self.config.description_vocabulary,
            skew: self.config.skew,
            seed: self.config.seed,
        })
        .documents()
    }

    /// The largest configured window.
    pub fn max_window(&self) -> u64 {
        // lint:allow every constructor populates at least one window
        *self.config.windows.iter().max().expect("non-empty windows")
    }
}

impl Default for ChurnWorkload {
    fn default() -> Self {
        ChurnWorkload::new(ChurnConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_core::{EngineConfig, MmqjpEngine};

    #[test]
    fn queries_cover_every_window_and_are_deterministic() {
        let w = ChurnWorkload::default();
        let queries = w.queries();
        assert_eq!(queries.len(), 100); // 34 + 33 + 33 across the 3 windows
        let windows: std::collections::HashSet<_> =
            queries.iter().filter_map(|q| q.window()).collect();
        assert_eq!(
            windows,
            [40, 120, 400].map(Window::Time).into_iter().collect()
        );
        let again = ChurnWorkload::default().queries();
        assert_eq!(queries.len(), again.len());
        assert_eq!(w.max_window(), 400);
    }

    #[test]
    fn stream_is_long_and_join_heavy() {
        let w = ChurnWorkload::new(ChurnConfig {
            items: 500,
            ..ChurnConfig::default()
        });
        let docs = w.documents();
        assert_eq!(docs.len(), 500);
        assert_eq!(w.config().items, 500);
    }

    #[test]
    fn windowed_ingestion_produces_matches_and_churn() {
        let w = ChurnWorkload::new(ChurnConfig {
            items: 300,
            num_queries: 60,
            ..ChurnConfig::default()
        });
        let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
        for q in w.queries() {
            engine.register_query(q).unwrap();
        }
        let mut matches = 0;
        for d in w.documents() {
            matches += engine.process_document(d).unwrap().len();
        }
        assert!(matches > 0, "small vocabularies must produce joins");
        let stats = engine.stats();
        assert!(
            stats.state_rows_evicted > 0,
            "a 600-time-unit stream must churn through 40..400 windows"
        );
    }
}
