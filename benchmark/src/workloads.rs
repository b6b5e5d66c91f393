//! The frozen workload table. Every constant a result depends on is here (or
//! in `gen.rs`); README.md repeats them with the reasons.

use mmqjp_core::ProcessingMode;

/// Document schema and value distributions of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Schema {
    /// Flat five-field feed items. `channel_url`, `title` and `description`
    /// draw from Zipf vocabularies; `item_url` and `timestamp` are unique.
    Feed {
        channels: usize,
        titles: usize,
        descriptions: usize,
        value_skew: f64,
        /// Padding appended to every description.
        description_bytes: usize,
    },
    /// The paper's complex schema: root, `branching` intermediates,
    /// `branching` leaves under each; leaf values uniform over one shared
    /// vocabulary so that joins between different leaves fire.
    Tree {
        branching: usize,
        values: usize,
        max_value_joins: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub schema: Schema,
    /// Live subscriptions (registered during set-up).
    pub queries: usize,
    /// Window lengths in documents, assigned to subscriptions round-robin.
    pub windows: &'static [u64],
    /// Documents per engine batch.
    pub batch: usize,
    /// Batches per submission (one engine call).
    pub batches_per_submission: usize,
    pub mode: ProcessingMode,
    /// Run through `ShardedEngine` with one front worker and one shard.
    pub sharded: bool,
    /// Unregister the oldest and register a new subscription before every
    /// submission.
    pub churn: bool,
    /// Documents the gate's Sequential-mode reference engine replays: as
    /// many as it gets through in about three seconds.
    pub sequential_docs: usize,
    /// Documents of an episode after its warm-up: about a second's worth.
    /// A run repeats whole episodes, each on a fresh engine, so every number
    /// is measured on the same stream however fast the engine is.
    pub measured_docs: usize,
}

impl Workload {
    pub fn docs_per_submission(&self) -> usize {
        self.batch * self.batches_per_submission
    }

    /// Submissions executed but excluded from every metric: until the
    /// largest window has filled twice.
    pub fn warmup_docs(&self) -> usize {
        2 * self.windows.iter().copied().max().unwrap_or(0) as usize
    }
}

/// Documents the gate's second reference, a single engine in `Mmqjp` mode,
/// replays on the workloads that are not themselves that configuration.
pub const GATE_DOCS: usize = 2_000;

const FEED_LARGE_VOCABULARY: Schema = Schema::Feed {
    channels: 50_000,
    titles: 50_000,
    descriptions: 100_000,
    value_skew: 0.4,
    description_bytes: 800,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "feed_selective",
        schema: FEED_LARGE_VOCABULARY,
        queries: 1_000,
        windows: &[1_000],
        batch: 50,
        batches_per_submission: 1,
        mode: ProcessingMode::Mmqjp,
        sharded: false,
        churn: false,
        sequential_docs: 1_000,
        measured_docs: 18_000,
    },
    Workload {
        name: "feed_pipelined",
        schema: FEED_LARGE_VOCABULARY,
        queries: 1_000,
        windows: &[1_000],
        batch: 50,
        batches_per_submission: 2,
        mode: ProcessingMode::Mmqjp,
        sharded: true,
        churn: false,
        sequential_docs: 1_000,
        measured_docs: 10_000,
    },
    Workload {
        name: "feed_bigdoc",
        schema: Schema::Feed {
            channels: 50_000,
            titles: 50_000,
            descriptions: 20_000,
            value_skew: 0.4,
            description_bytes: 11_700,
        },
        queries: 50,
        windows: &[1_000],
        batch: 20,
        batches_per_submission: 1,
        mode: ProcessingMode::Mmqjp,
        sharded: false,
        churn: false,
        sequential_docs: 2_000,
        measured_docs: 10_000,
    },
    Workload {
        name: "tree_joinheavy",
        schema: Schema::Tree {
            branching: 4,
            values: 100,
            max_value_joins: 4,
        },
        queries: 200,
        windows: &[50],
        batch: 5,
        batches_per_submission: 1,
        mode: ProcessingMode::Mmqjp,
        sharded: false,
        churn: false,
        sequential_docs: 700,
        measured_docs: 600,
    },
    Workload {
        name: "feed_churn",
        schema: Schema::Feed {
            channels: 1_000,
            titles: 1_000,
            descriptions: 2_000,
            value_skew: 0.4,
            description_bytes: 0,
        },
        queries: 500,
        windows: &[40, 120, 400],
        batch: 1,
        batches_per_submission: 1,
        mode: ProcessingMode::MmqjpViewMat,
        sharded: false,
        churn: true,
        sequential_docs: 200,
        measured_docs: 10_000,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        for w in WORKLOADS {
            let per = w.docs_per_submission();
            assert_eq!(w.measured_docs % per, 0, "{}", w.name);
            assert_eq!(GATE_DOCS % per, 0, "{}", w.name);
            assert_eq!(w.sequential_docs % per, 0, "{}", w.name);
            assert_eq!(w.warmup_docs() % per, 0, "{}", w.name);
            // An episode passes the gate's checkpoints.
            let episode = w.warmup_docs() + w.measured_docs;
            assert!(episode >= w.sequential_docs, "{}", w.name);
            assert!(episode >= GATE_DOCS || (!w.sharded && w.mode == ProcessingMode::Mmqjp));
            // Lifecycle operations go to the single engine only (the sharded
            // engine's `unregister_query` is outside the frozen API).
            assert!(!(w.churn && w.sharded), "{}", w.name);
        }
    }
}
