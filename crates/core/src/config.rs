//! Engine configuration.

use serde::{Deserialize, Serialize};

/// Which Stage-2 (Join Processor) strategy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ProcessingMode {
    /// The paper's baseline: each registered query's join is evaluated
    /// independently for every incoming document (one conjunctive query per
    /// query, no cross-query sharing).
    Sequential,
    /// Query-template based join processing (Algorithms 1–3): one conjunctive
    /// query per template, evaluated over the base witness relations.
    #[default]
    Mmqjp,
    /// MMQJP with view materialization (Algorithms 4–5): the `RL`/`RR`
    /// intermediates are computed once per document and shared by all
    /// templates, with a string-keyed view cache of `RL` slices reused across
    /// documents.
    MmqjpViewMat,
}

impl ProcessingMode {
    /// Short label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            ProcessingMode::Sequential => "Sequential",
            ProcessingMode::Mmqjp => "MMQJP",
            ProcessingMode::MmqjpViewMat => "MMQJP+VM",
        }
    }
}

/// How the engine responds to worker death and poison input (documents that
/// fail a per-document check, such as out-of-order arrival under
/// [`EngineConfig::enforce_in_order`]).
///
/// The policy only changes *failure* behavior: on a fault-free stream all
/// three policies produce byte-identical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FaultPolicy {
    /// The historical behavior: a poison document fails its whole batch with
    /// a typed error, and a dead shard worker makes every subsequent request
    /// fail with [`ShardUnavailable`](crate::CoreError::ShardUnavailable).
    /// No replay log is kept, so this policy has zero bookkeeping cost.
    #[default]
    FailFast,
    /// Self-healing: a poison document is skipped with a typed
    /// `QuarantineRecord` (the rest of its batch proceeds), and a dead shard
    /// worker is respawned on the spot — surviving subscriptions
    /// are re-registered from the retained query registry and the shard's
    /// in-window join state is replayed from the bounded `ReplayLog`, so
    /// subsequent output is byte-identical to an engine that never failed.
    Quarantine,
    /// Graceful degradation: a dead shard's queries become unavailable (its
    /// matches stop; registrations hashing to it error) while every other
    /// shard keeps serving. The replay log is still maintained, so a manual
    /// `ShardedEngine::respawn_shard` heals the shard later with its full
    /// state. Poison documents fail their batch as under
    /// [`FailFast`](FaultPolicy::FailFast).
    Degrade,
}

/// Configuration of an [`MmqjpEngine`](crate::MmqjpEngine) or a
/// [`ShardedEngine`](crate::ShardedEngine) (which hands every shard a copy).
///
/// Seven fields in three groups: what Stage 2 runs ([`mode`](Self::mode),
/// [`view_cache_capacity`](Self::view_cache_capacity)); what state is kept
/// and for how long ([`retain_documents`](Self::retain_documents),
/// [`doc_retention_cap`](Self::doc_retention_cap)); and how the stream is
/// policed and spread over threads
/// ([`enforce_in_order`](Self::enforce_in_order),
/// [`fault_policy`](Self::fault_policy), [`num_shards`](Self::num_shards)).
///
/// Stage 1 has no knob: every engine runs the one streaming front
/// ([`crate::front`]) on the caller's thread, and the width of the windowed join state's buckets is
/// derived from the registered windows. Window state is always evicted at
/// the live queries' largest horizon (see
/// [`doc_retention_cap`](Self::doc_retention_cap)). Registration-time plan
/// verification and the purge of dead view-cache slices on unregistration
/// are always on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The Stage-2 strategy.
    pub mode: ProcessingMode,
    /// Maximum number of entries in the view cache (string-keyed `RL`
    /// slices). `None` means unbounded, which is what the paper's experiments
    /// assume ("we assume we can afford the space to materialize the entire
    /// RL"). Ignored unless the mode is [`ProcessingMode::MmqjpViewMat`].
    pub view_cache_capacity: Option<usize>,
    /// Keep full documents in a store so matched outputs can embed the
    /// joined subtrees (the default `SELECT *` construction). Disable for
    /// throughput experiments where only match counts matter.
    pub retain_documents: bool,
    /// Cap (in timestamp units) on every query's *horizon*, the one rule
    /// that decides matches and retention. A query's horizon `h` is its time
    /// window capped by this value, this value alone for an INF or COUNT
    /// window, and unbounded with neither. A stored document `d1` and a
    /// batch document `d2` match only when the query's temporal predicate
    /// holds, `|ts2 − ts1| ≤ h` and `ts1 + h ≥ w`, where `w` is the newest
    /// timestamp seen before the batch.
    ///
    /// Join state, timestamps and stored documents are evicted at the live
    /// queries' largest horizon behind the newest timestamp, so a
    /// long-running engine keeps bounded state whenever every horizon is
    /// bounded, and eviction never removes a document the rule accepts:
    /// results do not depend on eviction, bucket width or shard layout. A
    /// cap below a query's window trades that query's older matches for
    /// memory. `None` (the default) leaves the horizons to the windows.
    pub doc_retention_cap: Option<u64>,
    /// Reject documents whose timestamp is older than the newest timestamp
    /// already processed. The paper assumes in-order streams; disabling this
    /// lets out-of-order events in: a late document joins the stored
    /// documents within its query's horizon of both itself and the newest
    /// timestamp seen (see [`doc_retention_cap`](Self::doc_retention_cap)),
    /// the same on every engine and shard layout.
    pub enforce_in_order: bool,
    /// Number of query-population shards used by
    /// [`ShardedEngine`](crate::ShardedEngine): the registered queries are
    /// hash-partitioned across this many independent engine instances, each
    /// running on its own worker thread in the configured [`mode`](Self::mode).
    /// `0` is treated as `1`. Ignored by the single-threaded
    /// [`MmqjpEngine`](crate::MmqjpEngine).
    pub num_shards: usize,
    /// How worker death and poison input are handled (see [`FaultPolicy`]).
    /// The default, [`FaultPolicy::FailFast`], keeps the historical
    /// fail-the-batch / brick-the-shard behavior and costs nothing; the
    /// other policies maintain a retained query registry and a bounded
    /// replay log in [`ShardedEngine`](crate::ShardedEngine) so dead shards
    /// can be rebuilt deterministically.
    pub fault_policy: FaultPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ProcessingMode::Mmqjp,
            view_cache_capacity: None,
            retain_documents: true,
            doc_retention_cap: None,
            enforce_in_order: false,
            num_shards: 1,
            fault_policy: FaultPolicy::FailFast,
        }
    }
}

impl EngineConfig {
    /// Configuration for the paper's `Sequential` baseline.
    pub fn sequential() -> Self {
        EngineConfig {
            mode: ProcessingMode::Sequential,
            ..EngineConfig::default()
        }
    }

    /// Configuration for plain MMQJP (Algorithms 1–3).
    pub fn mmqjp() -> Self {
        EngineConfig {
            mode: ProcessingMode::Mmqjp,
            ..EngineConfig::default()
        }
    }

    /// Configuration for MMQJP with view materialization (Algorithms 4–5).
    pub fn mmqjp_view_mat() -> Self {
        EngineConfig {
            mode: ProcessingMode::MmqjpViewMat,
            ..EngineConfig::default()
        }
    }

    /// Builder-style setter for the view cache capacity.
    pub fn with_view_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.view_cache_capacity = capacity;
        self
    }

    /// Builder-style setter for document retention.
    pub fn with_retain_documents(mut self, retain: bool) -> Self {
        self.retain_documents = retain;
        self
    }

    /// Accepted and ignored: window state is always evicted at the live
    /// queries' largest horizon (see [`doc_retention_cap`](Self::doc_retention_cap)).
    /// Kept so existing callers build.
    pub fn with_prune_state_by_window(self, _prune: bool) -> Self {
        self
    }

    /// Builder-style setter for the document-retention cap.
    pub fn with_doc_retention_cap(mut self, cap: Option<u64>) -> Self {
        self.doc_retention_cap = cap;
        self
    }

    /// Builder-style setter for the shard count used by
    /// [`ShardedEngine`](crate::ShardedEngine).
    pub fn with_num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }

    /// Accepted and ignored: Stage 1 always runs on the calling thread, so
    /// there is no Stage-1 pool to size. Kept so existing callers build.
    pub fn with_front_pool(self, _front_pool: usize) -> Self {
        self
    }

    /// Builder-style setter for the fault policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_mmqjp() {
        let c = EngineConfig::default();
        assert_eq!(c.mode, ProcessingMode::Mmqjp);
        assert_eq!(c.view_cache_capacity, None);
        assert!(c.retain_documents);
        assert_eq!(c.doc_retention_cap, None);
        assert!(!c.enforce_in_order);
        assert_eq!(c.num_shards, 1);
        assert_eq!(c.fault_policy, FaultPolicy::FailFast);
    }

    #[test]
    fn named_constructors() {
        assert_eq!(EngineConfig::sequential().mode, ProcessingMode::Sequential);
        assert_eq!(EngineConfig::mmqjp().mode, ProcessingMode::Mmqjp);
        assert_eq!(
            EngineConfig::mmqjp_view_mat().mode,
            ProcessingMode::MmqjpViewMat
        );
    }

    #[test]
    fn builder_setters() {
        let c = EngineConfig::mmqjp_view_mat()
            .with_view_cache_capacity(Some(128))
            .with_retain_documents(false)
            .with_doc_retention_cap(Some(5000))
            .with_num_shards(4)
            .with_fault_policy(FaultPolicy::Quarantine);
        assert_eq!(c.view_cache_capacity, Some(128));
        assert!(!c.retain_documents);
        assert_eq!(c.doc_retention_cap, Some(5000));
        assert_eq!(c.num_shards, 4);
        assert_eq!(c.fault_policy, FaultPolicy::Quarantine);
        // The front-pool and pruning setters are accepted and change
        // nothing.
        assert_eq!(c.clone().with_front_pool(4), c);
        assert_eq!(c.clone().with_prune_state_by_window(true), c);
        assert_eq!(c.clone().with_prune_state_by_window(false), c);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(ProcessingMode::Sequential.label(), "Sequential");
        assert_eq!(ProcessingMode::Mmqjp.label(), "MMQJP");
        assert_eq!(ProcessingMode::MmqjpViewMat.label(), "MMQJP+VM");
        assert_eq!(ProcessingMode::default(), ProcessingMode::Mmqjp);
    }
}
