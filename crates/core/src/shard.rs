//! Multi-core processing: the threaded instance of the pipeline
//! `front → route → join → merge`.
//!
//! The paper's Join Processor is a single-threaded component; its evaluation
//! is inherently shareable across queries but not, by itself, across cores.
//! [`MmqjpEngine`] is that pipeline in one thread — the front
//! ([`crate::front`]) feeding the join stage
//! ([`MmqjpEngine::process_witness_batch`]) directly. [`ShardedEngine`]
//! spreads the same two stages over threads, with every stage present.
//!
//! *Front*: the coordinator screens and stamps each batch, and
//! [`EngineConfig::front_pool`] front parties — the caller's thread plus
//! `front_pool − 1` spawned front workers — run the front's per-document
//! matching over contiguous slices of it, each document exactly once. The
//! caller matches the first slice inline against the master Stage-1 state
//! (no snapshot, no channel: the same contract as [`MmqjpEngine`]'s inline
//! front); each spawned worker matches its slice against a snapshot of it.
//! With the default `front_pool = 1` no front thread exists at all.
//! *Route*: a [`WitnessRouter`] delivers the resulting witness rows to
//! precisely the shards whose queries subscribed to them ([`RoutedBatch`];
//! whole documents are shipped only when `retain_documents` needs them for
//! `SELECT *` output construction). *Join*: the *query population* is
//! hash-partitioned across `N` [`MmqjpEngine`] shards on long-lived worker
//! threads — a shard is just a smaller engine with its own registry, join
//! state and view cache, so sharding composes with Sequential, MMQJP and
//! MMQJP+VM alike — and each runs only the join stage. *Merge*: the shards'
//! matches and the front's single-block matches are sorted into canonical
//! order. Under [`process_batches`](ShardedEngine::process_batches) front
//! and join are pipelined with an in-flight depth of one: the caller matches
//! batch `k+1` while the shards join batch `k`.
//!
//! ```text
//!   docs ─▶ front: the caller's thread + front_pool − 1 workers,
//!              │    match once, Stage 1 + single-blocks
//!              │ witness rows
//!              ▼
//!        WitnessRouter  (per-shard subscription filter)
//!           │     │     │
//!           ▼     ▼     ▼
//!        ┌─────┐┌─────┐┌─────┐
//! qid ──▶│shard││shard││shard│  Stage 2 only
//! hash   └──┬──┘└──┬──┘└──┬──┘
//!           ▼     ▼     ▼
//!        canonical merge
//! ```
//!
//! # Determinism
//!
//! The front stage owns id/timestamp assignment and routes each shard
//! exactly the witness rows that shard would have derived by running Stage 1
//! itself (the same integer rows, filtered to the shard's requested edges and
//! deduplicated per shard, their values interned through the shared
//! interner) — so Stage 2 is fed byte-equal inputs. The merged batch output
//! is sorted into the canonical `(query, left_doc, right_doc, bindings)`
//! order (see [`sort_matches`](crate::sort_matches)), which makes the result
//! independent of shard count, front-pool size and thread interleaving: a
//! `ShardedEngine` with any `N` and any front-pool size returns exactly a
//! canonically-sorted single-engine batch.
//!
//! # Thread-safety audit
//!
//! The engine state is `Send` by construction: the registry, witness
//! relations and view cache own their data outright (no `Rc`, no
//! thread-bound interior mutability), and the one shared component — the
//! [`StringInterner`] — is behind `Arc` + `RwLock` and is shared by all
//! shards so symbols stay comparable engine-wide. The `assert_send`
//! bindings at the bottom of this module enforce this at compile time.

use crate::audit::AuditViolation;
use crate::config::{EngineConfig, FaultPolicy};
use crate::engine::MmqjpEngine;
use crate::error::{CoreError, CoreResult};
use crate::fault::{FaultInjector, FaultKind, QuarantineRecord, WorkerFault};
use crate::front::{
    self, DocumentMatches, Edge, MatchScratch, PoisonHandling, RequestedEdge, RequestedEdges,
    SingleBlock, Subscriptions,
};
use crate::output::{sort_matches, MatchOutput};
use crate::recovery::{self, ReplayLog, RetainedQuery};
use crate::relations::{IngestScratch, RoutedBatch, WitnessBatch};
use crate::router::WitnessRouter;
use crate::stats::EngineStats;
use mmqjp_relational::StringInterner;
use mmqjp_xml::{DocId, Document};
use mmqjp_xpath::{PatternId, PatternIndex, TreePattern};
use mmqjp_xscl::{QueryId, SelectClause, XsclQuery};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A request sent to a shard worker thread. Every request carries a reply
/// channel; the worker answers each request exactly once, in order.
enum Request {
    /// Register a query under the given engine-global id. The reply carries
    /// the query's Stage-1 footprint so the front stage can mirror the
    /// subscription.
    Register {
        query: Box<XsclQuery>,
        global: QueryId,
        reply: Sender<CoreResult<Box<ShardFootprint>>>,
    },
    /// Unregister the query registered under the given engine-global id.
    Unregister {
        global: QueryId,
        reply: Sender<CoreResult<()>>,
    },
    /// Run the join stage over the shard's routed witness rows of one batch
    /// (Stage 1 already happened at the front) and return the shard's
    /// matches, with query ids already translated back to engine-global ids.
    Batch {
        routed: Box<RoutedBatch>,
        /// Injected fault to deliver while serving this request (chaos
        /// harness only; always `None` in production).
        fault: Option<WorkerFault>,
        reply: Sender<CoreResult<Vec<MatchOutput>>>,
    },
    /// Snapshot the shard's statistics.
    Stats { reply: Sender<EngineStats> },
    /// Run the shard engine's invariant audit (see [`MmqjpEngine::audit`])
    /// and return its violations.
    Audit { reply: Sender<Vec<AuditViolation>> },
}

/// The Stage-1 footprint of one registered query, reported by its owning
/// shard so the front stage can subscribe the shard to exactly the witness
/// rows the query needs.
struct ShardFootprint {
    /// Join-side patterns with their requested structural edges (one `prev`
    /// and one `cur` entry per registered orientation).
    patterns: Vec<(TreePattern, Vec<Edge>)>,
    /// Single-block subscription (pattern, publish target, select clause) —
    /// answered entirely at the front stage.
    single: Option<(TreePattern, Option<String>, SelectClause)>,
}

/// One shard: the channel into its worker thread and the join handle.
struct Shard {
    sender: Option<Sender<Request>>,
    handle: Option<JoinHandle<()>>,
}

// ------------------------------------------------------------------------
// Front stage
// ------------------------------------------------------------------------

/// A request to a spawned Stage-1 front worker (front parties
/// `1..front_pool`; party 0 is the caller's thread and takes no requests).
enum FrontRequest {
    /// Replace the worker's snapshot of the Stage-1 state. Sent after every
    /// subscription change; churn is rare relative to batches, so a
    /// full-clone broadcast keeps the per-document hot path lock-free.
    Sync {
        index: Box<PatternIndex>,
        requested: RequestedEdges,
        /// The router's shard sets are part of the edge classes the
        /// worker's emission plan is compiled with.
        router: WitnessRouter,
        singles: Vec<FrontSingle>,
        reply: Sender<()>,
    },
    /// Match a run of documents (ids and timestamps already assigned
    /// by the coordinator) and return their Stage-1 output.
    Match {
        docs: Vec<Document>,
        /// Injected fault: panic while serving this request.
        panic: bool,
        reply: Sender<MatchedChunk>,
    },
}

/// A single-block subscription evaluated at the front stage (its matches
/// never involve Stage 2, so they are answered where the document is
/// matched).
#[derive(Debug, Clone)]
struct FrontSingle {
    global: QueryId,
    /// Where [`pattern`](Self::pattern) sits in the master index (and in
    /// every worker's snapshot of it).
    pid: PatternId,
    pattern: TreePattern,
    publish: Option<String>,
    select: SelectClause,
}

/// One front party's Stage-1 output for its slice of a batch.
struct MatchedChunk {
    docs: Vec<MatchedDoc>,
    /// Wall-clock time this party spent on the slice (summed across the
    /// parties into the front's `timings.xpath` — total match work, not
    /// elapsed time).
    elapsed: Duration,
}

/// One stamped document with its Stage-1 output.
struct MatchedDoc {
    doc: Document,
    matches: DocumentMatches,
}

/// One spawned front worker: the channel into its thread and the join
/// handle.
#[derive(Debug)]
struct FrontWorker {
    sender: Option<Sender<FrontRequest>>,
    handle: Option<JoinHandle<()>>,
}

/// Per registered query: what the coordinator must release from the front
/// stage when the query unregisters.
#[derive(Debug)]
struct FrontFootprint {
    shard: usize,
    patterns: Vec<(PatternId, Vec<Edge>)>,
    /// The master-index id of the query's single-block pattern, if it is a
    /// single-block subscription.
    single: Option<PatternId>,
}

/// The document-parallel Stage-1 front stage: the caller's thread is front
/// party 0 and matches against the master state directly; parties
/// `1..front_pool` are spawned workers holding snapshots of it.
#[derive(Debug)]
struct FrontStage {
    /// The spawned workers; `workers[i]` is front party `i + 1`.
    workers: Vec<FrontWorker>,
    /// Master pattern index: the union of every shard's join-side patterns
    /// and every single-block pattern, refcounted per registration exactly
    /// like a `Registry`'s own index.
    index: PatternIndex,
    /// Global requested-edge union per pattern, in first-request order.
    requested: RequestedEdges,
    /// Refcounts behind [`requested`](Self::requested).
    edge_refs: HashMap<PatternId, HashMap<Edge, usize>>,
    router: WitnessRouter,
    /// The caller's matching buffers, kept warm across batches.
    matching: MatchScratch,
    /// Pooled dedup sets of the routing ingest.
    ingest: IngestScratch,
    /// Single-block subscriptions in ascending global-id order (the order a
    /// single engine evaluates them in).
    singles: Vec<FrontSingle>,
    footprints: HashMap<u64, FrontFootprint>,
    /// Front-stage statistics: `documents_processed` / `docs_parsed_once`
    /// (each document exactly once), `stage1_pairs` / `stage1_rows`,
    /// `witnesses_routed`, `pipeline_stalls`,
    /// `results_emitted` (single-block matches) and `timings.xpath` (total
    /// Stage-1 work). All Stage-2 fields stay zero.
    stats: EngineStats,
    /// The global document sequence; ids are assigned here, not in the
    /// shards.
    next_doc_seq: u64,
    /// Newest timestamp seen; in-order enforcement happens here, before
    /// anything is dispatched.
    newest_timestamp: u64,
}

/// The front stage's Stage-1 product for one batch, ready for dispatch.
struct StagedBatch {
    shard_batches: Vec<WitnessBatch>,
    doc_meta: Vec<(DocId, u64)>,
    /// The prepared documents — retained for shipping only when
    /// `retain_documents` is on, empty otherwise.
    docs: Vec<Document>,
    /// The front's single-block matches for this batch.
    singles: Vec<MatchOutput>,
    /// Replay-log entry (all stamped survivors); `None` under
    /// [`FaultPolicy::FailFast`].
    log_entry: Option<Vec<Document>>,
    /// Stream position before this batch was screened.
    position: (u64, u64),
}

/// One batch in flight at the shards.
struct InFlight {
    /// Per-shard reply channels, tagged with the shard index (under
    /// [`FaultPolicy::Degrade`] dead shards are skipped, so the indices are
    /// not necessarily contiguous).
    responses: Vec<(usize, Receiver<CoreResult<Vec<MatchOutput>>>)>,
    singles: Vec<MatchOutput>,
    /// The batch's stamped survivor documents — the replay-log entry,
    /// committed once collection completes (dispatched ⇒ eventually
    /// logged). `None` under [`FaultPolicy::FailFast`] (no log is kept).
    log_entry: Option<Vec<Document>>,
    /// Heal-retry payloads, one slot per shard, populated only under
    /// [`FaultPolicy::Quarantine`]; each slot is taken at most once.
    retry_routed: Option<Vec<Option<RoutedBatch>>>,
    /// The stream position (documents ingested, newest timestamp) *before*
    /// this batch was screened — the position a healed shard must be
    /// rebuilt at, because the replay log does not yet contain this batch.
    position: (u64, u64),
}

/// Snapshot of the coordinator state mutated by Stage 1 of one batch; used
/// by the pipelined `process_batches` to undo a staged batch that the
/// previous batch's failure kept from ever being dispatched.
#[derive(Debug, Clone, Copy)]
struct Stage1Checkpoint {
    seq: u64,
    newest: u64,
    front_stats: EngineStats,
    quarantined: usize,
    docs_quarantined: usize,
}

/// A multi-core MMQJP engine: `N` independent [`MmqjpEngine`] shards over a
/// hash-partitioned query population, merged into a deterministic,
/// canonically-ordered match stream.
///
/// The API mirrors [`MmqjpEngine`]: register queries, then feed documents or
/// batches. [`EngineConfig::num_shards`] selects the shard count and
/// [`EngineConfig::front_pool`] the number of front parties — the caller's
/// thread plus `front_pool − 1` spawned workers — that match each document
/// once and route its witness rows to the subscribing shards. Every other
/// config knob applies to each shard individually.
///
/// ```
/// use mmqjp_core::{EngineConfig, ShardedEngine};
/// use mmqjp_xml::rss;
///
/// // The caller and 1 front worker match once, 4 shards join.
/// let mut engine = ShardedEngine::new(
///     EngineConfig::default().with_num_shards(4).with_front_pool(2));
/// engine.register_query_text(
///     "S//book->x1[.//author->x2][.//title->x3] \
///      FOLLOWED BY{x2=x5 AND x3=x6, 100} \
///      S//blog->x4[.//author->x5][.//title->x6]",
/// ).unwrap();
///
/// let d1 = rss::book_announcement(&["Danny Ayers"], "RSS", &[], "Wrox", "0764579169");
/// let d2 = rss::blog_article("Danny Ayers", "http://...", "RSS", "Books", "...");
/// assert!(engine.process_document(d1).unwrap().is_empty());
/// assert_eq!(engine.process_document(d2).unwrap().len(), 1);
/// assert_eq!(engine.front_stats().docs_parsed_once, 2);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    config: EngineConfig,
    interner: Arc<StringInterner>,
    shards: Vec<Shard>,
    front: FrontStage,
    queries_per_shard: Vec<usize>,
    next_query: u64,
    live_queries: usize,
    /// Batches ingested so far — the index fault plans and quarantine
    /// records are keyed by. Counts every `process_batch` call (and every
    /// batch of a `process_batches` call), empty or not.
    batches_ingested: u64,
    /// Live subscriptions retained for recovery, keyed by global query id
    /// (ascending = original registration order). Empty under
    /// [`FaultPolicy::FailFast`].
    retained: BTreeMap<u64, RetainedQuery>,
    /// Bounded log of stamped survivor batches for replay; empty under
    /// [`FaultPolicy::FailFast`].
    replay_log: ReplayLog,
    /// Cached replay-log retention bound, recomputed on registration churn
    /// so eviction does not rescan every retained query per batch.
    retention: Option<u64>,
    /// Quarantined (poison) documents awaiting
    /// [`take_quarantine_records`](Self::take_quarantine_records).
    quarantine: Vec<QuarantineRecord>,
    /// Deterministic fault injector (chaos harness only); `None` in
    /// production.
    injector: Option<FaultInjector>,
    /// Faults scheduled for the batch currently being ingested, drained as
    /// each worker request is built.
    pending_faults: Vec<FaultKind>,
    /// Coordinator-side counters (`docs_quarantined`, `shards_respawned`,
    /// `faults_injected`, recovery timings) merged into
    /// [`stats`](Self::stats).
    supervisor_stats: EngineStats,
}

impl ShardedEngine {
    /// Create a sharded engine with [`EngineConfig::num_shards`] shards, each
    /// running the configured processing mode on its own worker thread, and
    /// [`EngineConfig::front_pool`] Stage-1 front parties: the caller's
    /// thread plus `front_pool − 1` spawned front workers, so the default
    /// `front_pool = 1` spawns none (a count of `0` is treated as `1` for
    /// both).
    pub fn new(config: EngineConfig) -> Self {
        let num_shards = config.num_shards.max(1);
        let interner = Arc::new(StringInterner::new());
        let shards = (0..num_shards)
            .map(|i| {
                let engine = MmqjpEngine::with_interner(config.clone(), Arc::clone(&interner));
                spawn_shard_worker(i, engine, Vec::new())
                    // lint:allow one-time startup; a failed spawn leaves no engine to return
                    .expect("spawning a shard worker thread succeeds")
            })
            .collect();
        // Front party 0 is the caller's thread: only parties 1.. are spawned.
        let workers = (1..config.front_pool.max(1))
            .map(|party| {
                spawn_front_worker(party, config.retain_documents)
                    // lint:allow one-time startup; a failed spawn leaves no engine to return
                    .expect("spawning a front worker thread succeeds")
            })
            .collect();
        let front = FrontStage {
            workers,
            index: PatternIndex::default(),
            requested: RequestedEdges::new(),
            edge_refs: HashMap::new(),
            router: WitnessRouter::new(),
            matching: MatchScratch::default(),
            ingest: IngestScratch::default(),
            singles: Vec::new(),
            footprints: HashMap::new(),
            stats: EngineStats::default(),
            next_doc_seq: 0,
            newest_timestamp: 0,
        };
        ShardedEngine {
            config,
            interner,
            shards,
            front,
            queries_per_shard: vec![0; num_shards],
            next_query: 0,
            live_queries: 0,
            batches_ingested: 0,
            retained: BTreeMap::new(),
            replay_log: ReplayLog::default(),
            retention: Some(0),
            quarantine: Vec::new(),
            injector: None,
            pending_faults: Vec::new(),
            supervisor_stats: EngineStats::default(),
        }
    }

    /// The engine configuration (shared by every shard).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The number of Stage-1 front parties: the caller's thread plus the
    /// spawned front workers.
    pub fn front_pool(&self) -> usize {
        self.front.workers.len() + 1
    }

    /// Total number of live registered queries across all shards.
    pub fn num_queries(&self) -> usize {
        self.live_queries
    }

    /// Total number of query ids ever assigned (freed ids are tombstoned,
    /// never reused).
    pub fn total_queries_registered(&self) -> usize {
        self.next_query as usize
    }

    /// Number of live queries assigned to each shard, by shard index.
    pub fn queries_per_shard(&self) -> &[usize] {
        &self.queries_per_shard
    }

    /// The string interner shared by all shards.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.interner
    }

    /// The shard a query id is assigned to.
    pub fn shard_of(&self, id: QueryId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// The front stage's witness router: the live subscription table, for
    /// inspection.
    pub fn witness_router(&self) -> &WitnessRouter {
        &self.front.router
    }

    /// Register a query from its textual XSCL form. Returns the query id.
    pub fn register_query_text(&mut self, text: &str) -> CoreResult<QueryId> {
        let query = mmqjp_xscl::parse_query(text)?;
        self.register_query(query)
    }

    /// Register a parsed query on the shard its id hashes to. Returns the
    /// engine-global query id, which matches the id a single [`MmqjpEngine`]
    /// registering the same queries in the same order would assign.
    pub fn register_query(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        let global = QueryId(self.next_query);
        let shard = shard_of(global, self.shards.len());
        // Under a recovering fault policy the coordinator retains each live
        // query (plus its arrival floor) so a dead shard can be rebuilt.
        let retain = (self.config.fault_policy != FaultPolicy::FailFast).then(|| RetainedQuery {
            query: query.clone(),
            floor: self.stream_position().0,
        });
        let (reply, response) = channel();
        self.send(
            shard,
            Request::Register {
                query: Box::new(query),
                global,
                reply,
            },
        )?;
        let footprint = response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })??;
        // Failed registrations consume no id, matching the single engine.
        self.next_query += 1;
        self.live_queries += 1;
        self.queries_per_shard[shard] += 1;
        if let Some(retained) = retain {
            self.retained.insert(global.raw(), retained);
            self.refresh_retention();
        }
        self.front_subscribe(shard, global, *footprint)?;
        Ok(global)
    }

    /// Unregister a query on the shard that owns it. Mirrors
    /// [`MmqjpEngine::unregister_query`]: the owning shard incrementally
    /// releases the query's footprint, and the freed id is never reused.
    /// Errors with [`CoreError::UnknownQuery`] for ids never assigned or
    /// already unregistered, [`CoreError::ShardUnavailable`] if the owning
    /// shard's worker is gone, and [`CoreError::FrontUnavailable`] if a front
    /// worker is.
    pub fn unregister_query(&mut self, id: QueryId) -> CoreResult<()> {
        let shard = shard_of(id, self.shards.len());
        let (reply, response) = channel();
        self.send(shard, Request::Unregister { global: id, reply })?;
        response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })??;
        self.live_queries -= 1;
        self.queries_per_shard[shard] -= 1;
        if self.retained.remove(&id.raw()).is_some() {
            self.refresh_retention();
        }
        self.front_unsubscribe(id)
    }

    /// Process one document, returning its matches in canonical order.
    pub fn process_document(&mut self, doc: Document) -> CoreResult<Vec<MatchOutput>> {
        self.process_batch(vec![doc])
    }

    /// Process a batch of documents in arrival order: the front parties run
    /// Stage 1 once, the shards join their routed witness rows, and the
    /// per-shard matches are merged into the canonical `(query, left_doc,
    /// right_doc, bindings)` order. The batched-evaluation trade-off of
    /// [`MmqjpEngine::process_batch`] applies unchanged.
    pub fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        let batch_index = self.begin_batch();
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let staged = self.front_stage1(docs, batch_index)?;
        let in_flight = self.dispatch_routed(staged)?;
        self.collect_shard_outputs(in_flight, false)
    }

    /// Process a sequence of batches, returning each batch's canonical
    /// matches in order. Equivalent to calling
    /// [`process_batch`](Self::process_batch) per batch — same outputs,
    /// same state — but the stages are pipelined with an in-flight depth of
    /// one: the caller matches batch `k+1`
    /// while the shards join batch `k`. Batches whose Stage-1 output was
    /// ready before the shards finished the previous batch are counted in
    /// [`EngineStats::pipeline_stalls`] (the front waited on Stage 2).
    ///
    /// On error the failing batch's [`CoreError`] is returned and the
    /// outputs of earlier batches in the same call are discarded; the
    /// shards stay drained and synchronized, so processing can continue
    /// with the next batch, exactly like the single engine after a rejected
    /// batch.
    pub fn process_batches(
        &mut self,
        batches: Vec<Vec<Document>>,
    ) -> CoreResult<Vec<Vec<MatchOutput>>> {
        let mut results = Vec::with_capacity(batches.len());
        let mut in_flight: Option<InFlight> = None;
        for batch in batches {
            let batch_index = self.begin_batch();
            if batch.is_empty() {
                // Nothing to match or dispatch; settle the pipeline so the
                // empty result lands at the right position.
                if let Some(prev) = in_flight.take() {
                    results.push(self.collect_shard_outputs(prev, false)?);
                }
                results.push(Vec::new());
                continue;
            }
            // Checkpoint the front's Stage-1 side effects: if collecting the
            // *previous* batch fails below, the staged batch is dropped
            // undispatched and must leave no trace, or the document sequence
            // would drift ahead of what the shards (and a single engine fed
            // the same stream) ever saw.
            let checkpoint = self.checkpoint_stage1();
            let staged = match self.front_stage1(batch, batch_index) {
                Ok(staged) => staged,
                Err(e) => {
                    // Drain the in-flight batch before propagating, keeping
                    // the shards synchronized for the next call.
                    if let Some(prev) = in_flight.take() {
                        let _ = self.collect_shard_outputs(prev, false);
                    }
                    return Err(e);
                }
            };
            if let Some(prev) = in_flight.take() {
                match self.collect_shard_outputs(prev, true) {
                    Ok(outputs) => results.push(outputs),
                    Err(e) => {
                        self.rollback_stage1(checkpoint);
                        return Err(e);
                    }
                }
            }
            in_flight = Some(self.dispatch_routed(staged)?);
        }
        if let Some(prev) = in_flight.take() {
            results.push(self.collect_shard_outputs(prev, false)?);
        }
        Ok(results)
    }

    /// Snapshot every piece of coordinator state `front_stage1` mutates, so
    /// a staged-but-never-dispatched batch can be undone. Worker threads
    /// hold no per-batch state (matching is snapshot-pure), so restoring
    /// these fields is a complete rollback.
    fn checkpoint_stage1(&self) -> Stage1Checkpoint {
        Stage1Checkpoint {
            seq: self.front.next_doc_seq,
            newest: self.front.newest_timestamp,
            front_stats: self.front.stats,
            quarantined: self.quarantine.len(),
            docs_quarantined: self.supervisor_stats.docs_quarantined,
        }
    }

    /// Undo the Stage-1 side effects of a staged batch that was never
    /// dispatched (see [`checkpoint_stage1`](Self::checkpoint_stage1)).
    fn rollback_stage1(&mut self, checkpoint: Stage1Checkpoint) {
        self.front.next_doc_seq = checkpoint.seq;
        self.front.newest_timestamp = checkpoint.newest;
        self.front.stats = checkpoint.front_stats;
        self.quarantine.truncate(checkpoint.quarantined);
        self.supervisor_stats.docs_quarantined = checkpoint.docs_quarantined;
    }

    // ------------------------------------------------------------------
    // Failure model
    // ------------------------------------------------------------------

    /// Install a deterministic fault injector. Each subsequent batch asks
    /// the injector for its scheduled faults ([`FaultKind`]) and delivers
    /// the worker-directed ones (panic a shard, drop a reply, panic a front
    /// worker) while serving that batch. Document-content faults are the
    /// chaos harness's job — it owns the input stream and must mutate the
    /// reference stream identically — so the engine ignores them.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Drain the quarantined-document records accumulated since the last
    /// call (only [`FaultPolicy::Quarantine`] produces any). Each record
    /// pins the poison document by `(batch, doc_index)` of the ingestion
    /// call that rejected it.
    pub fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        std::mem::take(&mut self.quarantine)
    }

    /// The bounded replay log backing shard recovery. Empty under
    /// [`FaultPolicy::FailFast`].
    pub fn replay_log(&self) -> &ReplayLog {
        &self.replay_log
    }

    /// Shards whose worker has died and not (yet) been respawned. Always
    /// empty under [`FaultPolicy::Quarantine`] between calls (dead shards
    /// are healed inline) and under [`FaultPolicy::FailFast`] before the
    /// first failure.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sender.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Respawn shard `shard`'s worker with deterministically rebuilt state:
    /// a fresh engine, the shard's surviving subscriptions re-registered at
    /// their original arrival floors, and the retained document stream
    /// replayed (see [`recovery`]). Requires a recovering fault policy —
    /// under [`FaultPolicy::FailFast`] nothing is retained to rebuild from,
    /// so this errors with [`CoreError::ShardUnavailable`]. Under
    /// [`FaultPolicy::Quarantine`] the supervisor calls this automatically;
    /// under [`FaultPolicy::Degrade`] call it manually to restore a
    /// degraded shard.
    pub fn respawn_shard(&mut self, shard: usize) -> CoreResult<()> {
        let (ingested, newest) = self.stream_position();
        self.respawn_shard_at(shard, ingested, newest)
    }

    /// [`respawn_shard`](Self::respawn_shard) at an explicit stream
    /// position — the supervisor heals mid-collection, when the watermarks
    /// already include the in-flight batch that the replay log does not.
    fn respawn_shard_at(&mut self, shard: usize, ingested: u64, newest: u64) -> CoreResult<()> {
        if self.config.fault_policy == FaultPolicy::FailFast {
            return Err(CoreError::ShardUnavailable { shard });
        }
        let t0 = Instant::now();
        self.retire_shard(shard);
        let queries: Vec<(u64, RetainedQuery)> = self
            .retained
            .iter()
            .filter(|(global, _)| shard_of(QueryId(**global), self.shards.len()) == shard)
            .map(|(global, retained)| (*global, retained.clone()))
            .collect();
        let (engine, globals, _rows) = recovery::rebuild_shard_engine(
            &self.config,
            &self.interner,
            &queries,
            &self.replay_log,
            ingested,
            newest,
        )?;
        let globals = globals.into_iter().map(QueryId).collect();
        self.shards[shard] = spawn_shard_worker(shard, engine, globals)
            .map_err(|_| CoreError::ShardUnavailable { shard })?;
        self.supervisor_stats.shards_respawned += 1;
        self.supervisor_stats.timings.recovery += t0.elapsed();
        Ok(())
    }

    /// Retire a dead or desynchronized shard worker: close its request
    /// channel (ending its loop if it is still alive) and reap the thread.
    fn retire_shard(&mut self, shard: usize) {
        self.shards[shard].sender = None;
        if let Some(handle) = self.shards[shard].handle.take() {
            let _ = handle.join();
        }
    }

    /// Heal a shard that died while serving the in-flight batch: respawn it
    /// at the pre-batch stream position (the replay log does not contain
    /// the in-flight batch yet), then re-serve it its routed slice of this
    /// batch — fault-free — and return its matches. The rebuilt state plus the
    /// retried batch leave the shard byte-identical to one that never died.
    fn heal_shard(
        &mut self,
        shard: usize,
        retry_routed: &mut Option<Vec<Option<RoutedBatch>>>,
        position: (u64, u64),
    ) -> CoreResult<Vec<MatchOutput>> {
        let t0 = Instant::now();
        self.respawn_shard_at(shard, position.0, position.1)?;
        let routed = retry_routed
            .as_mut()
            .and_then(|per_shard| per_shard.get_mut(shard))
            .and_then(Option::take)
            .ok_or(CoreError::ShardUnavailable { shard })?;
        let (reply, response) = channel();
        self.send(
            shard,
            Request::Batch {
                routed: Box::new(routed),
                fault: None,
                reply,
            },
        )?;
        let outputs = response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })?;
        self.supervisor_stats.timings.recovery += t0.elapsed();
        outputs
    }

    /// Advance the batch counter and fetch the faults scheduled for the new
    /// batch, if an injector is installed.
    fn begin_batch(&mut self) -> u64 {
        let index = self.batches_ingested;
        self.batches_ingested += 1;
        self.pending_faults = match self.injector.as_mut() {
            Some(injector) => injector.faults_for(index),
            None => Vec::new(),
        };
        index
    }

    /// Drain the pending worker fault aimed at shard `shard` for the
    /// current batch, if any.
    fn worker_fault_for_shard(&mut self, shard: usize) -> Option<WorkerFault> {
        let position = self.pending_faults.iter().position(|f| {
            matches!(f, FaultKind::PanicShard { shard: s } if *s == shard)
                || matches!(f, FaultKind::DropResponse { shard: s } if *s == shard)
        })?;
        let fault = match self.pending_faults.swap_remove(position) {
            FaultKind::PanicShard { .. } => WorkerFault::Panic,
            FaultKind::DropResponse { .. } => WorkerFault::DropReply,
            _ => return None,
        };
        self.supervisor_stats.faults_injected += 1;
        Some(fault)
    }

    /// Drain the pending panic aimed at spawned front party `party` for the
    /// current batch; `true` if there was one. Only called for the spawned
    /// parties that received a slice: party 0 is the caller's thread, which
    /// no injected fault may kill, so its faults are never drained.
    fn worker_fault_for_front(&mut self, party: usize) -> bool {
        let Some(position) = self
            .pending_faults
            .iter()
            .position(|f| matches!(f, FaultKind::PanicFront { worker } if *worker == party))
        else {
            return false;
        };
        self.pending_faults.swap_remove(position);
        self.supervisor_stats.faults_injected += 1;
        true
    }

    /// The global stream position, owned by the front stage: documents
    /// ingested and the newest timestamp.
    fn stream_position(&self) -> (u64, u64) {
        (self.front.next_doc_seq, self.front.newest_timestamp)
    }

    /// Recompute the cached replay-log retention bound from the retained
    /// query population.
    fn refresh_retention(&mut self) {
        self.retention = recovery::retention_bound(
            self.retained.values().map(|r| &r.query),
            self.config.doc_retention_cap,
        );
    }

    /// Aggregate statistics: the field-wise sum of every shard's
    /// [`EngineStats`], plus the front stage's own stats (the front counts
    /// each document exactly once in `documents_processed`; the shards never
    /// count documents), plus the coordinator's own failure-model
    /// counters (`docs_quarantined`, `shards_respawned`, `faults_injected`
    /// and recovery timings). Errors with [`CoreError::ShardUnavailable`]
    /// if a shard worker is gone — except under [`FaultPolicy::Degrade`],
    /// where dead shards contribute zeroes (their state died with them).
    pub fn stats(&self) -> CoreResult<EngineStats> {
        let mut total: EngineStats = self.shard_stats()?.into_iter().sum();
        total += self.front.stats;
        total += self.supervisor_stats;
        Ok(total)
    }

    /// The front stage's statistics: `docs_parsed_once`,
    /// `witnesses_routed`, `pipeline_stalls`, single-block
    /// `results_emitted` and Stage-1 `timings.xpath`.
    pub fn front_stats(&self) -> EngineStats {
        self.front.stats
    }

    /// Per-shard statistics snapshots, by shard index. Under
    /// [`FaultPolicy::Degrade`] a dead shard reports all-zero stats (its
    /// state died with it); under any other policy a dead shard errors with
    /// [`CoreError::ShardUnavailable`].
    pub fn shard_stats(&self) -> CoreResult<Vec<EngineStats>> {
        let degrade = self.config.fault_policy == FaultPolicy::Degrade;
        let mut responses = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if degrade && self.shards[shard].sender.is_none() {
                responses.push(None);
                continue;
            }
            let (reply, response) = channel();
            self.send(shard, Request::Stats { reply })?;
            responses.push(Some(response));
        }
        responses
            .into_iter()
            .enumerate()
            .map(|(shard, response)| match response {
                Some(response) => response
                    .recv()
                    .map_err(|_| CoreError::ShardUnavailable { shard }),
                None => Ok(EngineStats::default()),
            })
            .collect()
    }

    /// Run a full invariant audit across the pipeline: every shard engine's
    /// own [`MmqjpEngine::audit`] (violations come back wrapped in
    /// [`AuditViolation::Shard`]), the coordinator's per-shard query
    /// accounting, and the front stage's mirrored subscription state (master
    /// pattern index, global requested-edge union, witness-router table and
    /// single-block list), each recomputed from the live query footprints. When a recovering fault policy is
    /// active, additionally checks the recovery machinery itself: the
    /// retained-query ledger tracks every live query and the replay log
    /// stays within its retention bound. Read-only; a healthy engine
    /// returns an empty vector. Errors with [`CoreError::ShardUnavailable`]
    /// if a shard worker is gone — except under [`FaultPolicy::Degrade`],
    /// where dead shards are skipped (they have no state left to audit).
    pub fn audit(&self) -> CoreResult<Vec<AuditViolation>> {
        let degrade = self.config.fault_policy == FaultPolicy::Degrade;
        let mut out = Vec::new();
        let mut responses = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if degrade && self.shards[shard].sender.is_none() {
                responses.push(None);
                continue;
            }
            let (reply, response) = channel();
            self.send(shard, Request::Audit { reply })?;
            responses.push(Some(response));
        }
        for (shard, response) in responses.into_iter().enumerate() {
            let Some(response) = response else { continue };
            let violations = response
                .recv()
                .map_err(|_| CoreError::ShardUnavailable { shard })?;
            out.extend(
                violations
                    .into_iter()
                    .map(|violation| AuditViolation::Shard {
                        shard,
                        violation: Box::new(violation),
                    }),
            );
        }

        let summed: usize = self.queries_per_shard.iter().sum();
        if summed != self.live_queries {
            out.push(AuditViolation::QueriesPerShardSum {
                tracked: self.live_queries,
                summed,
            });
        }

        if self.config.fault_policy != FaultPolicy::FailFast {
            if self.retained.len() != self.live_queries {
                out.push(AuditViolation::RetainedQueryCount {
                    retained: self.retained.len(),
                    live: self.live_queries,
                });
            }
            if let (Some(oldest), Some(bound)) =
                (self.replay_log.oldest_entry_max_ts(), self.retention)
            {
                let cutoff = self.stream_position().1.saturating_sub(bound);
                if oldest < cutoff {
                    out.push(AuditViolation::ReplayLogOverRetention { oldest, cutoff });
                }
            }
        }

        // Shards never count documents themselves; the front stage counts
        // each exactly once.
        for (shard, stats) in self.shard_stats()?.into_iter().enumerate() {
            if stats.documents_processed != 0 {
                out.push(AuditViolation::HybridShardCountsDocuments {
                    shard,
                    documents: stats.documents_processed,
                });
            }
        }
        self.audit_front(&mut out);
        Ok(out)
    }

    /// Recompute the front stage's expected subscription state from its live
    /// query footprints and compare it against the maintained mirrors.
    fn audit_front(&self, out: &mut Vec<AuditViolation>) {
        let front = &self.front;
        if front.footprints.len() != self.live_queries {
            out.push(AuditViolation::FrontSubscription {
                pattern: u32::MAX,
                reason: "footprint count differs from the live queries",
            });
        }

        // One recount pass over the footprints: master-index refcounts (join
        // patterns and single-block patterns alike), the global edge union,
        // per-shard router subscriptions and singles.
        let mut pattern_expected: HashMap<PatternId, usize> = HashMap::new();
        let mut edge_expected: HashMap<PatternId, HashMap<Edge, usize>> = HashMap::new();
        let mut router_expected: HashMap<PatternId, BTreeMap<usize, HashMap<Edge, usize>>> =
            HashMap::new();
        let mut singles_expected = 0usize;
        for footprint in front.footprints.values() {
            if let Some(pid) = footprint.single {
                *pattern_expected.entry(pid).or_insert(0) += 1;
                singles_expected += 1;
            }
            for (pid, edges) in &footprint.patterns {
                *pattern_expected.entry(*pid).or_insert(0) += 1;
                let per_edge = edge_expected.entry(*pid).or_default();
                let per_shard = router_expected
                    .entry(*pid)
                    .or_default()
                    .entry(footprint.shard)
                    .or_default();
                for edge in edges {
                    *per_edge.entry(*edge).or_insert(0) += 1;
                    *per_shard.entry(*edge).or_insert(0) += 1;
                }
            }
        }

        // Master pattern index, both directions.
        let indexed: HashMap<PatternId, usize> = front
            .index
            .patterns()
            .map(|(pid, _)| (pid, front.index.refcount(pid)))
            .collect();
        for (&pid, &refs) in &indexed {
            let expected = pattern_expected.get(&pid).copied().unwrap_or(0);
            if refs != expected {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: refs,
                    expected,
                });
            }
        }
        for (&pid, &expected) in &pattern_expected {
            if !indexed.contains_key(&pid) {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: 0,
                    expected,
                });
            }
        }

        // Global requested-edge union, its refcounts and its cached symbols.
        crate::registry::audit_edge_tables(&edge_expected, &front.edge_refs, &front.requested, out);
        crate::front::audit_requested_symbols(&front.index, &front.requested, &self.interner, out);
        crate::front::audit_emit_plan(&front.index, &front.requested, Some(&front.router), out);

        // Router table: per (pattern, shard), the refcounted edge set and
        // its first-subscription-order list mirror the footprints.
        let all_pids: std::collections::BTreeSet<PatternId> = router_expected
            .keys()
            .chain(front.router.subs.keys())
            .copied()
            .collect();
        for pid in all_pids {
            let want = router_expected.get(&pid);
            let have = front.router.subs.get(&pid);
            let shards: std::collections::BTreeSet<usize> = want
                .into_iter()
                .flat_map(BTreeMap::keys)
                .chain(have.into_iter().flat_map(BTreeMap::keys))
                .copied()
                .collect();
            for shard in shards {
                let want_edges = want.and_then(|m| m.get(&shard));
                let have_subs = have.and_then(|m| m.get(&shard));
                let want_total: usize = want_edges.map_or(0, |m| m.values().sum());
                let have_total: usize = have_subs.map_or(0, |s| s.refs.values().sum());
                let refs_match = match (want_edges, have_subs) {
                    (None, None) => true,
                    (Some(w), Some(s)) => *w == s.refs,
                    _ => want_total == 0 && have_total == 0,
                };
                if !refs_match {
                    out.push(AuditViolation::FrontSubscription {
                        pattern: pid.raw(),
                        reason: "router edge refcounts differ from the live footprints",
                    });
                }
                if let Some(subs) = have_subs {
                    let mut seen = std::collections::HashSet::new();
                    if !subs.list.iter().all(|e| seen.insert(*e)) {
                        out.push(AuditViolation::FrontSubscription {
                            pattern: pid.raw(),
                            reason: "duplicate edge in a router subscription list",
                        });
                    }
                    if seen != subs.refs.keys().copied().collect() {
                        out.push(AuditViolation::FrontSubscription {
                            pattern: pid.raw(),
                            reason: "router subscription list does not mirror its refcounts",
                        });
                    }
                }
            }
        }

        // Single-block subscriptions: count and membership.
        if front.singles.len() != singles_expected {
            out.push(AuditViolation::FrontSinglesCount {
                listed: front.singles.len(),
                expected: singles_expected,
            });
        }
        for single in &front.singles {
            let covered = front
                .footprints
                .get(&single.global.raw())
                .is_some_and(|f| f.single == Some(single.pid));
            if !covered {
                out.push(AuditViolation::FrontSubscription {
                    pattern: u32::MAX,
                    reason: "front single-block entry has no live footprint",
                });
            }
        }
    }

    fn send(&self, shard: usize, request: Request) -> CoreResult<()> {
        self.shards[shard]
            .sender
            .as_ref()
            .ok_or(CoreError::ShardUnavailable { shard })?
            .send(request)
            .map_err(|_| CoreError::ShardUnavailable { shard })
    }

    // ----------------------------------------------------------------
    // Front stage internals
    // ----------------------------------------------------------------

    /// Mirror a freshly registered query's Stage-1 footprint into the front
    /// stage: merge its patterns into the master index and the global
    /// requested-edge union, subscribe its shard in the router, take over
    /// its single-block subscription, and re-sync the front workers.
    fn front_subscribe(
        &mut self,
        shard: usize,
        global: QueryId,
        footprint: ShardFootprint,
    ) -> CoreResult<()> {
        let front = &mut self.front;
        let mut resolved = Vec::with_capacity(footprint.patterns.len());
        for (pattern, edges) in footprint.patterns {
            let pid = front.index.register(pattern);
            let pattern = front.index.pattern(pid);
            let refs = front.edge_refs.entry(pid).or_default();
            for &edge in &edges {
                let count = refs.entry(edge).or_insert(0);
                if *count == 0 {
                    // First request of this edge: resolve it once, here.
                    let requested = RequestedEdge::resolve(pattern, edge, &self.interner).ok_or(
                        CoreError::internal("requested edge ends carry canonical variables"),
                    )?;
                    front.requested.push(pid, requested);
                }
                *count += 1;
            }
            front.router.subscribe(shard, pid, &edges);
            resolved.push((pid, edges));
        }
        // The shard sets are part of the edge classes.
        front.requested.invalidate_plan();
        let single = footprint.single.map(|(pattern, publish, select)| {
            // The single's pattern joins the master index like any join
            // pattern (deduplicated by signature, refcounted), so one
            // automaton pass answers both. Global ids are assigned in
            // ascending order and never reused, so pushing keeps the list in
            // single-engine evaluation order.
            let pid = front.index.register(pattern.clone());
            front.singles.push(FrontSingle {
                global,
                pid,
                pattern,
                publish,
                select,
            });
            pid
        });
        front.footprints.insert(
            global.raw(),
            FrontFootprint {
                shard,
                patterns: resolved,
                single,
            },
        );
        self.sync_front()
    }

    /// Release a departing query's front-stage footprint (the inverse of
    /// [`front_subscribe`](Self::front_subscribe)) and re-sync the workers.
    fn front_unsubscribe(&mut self, global: QueryId) -> CoreResult<()> {
        let front = &mut self.front;
        let footprint = front
            .footprints
            .remove(&global.raw())
            .ok_or(CoreError::internal("a live query has a front footprint"))?;
        for (pid, edges) in &footprint.patterns {
            front.router.unsubscribe(footprint.shard, *pid, edges)?;
            let refs = front.edge_refs.get_mut(pid).ok_or(CoreError::internal(
                "a subscribed pattern has edge refcounts",
            ))?;
            for edge in edges {
                let count = refs
                    .get_mut(edge)
                    .ok_or(CoreError::internal("a requested edge is refcounted"))?;
                *count -= 1;
                if *count == 0 {
                    refs.remove(edge);
                    front.requested.remove_edge(*pid, *edge);
                }
            }
            if refs.is_empty() {
                front.edge_refs.remove(pid);
                front.requested.remove(*pid);
            }
            front.index.unregister(*pid);
        }
        front.requested.invalidate_plan();
        if let Some(pid) = footprint.single {
            front.singles.retain(|s| s.global != global);
            front.index.unregister(pid);
        }
        self.sync_front()
    }

    /// Broadcast the current Stage-1 snapshot (master index, requested-edge
    /// union, single-block list) to every spawned front worker and wait for
    /// their acknowledgements, so the next batch is matched against the
    /// updated subscriptions. The caller's own party reads the master state
    /// directly, so with `front_pool = 1` this clones nothing.
    fn sync_front(&self) -> CoreResult<()> {
        let front = &self.front;
        let acks = (1..=front.workers.len())
            .map(|party| front.send_snapshot(party).map(|ack| (party, ack)))
            .collect::<CoreResult<Vec<_>>>()?;
        for (party, ack) in acks {
            ack.recv()
                .map_err(|_| CoreError::FrontUnavailable { worker: party })?;
        }
        Ok(())
    }

    /// Run Stage 1 for one batch: assign ids/timestamps (the front owns the
    /// global sequence), enforce in-order arrival (quarantining poison
    /// documents under [`FaultPolicy::Quarantine`] instead of failing),
    /// pattern-match document-parallel across the front parties, answer
    /// single-block subscriptions, and route the witness rows into
    /// per-shard batches. The batch is cut into `front_pool` contiguous
    /// slices: the caller's thread matches the first against the master
    /// state while the spawned workers match the rest. A spawned worker that
    /// dies mid-slice is respawned and its slice retried under
    /// [`FaultPolicy::Quarantine`]; under any other policy its death fails
    /// this batch and every later one with [`CoreError::FrontUnavailable`].
    fn front_stage1(&mut self, docs: Vec<Document>, batch_index: u64) -> CoreResult<StagedBatch> {
        let num_shards = self.shards.len();
        let retain_documents = self.config.retain_documents;
        let enforce_in_order = self.config.enforce_in_order;
        let policy = self.config.fault_policy;
        let position = self.stream_position();

        // The same screening, under the same handling, as the single
        // engine's inline front: a rejected document fails the batch before
        // anything reaches a shard, or is skipped under Quarantine.
        let offered = docs.len();
        let mut own = front::screen_and_stamp(
            docs,
            &mut self.front.next_doc_seq,
            &mut self.front.newest_timestamp,
            enforce_in_order,
            PoisonHandling::for_policy(policy),
            batch_index,
            &mut self.quarantine,
        )?;
        self.supervisor_stats.docs_quarantined += offered - own.len();
        let log_entry = (policy != FaultPolicy::FailFast).then(|| own.clone());

        // Document-parallel Stage 1: contiguous slices keep arrival order
        // trivially reconstructible on collection. Party 0 keeps the head of
        // the batch in place; slice `i` goes to front party `i + 1`.
        let chunk_len = own.len().div_ceil(self.front_pool()).max(1);
        let mut rest = own.split_off(chunk_len.min(own.len()));
        let mut slices = Vec::new();
        while !rest.is_empty() {
            let tail = rest.split_off(chunk_len.min(rest.len()));
            slices.push(std::mem::replace(&mut rest, tail));
        }
        let panics: Vec<bool> = (1..=slices.len())
            .map(|party| self.worker_fault_for_front(party))
            .collect();
        let front = &mut self.front;
        let mut pending = Vec::with_capacity(slices.len());
        for ((party, slice), panic) in (1..).zip(slices).zip(panics) {
            let retry = (policy == FaultPolicy::Quarantine).then(|| slice.clone());
            pending.push((party, front.request_match(party, slice, panic)?, retry));
        }
        // Party 0 matches on this thread while the spawned parties match
        // theirs: no snapshot, no channel, no unwinding boundary.
        let mut subs = subscriptions(
            &mut front.index,
            &mut front.requested,
            &front.router,
            &front.singles,
        );
        let chunk = match_slice(&mut subs, own, &mut front.matching, retain_documents);
        let mut match_work = chunk.elapsed;
        let mut matched = chunk.docs;
        for (party, response, retry) in pending {
            let chunk = match response.recv() {
                Ok(chunk) => chunk,
                Err(_) if policy == FaultPolicy::Quarantine => {
                    // The worker died mid-slice. Matching is snapshot-pure,
                    // so healing is a respawn, a targeted sync and one retry
                    // of the same slice.
                    let unavailable = || CoreError::FrontUnavailable { worker: party };
                    let t0 = Instant::now();
                    let respawned =
                        spawn_front_worker(party, retain_documents).map_err(|_| unavailable())?;
                    let old = std::mem::replace(&mut front.workers[party - 1], respawned);
                    drop(old.sender);
                    if let Some(handle) = old.handle {
                        let _ = handle.join();
                    }
                    front
                        .send_snapshot(party)?
                        .recv()
                        .map_err(|_| unavailable())?;
                    let docs = retry.ok_or_else(unavailable)?;
                    let chunk = front
                        .request_match(party, docs, false)?
                        .recv()
                        .map_err(|_| unavailable())?;
                    self.supervisor_stats.shards_respawned += 1;
                    self.supervisor_stats.timings.recovery += t0.elapsed();
                    chunk
                }
                Err(_) => return Err(CoreError::FrontUnavailable { worker: party }),
            };
            match_work += chunk.elapsed;
            matched.extend(chunk.docs);
        }

        // Route the witness rows: still Stage-1 work (witness construction),
        // done once here instead of once per shard.
        let t_route = Instant::now();
        let mut shard_batches: Vec<WitnessBatch> =
            (0..num_shards).map(|_| WitnessBatch::new()).collect();
        let mut singles = Vec::new();
        let mut doc_meta = Vec::with_capacity(matched.len());
        let mut retained = Vec::new();
        let mut routed_rows = 0usize;
        for doc in matched {
            front.stats.stage1_pairs += doc.matches.rows.len();
            front.stats.stage1_edges_suppressed += doc.matches.suppressed;
            routed_rows += front.router.route_document(
                &doc.doc,
                &doc.matches.rows,
                &front.requested,
                &self.interner,
                &mut front.ingest,
                &mut shard_batches,
            )?;
            singles.extend(doc.matches.singles);
            doc_meta.push((doc.doc.id(), doc.doc.timestamp().raw()));
            if retain_documents {
                retained.push(doc.doc);
            }
        }
        front.stats.documents_processed += doc_meta.len();
        front.stats.docs_parsed_once += doc_meta.len();
        front.stats.witnesses_routed += routed_rows;
        front.stats.stage1_rows += shard_batches.iter().map(|b| b.rbin_w.len()).sum::<usize>();
        front.stats.results_emitted += singles.len();
        front.stats.timings.xpath += match_work + t_route.elapsed();
        Ok(StagedBatch {
            shard_batches,
            doc_meta,
            docs: retained,
            singles,
            log_entry,
            position,
        })
    }

    /// Send one staged batch's routed witness rows to every live shard (the
    /// last live shard takes ownership of the retained documents; the
    /// others get clones) without waiting for the replies. Under
    /// [`FaultPolicy::Degrade`] dead shards are skipped; under
    /// [`FaultPolicy::Quarantine`] each shard's payload is also kept for a
    /// potential heal-retry.
    fn dispatch_routed(&mut self, staged: StagedBatch) -> CoreResult<InFlight> {
        let StagedBatch {
            shard_batches,
            doc_meta,
            docs,
            singles,
            log_entry,
            position,
        } = staged;
        let keep_retry = self.config.fault_policy == FaultPolicy::Quarantine;
        // Only Degrade routes around a dead shard; every other policy hits
        // the availability error on send.
        let degrade = self.config.fault_policy == FaultPolicy::Degrade;
        let live: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !degrade || self.shards[s].sender.is_some())
            .collect();
        let Some(&last) = live.last() else {
            return Err(CoreError::ShardUnavailable { shard: 0 });
        };
        let mut responses = Vec::with_capacity(live.len());
        let mut retry_routed: Option<Vec<Option<RoutedBatch>>> =
            keep_retry.then(|| self.shards.iter().map(|_| None).collect());
        let mut docs = Some(docs);
        for (shard, batch) in shard_batches.into_iter().enumerate() {
            if !live.contains(&shard) {
                continue;
            }
            let shard_docs = if shard == last {
                // lint:allow the loop takes the documents only on its final iteration
                docs.take().expect("documents are moved out exactly once")
            } else {
                // lint:allow the loop takes the documents only on its final iteration
                docs.as_ref().expect("documents not yet moved").clone()
            };
            let routed = RoutedBatch {
                batch,
                doc_meta: doc_meta.clone(),
                docs: shard_docs,
            };
            if let Some(slots) = retry_routed.as_mut() {
                slots[shard] = Some(routed.clone());
            }
            let fault = self.worker_fault_for_shard(shard);
            let (reply, response) = channel();
            self.send(
                shard,
                Request::Batch {
                    routed: Box::new(routed),
                    fault,
                    reply,
                },
            )?;
            responses.push((shard, response));
        }
        Ok(InFlight {
            responses,
            singles,
            log_entry,
            retry_routed,
            position,
        })
    }

    /// Collect every shard's reply for one batch — even after an error, so
    /// the shards advance in lockstep — and merge the matches (plus the
    /// front's single-block matches) into canonical order. When
    /// `overlapped`, the front just finished Stage 1 of the *next* batch;
    /// a shard that has not replied yet then means the front is stalling on
    /// Stage 2, counted once per batch in `pipeline_stalls`.
    ///
    /// This is also where the supervisor lives: a reply of
    /// [`CoreError::ShardPanicked`] or a disconnected channel marks the
    /// shard dead, and the fault policy decides what happens next —
    /// FailFast propagates the death as this batch's error, Quarantine
    /// heals the shard inline (respawn, replay, retry its routed slice of
    /// this batch), and Degrade retires the shard and keeps serving the rest.
    /// Once collection completes the batch is committed to the replay log
    /// (dispatched ⇒ logged), which is then evicted to its retention bound.
    fn collect_shard_outputs(
        &mut self,
        in_flight: InFlight,
        overlapped: bool,
    ) -> CoreResult<Vec<MatchOutput>> {
        let InFlight {
            responses,
            singles,
            log_entry,
            mut retry_routed,
            position,
        } = in_flight;
        let mut merged = singles;
        let mut first_error: Option<CoreError> = None;
        let mut stalled = false;
        for (shard, response) in responses {
            let received = if overlapped {
                match response.try_recv() {
                    Ok(result) => Ok(result),
                    Err(TryRecvError::Empty) => {
                        stalled = true;
                        response.recv().map_err(|_| ())
                    }
                    Err(TryRecvError::Disconnected) => Err(()),
                }
            } else {
                response.recv().map_err(|_| ())
            };
            // A panic reply or a dead channel both mean the worker's state
            // is gone or suspect: retire it, then apply the fault policy. A
            // typed error from a live worker is this batch's error under
            // every policy — the worker itself is fine.
            let death = match &received {
                Err(()) => true,
                Ok(Err(CoreError::ShardPanicked { .. })) => true,
                Ok(_) => false,
            };
            let outcome = if death {
                self.retire_shard(shard);
                match self.config.fault_policy {
                    FaultPolicy::FailFast => Err(match received {
                        Ok(Err(e)) => e,
                        _ => CoreError::ShardUnavailable { shard },
                    }),
                    FaultPolicy::Degrade => {
                        // Serve what the surviving shards produced; the dead
                        // shard's queries go dark until a manual respawn.
                        continue;
                    }
                    FaultPolicy::Quarantine => self.heal_shard(shard, &mut retry_routed, position),
                }
            } else {
                match received {
                    Ok(result) => result,
                    Err(()) => Err(CoreError::ShardUnavailable { shard }),
                }
            };
            match outcome {
                Ok(outputs) => merged.extend(outputs),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if stalled {
            self.front.stats.pipeline_stalls += 1;
        }
        // Dispatched ⇒ logged: the surviving shards absorbed this batch even
        // if one of them reported an error, so a future rebuild must replay
        // it. Eviction keeps the log within the live retention bound.
        if let Some(docs) = log_entry {
            self.replay_log.record(docs);
            let newest = self.stream_position().1;
            self.replay_log.evict(newest, self.retention);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        sort_matches(&mut merged);
        Ok(merged)
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for worker in &mut self.front.workers {
            // Dropping the sender closes the channel; the loop exits.
            worker.sender.take();
        }
        for worker in &mut self.front.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
        for shard in &mut self.shards {
            shard.sender.take();
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("alive", &self.sender.is_some())
            .finish()
    }
}

/// Deterministic shard assignment: a Fibonacci-style multiplicative hash of
/// the query id. Using the *high* bits keeps the distribution even for the
/// sequential ids the engine assigns (the low bits of `id * odd-constant`
/// would reduce to `id mod n`).
fn shard_of(id: QueryId, num_shards: usize) -> usize {
    ((id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % num_shards as u64) as usize
}

/// Spawn the worker thread for shard `shard` around `engine`.
/// `initial_globals` seeds the local→global id map — empty at construction,
/// the shard's surviving ids (ascending, matching the rebuilt engine's
/// re-registration order) on respawn.
fn spawn_shard_worker(
    shard: usize,
    engine: MmqjpEngine,
    initial_globals: Vec<QueryId>,
) -> std::io::Result<Shard> {
    let (sender, receiver) = channel();
    let handle = thread::Builder::new()
        .name(format!("mmqjp-shard-{shard}"))
        .spawn(move || shard_worker(engine, receiver, shard, initial_globals))?;
    Ok(Shard {
        sender: Some(sender),
        handle: Some(handle),
    })
}

/// Spawn the worker thread of front party `party` (always `≥ 1`: party 0 is
/// the caller's thread).
fn spawn_front_worker(party: usize, retain_documents: bool) -> std::io::Result<FrontWorker> {
    let (sender, receiver) = channel();
    let handle = thread::Builder::new()
        .name(format!("mmqjp-front-{party}"))
        .spawn(move || front_worker(retain_documents, receiver))?;
    Ok(FrontWorker {
        sender: Some(sender),
        handle: Some(handle),
    })
}

impl FrontStage {
    /// The request channel of spawned front party `party`.
    fn sender(&self, party: usize) -> CoreResult<&Sender<FrontRequest>> {
        party
            .checked_sub(1)
            .and_then(|i| self.workers.get(i))
            .and_then(|worker| worker.sender.as_ref())
            .ok_or(CoreError::FrontUnavailable { worker: party })
    }

    /// Send spawned front party `party` a snapshot of the master Stage-1
    /// state; the returned channel acknowledges it.
    fn send_snapshot(&self, party: usize) -> CoreResult<Receiver<()>> {
        let (reply, ack) = channel();
        self.sender(party)?
            .send(FrontRequest::Sync {
                index: Box::new(self.index.clone()),
                requested: self.requested.clone(),
                router: self.router.clone(),
                singles: self.singles.clone(),
                reply,
            })
            .map_err(|_| CoreError::FrontUnavailable { worker: party })?;
        Ok(ack)
    }

    /// Hand spawned front party `party` a slice to match; the returned
    /// channel carries its output.
    fn request_match(
        &self,
        party: usize,
        docs: Vec<Document>,
        panic: bool,
    ) -> CoreResult<Receiver<MatchedChunk>> {
        let (reply, response) = channel();
        self.sender(party)?
            .send(FrontRequest::Match { docs, panic, reply })
            .map_err(|_| CoreError::FrontUnavailable { worker: party })?;
        Ok(response)
    }
}

/// The Stage-1 view of one front party's state: its pattern index (the
/// master index on the caller's thread, a snapshot on a spawned worker), the
/// requested edges and the single-block subscriptions.
fn subscriptions<'a>(
    index: &'a mut PatternIndex,
    requested: &'a mut RequestedEdges,
    router: &'a WitnessRouter,
    singles: &'a [FrontSingle],
) -> Subscriptions<'a> {
    Subscriptions {
        index,
        requested,
        router: Some(router),
        singles: singles
            .iter()
            .map(|s| SingleBlock {
                query: s.global,
                pid: s.pid,
                pattern: &s.pattern,
                publish: &s.publish,
                select: s.select,
            })
            .collect(),
    }
}

/// Stage 1 over one front party's slice of a batch: the front
/// ([`front::match_document`]) per document, timed. The one body behind both
/// the caller's own slice and a spawned worker's.
fn match_slice(
    subs: &mut Subscriptions<'_>,
    docs: Vec<Document>,
    scratch: &mut MatchScratch,
    retain_documents: bool,
) -> MatchedChunk {
    let t0 = Instant::now();
    let docs = docs
        .into_iter()
        .map(|doc| {
            let mut matches = DocumentMatches::default();
            front::match_document(subs, &doc, scratch, retain_documents, &mut matches);
            MatchedDoc { doc, matches }
        })
        .collect();
    MatchedChunk {
        docs,
        elapsed: t0.elapsed(),
    }
}

/// Render a caught panic payload for [`CoreError::ShardPanicked`].
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The worker loop: owns one shard's engine, serves requests until the
/// sending half of the channel is dropped.
///
/// `global_ids` maps the shard-local query index (the order queries were
/// registered on this shard) to the engine-global [`QueryId`], so the matches
/// leaving the shard always speak the global id space.
///
/// Every engine-touching request runs inside `catch_unwind`: a panic is
/// contained, reported to the coordinator as a typed
/// [`CoreError::ShardPanicked`] (instead of a silently dropped channel), and
/// then the worker retires itself — a panicking engine's state is suspect,
/// so the supervisor must respawn the shard rather than keep talking to it.
// The spawned worker thread must own its receiver (`'static` loop).
#[allow(clippy::needless_pass_by_value)]
fn shard_worker(
    engine: MmqjpEngine,
    requests: Receiver<Request>,
    shard: usize,
    initial_globals: Vec<QueryId>,
) {
    let mut local_of: std::collections::HashMap<QueryId, QueryId> = initial_globals
        .iter()
        .enumerate()
        .map(|(local, &global)| (global, QueryId(local as u64)))
        .collect();
    let mut global_ids: Vec<QueryId> = initial_globals;
    let mut engine = engine;
    while let Ok(request) = requests.recv() {
        match request {
            Request::Register {
                query,
                global,
                reply,
            } => {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    engine.register_query(*query).and_then(|local| {
                        debug_assert_eq!(local.raw() as usize, global_ids.len());
                        global_ids.push(global);
                        local_of.insert(global, local);
                        let runtime = engine.registry().query(local)?;
                        let shape = runtime.shape();
                        let mut patterns = Vec::new();
                        for o in shape.orientations() {
                            let (prev, cur) = shape.patterns(o);
                            patterns.push((prev.clone(), o.prev_edges.clone()));
                            patterns.push((cur.clone(), o.cur_edges.clone()));
                        }
                        let single = shape
                            .single_pattern()
                            .map(|p| (p.clone(), runtime.publish.clone(), runtime.select));
                        Ok(Box::new(ShardFootprint { patterns, single }))
                    })
                }));
                match caught {
                    Ok(result) => {
                        let _ = reply.send(result);
                    }
                    Err(payload) => {
                        let _ = reply.send(Err(CoreError::ShardPanicked {
                            shard,
                            payload: panic_payload(payload.as_ref()),
                        }));
                        break;
                    }
                }
            }
            Request::Unregister { global, reply } => {
                let caught = catch_unwind(AssertUnwindSafe(|| match local_of.get(&global) {
                    Some(&local) => engine.unregister_query(local).map(|()| {
                        local_of.remove(&global);
                    }),
                    None => Err(CoreError::UnknownQuery { id: global.raw() }),
                }));
                match caught {
                    Ok(result) => {
                        let _ = reply.send(result);
                    }
                    Err(payload) => {
                        let _ = reply.send(Err(CoreError::ShardPanicked {
                            shard,
                            payload: panic_payload(payload.as_ref()),
                        }));
                        break;
                    }
                }
            }
            Request::Batch {
                routed,
                fault,
                reply,
            } => {
                if matches!(fault, Some(WorkerFault::DropReply)) {
                    // Injected desynchronization: the batch is neither
                    // processed nor answered; the dropped reply surfaces at
                    // the coordinator as a dead channel.
                    drop(reply);
                    continue;
                }
                let panic_requested = matches!(fault, Some(WorkerFault::Panic));
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if panic_requested {
                        // lint:allow deliberate injected fault, contained by catch_unwind below
                        panic!("injected fault: shard worker panic");
                    }
                    engine.process_witness_batch(*routed).map(|mut outputs| {
                        for output in &mut outputs {
                            output.query = global_ids[output.query.raw() as usize];
                        }
                        outputs
                    })
                }));
                match caught {
                    Ok(result) => {
                        let _ = reply.send(result);
                    }
                    Err(payload) => {
                        let _ = reply.send(Err(CoreError::ShardPanicked {
                            shard,
                            payload: panic_payload(payload.as_ref()),
                        }));
                        break;
                    }
                }
            }
            Request::Stats { reply } => {
                let _ = reply.send(engine.stats());
            }
            Request::Audit { reply } => {
                let _ = reply.send(engine.audit());
            }
        }
    }
}

/// The front-worker loop of a spawned front party: holds a snapshot of the
/// Stage-1 state (master pattern index with the single-block patterns in it,
/// requested-edge union, single-block subscriptions) and runs
/// [`match_slice`] over document slices against it. Snapshots are replaced
/// wholesale by `Sync` requests on subscription churn.
// The spawned front worker must own its receiver (`'static` loop).
#[allow(clippy::needless_pass_by_value)]
fn front_worker(retain_documents: bool, requests: Receiver<FrontRequest>) {
    let mut index = PatternIndex::default();
    let mut requested = RequestedEdges::new();
    let mut router = WitnessRouter::new();
    let mut singles: Vec<FrontSingle> = Vec::new();
    // Worker-lifetime matching buffers: a document allocates nothing for
    // its pass or its rows' enumeration once warm.
    let mut matching = MatchScratch::default();
    while let Ok(request) = requests.recv() {
        match request {
            FrontRequest::Sync {
                index: new_index,
                requested: new_requested,
                router: new_router,
                singles: new_singles,
                reply,
            } => {
                index = *new_index;
                requested = new_requested;
                router = new_router;
                singles = new_singles;
                let _ = reply.send(());
            }
            FrontRequest::Match { docs, panic, reply } => {
                // Contain panics (injected or organic): the dropped reply
                // surfaces at the coordinator, which respawns and re-syncs
                // this worker — matching holds no cross-request state, so a
                // snapshot push makes the replacement whole.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    if panic {
                        // lint:allow deliberate injected fault, contained by catch_unwind below
                        panic!("injected fault: front worker panic");
                    }
                    let mut subs = subscriptions(&mut index, &mut requested, &router, &singles);
                    match_slice(&mut subs, docs, &mut matching, retain_documents)
                }));
                match caught {
                    Ok(chunk) => {
                        let _ = reply.send(chunk);
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

// Compile-time audit that everything crossing (or living on) a shard or
// front-worker thread is `Send`: the engine with its registry / relations /
// view cache, the shared interner, and the request/response payloads of
// both worker kinds.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MmqjpEngine>();
    assert_send::<Arc<StringInterner>>();
    assert_send::<Request>();
    assert_send::<FrontRequest>();
    assert_send::<MatchedChunk>();
    assert_send::<RoutedBatch>();
    assert_send::<CoreResult<Vec<MatchOutput>>>();
    assert_send::<EngineStats>();
    assert_send::<ShardedEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessingMode;
    use mmqjp_xml::{rss, Timestamp};

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";
    /// A single-block subscription (no join): matched at the front stage.
    const Q_SINGLE: &str = "S//book->x1[.//author->x2]";

    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
        .with_timestamp(Timestamp(10))
    }

    fn d2() -> Document {
        rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/topics/books/rss-book",
            "Beginning RSS and Atom Programming",
            "Scripting & Programming",
            "Just heard ...",
        )
        .with_timestamp(Timestamp(20))
    }

    fn sharded(config: EngineConfig) -> ShardedEngine {
        let mut e = ShardedEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.register_query_text(Q2).unwrap();
        e.register_query_text(Q3).unwrap();
        e
    }

    #[test]
    fn walkthrough_matches_single_engine_for_every_pool_and_shard_count() {
        let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
        for q in [Q1, Q2, Q3, Q_SINGLE] {
            single.register_query_text(q).unwrap();
        }
        let mut expected_d1 = single.process_document(d1()).unwrap();
        sort_matches(&mut expected_d1);
        let mut expected_d2 = single.process_document(d2()).unwrap();
        sort_matches(&mut expected_d2);
        // Q_SINGLE matches the book announcement on arrival.
        assert!(!expected_d1.is_empty());
        assert_eq!(expected_d2.len(), 2);

        for front_pool in [1, 2, 4] {
            for shards in [1, 2, 3, 7] {
                let mut e = ShardedEngine::new(
                    EngineConfig::mmqjp()
                        .with_num_shards(shards)
                        .with_front_pool(front_pool),
                );
                for q in [Q1, Q2, Q3, Q_SINGLE] {
                    e.register_query_text(q).unwrap();
                }
                assert_eq!(e.front_pool(), front_pool);
                assert_eq!(e.num_shards(), shards);
                let out1 = e.process_document(d1()).unwrap();
                assert_eq!(out1, expected_d1, "{front_pool} front / {shards} shards");
                let out2 = e.process_document(d2()).unwrap();
                assert_eq!(out2, expected_d2, "{front_pool} front / {shards} shards");
            }
        }
    }

    #[test]
    fn stats_count_documents_once_and_sum_exactly() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(3).with_front_pool(2));
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        let per_shard = e.shard_stats().unwrap();
        let front = e.front_stats();
        let total = e.stats().unwrap();
        // Exact decomposition: aggregate == shard sum + front stats.
        let shard_sum: EngineStats = per_shard.iter().copied().sum();
        assert_eq!(total, shard_sum + front);
        // Documents are parsed and counted exactly once, at the front.
        assert_eq!(front.documents_processed, 2);
        assert_eq!(front.docs_parsed_once, 2);
        assert_eq!(total.documents_processed, 2);
        assert!(per_shard.iter().all(|s| s.documents_processed == 0));
        // Witness rows were routed (both documents carry witnesses).
        assert!(front.witnesses_routed > 0);
        assert_eq!(total.witnesses_routed, front.witnesses_routed);
        // Shards did no Stage-1 work; the front did all of it.
        assert!(per_shard.iter().all(|s| s.timings.xpath == Duration::ZERO));
        assert!(front.timings.xpath > Duration::ZERO);
        // Join results still come from the shards.
        assert_eq!(total.results_emitted, 2);
    }

    #[test]
    fn unregister_releases_front_subscriptions() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2).with_front_pool(1));
        assert!(!e.witness_router().is_empty());
        e.process_document(d1()).unwrap();
        e.unregister_query(QueryId(0)).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(1));
        e.unregister_query(QueryId(1)).unwrap();
        e.unregister_query(QueryId(2)).unwrap();
        // The routing table empties with the last subscription.
        assert!(e.witness_router().is_empty());
        assert!(e
            .process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn pipelined_batches_equal_batchwise_processing() {
        let docs: Vec<Document> = (0..6)
            .map(|i| {
                let doc = if i % 2 == 0 { d1() } else { d2() };
                doc.with_timestamp(Timestamp(10 + i * 10))
            })
            .collect();
        let batches: Vec<Vec<Document>> = docs.chunks(1).map(|c| c.to_vec()).collect();

        // Reference: batch-at-a-time on the unpipelined entry point.
        let mut reference = sharded(EngineConfig::mmqjp().with_num_shards(2).with_front_pool(2));
        let expected: Vec<Vec<MatchOutput>> = batches
            .clone()
            .into_iter()
            .map(|b| reference.process_batch(b).unwrap())
            .collect();

        let mut pipelined = sharded(EngineConfig::mmqjp().with_num_shards(2).with_front_pool(2));
        let results = pipelined.process_batches(batches).unwrap();
        assert_eq!(results, expected);
        assert_eq!(
            pipelined.stats().unwrap().results_emitted,
            expected.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn front_audit_detects_stale_requested_edge_symbols() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        assert!(e.audit().unwrap().is_empty());
        let (&pid, edges) = e.front.requested.lists_mut().next().unwrap();
        edges[0].var1 = mmqjp_relational::Symbol::from_raw(edges[0].var1.raw() + 1_000);
        let edge = (edges[0].edge.0.raw(), edges[0].edge.1.raw());
        let violations = e.audit().unwrap();
        assert!(
            violations.contains(&AuditViolation::RequestedEdgeSymbols {
                pattern: pid.raw(),
                edge
            }),
            "{violations:?}"
        );
    }

    #[test]
    fn front_audit_checks_the_live_emit_plan() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        e.process_document(d1()).unwrap();
        assert!(e.audit().unwrap().is_empty());
        assert!(e.front.requested.merge_plan_classes());
        assert_eq!(
            e.audit().unwrap(),
            vec![AuditViolation::EmitPlan {
                reason: "its edge classes"
            }]
        );
    }

    #[test]
    fn the_caller_is_front_party_zero() {
        // The default front is the caller's thread alone: no front thread.
        let e = ShardedEngine::new(EngineConfig::default());
        assert_eq!(e.front_pool(), 1);
        assert!(e.front.workers.is_empty());
        assert_eq!(e.shards.len(), 1);
        // A pool of three spawns the two parties after the caller's.
        let e = ShardedEngine::new(EngineConfig::default().with_front_pool(3));
        assert_eq!(e.front_pool(), 3);
        assert_eq!(e.front.workers.len(), 2);
        assert!(matches!(
            e.front.sender(0),
            Err(CoreError::FrontUnavailable { worker: 0 })
        ));
        assert!(e.front.sender(2).is_ok());
        assert!(e.front.sender(3).is_err());
    }

    #[test]
    fn single_block_patterns_live_in_the_master_index() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_front_pool(2));
        let single = e.register_query_text(Q_SINGLE).unwrap();
        let pid = e.front.singles[0].pid;
        assert_eq!(e.front.index.refcount(pid), 1);
        // A second, identical subscription shares the pattern.
        let twin = e.register_query_text(Q_SINGLE).unwrap();
        assert_eq!(e.front.singles[1].pid, pid);
        assert_eq!(e.front.index.refcount(pid), 2);
        assert!(e.audit().unwrap().is_empty());
        // Two authors, two witnesses per document, for each subscription.
        let out = e.process_batch(vec![d1(), d1()]).unwrap();
        assert_eq!(out.iter().filter(|m| m.query == single).count(), 4);
        assert_eq!(out.iter().filter(|m| m.query == twin).count(), 4);

        // The audit counts single-block registrations in the refcounts.
        e.front.index.register(e.front.singles[0].pattern.clone());
        assert!(e.audit().unwrap().iter().any(|v| matches!(
            v,
            AuditViolation::PatternRefcount {
                index_refs: 3,
                expected: 2,
                ..
            }
        )));
        e.front.index.unregister(pid);

        e.unregister_query(single).unwrap();
        e.unregister_query(twin).unwrap();
        assert!(e.front.index.is_empty());
        assert!(e.audit().unwrap().is_empty());
    }

    #[test]
    fn zero_shards_and_zero_front_workers_are_clamped_to_one() {
        let e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(0).with_front_pool(0));
        assert_eq!(e.num_shards(), 1);
        assert_eq!(e.front_pool(), 1);
        assert!(e.witness_router().is_empty());
    }

    #[test]
    fn queries_are_distributed_and_ids_are_global() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(4));
        let mut expected = vec![0usize; 4];
        for i in 0..20 {
            let id = e.register_query_text(Q1).unwrap();
            assert_eq!(id, QueryId(i));
            expected[e.shard_of(id)] += 1;
        }
        assert_eq!(e.num_queries(), 20);
        assert_eq!(e.queries_per_shard(), expected.as_slice());
        assert_eq!(e.queries_per_shard().iter().sum::<usize>(), 20);
        // With 20 sequential ids the multiplicative hash touches > 1 shard.
        assert!(expected.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    fn failed_registration_consumes_no_id() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(3).with_front_pool(1));
        assert!(e.register_query_text("not a query at all ///").is_err());
        assert_eq!(e.num_queries(), 0);
        assert!(e.witness_router().is_empty());
        let id = e.register_query_text(Q1).unwrap();
        assert_eq!(id, QueryId(0));
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut e = sharded(EngineConfig::mmqjp_view_mat().with_num_shards(2));
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        // A repeated blog article re-joins under already-cached string
        // values, so the view caches register hits as well as misses.
        e.process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        let per_shard = e.shard_stats().unwrap();
        assert_eq!(per_shard.len(), 2);
        let total = e.stats().unwrap();
        let shard_sum: EngineStats = per_shard.iter().copied().sum();
        assert_eq!(total, shard_sum + e.front_stats());
        assert_eq!(total.queries_registered, 3);
        assert_eq!(total.documents_processed, 3);
        // Q1/Q2 match (book, blog) for each of the two blog timestamps; Q3
        // (blog FOLLOWED BY blog) matches the repeated article pair.
        assert_eq!(total.results_emitted, 5);
        // View-cache counters aggregate across shards: the merged stats are
        // the exact field-wise sums of nonzero per-shard counters.
        assert!(total.view_cache_misses > 0, "caches were exercised");
        assert!(total.view_cache_hits > 0, "repeat strvals hit the caches");
        assert_eq!(
            total.view_cache_hits,
            per_shard.iter().map(|s| s.view_cache_hits).sum::<usize>()
        );
        assert_eq!(
            total.view_cache_misses,
            per_shard.iter().map(|s| s.view_cache_misses).sum::<usize>()
        );
        assert_eq!(
            total.view_cache_evictions,
            per_shard
                .iter()
                .map(|s| s.view_cache_evictions)
                .sum::<usize>()
        );
        assert_eq!(e.config().mode, ProcessingMode::MmqjpViewMat);
        assert!(!e.interner().is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        assert!(e.process_batch(Vec::new()).unwrap().is_empty());
        // Same via the pipelined entry point.
        let results = e.process_batches(vec![Vec::new(), Vec::new()]).unwrap();
        assert_eq!(results, vec![Vec::new(), Vec::new()]);
        assert_eq!(e.stats().unwrap().documents_processed, 0);
    }

    #[test]
    fn out_of_order_document_errors_like_the_single_engine() {
        for front_pool in [1, 2] {
            let mut config = EngineConfig::mmqjp()
                .with_num_shards(3)
                .with_front_pool(front_pool);
            config.enforce_in_order = true;
            let mut e = sharded(config);
            e.process_document(d1().with_timestamp(Timestamp(100)))
                .unwrap();
            let err = e
                .process_document(d2().with_timestamp(Timestamp(50)))
                .unwrap_err();
            assert!(matches!(err, CoreError::OutOfOrderDocument { .. }));
            // The engine keeps working after the rejected document.
            let out = e
                .process_document(d2().with_timestamp(Timestamp(120)))
                .unwrap();
            assert!(!out.is_empty(), "front pool {front_pool}");
        }
    }

    #[test]
    fn unregister_routes_to_the_owning_shard() {
        for shards in [1, 2, 4] {
            let mut e = sharded(EngineConfig::mmqjp().with_num_shards(shards));
            assert_eq!(e.num_queries(), 3);
            e.process_document(d1()).unwrap();
            // Q1 departs; Q2 keeps matching d2.
            e.unregister_query(QueryId(0)).unwrap();
            assert_eq!(e.num_queries(), 2);
            assert_eq!(e.total_queries_registered(), 3);
            assert_eq!(e.queries_per_shard().iter().sum::<usize>(), 2);
            let out = e.process_document(d2()).unwrap();
            assert_eq!(out.len(), 1, "{shards} shards");
            assert_eq!(out[0].query, QueryId(1));
            let stats = e.stats().unwrap();
            assert_eq!(stats.queries_registered, 2);
            assert_eq!(stats.queries_unregistered, 1);
            // Double unregister and unknown ids error without poisoning the
            // engine.
            assert!(matches!(
                e.unregister_query(QueryId(0)),
                Err(CoreError::UnknownQuery { .. })
            ));
            assert!(matches!(
                e.unregister_query(QueryId(99)),
                Err(CoreError::UnknownQuery { .. })
            ));
            assert_eq!(e.num_queries(), 2);
            // Freed global ids are never reused.
            let id = e.register_query_text(Q1).unwrap();
            assert_eq!(id, QueryId(3));
        }
    }

    #[test]
    fn more_shards_than_queries_leaves_some_shards_empty() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(7));
        e.register_query_text(Q1).unwrap();
        assert!(e.queries_per_shard().contains(&0));
        e.process_document(d1()).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
