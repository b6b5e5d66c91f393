//! Multi-core processing: the pipeline ([`crate::pipeline`]) with `N`
//! worker-thread shard slots.
//!
//! [`ShardedEngine`] hash-partitions the *query population* across `N`
//! [`Worker`] slots, each a thread that owns one shard — a join stage with
//! its own registry, join state and view cache, so sharding composes with
//! every mode — and answers its requests with the `serve` an inline slot
//! calls. The front runs on the caller's thread: it matches every document
//! once against its one Stage-1 table and routes each witness row to
//! exactly the shards consuming it (whole documents only when
//! `retain_documents` needs them), and the merge sorts the shards' matches
//! and the front's single-block matches into the canonical `(query,
//! left_doc, right_doc, bindings)` order
//! ([`sort_matches`](crate::sort_matches)): a canonically-sorted
//! single-engine batch for any shard count and interleaving.
//!
//! ```text
//!   docs ─▶ front, on the caller's thread:
//!              │    match once, Stage 1 + single-blocks
//!              │ witness rows, routed to each edge's consumer shards
//!           ▼     ▼     ▼
//!        ┌─────┐┌─────┐┌─────┐
//! qid ──▶│shard││shard││shard│  Stage 2 only, one thread each
//! hash   └──┬──┘└──┬──┘└──┬──┘
//!           ▼     ▼     ▼
//!        canonical merge
//! ```
//!
//! A worker serves each request inside one `catch_unwind`: a panic is
//! answered as [`CoreError::ShardPanicked`] and the worker exits, which the
//! pipeline treats as the shard's death. Shards own their data outright,
//! shapes cross threads behind `Arc`, and the shared [`StringInterner`] is
//! behind `Arc` + `RwLock`; the `assert_send` bindings at the bottom of this
//! module check this at compile time.

use crate::audit::AuditViolation;
use crate::config::EngineConfig;
use crate::engine::JoinStage;
use crate::error::{CoreError, CoreResult};
use crate::fault::{FaultInjector, QuarantineRecord, WorkerFault};
use crate::front::Stage1Table;
use crate::output::MatchOutput;
use crate::pipeline::{self, Answer, Pipeline, Read, Reply, Request, Slot};
use crate::recovery::ReplayLog;
use crate::registry::Stage1Footprint;
use crate::relations::RoutedBatch;
use crate::stats::EngineStats;
use mmqjp_relational::StringInterner;
use mmqjp_xml::Document;
use mmqjp_xscl::{QueryId, XsclQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A multi-core MMQJP engine: `N` join-stage shards over a hash-partitioned
/// query population, fed by one front and merged into a deterministic,
/// canonically-ordered match stream.
///
/// The API mirrors [`MmqjpEngine`](crate::MmqjpEngine): register queries, then feed documents or
/// batches. [`EngineConfig::num_shards`] selects the shard count; the
/// caller's thread matches each document once and routes its witness rows to
/// the subscribing shards. Every other config knob applies to each shard
/// individually.
///
/// ```
/// use mmqjp_core::{EngineConfig, ShardedEngine};
/// use mmqjp_xml::rss;
///
/// // The caller matches once, 4 shard threads join.
/// let mut engine = ShardedEngine::new(EngineConfig::default().with_num_shards(4));
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
    pipeline: Pipeline<Worker>,
}

impl ShardedEngine {
    /// Create a sharded engine with [`EngineConfig::num_shards`] shards (a
    /// count of `0` is treated as `1`), each running the configured
    /// processing mode on its own worker thread. Stage 1 runs on the
    /// calling thread.
    pub fn new(config: EngineConfig) -> Self {
        let shards = config.num_shards.max(1);
        ShardedEngine {
            pipeline: Pipeline::new(config, shards),
        }
    }

    /// The engine configuration (shared by every shard).
    pub fn config(&self) -> &EngineConfig {
        &self.pipeline.config
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.pipeline.slots.len()
    }

    /// Total number of live registered queries across all shards.
    pub fn num_queries(&self) -> usize {
        self.pipeline.num_queries()
    }

    /// Total number of query ids ever minted (each is minted once and never
    /// reused).
    pub fn total_queries_registered(&self) -> usize {
        self.pipeline.next_query as usize
    }

    /// Number of live queries assigned to each shard, by shard index.
    pub fn queries_per_shard(&self) -> &[usize] {
        &self.pipeline.queries_per_shard
    }

    /// The string interner shared by all shards.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.pipeline.interner
    }

    /// The shard a query id is assigned to.
    pub fn shard_of(&self, id: QueryId) -> usize {
        pipeline::shard_of(id, self.num_shards())
    }

    /// The front's Stage-1 subscription table (each shard a consumer of the
    /// edges its queries request), for inspection.
    pub fn stage1_table(&self) -> &Stage1Table {
        self.pipeline.front.table()
    }

    /// Register a query from its textual XSCL form. Returns the query id.
    pub fn register_query_text(&mut self, text: &str) -> CoreResult<QueryId> {
        let query = mmqjp_xscl::parse_query(text)?;
        self.register_query(query)
    }

    /// Register a parsed query on the shard its id hashes to. Returns the
    /// query id, which the shard files the query under and which matches
    /// the id a single [`MmqjpEngine`](crate::MmqjpEngine) registering the
    /// same queries in the same order would assign. A failed registration
    /// changes nothing and consumes no id.
    pub fn register_query(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        self.pipeline.register(query)
    }

    /// Unregister a query on the shard that owns it. Mirrors
    /// [`MmqjpEngine::unregister_query`](crate::MmqjpEngine::unregister_query): the owning shard incrementally
    /// releases the query's footprint, and the freed id is never reused.
    /// Errors with [`CoreError::UnknownQuery`] for ids never assigned or
    /// already unregistered and [`CoreError::ShardUnavailable`] if the owning
    /// shard's worker is gone — in which case the query stays registered.
    pub fn unregister_query(&mut self, id: QueryId) -> CoreResult<()> {
        self.pipeline.unregister(id)
    }

    /// Process one document, returning its matches in canonical order.
    pub fn process_document(&mut self, doc: Document) -> CoreResult<Vec<MatchOutput>> {
        self.process_batch(vec![doc])
    }

    /// Process a batch of documents in arrival order: the front runs Stage 1
    /// once on the caller's thread, the shards join their routed witness
    /// rows, and the per-shard matches are merged into the canonical
    /// `(query, left_doc, right_doc, bindings)` order. The batched-evaluation trade-off of
    /// [`MmqjpEngine::process_batch`](crate::MmqjpEngine::process_batch) applies unchanged.
    pub fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        self.pipeline.process_batch(docs)
    }

    /// Process a sequence of batches, returning each batch's canonical
    /// matches in order: the same outputs and state as
    /// [`process_batch`](Self::process_batch) per batch, but the caller
    /// matches batch `k+1` while the shards join batch `k`. Batches whose
    /// Stage-1 output was ready before the shards finished the previous one
    /// are counted in [`EngineStats::pipeline_stalls`].
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
        self.pipeline.process_batches(batches)
    }

    // ------------------------------------------------------------------
    // Failure model
    // ------------------------------------------------------------------

    /// Install a deterministic fault injector. Each subsequent batch asks
    /// the injector for its scheduled faults ([`FaultKind`](crate::FaultKind)) and delivers
    /// the worker-directed ones (panic a shard, drop a reply) while serving
    /// that batch. Document-content faults are the
    /// chaos harness's job — it owns the input stream and must mutate the
    /// reference stream identically — so the engine ignores them.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.pipeline.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.pipeline.injector.as_ref()
    }

    /// Drain the quarantined-document records accumulated since the last
    /// call (only [`FaultPolicy::Quarantine`](crate::FaultPolicy) produces any). Each record
    /// pins the poison document by `(batch, doc_index)` of the ingestion
    /// call that rejected it.
    pub fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        self.pipeline.front.take_quarantine()
    }

    /// The bounded replay log backing shard recovery. Empty under
    /// [`FaultPolicy::FailFast`](crate::FaultPolicy).
    pub fn replay_log(&self) -> &ReplayLog {
        &self.pipeline.replay_log
    }

    /// Shards whose worker has died and not (yet) been respawned. Always
    /// empty under [`FaultPolicy::Quarantine`](crate::FaultPolicy) between calls (dead shards
    /// are healed inline) and under [`FaultPolicy::FailFast`](crate::FaultPolicy) before the
    /// first failure.
    pub fn degraded_shards(&self) -> Vec<usize> {
        let slots = &self.pipeline.slots;
        (0..slots.len()).filter(|&s| !slots[s].alive()).collect()
    }

    /// Respawn shard `shard`'s worker with deterministically rebuilt state:
    /// its retained queries re-registered and the [`ReplayLog`] replayed.
    /// Requires a recovering fault policy — under
    /// [`FaultPolicy::FailFast`](crate::FaultPolicy) nothing is retained to rebuild from, so this
    /// errors with [`CoreError::ShardUnavailable`]. Under
    /// [`FaultPolicy::Quarantine`](crate::FaultPolicy) the pipeline calls this automatically;
    /// under [`FaultPolicy::Degrade`](crate::FaultPolicy) call it to restore a degraded shard.
    pub fn respawn_shard(&mut self, shard: usize) -> CoreResult<()> {
        let watermark = self.pipeline.front.position().1;
        self.pipeline.respawn(shard, watermark)
    }

    /// Aggregate statistics: the field-wise sum of every shard's
    /// [`EngineStats`], the front's (documents and live patterns are counted
    /// there, once) and the supervisor's failure-model counters
    /// (`shards_respawned`, `faults_injected`, recovery timings). Errors with
    /// [`CoreError::ShardUnavailable`] if a shard worker is gone — except
    /// under [`FaultPolicy::Degrade`](crate::FaultPolicy), where dead shards contribute zeroes.
    pub fn stats(&self) -> CoreResult<EngineStats> {
        self.pipeline.stats()
    }

    /// The front's statistics: `docs_parsed_once`, the Stage-1 rows and
    /// `witnesses_routed`, `pipeline_stalls`, `docs_quarantined`, the live
    /// and dropped patterns, single-block `results_emitted` and the
    /// `xpath` (matching) and `ingest` (routing) timings.
    pub fn front_stats(&self) -> EngineStats {
        self.pipeline.front.stats()
    }

    /// Per-shard statistics snapshots, by shard index. Under
    /// [`FaultPolicy::Degrade`](crate::FaultPolicy) a dead shard reports all-zero stats (its
    /// state died with it); under any other policy a dead shard errors with
    /// [`CoreError::ShardUnavailable`].
    pub fn shard_stats(&self) -> CoreResult<Vec<EngineStats>> {
        self.pipeline.shard_stats()
    }

    /// Run a full invariant audit across the pipeline: every shard's
    /// join-stage audit (wrapped in [`AuditViolation::Shard`]), under a
    /// recovering fault policy the recovery machinery (the retained-query
    /// ledger tracks every live query and the replay log stays within its
    /// retention bound), and the front's audit — the same one
    /// [`MmqjpEngine::audit`](crate::MmqjpEngine::audit) runs. Read-only; a
    /// healthy engine returns an empty vector. Errors with
    /// [`CoreError::ShardUnavailable`] if a shard worker is gone — except
    /// under [`FaultPolicy::Degrade`](crate::FaultPolicy), where dead shards are skipped.
    pub fn audit(&self) -> CoreResult<Vec<AuditViolation>> {
        self.pipeline.audit()
    }
}

// ------------------------------------------------------------------------
// Worker slots
// ------------------------------------------------------------------------

/// A request on its way to a worker, with the fault to deliver while
/// serving it and the channel for the answer.
#[derive(Debug)]
pub(crate) struct Envelope {
    request: Request,
    fault: Option<WorkerFault>,
    reply: Sender<CoreResult<Reply>>,
}

/// A worker slot: the thread that owns one shard and serves its requests.
/// Retiring it — on death, or when it is dropped — closes its channel and
/// reaps the thread.
#[derive(Debug)]
pub(crate) struct Worker {
    sender: Option<Sender<Envelope>>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Send `request`; the answer's channel, or `None` if the worker is
    /// gone.
    fn request(
        &self,
        request: Request,
        fault: Option<WorkerFault>,
    ) -> Option<Receiver<CoreResult<Reply>>> {
        let (reply, answer) = channel();
        let envelope = Envelope {
            request,
            fault,
            reply,
        };
        let sent = (self.sender.as_ref()).is_some_and(|s| s.send(envelope).is_ok());
        sent.then_some(answer)
    }
}

impl Slot for Worker {
    const THREADED: bool = true;
    type Pending = Option<Receiver<CoreResult<Reply>>>;

    fn start(index: usize, join: JoinStage) -> CoreResult<Self> {
        let (sender, requests) = channel();
        let handle = thread::Builder::new()
            .name(format!("mmqjp-shard-{index}"))
            .spawn(move || shard_worker(join, requests, index))
            .map_err(|_| CoreError::ShardUnavailable { shard: index })?;
        Ok(Worker {
            sender: Some(sender),
            handle: Some(handle),
        })
    }

    fn call(&mut self, request: Request, fault: Option<WorkerFault>) -> Self::Pending {
        self.request(request, fault)
    }

    fn read(&self, read: Read) -> Self::Pending {
        self.request(Request::Read(read), None)
    }

    fn wait(pending: Self::Pending, index: usize, stalled: &mut bool) -> Answer {
        let dead = CoreError::ShardUnavailable { shard: index };
        let answer = pending.ok_or_else(|| dead.clone())?;
        let answer = match answer.try_recv() {
            Ok(answer) => answer,
            Err(TryRecvError::Empty) => {
                *stalled = true;
                answer.recv().map_err(|_| dead)?
            }
            Err(TryRecvError::Disconnected) => return Err(dead),
        };
        match answer {
            Err(death @ CoreError::ShardPanicked { .. }) => Err(death),
            answer => Ok(answer),
        }
    }

    fn alive(&self) -> bool {
        self.sender.is_some() && self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    fn retire(&mut self) {
        self.sender = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.retire();
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

/// The worker loop of shard slot `index`: owns the shard and
/// [`serve`](JoinStage::serve)s
/// requests until the sending half of the channel is dropped.
///
/// Every request is served inside one `catch_unwind`: a panic is contained,
/// answered as a typed [`CoreError::ShardPanicked`] (instead of a silently
/// dropped channel), and then the worker retires itself — a panicking
/// shard's state is suspect, so the pipeline must respawn it rather than
/// keep talking to it.
// The spawned worker thread must own its receiver (`'static` loop).
#[allow(clippy::needless_pass_by_value)]
fn shard_worker(mut join: JoinStage, requests: Receiver<Envelope>, index: usize) {
    while let Ok(Envelope {
        request,
        fault,
        reply,
    }) = requests.recv()
    {
        if fault == Some(WorkerFault::DropReply) {
            // Injected desynchronization: the request is neither served
            // nor answered; the dropped reply surfaces at the pipeline as a
            // dead channel.
            continue;
        }
        let served = catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(WorkerFault::Panic) {
                // lint:allow deliberate injected fault, contained by catch_unwind
                panic!("injected fault: shard worker panic");
            }
            join.serve(request)
        }));
        match served {
            Ok(answer) => {
                let _ = reply.send(answer);
            }
            Err(payload) => {
                let _ = reply.send(Err(CoreError::ShardPanicked {
                    shard: index,
                    payload: panic_payload(payload.as_ref()),
                }));
                break;
            }
        }
    }
}

// Compile-time audit that everything crossing (or living on) a shard
// worker thread is `Send`: the shard's join stage, the shared
// interner, and the request and answer payloads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<JoinStage>();
    assert_send::<Arc<StringInterner>>();
    assert_send::<Envelope>();
    assert_send::<Stage1Footprint>();
    assert_send::<RoutedBatch>();
    assert_send::<CoreResult<Reply>>();
    assert_send::<ShardedEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPolicy, ProcessingMode};
    use crate::engine::MmqjpEngine;
    use crate::output::sort_matches;
    use mmqjp_xml::{rss, DocId, Timestamp};
    use std::time::Duration;

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
    fn walkthrough_matches_single_engine_for_every_shard_count() {
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

        for shards in [1, 2, 3, 7] {
            let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(shards));
            for q in [Q1, Q2, Q3, Q_SINGLE] {
                e.register_query_text(q).unwrap();
            }
            assert_eq!(e.num_shards(), shards);
            let out1 = e.process_document(d1()).unwrap();
            assert_eq!(out1, expected_d1, "{shards} shards");
            let out2 = e.process_document(d2()).unwrap();
            assert_eq!(out2, expected_d2, "{shards} shards");
        }
    }

    #[test]
    fn stats_count_documents_once_and_sum_exactly() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(3));
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
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        assert!(!e.stage1_table().is_empty());
        e.process_document(d1()).unwrap();
        e.unregister_query(QueryId(0)).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(1));
        e.unregister_query(QueryId(1)).unwrap();
        e.unregister_query(QueryId(2)).unwrap();
        // The routing table empties with the last subscription.
        assert!(e.stage1_table().is_empty());
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
        let mut reference = sharded(EngineConfig::mmqjp().with_num_shards(2));
        let expected: Vec<Vec<MatchOutput>> = batches
            .clone()
            .into_iter()
            .map(|b| reference.process_batch(b).unwrap())
            .collect();

        let mut pipelined = sharded(EngineConfig::mmqjp().with_num_shards(2));
        let results = pipelined.process_batches(batches).unwrap();
        assert_eq!(results, expected);
        assert_eq!(
            pipelined.stats().unwrap().results_emitted,
            expected.iter().map(Vec::len).sum::<usize>()
        );
    }

    /// One `(pattern, edge, consumer)` refcount off by one, and nothing
    /// else: the single engine's registry and the sharded coordinator keep
    /// the same table, and both audits report the same corruption.
    #[test]
    fn both_audits_report_a_seeded_consumer_refcount() {
        let off_by_one = |out: &[AuditViolation], seeded: (u32, (u32, u32), usize)| {
            matches!(
                out,
                [AuditViolation::EdgeRefcount {
                    pattern,
                    edge,
                    consumer,
                    tracked,
                    expected,
                }] if (*pattern, *edge, *consumer) == seeded && *tracked == *expected + 1
            )
        };
        let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
        for q in [Q1, Q2, Q3] {
            single.register_query_text(q).unwrap();
        }
        assert!(single.audit().is_empty());
        let seeded = single
            .pipeline
            .front
            .table_mut()
            .seed_extra_edge_ref()
            .unwrap();
        assert_eq!(seeded.2, 0, "the single engine's one consumer");
        let out = single.audit();
        assert!(off_by_one(&out, seeded), "{out:?}");

        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(3));
        assert!(e.audit().unwrap().is_empty());
        let seeded = e.pipeline.front.table_mut().seed_extra_edge_ref().unwrap();
        let out = e.audit().unwrap();
        assert!(off_by_one(&out, seeded), "{out:?}");
    }

    /// The sharded engine's audit runs the front's, which checks document
    /// accounting the way the single engine's always did.
    #[test]
    fn front_audit_checks_document_accounting() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        e.process_batch(vec![d1(), d2()]).unwrap();
        assert!(e.audit().unwrap().is_empty());
        e.pipeline.front.stats_mut().documents_processed += 1;
        assert_eq!(
            e.audit().unwrap(),
            vec![AuditViolation::DocumentAccounting {
                documents_processed: 3,
                doc_seq: 2,
            }]
        );
    }

    #[test]
    fn front_audit_detects_stale_requested_edge_symbols() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        assert!(e.audit().unwrap().is_empty());
        let requested = e.pipeline.front.table_mut().requested_mut();
        let (&pid, edges) = requested.lists_mut().next().unwrap();
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
        assert!(e
            .pipeline
            .front
            .table_mut()
            .requested_mut()
            .merge_plan_classes());
        assert_eq!(
            e.audit().unwrap(),
            vec![AuditViolation::EmitPlan {
                reason: "its edge classes"
            }]
        );
    }

    /// Kill shard 1's worker the way a panic while serving an unregistration
    /// does, through the pipeline's one call/collect pair: the request is
    /// not a batch, and its death must still retire the shard and apply the
    /// fault policy. The unregistered id is unknown, so a healed shard's
    /// retry changes nothing.
    fn kill_shard_1(e: &mut ShardedEngine) -> CoreResult<Option<Reply>> {
        let request = Request::Unregister(QueryId(99));
        let pending = e.pipeline.slots[1].call(request.clone(), Some(WorkerFault::Panic));
        let watermark = e.pipeline.front.position().1;
        e.pipeline
            .collect(1, pending, Some(request), watermark, &mut false)
    }

    /// Q1–Q3 on two shards — Q2 (`QueryId(1)`) lives on shard 1 — three
    /// batches, and the single engine's canonical output for each. The
    /// second batch's book joins the third batch's blog under Q2, so a
    /// shard 1 that missed the second batch must replay it.
    type DeadShardFixture = (ShardedEngine, Vec<Vec<Document>>, Vec<Vec<MatchOutput>>);

    fn dead_shard_fixture(policy: FaultPolicy) -> DeadShardFixture {
        let config = EngineConfig::mmqjp().with_num_shards(2);
        let e = sharded(config.clone().with_fault_policy(policy));
        assert_eq!(e.shard_of(QueryId(1)), 1);
        let mut single = MmqjpEngine::new(config);
        for q in [Q1, Q2, Q3] {
            single.register_query_text(q).unwrap();
        }
        let batches = vec![
            vec![d1()],
            vec![d2(), d1().with_timestamp(Timestamp(25))],
            vec![d2().with_timestamp(Timestamp(30))],
        ];
        let expected: Vec<_> = (batches.iter())
            .map(|batch| {
                let mut out = single.process_batch(batch.clone()).unwrap();
                sort_matches(&mut out);
                out
            })
            .collect();
        // Documents are numbered 1.. in arrival order; the book of the
        // second batch is document 3.
        let q2_left = |b: usize, doc| {
            let left = |m: &MatchOutput| m.query == QueryId(1) && m.left_doc == DocId(doc);
            expected[b].iter().any(left)
        };
        assert!(q2_left(1, 1) && q2_left(2, 3));
        (e, batches, expected)
    }

    #[test]
    fn quarantine_heals_a_shard_that_died_outside_a_batch() {
        let (mut e, batches, expected) = dead_shard_fixture(FaultPolicy::Quarantine);
        assert_eq!(e.process_batch(batches[0].clone()).unwrap(), expected[0]);
        let retried = kill_shard_1(&mut e);
        assert!(matches!(retried, Err(CoreError::UnknownQuery { id: 99 })));
        assert!(e.degraded_shards().is_empty());
        assert_eq!(e.stats().unwrap().shards_respawned, 1);
        assert_eq!(e.process_batch(batches[1].clone()).unwrap(), expected[1]);
        assert_eq!(e.process_batch(batches[2].clone()).unwrap(), expected[2]);
        assert!(e.audit().unwrap().is_empty());
    }

    #[test]
    fn degrade_logs_the_batch_a_dead_shard_missed_and_respawn_replays_it() {
        let (mut e, batches, expected) = dead_shard_fixture(FaultPolicy::Degrade);
        assert_eq!(e.process_batch(batches[0].clone()).unwrap(), expected[0]);
        assert!(matches!(kill_shard_1(&mut e), Ok(None)));
        assert_eq!(e.degraded_shards(), vec![1]);
        // Shard 0 serves the batch without Q2's match, and it is logged.
        let out = e.process_batch(batches[1].clone()).unwrap();
        let shard_0: Vec<_> = (expected[1].iter())
            .filter(|m| m.query != QueryId(1))
            .cloned()
            .collect();
        assert_eq!(out, shard_0);
        assert_eq!(e.replay_log().len(), 2);
        e.respawn_shard(1).unwrap();
        assert!(e.degraded_shards().is_empty());
        assert_eq!(e.process_batch(batches[2].clone()).unwrap(), expected[2]);
        assert!(e.audit().unwrap().is_empty());
    }

    #[test]
    fn failfast_fails_the_next_batch_before_any_shard_absorbs_it() {
        let (mut e, batches, expected) = dead_shard_fixture(FaultPolicy::FailFast);
        assert_eq!(e.process_batch(batches[0].clone()).unwrap(), expected[0]);
        let shard_0_stats = |e: &ShardedEngine| {
            let pending = e.pipeline.slots[0].read(Read::Stats);
            match Worker::wait(pending, 0, &mut false) {
                Ok(Ok(Reply::Stats(stats))) => *stats,
                other => panic!("shard 0 answers a stats read: {other:?}"),
            }
        };
        let before = shard_0_stats(&e);
        assert!(matches!(
            kill_shard_1(&mut e),
            Err(CoreError::ShardPanicked { shard: 1, .. })
        ));
        assert_eq!(e.degraded_shards(), vec![1]);
        let err = e.process_batch(batches[1].clone()).unwrap_err();
        assert_eq!(err, CoreError::ShardUnavailable { shard: 1 });
        assert_eq!(shard_0_stats(&e), before, "shard 0 absorbed nothing");
    }

    #[test]
    fn single_block_patterns_live_in_the_master_index() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp());
        let single = e.register_query_text(Q_SINGLE).unwrap();
        let table = e.pipeline.front.table();
        let pid = table.singles()[0].pid;
        assert_eq!(table.index().refcount(pid), 1);
        // A second, identical subscription shares the pattern.
        let twin = e.register_query_text(Q_SINGLE).unwrap();
        let table = e.pipeline.front.table();
        assert_eq!(table.singles()[1].pid, pid);
        assert_eq!(table.index().refcount(pid), 2);
        assert!(e.audit().unwrap().is_empty());
        // Two authors, two witnesses per document, for each subscription.
        let out = e.process_batch(vec![d1(), d1()]).unwrap();
        assert_eq!(out.iter().filter(|m| m.query == single).count(), 4);
        assert_eq!(out.iter().filter(|m| m.query == twin).count(), 4);

        // The audit counts single-block registrations in the refcounts.
        let healthy = e.pipeline.front.table().clone();
        e.pipeline.front.table_mut().seed_extra_pattern_ref(pid);
        assert!(e.audit().unwrap().iter().any(|v| matches!(
            v,
            AuditViolation::PatternRefcount {
                index_refs: 3,
                expected: 2,
                ..
            }
        )));
        *e.pipeline.front.table_mut() = healthy;

        e.unregister_query(single).unwrap();
        e.unregister_query(twin).unwrap();
        assert!(e.pipeline.front.table().is_empty());
        assert!(e.audit().unwrap().is_empty());
    }

    #[test]
    fn zero_shards_are_clamped_to_one() {
        // The default is one shard slot; a count of zero is clamped to it.
        let e = ShardedEngine::new(EngineConfig::default());
        assert_eq!(e.pipeline.slots.len(), 1);
        let e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(0));
        assert_eq!(e.num_shards(), 1);
        assert!(e.stage1_table().is_empty());
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
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(3));
        assert!(e.register_query_text("not a query at all ///").is_err());
        assert_eq!(e.num_queries(), 0);
        assert!(e.stage1_table().is_empty());
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
        let mut config = EngineConfig::mmqjp().with_num_shards(3);
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
        assert!(!out.is_empty());
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
            // Freed ids are never reused.
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
