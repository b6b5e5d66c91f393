//! The MMQJP engine: two-stage processing of XML streams against a large set
//! of registered XSCL queries (Algorithms 1–5 of the paper).
//!
//! [`MmqjpEngine`] is the in-thread instance of the pipeline
//! `front → route → join → merge` ([`crate::pipeline`]): one inline shard
//! slot, served on the caller's thread like the front — no thread, no
//! channel, nothing that can die, so no recovery ledger and no replay log.
//! [`JoinStage`] is what every shard slot of either engine runs: Stage 2,
//! output construction and state maintenance over the witness rows the
//! front routed to it, with every query filed under the id the pipeline
//! minted.
//!
//! A query's own window decides its matches: a pair is emitted iff the
//! temporal predicate holds, its two timestamps lie within the query's
//! horizon ([`recovery::horizon`]) of each other, and the stored
//! document's lies within it of the watermark before the batch. State is
//! evicted at one cutoff, the live queries' largest horizon
//! ([`recovery::retention_bound`]), so no eviction removes a document the
//! rule accepts, and every shard layout emits what the single engine does.

use crate::audit::AuditViolation;
use crate::config::{EngineConfig, ProcessingMode};
use crate::cqt::PlanInputKind;
use crate::error::{CoreError, CoreResult};
use crate::explain::{explain, PlanExplain};
use crate::fault::QuarantineRecord;
use crate::front::Stage1Table;
use crate::output::{construct_join_output, Binding, MatchOutput};
use crate::pipeline::{Inline, Pipeline, Read, Reply, Request};
use crate::recovery;
use crate::registry::{Orientation, QueryRuntime, Registry, Stage1Footprint};
use crate::relations::{node_of, rl_row, schemas, timestamp_in, RoutedBatch, WitnessBatch};
use crate::state::{key_int, key_sym, JoinState, RestrictionScratch};
use crate::stats::{EngineStats, PhaseTimings};
use crate::view_cache::ViewCache;
use mmqjp_relational::{
    ChunkedRows, ExecScratch, FxHashMap, PhysicalPlan, PlanInput, Relation, RowRef, StringInterner,
    Symbol,
};
use mmqjp_xml::{DocId, Document, NodeId, Timestamp};
use mmqjp_xpath::TreePattern;
use mmqjp_xscl::{JoinOp, QueryId, SelectClause, Side, XsclQuery};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The Massively Multi-Query Join Processing engine.
///
/// See the crate-level documentation for an overview and a quick-start
/// example. The engine is single-threaded by design (the paper's system is a
/// single Join Processor instance): it is the pipeline with one inline shard
/// slot. [`ShardedEngine`](crate::ShardedEngine) is the same pipeline with
/// worker-thread slots.
#[derive(Debug)]
pub struct MmqjpEngine {
    pub(crate) pipeline: Pipeline<Inline>,
}

impl MmqjpEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        MmqjpEngine {
            pipeline: Pipeline::new(config, 1),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.pipeline.config
    }

    /// Cumulative statistics: the front's and the join stage's together.
    pub fn stats(&self) -> EngineStats {
        // An inline slot cannot die, so reading it cannot fail.
        self.pipeline.stats().unwrap_or_default()
    }

    /// Run a full invariant audit over the engine's redundant bookkeeping —
    /// the front's subscriptions and Stage-1 table, registry refcounts,
    /// catalog discipline, join-state indexes and counters, the interner's
    /// index, document accounting and the timestamp watermark — returning
    /// every violated invariant as a typed [`AuditViolation`]. Read-only and
    /// side-effect free; a healthy engine returns an empty vector, and any
    /// violation indicates an engine bug (see [`AuditViolation`]).
    pub fn audit(&self) -> Vec<AuditViolation> {
        // An inline slot cannot die, so reading it cannot fail.
        self.pipeline.audit().unwrap_or_default()
    }

    /// The front's Stage-1 subscription table: pattern index, requested
    /// edges and single-block subscriptions.
    pub fn stage1_table(&self) -> &Stage1Table {
        self.pipeline.front.table()
    }

    /// The plans behind query `id`'s join, one per orientation of its shape
    /// (none for a single-block subscription): the template, the plan
    /// variant the engine's mode runs, and the plan's memoized join order
    /// with estimated and actual rows per step. `None` for an unknown id.
    pub fn explain(&self, id: QueryId) -> Option<Vec<PlanExplain>> {
        // An inline slot cannot die, so reading it cannot fail.
        self.pipeline.explain(id).unwrap_or_default()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.pipeline.num_queries()
    }

    /// Number of distinct query templates.
    pub fn num_templates(&self) -> usize {
        self.registry().num_templates()
    }

    /// Number of distinct Stage-1 tree patterns.
    pub fn num_patterns(&self) -> usize {
        self.stage1_table().index().len()
    }

    /// Access the query registry (templates, queries, catalog).
    pub fn registry(&self) -> &Registry {
        &self.pipeline.join().registry
    }

    /// The shared string interner.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.pipeline.interner
    }

    /// Register a query from its textual XSCL form. Returns the query id.
    pub fn register_query_text(&mut self, text: &str) -> CoreResult<QueryId> {
        let query = mmqjp_xscl::parse_query(text)?;
        self.register_query(query)
    }

    /// Register a parsed query. Returns the query id.
    ///
    /// A subscription registered mid-stream only joins documents that
    /// arrive after it: resident join state from earlier documents is never
    /// matched against it, so registration order (not just the query set)
    /// defines each query's visible stream.
    pub fn register_query(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        self.pipeline.register(query)
    }

    /// Drain the quarantine ledger: every poison document skipped so far
    /// under [`FaultPolicy::Quarantine`](crate::FaultPolicy), in arrival
    /// order. Empty under other policies (poison then fails its batch
    /// instead).
    pub fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        self.pipeline.front.take_quarantine()
    }

    /// Unregister a query, releasing every shared structure it took part in
    /// in O(its footprint): its `RT` tuples (an emptied template is
    /// retired), its Stage-1 patterns and requested edges (refcounted), the
    /// window bounds (document retention can tighten) and the view-cache
    /// slices of canonical variables that died with it. The pipeline mints
    /// each [`QueryId`] once, so a freed id is never reused, and the
    /// registry keeps no trace of it. Join-state rows only its patterns
    /// produced are inert and age out with their time bucket.
    ///
    /// Errors with [`CoreError::UnknownQuery`] for ids never assigned or
    /// already unregistered.
    pub fn unregister_query(&mut self, id: QueryId) -> CoreResult<()> {
        self.pipeline.unregister(id)
    }

    /// Process one document, returning the matches it produced.
    pub fn process_document(&mut self, doc: Document) -> CoreResult<Vec<MatchOutput>> {
        self.process_batch(vec![doc])
    }

    /// Process a batch of documents in arrival order.
    ///
    /// All documents of the batch are joined against the *pre-batch* join
    /// state, then merged into the state together — exactly the batched
    /// evaluation the paper uses for its RSS throughput experiment. With a
    /// batch size of one this is identical to [`process_document`]; with
    /// larger batches, matches *within* the batch are not reported (the same
    /// trade-off the paper makes).
    ///
    /// [`process_document`]: MmqjpEngine::process_document
    pub fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        self.pipeline.process_batch(docs)
    }
}

/// The join stage of the pipeline: Stage 2, output construction and state
/// maintenance over witness rows a front already produced — the registry,
/// the windowed join state, the view cache and the executor scratch. Every
/// shard slot of the pipeline owns one — inline in the single engine, on a
/// worker thread in the sharded one — and only [`serve`](Self::serve)
/// registers, unregisters and joins on it: the methods behind it are
/// private, and no code outside this module holds a `&mut JoinStage` but a
/// slot, which hands it requests. Its stream position follows the
/// routed metadata, so mid-stream registrations get the same arrival floor
/// whichever front fed it.
#[derive(Debug)]
pub(crate) struct JoinStage {
    config: EngineConfig,
    interner: Arc<StringInterner>,
    registry: Registry,
    /// The windowed join state: time-bucketed `Rbin`/`Rdoc`/`RdocTS`,
    /// per-bucket secondary indexes and the retained documents.
    state: JoinState,
    view_cache: ViewCache,
    /// Pooled executor buffers (selection vectors, join hash tables,
    /// row-id intermediates) reused by every plan execution of this stage.
    scratch: ExecScratch,
    /// Pooled buffers of the basic-mode batch restriction.
    restriction: RestrictionScratch,
    stats: EngineStats,
    /// The newest timestamp absorbed: the watermark window eviction and the
    /// state audit measure against.
    newest_timestamp: u64,
}

impl JoinStage {
    /// An empty join stage.
    pub(crate) fn new(config: EngineConfig, interner: Arc<StringInterner>) -> Self {
        JoinStage {
            registry: Registry::new(Arc::clone(&interner)),
            state: JoinState::new(),
            view_cache: ViewCache::new(config.view_cache_capacity),
            scratch: ExecScratch::new(),
            restriction: RestrictionScratch::default(),
            stats: EngineStats::default(),
            newest_timestamp: 0,
            interner,
            config,
        }
    }

    /// Serve one shard request: the one place a join stage registers,
    /// unregisters and joins. A worker thread calls it inside
    /// `catch_unwind`, an inline slot directly.
    pub(crate) fn serve(&mut self, request: Request) -> CoreResult<Reply> {
        match request {
            Request::Register(query, id, floor) => {
                Ok(Reply::Register(self.register(query, id, floor)?))
            }
            Request::Unregister(id) => {
                self.unregister(id)?;
                Ok(Reply::Unregister)
            }
            Request::Batch(routed) => Ok(Reply::Batch(self.process(routed)?)),
            Request::Read(read) => Ok(self.read(read)),
        }
    }

    /// The answer to a read-only request, which a `&self` caller can make.
    pub(crate) fn read(&self, read: Read) -> Reply {
        match read {
            Read::Stats => Reply::Stats(Box::new(self.stats())),
            Read::Audit => {
                let mut out = Vec::new();
                self.audit(&mut out);
                Reply::Audit(out)
            }
            Read::Explain(id) => Reply::Explain(explain(&self.registry, self.config.mode, id)),
        }
    }

    /// The join stage's statistics.
    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.queries_registered = self.registry.num_queries();
        s.templates = self.registry.num_templates();
        s.rbin_tuples = self.state.rbin_len();
        s.rdoc_tuples = self.state.rdoc_len();
        s.state_buckets = self.state.num_buckets();
        s.docs_retained = self.state.docs_retained();
        s.shapes_built = self.registry.shapes_built();
        s.shapes_reused = self.registry.shapes_reused();
        s.plans_compiled = self.registry.plans_compiled();
        s.rows_materialized = self.scratch.rows_materialized() as usize;
        s.scratch_reuses = self.scratch.scratch_reuses() as usize;
        s.join_tables_built = self.scratch.join_tables_built() as usize;
        s.join_tables_reused = self.scratch.join_tables_reused() as usize;
        s.join_tables_kept = self.scratch.join_tables_kept() as usize;
        s.join_orders_planned = self.scratch.join_orders_planned() as usize;
        s.join_orders_reused = self.scratch.join_orders_reused() as usize;
        s.join_rows_probed = self.scratch.rows_probed() as usize;
        s.join_ids_moved = self.scratch.ids_moved() as usize;
        s.join_executions = self.scratch.executions() as usize;
        s.join_executions_empty = self.scratch.executions_empty() as usize;
        let vc = self.view_cache.stats();
        s.view_cache_hits = vc.hits;
        s.view_cache_misses = vc.misses;
        s.view_cache_evictions = vc.evictions;
        s
    }

    /// Audit the registry, the join state against the newest timestamp
    /// absorbed, and the interner's index.
    fn audit(&self, out: &mut Vec<AuditViolation>) {
        self.registry.audit(out);
        self.state.audit(self.newest_timestamp, out);
        if let Err(e) = self.interner.check_index() {
            out.push(AuditViolation::InternerIndex {
                indexed: e.indexed,
                strings: e.strings,
                unreachable: e.unreachable.map(Symbol::raw),
            });
        }
    }

    /// Register a query under `id`, the id the pipeline minted, joining
    /// only documents with ids above `floor` (see
    /// [`QueryRuntime::arrival_floor`]). Returns the Stage-1 footprint its
    /// front must subscribe.
    fn register(
        &mut self,
        query: XsclQuery,
        id: QueryId,
        floor: u64,
    ) -> CoreResult<Stage1Footprint> {
        self.registry.register(query, id, self.config.mode, floor)
    }

    /// Unregister a query (see [`MmqjpEngine::unregister_query`]): release
    /// its registry footprint, purge the view-cache slices of the canonical
    /// variables that died with it and re-derive the bucket width when the
    /// retention bound tightened.
    fn unregister(&mut self, id: QueryId) -> CoreResult<()> {
        let effects = self.registry.unregister(id)?;
        self.stats.queries_unregistered += 1;
        self.stats.templates_retired += effects.templates_retired;
        if !effects.dead_vars.is_empty() {
            let dead: HashSet<Symbol> = effects.dead_vars.iter().copied().collect();
            self.stats.view_slices_invalidated += self.view_cache.purge_dead_vars(&dead);
        }
        // When the retention bound tightened, re-derive the bucket width so
        // eviction granularity follows the surviving windows (a one-time
        // re-partition of resident state; never widens). Skipped while no
        // retention bound exists at all (an infinite-window query is live
        // and no cap is set): nothing can be evicted then, so re-bucketing
        // unbounded state would be pure cost — the tighten happens when the
        // bound-blocking query itself departs.
        if effects.window_changed && self.doc_retention_bound().is_some() {
            if let Some(width) = self.width_hint().map(JoinState::derive_width) {
                self.state.tighten_width(width)?;
            }
        }
        Ok(())
    }

    /// Rebuild join state from an already-processed batch, replayed by the
    /// front: state maintenance only. Stage 2 and output construction are
    /// skipped — the batch's matches were delivered before the crash, and
    /// the view cache is a pure cache that may start cold. Counts
    /// `rows_replayed` and the `recovery` phase.
    pub(crate) fn replay(&mut self, routed: RoutedBatch) -> CoreResult<()> {
        let t0 = Instant::now();
        let RoutedBatch {
            batch,
            doc_meta,
            docs,
        } = routed;
        let rows = batch.num_witness_rows();
        self.advance_watermarks(&doc_meta);
        self.maintain_state(batch, &doc_meta, docs, None)?;
        self.stats.rows_replayed += rows;
        self.stats.timings.recovery += t0.elapsed();
        Ok(())
    }

    /// Move the timestamp watermark up to `newest` — after a replay whose
    /// retained suffix may not reach the live stream position (the log is
    /// bounded; the watermark is not). Never moves it backwards.
    pub(crate) fn restore_watermark(&mut self, newest: u64) {
        self.newest_timestamp = self.newest_timestamp.max(newest);
    }

    /// Move the watermark up to cover documents stamped by the front (now,
    /// or in a previous life).
    fn advance_watermarks(&mut self, doc_meta: &[(DocId, u64)]) {
        for &(_, ts) in doc_meta {
            self.restore_watermark(ts);
        }
    }

    /// Stage 2, output construction and state maintenance over one batch
    /// of routed witness rows. An empty batch (every document quarantined)
    /// is a no-op.
    fn process(&mut self, routed: RoutedBatch) -> CoreResult<Vec<MatchOutput>> {
        let RoutedBatch {
            batch,
            doc_meta,
            docs,
        } = routed;
        if doc_meta.is_empty() {
            return Ok(Vec::new());
        }
        let mut timings = PhaseTimings::default();
        // The watermark before this batch, which every eviction so far cut at.
        let watermark = self.newest_timestamp;
        self.advance_watermarks(&doc_meta);

        // The compiled plans execute over *borrowed* state: the registry's
        // templates (plans and RT relations), the segmented join state and
        // the batch's witness relations are read in place — nothing is
        // cloned or moved per batch.
        let mut outputs = Vec::new();
        // The per-batch RbinW index built during view-materialized
        // evaluation is handed on to maintenance so it is never built twice.
        let mut rbinw_index: Option<RbinwByDocnode> = None;
        if self.registry.num_templates() > 0 && !batch.is_empty() {
            let result_rows = self.evaluate_stage2(&batch, &mut rbinw_index, &mut timings)?;
            let t_out = Instant::now();
            let batch_ts = batch.sorted_timestamps();
            for (rid, rows) in result_rows {
                // A shard holds `docs` only when documents are
                // retained; output document construction is gated on
                // retention, so an empty slice is never consulted.
                outputs.extend(self.produce_outputs(rid, &rows, &batch_ts, &docs, watermark)?);
            }
            timings.output += t_out.elapsed();
        }

        // Maintenance (Algorithm 2 / 5). Output construction is done with
        // the documents, so retained ones move into the state.
        let t_maint = Instant::now();
        let maintenance = self.maintain_state(batch, &doc_meta, docs, rbinw_index);
        timings.maintenance += t_maint.elapsed();
        maintenance?;

        self.stats.results_emitted += outputs.len();
        self.stats.timings += timings;
        Ok(outputs)
    }

    /// Stage-2 dispatch shared by the document and witness ingest paths.
    fn evaluate_stage2(
        &mut self,
        batch: &WitnessBatch,
        rbinw_index: &mut Option<RbinwByDocnode>,
        timings: &mut PhaseTimings,
    ) -> CoreResult<ResultRows> {
        // The one place the relations behind the shared input tags change:
        // every join table memoized for the previous batch is dropped here.
        self.scratch.begin_batch();
        match self.config.mode {
            ProcessingMode::Sequential => evaluate_sequential(
                &mut self.registry,
                &self.state,
                &mut self.scratch,
                batch,
                timings,
            ),
            ProcessingMode::Mmqjp => {
                let (rows, _) = evaluate_mmqjp(
                    &mut self.registry,
                    &self.state,
                    SharedInputs::Restricted(&mut self.restriction),
                    &mut self.scratch,
                    batch,
                    timings,
                )?;
                Ok(rows)
            }
            ProcessingMode::MmqjpViewMat => {
                let (rows, index) = evaluate_mmqjp(
                    &mut self.registry,
                    &self.state,
                    SharedInputs::Materialized(&mut self.view_cache),
                    &mut self.scratch,
                    batch,
                    timings,
                )?;
                *rbinw_index = index;
                Ok(rows)
            }
        }
    }

    // --------------------------------------------------------------------
    // Output production (Algorithm 3)
    // --------------------------------------------------------------------

    /// Turn a result relation into match outputs, applying the matching
    /// rule (see the [module docs](self)) against `watermark`, the
    /// watermark before this batch. `rid_override` is `-1` for template
    /// results (which carry a qid column) and a concrete rid for Sequential
    /// results; `batch_ts` is the batch's
    /// [`WitnessBatch::sorted_timestamps`]. A qid, document or node column
    /// that does not hold an integer is [`CoreError::CorruptStateRow`],
    /// never a dropped or misbound match.
    fn produce_outputs(
        &self,
        rid_override: i64,
        rows: &Relation,
        batch_ts: &[(DocId, Timestamp)],
        batch_docs: &[Document],
        watermark: u64,
    ) -> CoreResult<Vec<MatchOutput>> {
        let mut outputs = Vec::new();
        let template_mode = rid_override < 0;
        for row in rows.iter() {
            let (rid, d1, d2, nodes_offset) = if template_mode {
                (
                    key_int(&row[0], RESULT, "qid")?,
                    key_int(&row[1], RESULT, "d1")?,
                    key_int(&row[2], RESULT, "d2")?,
                    3usize,
                )
            } else {
                (
                    rid_override,
                    key_int(&row[0], RESULT, "d1")?,
                    key_int(&row[1], RESULT, "d2")?,
                    2usize,
                )
            };
            let Some((query, orientation)) = self.registry.resolve_rid(rid) else {
                continue;
            };
            // Document ids are u64 end-to-end; a negative id in a result row
            // cannot refer to any retained or in-batch document.
            let (Ok(d1), Ok(d2)) = (u64::try_from(d1), u64::try_from(d2)) else {
                continue;
            };
            let (d1, d2) = (DocId(d1), DocId(d2));
            // A subscription only joins documents that arrived after its
            // registration (document ids are arrival sequence numbers).
            if d1.raw() <= query.arrival_floor || d2.raw() <= query.arrival_floor {
                continue;
            }
            let Some(ts1) = self.state.doc_timestamp(d1) else {
                continue;
            };
            let Some(ts2) = timestamp_in(batch_ts, d2).map(|t| t.raw()) else {
                continue;
            };
            // The matching rule: FOLLOWED BY orders the pair, and the
            // query's horizon (its window, capped) bounds both the pair's
            // distance and the stored document's age behind the watermark.
            let ordered = query.shape().op() != Some(JoinOp::FollowedBy) || ts2 > ts1;
            let window = query.window.unwrap_or(mmqjp_xscl::Window::Infinite);
            let in_horizon = match recovery::horizon(window, self.config.doc_retention_cap) {
                Some(h) => ts2.abs_diff(ts1) <= h && ts1.saturating_add(h) >= watermark,
                None => true,
            };
            if !ordered || !in_horizon {
                continue;
            }
            outputs.push(self.build_match(
                query,
                orientation,
                row,
                nodes_offset,
                d1,
                d2,
                batch_docs,
            )?);
        }
        Ok(outputs)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_match(
        &self,
        query: &QueryRuntime,
        orientation: &Orientation,
        row: RowRef<'_>,
        nodes_offset: usize,
        d1: DocId,
        d2: DocId,
        batch_docs: &[Document],
    ) -> CoreResult<MatchOutput> {
        let mut bindings = Vec::with_capacity(orientation.assignment.len());
        for (i, variable) in orientation.assignment.iter().enumerate() {
            let node = node_of(key_int(&row[nodes_offset + i], RESULT, "node")?);
            let doc = if i < orientation.num_left { d1 } else { d2 };
            bindings.push(Binding {
                variable: variable.clone(),
                doc,
                node,
            });
        }

        // Map template sides back to the query's own left/right blocks.
        let (left_doc, right_doc) = if orientation.swapped {
            (d2, d1)
        } else {
            (d1, d2)
        };

        let document = if self.config.retain_documents && query.select == SelectClause::Star {
            self.construct_output_document(
                query,
                orientation,
                row,
                nodes_offset,
                d1,
                d2,
                batch_docs,
            )?
        } else {
            None
        };

        Ok(MatchOutput {
            query: query.id,
            publish: query.publish.clone(),
            left_doc,
            right_doc,
            bindings,
            document,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn construct_output_document(
        &self,
        query: &QueryRuntime,
        orientation: &Orientation,
        row: RowRef<'_>,
        nodes_offset: usize,
        d1: DocId,
        d2: DocId,
        batch_docs: &[Document],
    ) -> CoreResult<Option<Document>> {
        let Some(prev_doc) = self.state.document(d1) else {
            return Ok(None);
        };
        let Some(cur_doc) = batch_docs.iter().find(|d| d.id() == d2) else {
            return Ok(None);
        };

        // Root binding of a side: the binding of the template-side root
        // position when that position corresponds to the query's pattern
        // root, otherwise the document root.
        let side_root = |side: Side, pattern: &TreePattern| -> CoreResult<NodeId> {
            let pos = match side {
                Side::Left => 0,
                Side::Right => orientation.num_left,
            };
            let root_var = pattern.root().variable().unwrap_or("");
            Ok(if orientation.assignment[pos] == root_var {
                node_of(key_int(&row[nodes_offset + pos], RESULT, "node")?)
            } else {
                NodeId::ROOT
            })
        };
        let (prev_pattern, cur_pattern) = query.shape().patterns(orientation);
        let prev_root = side_root(Side::Left, prev_pattern)?;
        let cur_root = side_root(Side::Right, cur_pattern)?;

        // The output puts the query's left block first.
        let out = if orientation.swapped {
            construct_join_output(cur_doc, cur_root, prev_doc, prev_root)?
        } else {
            construct_join_output(prev_doc, prev_root, cur_doc, cur_root)?
        };
        Ok(Some(out))
    }

    // --------------------------------------------------------------------
    // State maintenance (Algorithm 2 / Algorithm 5)
    // --------------------------------------------------------------------

    fn maintain_state(
        &mut self,
        batch: WitnessBatch,
        meta: &[(DocId, u64)],
        docs: Vec<Document>,
        rbinw_index: Option<RbinwByDocnode>,
    ) -> CoreResult<()> {
        // Algorithm 5: fold the current documents' RR contributions into the
        // cached RL slices so future documents find them materialized.
        if self.config.mode == ProcessingMode::MmqjpViewMat {
            // Group the batch's RdocW rows by string value and append the
            // corresponding RbinW rows to the matching cache slices (only for
            // string values already cached — new values will be computed on
            // first use), one relation per string value, in first-occurrence
            // order. The RbinW index was usually already built during
            // evaluation; it is only rebuilt when Stage 2 was skipped.
            let rbinw_by_docnode = match rbinw_index {
                Some(index) => index,
                None => rbinw_by_docnode(&batch)?,
            };
            let mut additions: Vec<(Symbol, Relation)> = Vec::new();
            let mut slot_of: FxHashMap<Symbol, usize> = FxHashMap::default();
            for row in batch.rdoc_w.iter() {
                let sym = key_sym(&row[2], "RdocW", "strVal")?;
                if !self.view_cache.contains(sym) {
                    continue;
                }
                let docid = key_int(&row[0], "RdocW", "docid")?;
                let node = key_int(&row[1], "RdocW", "node")?;
                let Some(bin_rows) = rbinw_by_docnode.get(&(docid, node)) else {
                    continue;
                };
                let slot = *slot_of.entry(sym).or_insert_with(|| {
                    additions.push((sym, Relation::new(schemas::rl())));
                    additions.len() - 1
                });
                let addition = &mut additions[slot].1;
                for &bin_row in bin_rows {
                    addition.push_array(rl_row(batch.rbin_w.row(bin_row), sym))?;
                }
            }
            for (sym, addition) in &additions {
                self.view_cache.append(*sym, addition)?;
            }
        }

        // Algorithm 2: append the batch into its timestamp buckets,
        // maintaining the per-bucket indexes and document lists. The
        // bucket width follows the registered windows; if documents were
        // processed before any windowed query existed, the provisional width
        // is revised (with a one-time re-partition) once a bound appears.
        let derived = self.width_hint().map(JoinState::derive_width);
        self.state.ensure_width(derived)?;
        // The batch is consumed here: its witness rows move whole into the
        // segmented store, no per-row field copies. Then the state expires
        // at the one retention cutoff: the whole buckets no live query's
        // horizon reaches leave — rows, chains and documents together,
        // O(expired rows), no index rebuild — and exactly the view-cache
        // slices whose string values lost rows are invalidated.
        let cutoff = self
            .doc_retention_bound()
            .map(|bound| self.newest_timestamp.saturating_sub(bound));
        let retain = self.config.retain_documents;
        let eviction = self
            .state
            .absorb_routed(batch, meta, docs, retain, cutoff)?;
        if !eviction.expired_strvals.is_empty() {
            let before = self.view_cache.len();
            self.view_cache
                .invalidate_if(|k| eviction.expired_strvals.contains(&k));
            self.stats.view_slices_invalidated += before - self.view_cache.len();
        }
        self.stats.state_buckets_evicted += eviction.buckets;
        self.stats.state_rows_evicted += eviction.rows;
        self.stats.docs_evicted += eviction.docs;
        Ok(())
    }

    /// How long rows and documents must be retained: the largest horizon of
    /// the live queries (see [`recovery::retention_bound`]).
    fn doc_retention_bound(&self) -> Option<u64> {
        recovery::retention_bound(
            self.registry.bounding_windows(),
            self.config.doc_retention_cap,
        )
    }

    /// The retention span the bucket width is derived from. Uses the largest
    /// *finite* window even when infinite windows exist (width is a pure
    /// granularity parameter: the matching rule, not the bucket an eviction
    /// happens to keep, decides every match).
    fn width_hint(&self) -> Option<u64> {
        let cap = self.config.doc_retention_cap;
        self.registry
            .max_finite_window()
            .into_iter()
            .chain(cap)
            .min()
    }
}

// ------------------------------------------------------------------------
// Stage-2 evaluation strategies (compiled-plan execution)
// ------------------------------------------------------------------------
//
// These are free functions over the engine's parts (registry, state, view
// cache, scratch) rather than `&mut self` methods so the borrow checker can
// see that plan execution only *reads* the registry and join state while
// writing the scratch pool — which is what lets the hot path run without
// moving or cloning any relation.

/// The per-batch evaluation context: chunked views over the segmented join
/// state (each built on the batch's first read of it, so a batch whose
/// plans never read the state in place builds none), the batch's witness
/// relations and the optional `RL`/`RR` intermediates. Every plan execution
/// of the batch resolves its input slots against this.
struct EvalInputs<'a> {
    state: &'a JoinState,
    rbin: OnceCell<ChunkedRows<'a>>,
    rdoc: OnceCell<ChunkedRows<'a>>,
    batch: &'a WitnessBatch,
    rl: Option<Relation>,
    rr: Option<Relation>,
    /// Basic MMQJP mode only: the resident `Rdoc` rows whose string value
    /// occurs in the current batch, computed once per batch and shared by
    /// every template. Sound because every basic-plan `Rdoc` atom equates
    /// its strVal variable with an `RdocW` atom's — rows with absent string
    /// values can never join.
    rdoc_restricted: Option<Relation>,
    /// Basic MMQJP mode only: the resident `Rbin` rows of documents that
    /// survive the `Rdoc` restriction, or `None` when that would be every
    /// row (every resident document survives it): plans then read the
    /// state in place. Only substituted for plans that also read `Rdoc`
    /// (all left-side atoms share its document variable there).
    rbin_restricted: Option<Relation>,
}

impl<'a> EvalInputs<'a> {
    fn new(state: &'a JoinState, batch: &'a WitnessBatch) -> Self {
        EvalInputs {
            state,
            rbin: OnceCell::new(),
            rdoc: OnceCell::new(),
            batch,
            rl: None,
            rr: None,
            rdoc_restricted: None,
            rbin_restricted: None,
        }
    }

    /// Resolve a plan's input slots for one execution. `rt` is the owning
    /// template's `RT` relation, stamped with its version by
    /// [`TemplateRuntime::executable`](crate::registry::TemplateRuntime)
    /// (`None` for per-query plans, which never reference one). Everything
    /// but `RT` is the same relation for every execution of the batch and is
    /// tagged so (see [`tag`]); `RT` is the same for as long as its version
    /// is, across batches, so its plan keeps its join table.
    fn resolve<'b>(
        &'b self,
        kinds: &[PlanInputKind],
        rt: Option<PlanInput<'b>>,
        inputs: &mut Vec<PlanInput<'b>>,
    ) -> CoreResult<()> {
        inputs.clear();
        // The Rbin restriction is derived from the restricted Rdoc's
        // document ids, so it is only sound for plans whose Rbin atoms share
        // a document variable with an Rdoc atom — i.e. plans that read Rdoc.
        let narrow_rbin = self.rbin_restricted.is_some() && kinds.contains(&PlanInputKind::Rdoc);
        for kind in kinds {
            inputs.push(match kind {
                PlanInputKind::Rbin if narrow_rbin => PlanInput::from(
                    self.rbin_restricted
                        .as_ref()
                        .ok_or(CoreError::internal("narrow_rbin implies a restricted Rbin"))?,
                )
                .shared(tag::RBIN_RESTRICTED),
                PlanInputKind::Rbin => {
                    let rbin =
                        (self.rbin).get_or_init(|| ChunkedRows::from_segmented(self.state.rbin()));
                    PlanInput::from(rbin).shared(tag::RBIN)
                }
                PlanInputKind::Rdoc => match &self.rdoc_restricted {
                    Some(restricted) => PlanInput::from(restricted).shared(tag::RDOC_RESTRICTED),
                    None => {
                        let rdoc = (self.rdoc)
                            .get_or_init(|| ChunkedRows::from_segmented(self.state.rdoc()));
                        PlanInput::from(rdoc).shared(tag::RDOC)
                    }
                },
                PlanInputKind::RbinW => PlanInput::from(&self.batch.rbin_w).shared(tag::RBIN_W),
                PlanInputKind::RdocW => PlanInput::from(&self.batch.rdoc_w).shared(tag::RDOC_W),
                PlanInputKind::Rl => PlanInput::from(
                    self.rl
                        .as_ref()
                        .ok_or(CoreError::internal("RL is computed in materialized mode"))?,
                )
                .shared(tag::RL),
                PlanInputKind::Rr => PlanInput::from(
                    self.rr
                        .as_ref()
                        .ok_or(CoreError::internal("RR is computed in materialized mode"))?,
                )
                .shared(tag::RR),
                PlanInputKind::Rt => {
                    rt.ok_or(CoreError::internal("template plans carry an RT input"))?
                }
            });
        }
        Ok(())
    }
}

/// The relation name a corrupt Stage-2 result row is reported under.
const RESULT: &str = "result";

/// Shared-input tags of the relations [`EvalInputs::resolve`] hands out: one
/// per relation that is the same for every plan execution of a batch.
mod tag {
    pub const RBIN: u32 = 0;
    pub const RBIN_RESTRICTED: u32 = 1;
    pub const RDOC: u32 = 2;
    pub const RDOC_RESTRICTED: u32 = 3;
    pub const RBIN_W: u32 = 4;
    pub const RDOC_W: u32 = 5;
    pub const RL: u32 = 6;
    pub const RR: u32 = 7;
}

/// Execute one compiled plan of the batch. The only error an execution can
/// raise is a shared join table that outlived its batch.
fn execute_plan(
    plan: &mut PhysicalPlan,
    inputs: &[PlanInput<'_>],
    scratch: &mut ExecScratch,
) -> CoreResult<Relation> {
    plan.execute(inputs, scratch, true).map_err(|_| {
        CoreError::internal(
            "a shared join table outlived its batch (scratch not reset at Stage-2 entry)",
        )
    })
}

/// Per-batch index of `RbinW` rows by `(docid, node2)`, used both to build
/// the `RR` slices and to fold the batch into cached `RL` slices.
type RbinwByDocnode = FxHashMap<(i64, i64), Vec<usize>>;

/// One Stage-2 result set: `(rid filter, rows)` per non-empty evaluation,
/// where `rid = -1` marks template results (which carry their own qid
/// column).
type ResultRows = Vec<(i64, Relation)>;

/// Build the [`RbinwByDocnode`] index for a batch.
fn rbinw_by_docnode(batch: &WitnessBatch) -> CoreResult<RbinwByDocnode> {
    let mut index: RbinwByDocnode = FxHashMap::default();
    for (i, row) in batch.rbin_w.iter().enumerate() {
        let key = (
            key_int(&row[0], "RbinW", "docid")?,
            key_int(&row[4], "RbinW", "node2")?,
        );
        index.entry(key).or_default().push(i);
    }
    Ok(index)
}

/// How a batch's shared Stage-2 inputs are prepared, with the engine-owned
/// resource that preparation needs.
enum SharedInputs<'a> {
    /// Basic MMQJP: `Rdoc`/`Rbin` restricted to the rows the batch can join.
    Restricted(&'a mut RestrictionScratch),
    /// View-materialized MMQJP: the `RL`/`RR` intermediates.
    Materialized(&'a mut ViewCache),
}

/// Evaluate all templates with their compiled basic or materialized plans.
/// Returns, per result relation, `(rid filter, rows)` where `rid = -1` marks
/// template results (which carry their own qid column), plus — in
/// materialized mode — the batch's `RbinW` index so maintenance can reuse
/// it instead of rebuilding it.
fn evaluate_mmqjp(
    registry: &mut Registry,
    state: &JoinState,
    shared: SharedInputs<'_>,
    scratch: &mut ExecScratch,
    batch: &WitnessBatch,
    timings: &mut PhaseTimings,
) -> CoreResult<(ResultRows, Option<RbinwByDocnode>)> {
    let mut ctx = EvalInputs::new(state, batch);
    let mut rbinw_index = None;
    let materialized = match shared {
        SharedInputs::Materialized(view_cache) => {
            let (rl, rr, index) = compute_rl_rr(state, view_cache, batch, timings)?;
            ctx.rl = Some(rl);
            ctx.rr = Some(rr);
            rbinw_index = Some(index);
            true
        }
        SharedInputs::Restricted(pool) => {
            // Basic MMQJP: restrict the shared join-state inputs to the rows
            // the batch can actually join, once, before the per-template
            // loop. Every basic plan's Rdoc atom equates its strVal variable
            // with an RdocW atom's, so Rdoc rows under string values absent
            // from the batch are dead weight every template would otherwise
            // re-scan — this is the shared work the view-materialized mode
            // gets from its RL/RR intermediates, without materializing any
            // view. When every resident document survives, Rbin is not
            // copied: plans read the segmented state in place.
            let t_restrict = Instant::now();
            let (rdoc, rbin) = state.restrict_to_batch(&batch.rdoc_w, pool)?;
            ctx.rdoc_restricted = Some(rdoc);
            ctx.rbin_restricted = rbin;
            timings.compute_rvj += t_restrict.elapsed();
            false
        }
    };

    let t0 = Instant::now();
    let mat0 = scratch.materialize_time();
    let mut results = Vec::new();
    let mut inputs: Vec<PlanInput<'_>> = Vec::new();
    for t in registry.templates_mut() {
        let (plan, kinds, rt) = t.executable(materialized).ok_or(CoreError::internal(
            "the plan variant for the engine's mode is compiled",
        ))?;
        ctx.resolve(kinds, Some(rt), &mut inputs)?;
        let rows = execute_plan(plan, &inputs, scratch)?;
        if !rows.is_empty() {
            results.push((-1, rows));
        }
    }
    let materialize = scratch.materialize_time().saturating_sub(mat0);
    timings.conjunctive += t0.elapsed().saturating_sub(materialize);
    timings.materialize += materialize;
    Ok((results, rbinw_index))
}

/// Evaluate every registered query's compiled per-query plan independently
/// (the paper's Sequential baseline).
fn evaluate_sequential(
    registry: &mut Registry,
    state: &JoinState,
    scratch: &mut ExecScratch,
    batch: &WitnessBatch,
    timings: &mut PhaseTimings,
) -> CoreResult<ResultRows> {
    let t0 = Instant::now();
    let mat0 = scratch.materialize_time();
    let ctx = EvalInputs::new(state, batch);
    let mut results = Vec::new();
    let mut inputs: Vec<PlanInput<'_>> = Vec::new();
    for q in registry.queries_mut() {
        for r in &mut q.registrations {
            let Some(plan) = r.sequential_plan.as_mut() else {
                continue; // registered under an MMQJP mode; never evaluated
            };
            ctx.resolve(&r.sequential_inputs, None, &mut inputs)?;
            let rows = execute_plan(plan, &inputs, scratch)?;
            if !rows.is_empty() {
                results.push((r.rid, rows));
            }
        }
    }
    // The registry's map is unordered: emit in rid, i.e. query-id, order.
    results.sort_unstable_by_key(|&(rid, _)| rid);
    let materialize = scratch.materialize_time().saturating_sub(mat0);
    timings.conjunctive += t0.elapsed().saturating_sub(materialize);
    timings.materialize += materialize;
    Ok(results)
}

/// Compute the shared `RL` and `RR` intermediates (Algorithm 4, lines 2–8),
/// consulting and maintaining the view cache for `RL` slices. Also returns
/// the batch's `RbinW` index for reuse by state maintenance.
fn compute_rl_rr(
    state: &JoinState,
    view_cache: &mut ViewCache,
    batch: &WitnessBatch,
    timings: &mut PhaseTimings,
) -> CoreResult<(Relation, Relation, RbinwByDocnode)> {
    // STR: distinct string values of the current batch that also occur in
    // the join state (a semi-join of RdocW with Rdoc on strVal).
    let t_rvj = Instant::now();
    let mut str_values: Vec<Symbol> = Vec::new();
    let mut seen: HashSet<Symbol> = HashSet::new();
    // Per-batch index of RdocW rows by string value and of RbinW rows by
    // (docid, node2), used to build the RR slices.
    let mut rdocw_by_str: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    for (i, row) in batch.rdoc_w.iter().enumerate() {
        let sym = key_sym(&row[2], "RdocW", "strVal")?;
        if state.contains_strval(sym) && seen.insert(sym) {
            str_values.push(sym);
        }
        rdocw_by_str.entry(sym).or_default().push(i);
    }
    let rbinw_by_docnode = rbinw_by_docnode(batch)?;
    timings.compute_rvj += t_rvj.elapsed();

    // RL slices: from the cache when possible, otherwise computed from
    // Rdoc ⋈ Rbin.
    let t_rl = Instant::now();
    let mut rl = Relation::new(schemas::rl());
    for &s in &str_values {
        if let Some(slice) = view_cache.get(s) {
            rl.extend_from(slice)?;
            continue;
        }
        let slice = state.rl_slice(s)?;
        rl.extend_from(&slice)?;
        view_cache.insert(s, slice);
    }
    timings.compute_rl += t_rl.elapsed();

    // RR slices: always computed (they involve the current document).
    let t_rr = Instant::now();
    let mut rr = Relation::new(schemas::rl());
    for &s in &str_values {
        for &doc_row in rdocw_by_str.get(&s).map(|v| v.as_slice()).unwrap_or(&[]) {
            let row = batch.rdoc_w.row(doc_row);
            let docid = key_int(&row[0], "RdocW", "docid")?;
            let node = key_int(&row[1], "RdocW", "node")?;
            for &bin_row in rbinw_by_docnode
                .get(&(docid, node))
                .map(|v| v.as_slice())
                .unwrap_or(&[])
            {
                let b = batch.rbin_w.row(bin_row);
                rr.push_array(rl_row(b, s))?;
            }
        }
    }
    timings.compute_rr += t_rr.elapsed();
    Ok((rl, rr, rbinw_by_docnode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanVariant;
    use mmqjp_relational::{Schema, Value};
    use mmqjp_xml::rss;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";

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

    fn engine(config: EngineConfig) -> MmqjpEngine {
        let mut e = MmqjpEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.register_query_text(Q2).unwrap();
        e.register_query_text(Q3).unwrap();
        e
    }

    /// The Section 4.4.1 walkthrough: d1 then d2 produce exactly one match
    /// for Q1 and one for Q2 (the blog article's category matches d1's
    /// category for Q2, its title matches d1's title for Q1), and none for
    /// Q3.
    fn run_walkthrough(config: EngineConfig) -> Vec<MatchOutput> {
        let mut e = engine(config);
        let first = e.process_document(d1()).unwrap();
        assert!(first.is_empty());
        e.process_document(d2()).unwrap()
    }

    #[test]
    fn walkthrough_section_4_4_1_mmqjp() {
        let outputs = run_walkthrough(EngineConfig::mmqjp());
        let mut queries: Vec<u64> = outputs.iter().map(|o| o.query.raw()).collect();
        queries.sort_unstable();
        assert_eq!(queries, vec![0, 1]); // Q1 and Q2
        for o in &outputs {
            assert_eq!(o.left_doc, DocId(1));
            assert_eq!(o.right_doc, DocId(2));
            let doc = o.document.as_ref().unwrap();
            assert_eq!(doc.root().tag(), "result");
            assert_eq!(doc.root().children().len(), 2);
        }
    }

    #[test]
    fn walkthrough_section_4_4_1_view_mat() {
        let outputs = run_walkthrough(EngineConfig::mmqjp_view_mat());
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn walkthrough_section_4_4_1_sequential() {
        let outputs = run_walkthrough(EngineConfig::sequential());
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn all_modes_agree_on_the_walkthrough() {
        let mut a = run_walkthrough(EngineConfig::mmqjp());
        let mut b = run_walkthrough(EngineConfig::mmqjp_view_mat());
        let mut c = run_walkthrough(EngineConfig::sequential());
        let key = |o: &MatchOutput| (o.query, o.left_doc, o.right_doc);
        a.sort_by_key(key);
        b.sort_by_key(key);
        c.sort_by_key(key);
        let ka: Vec<_> = a.iter().map(key).collect();
        let kb: Vec<_> = b.iter().map(key).collect();
        let kc: Vec<_> = c.iter().map(key).collect();
        assert_eq!(ka, kb);
        assert_eq!(ka, kc);
    }

    #[test]
    fn window_constraint_filters_matches() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 5} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(10)))
            .unwrap();
        // 100 - 10 > 5: outside the window.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(100)))
            .unwrap();
        assert!(out.is_empty());
        // A second blog article within the window of nothing earlier than the
        // first book still matches nothing (the book is now 95 units old).
        let out = e
            .process_document(d2().with_timestamp(Timestamp(104)))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn followed_by_requires_order() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        // Blog first, book second: no match (FOLLOWED BY is directional).
        e.process_document(d2().with_timestamp(Timestamp(5)))
            .unwrap();
        let out = e
            .process_document(d1().with_timestamp(Timestamp(10)))
            .unwrap();
        assert!(out.is_empty());
    }

    /// `explain` names the template and the mode's plan variant and copies
    /// the plan's join order with actual rows, on Q1's two-value-join
    /// template after the one batch that joins; the sharded engine answers
    /// the same.
    #[test]
    fn explain_reports_the_plan_a_query_joins_through() {
        for (config, variant) in [
            (EngineConfig::mmqjp(), PlanVariant::Basic),
            (EngineConfig::mmqjp_view_mat(), PlanVariant::Materialized),
            (EngineConfig::sequential(), PlanVariant::Sequential),
        ] {
            let mut e = engine(config.clone());
            assert_eq!(e.explain(QueryId(99)), None, "unknown id");
            // d1 meets an empty window: no plan gets past its empty atoms.
            assert!(e.process_document(d1()).unwrap().is_empty());
            let before = e.explain(QueryId(0)).unwrap();
            assert_eq!(before.len(), 1, "FOLLOWED BY has one orientation");
            assert!(before[0].steps.is_empty(), "nothing planned yet");
            let out = e.process_batch(vec![d2()]).unwrap();
            assert_eq!(out.len(), 2, "{variant:?}");

            let plans = e.explain(QueryId(0)).unwrap();
            let [plan] = plans.as_slice() else {
                panic!("{plans:?}")
            };
            let template = e
                .registry()
                .query(QueryId(0))
                .unwrap()
                .shape()
                .orientations()[0]
                .template;
            assert_eq!((plan.template, plan.variant), (template, variant));
            let expected = e.registry().template_runtime(template).unwrap();
            assert_eq!(expected.template.graph.num_value_joins(), 2);
            // The owned copy is the plan's own explain, actual rows included.
            let copied: Vec<String> = plan.steps.iter().map(ToString::to_string).collect();
            let own: Vec<String> = match variant {
                PlanVariant::Basic => expected.plan_basic.as_ref(),
                PlanVariant::Materialized => expected.plan_materialized.as_ref(),
                PlanVariant::Sequential => e.registry().query(QueryId(0)).unwrap().registrations[0]
                    .sequential_plan
                    .as_ref(),
            }
            .unwrap()
            .explain()
            .map(|s| s.to_string())
            .collect();
            assert_eq!(copied, own);
            assert!(plan.steps.len() > 2, "{plan}");
            assert!(plan.steps.iter().all(|s| s.actual_rows.is_some()), "{plan}");
            // Q1's match (and, through the shared template, Q2's).
            assert!(plan.steps.last().unwrap().actual_rows >= Some(1), "{plan}");
            assert!(plan
                .to_string()
                .starts_with(&format!("template {template} ({variant:?}): ")));

            // One shard holds what the single engine holds; on three, each
            // query's own shard answers for it.
            for shards in [1, 3] {
                let mut sharded = crate::ShardedEngine::new(config.clone().with_num_shards(shards));
                for q in [Q1, Q2, Q3] {
                    sharded.register_query_text(q).unwrap();
                }
                sharded.process_document(d1()).unwrap();
                sharded.process_batch(vec![d2()]).unwrap();
                let got = sharded.explain(QueryId(0)).unwrap().unwrap();
                if shards == 1 {
                    assert_eq!(got, plans);
                }
                assert_eq!((got[0].template, got[0].variant), (template, variant));
                assert!(
                    got[0].steps.iter().all(|s| s.actual_rows.is_some()),
                    "{}",
                    got[0]
                );
                assert_eq!(sharded.explain(QueryId(99)).unwrap(), None);
            }
        }
    }

    #[test]
    fn join_operator_matches_both_orders() {
        let q = "S//book->x1[.//title->x3] JOIN{x3=x6, 100} S//blog->x4[.//title->x6]";
        // Order 1: book then blog.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(q).unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        let out = e
            .process_document(d2().with_timestamp(Timestamp(2)))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].left_doc, DocId(1));
        assert_eq!(out[0].right_doc, DocId(2));
        // Order 2: blog then book — still matches thanks to the swapped
        // orientation.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(q).unwrap();
        e.process_document(d2().with_timestamp(Timestamp(1)))
            .unwrap();
        let out = e
            .process_document(d1().with_timestamp(Timestamp(2)))
            .unwrap();
        assert_eq!(out.len(), 1);
        // The query's left block (book) matched the later document.
        assert_eq!(out[0].left_doc, DocId(2));
        assert_eq!(out[0].right_doc, DocId(1));
    }

    #[test]
    fn q3_matches_pair_of_blog_postings() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q3).unwrap();
        let blog1 =
            rss::blog_article("Ann", "u1", "Same Title", "c", "d").with_timestamp(Timestamp(1));
        let blog2 =
            rss::blog_article("Ann", "u2", "Same Title", "c", "d").with_timestamp(Timestamp(2));
        let blog3 =
            rss::blog_article("Bob", "u3", "Same Title", "c", "d").with_timestamp(Timestamp(3));
        assert!(e.process_document(blog1).unwrap().is_empty());
        let out = e.process_document(blog2).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(0));
        // Bob's posting shares the title but not the author: no new match
        // with either earlier posting.
        let out = e.process_document(blog3).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_matching_pairs_produce_multiple_outputs() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        // A second identical book announcement.
        e.process_document(d1().with_timestamp(Timestamp(11)))
            .unwrap();
        let out = e.process_document(d2()).unwrap();
        // The blog article joins with both book announcements.
        assert_eq!(out.len(), 2);
        let left_docs: HashSet<u64> = out.iter().map(|o| o.left_doc.raw()).collect();
        assert_eq!(left_docs, HashSet::from([1, 2]));
    }

    #[test]
    fn engine_stats_track_processing() {
        let mut e = engine(EngineConfig::mmqjp_view_mat());
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        let stats = e.stats();
        assert_eq!(stats.documents_processed, 2);
        assert_eq!(stats.results_emitted, 2);
        assert_eq!(stats.queries_registered, 3);
        assert_eq!(stats.templates, 1);
        assert!(stats.rdoc_tuples > 0);
        assert!(stats.rbin_tuples > 0);
        assert!(stats.timings.total().as_nanos() > 0);
        assert_eq!(e.num_queries(), 3);
        assert_eq!(e.num_templates(), 1);
        assert!(e.num_patterns() >= 3);
        assert_eq!(e.config().mode, ProcessingMode::MmqjpViewMat);
        assert!(!e.interner().is_empty());
        assert_eq!(e.registry().num_queries(), 3);
    }

    #[test]
    fn hot_path_executes_compiled_plans_from_pooled_scratch() {
        // The no-per-batch-allocation contract: plans are compiled once at
        // registration (never per batch), every execution after the first
        // runs on the engine's pooled scratch buffers, and result rows are
        // materialized exactly once. CQs and witness relations are never
        // cloned on the hot path — the old build/restore database round
        // trip is gone, so the only per-batch products are these counters.
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mode = config.mode;
            let mut e = engine(config);
            let plans_after_registration = e.stats().plans_compiled;
            match mode {
                // Three queries share one template; exactly the variant this
                // mode executes is compiled.
                ProcessingMode::Mmqjp | ProcessingMode::MmqjpViewMat => {
                    assert_eq!(plans_after_registration, 1, "mode {mode:?}");
                }
                // One per-query plan per orientation, no template plans.
                ProcessingMode::Sequential => {
                    assert_eq!(plans_after_registration, 3, "mode {mode:?}");
                }
            }

            let batches = 4u64;
            for i in 0..batches {
                e.process_document(d1().with_timestamp(Timestamp(10 + 2 * i)))
                    .unwrap();
            }
            let out = e
                .process_document(d2().with_timestamp(Timestamp(20)))
                .unwrap();
            assert!(!out.is_empty());
            let stats = e.stats();
            // Registration never happened again mid-stream.
            assert_eq!(stats.plans_compiled, plans_after_registration);
            // Every execution after the very first reused the pooled
            // scratch: executions = batches x live plans of the mode.
            let plans_per_batch = match mode {
                ProcessingMode::Sequential => 3, // one per query orientation
                _ => 1,                          // one per template
            };
            let executions = (batches as usize + 1) * plans_per_batch;
            assert_eq!(stats.scratch_reuses, executions - 1, "mode {mode:?}");
            assert_eq!(stats.join_executions, executions, "mode {mode:?}");
            assert!(stats.join_executions_empty < executions, "mode {mode:?}");
            // Late materialization: at least one row per emitted match was
            // built, and none more than the distinct result rows.
            assert!(stats.rows_materialized >= stats.results_emitted);

            // Stage 2 pays for the batch, not for the templates: once a
            // second template reads the same batch-shared inputs, join
            // tables built for one plan are probed by the next, and on a
            // steady stream a plan's join order is planned once and reused.
            e.register_query_text(
                "S//book->x1[.//author->x2][.//title->x3][.//category->x7] \
                 FOLLOWED BY{x2=x5 AND x3=x6 AND x7=x8, 100} \
                 S//blog->x4[.//author->x5][.//title->x6][.//category->x8]",
            )
            .unwrap();
            assert_eq!(e.stats().templates, 2, "mode {mode:?}");
            for i in 0..batches {
                e.process_document(d1().with_timestamp(Timestamp(30 + 2 * i)))
                    .unwrap();
                // Three articles a batch: the current-document side outgrows
                // both `RT`s, so both templates start from theirs and probe
                // the state side on the same key columns.
                let articles = vec![d2().with_timestamp(Timestamp(31 + 2 * i)); 3];
                assert!(!e.process_batch(articles).unwrap().is_empty());
            }
            let stats = e.stats();
            assert!(stats.join_tables_built > 0, "mode {mode:?}");
            assert!(stats.join_tables_reused > 0, "mode {mode:?}: {stats:?}");
            assert!(stats.join_orders_planned > 0, "mode {mode:?}");
            assert!(stats.join_orders_reused > 0, "mode {mode:?}: {stats:?}");
            assert!(stats.join_rows_probed > 0, "mode {mode:?}");
        }
    }

    #[test]
    fn bindings_report_canonical_variables() {
        let outputs = run_walkthrough(EngineConfig::mmqjp());
        let q1_match = outputs.iter().find(|o| o.query == QueryId(0)).unwrap();
        let author = q1_match.binding("S//book//author").unwrap();
        assert_eq!(author.doc, DocId(1));
        // Danny Ayers is node 1 in our Figure-1 fixture.
        assert_eq!(author.node, NodeId::from_raw(1));
        let blog_title = q1_match.binding("S//blog//title").unwrap();
        assert_eq!(blog_title.doc, DocId(2));
    }

    #[test]
    fn single_block_subscription_matches_every_document() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text("S//blog[.//author]").unwrap();
        assert!(e.process_document(d1()).unwrap().is_empty());
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].left_doc, out[0].right_doc);
        assert!(out[0].document.is_some());
    }

    #[test]
    fn retain_documents_false_skips_output_construction() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_retain_documents(false));
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].document.is_none());
    }

    #[test]
    fn batch_processing_joins_against_prior_state_only() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        // Both documents in one batch: the match is within the batch and is
        // not reported (documented trade-off), but the state is built.
        let out = e.process_batch(vec![d1(), d2()]).unwrap();
        assert!(out.is_empty());
        // A later blog article joins with the book from the first batch.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn view_cache_is_exercised_across_documents() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        // Processing a second blog article with the same author/title reuses
        // the cached RL slices.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        assert_eq!(out.len(), 1);
        let stats = e.stats();
        assert!(
            stats.view_cache_hits > 0,
            "expected cache hits, got {stats:?}"
        );
    }

    #[test]
    fn window_pruning_discards_old_state() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        let before = e.stats().rdoc_tuples;
        assert!(before > 0);
        // A much later document pushes the book out of the window.
        e.process_document(d2().with_timestamp(Timestamp(1000)))
            .unwrap();
        let after = e.stats();
        assert!(after.rdoc_tuples < before + 5);
        // The expired book is gone from the state, so a further blog article
        // cannot match it.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(1005)))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_pruning_is_incremental_and_counted() {
        // Bucketed expiry: no rebuild, whole buckets dropped, counters
        // reported. Width 1 (window 10 / 16 floors to 1) gives near-exact
        // granularity, so the book's state is gone after the jump to ts 1000.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        e.process_document(d2().with_timestamp(Timestamp(1000)))
            .unwrap();
        let stats = e.stats();
        assert!(stats.state_buckets_evicted > 0);
        assert!(stats.state_rows_evicted > 0);
        assert!(stats.docs_evicted > 0);
        assert!(stats.state_buckets >= 1);
    }

    #[test]
    fn rows_and_documents_share_one_retention_cutoff() {
        // With the default configuration and retain_documents = true, join
        // rows, timestamps and documents are evicted together once they age
        // beyond every registered window: each retained document keeps
        // exactly its own rows.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        let rows_per_doc = e.stats().rdoc_tuples;
        assert!(rows_per_doc > 0);
        for i in 1..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 16,
            "doc store must plateau, got {} retained",
            stats.docs_retained
        );
        assert_eq!(stats.docs_evicted + stats.docs_retained, 100);
        assert_eq!(stats.rdoc_tuples, rows_per_doc * stats.docs_retained);
        assert!(e.audit().is_empty(), "{:?}", e.audit());
        // Matches still fire across the retained window: the books at ts 491
        // and 496 are both within 10 of the blog at ts 497.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(1 + 99 * 5 + 1)))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(
            out.iter().all(|o| o.document.is_some()),
            "retained docs build the outputs"
        );
    }

    #[test]
    fn doc_retention_cap_bounds_infinite_windows() {
        // With an infinite window nothing could ever be evicted; the config
        // cap acts as the explicit memory backstop.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_doc_retention_cap(Some(50)));
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, INF} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        for i in 0..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 32,
            "cap must bound retention, got {}",
            stats.docs_retained
        );
        assert!(stats.docs_evicted >= 68);

        // Without the cap the same stream retains every document.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, INF} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        for i in 0..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        assert_eq!(e.stats().docs_retained, 100);
    }

    #[test]
    fn pruning_invalidates_only_expired_view_slices() {
        // Two distinct titles: after the first expires, its slice is
        // invalidated while the survivor's cached slice keeps serving hits.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
        e.register_query_text(Q3).unwrap();
        let old_blog = rss::blog_article("Ann", "u1", "Old Title", "c", "d");
        let live_blog = rss::blog_article("Ann", "u2", "Live Title", "c", "d");
        e.process_document(old_blog.with_timestamp(Timestamp(1)))
            .unwrap();
        e.process_document(live_blog.clone().with_timestamp(Timestamp(290)))
            .unwrap();
        // Warm the cache for "Live Title" (and match the ts-290 posting).
        let out = e
            .process_document(live_blog.clone().with_timestamp(Timestamp(295)))
            .unwrap();
        assert_eq!(out.len(), 1);
        // Jump far enough that the old posting's bucket expires (window is
        // 300); the live postings stay in-window.
        let out = e
            .process_document(live_blog.clone().with_timestamp(Timestamp(500)))
            .unwrap();
        assert_eq!(out.len(), 2);
        let stats = e.stats();
        assert!(stats.state_rows_evicted > 0, "old posting must expire");
        assert!(
            stats.view_slices_invalidated >= 1,
            "expired slice is invalidated"
        );
        // The surviving slice still produces cache hits afterwards.
        let hits_before = e.stats().view_cache_hits;
        e.process_document(live_blog.with_timestamp(Timestamp(505)))
            .unwrap();
        assert!(e.stats().view_cache_hits > hits_before);
    }

    #[test]
    fn out_of_order_documents_rejected_when_enforced() {
        let mut config = EngineConfig::mmqjp();
        config.enforce_in_order = true;
        let mut e = MmqjpEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.process_document(d1().with_timestamp(Timestamp(100)))
            .unwrap();
        let err = e
            .process_document(d2().with_timestamp(Timestamp(50)))
            .unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrderDocument { .. }));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        assert!(e.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(e.stats().documents_processed, 0);
    }

    #[test]
    fn unregistered_query_stops_matching_and_survivors_continue() {
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mut e = engine(config);
            e.process_document(d1()).unwrap();
            // Unregister Q1 mid-window: only Q2 still matches d2.
            e.unregister_query(QueryId(0)).unwrap();
            let out = e
                .process_document(d2().with_timestamp(Timestamp(20)))
                .unwrap();
            assert_eq!(out.len(), 1, "mode {:?}", e.config().mode);
            assert_eq!(out[0].query, QueryId(1));
            let stats = e.stats();
            assert_eq!(stats.queries_registered, 2);
            assert_eq!(stats.queries_unregistered, 1);
            // Q1's patterns were shared with Q2/Q3, so nothing dropped yet.
            assert_eq!(stats.templates, 1);
        }
    }

    #[test]
    fn unregistering_everything_retires_templates_and_patterns() {
        let mut e = engine(EngineConfig::mmqjp());
        e.process_document(d1()).unwrap();
        for id in [0, 1, 2] {
            e.unregister_query(QueryId(id)).unwrap();
        }
        let stats = e.stats();
        assert_eq!(stats.queries_registered, 0);
        assert_eq!(stats.queries_unregistered, 3);
        assert_eq!(stats.templates, 0);
        assert_eq!(stats.templates_retired, 1);
        assert_eq!(stats.distinct_patterns, 0);
        assert_eq!(stats.patterns_dropped, 4);
        // Further documents produce nothing and ids are never reused.
        let out = e.process_document(d2()).unwrap();
        assert!(out.is_empty());
        let id = e.register_query_text(Q1).unwrap();
        assert_eq!(id, QueryId(3));
        // Double unregister errors.
        assert!(matches!(
            e.unregister_query(QueryId(0)),
            Err(CoreError::UnknownQuery { .. })
        ));
    }

    #[test]
    fn unregister_purges_dead_view_slices() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
        e.register_query_text(Q3).unwrap(); // blog-blog self join
        let blog = |ts: u64| {
            rss::blog_article("Ann", "u1", "Same Title", "c", "d").with_timestamp(Timestamp(ts))
        };
        e.process_document(blog(1)).unwrap();
        e.process_document(blog(2)).unwrap();
        assert!(e.stats().view_cache_misses > 0);
        let before = e.stats().view_slices_invalidated;
        e.unregister_query(QueryId(0)).unwrap();
        // The blog pattern died with its only subscriber; its cached slices
        // were reclaimed.
        let stats = e.stats();
        assert_eq!(stats.patterns_dropped, 1);
        assert!(
            stats.view_slices_invalidated > before,
            "dead-variable slices must be purged: {stats:?}"
        );
    }

    #[test]
    fn doc_retention_tightens_after_widest_window_unregisters() {
        // Regression for the latent gap: the registry used to compute
        // max_finite_window once and only grow it. With the multiset it
        // tightens, and document retention follows on the next batch.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        let narrow = e
            .register_query_text(
                "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
            )
            .unwrap();
        let wide = e
            .register_query_text(
                "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10000} S//blog->x4[.//title->x6]",
            )
            .unwrap();
        let _ = narrow;
        for i in 0..40u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        // The 10000 window retains everything.
        assert_eq!(e.stats().docs_retained, 40);
        e.unregister_query(wide).unwrap();
        assert_eq!(e.registry().max_finite_window(), Some(10));
        assert!(!e.registry().has_infinite_window());
        // The next documents prune retention down to the 10-unit window.
        for i in 40..44u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 16,
            "retention must tighten to the surviving window, got {}",
            stats.docs_retained
        );
        assert_eq!(stats.docs_retained + stats.docs_evicted, 44);
    }

    #[test]
    fn mid_stream_registration_never_sees_prior_documents() {
        // A subscription only joins documents arriving after it: resident
        // join state (here produced by a twin query's identical patterns)
        // is never matched against a later registration. This is what makes
        // unregister ≡ fresh-engine-with-survivors exact even when queries
        // are re-registered mid-stream.
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mode = config.mode;
            let mut e = MmqjpEngine::new(config);
            e.register_query_text(Q1).unwrap();
            e.process_document(d1()).unwrap(); // doc 1, pre-dates the twin
            let twin = e.register_query_text(Q1).unwrap();
            let out = e.process_document(d2()).unwrap();
            // The original query matches (d1, d2); the twin must not — d1
            // arrived before it subscribed.
            assert_eq!(out.len(), 1, "mode {mode:?}");
            assert_eq!(out[0].query, QueryId(0));
            // A fresh post-registration book: the original pairs the new
            // blog with both books, the twin only with the post-subscription
            // one.
            e.process_document(d1().with_timestamp(Timestamp(30)))
                .unwrap();
            let out = e
                .process_document(d2().with_timestamp(Timestamp(40)))
                .unwrap();
            let mut queries: Vec<u64> = out.iter().map(|o| o.query.raw()).collect();
            queries.sort_unstable();
            assert_eq!(queries, vec![0, 0, twin.raw()], "mode {mode:?}");
            let twin_match = out.iter().find(|o| o.query == twin).unwrap();
            assert_eq!(twin_match.left_doc, DocId(3));
        }
    }

    /// A template result relation for Q1's six meta-variables holding one
    /// crafted row: `(qid, d1, d2, n0..n5, wl)`.
    fn crafted_result(row: [Value; 10]) -> Relation {
        let mut rel = Relation::new(Schema::new([
            "qid", "d1", "d2", "n0", "n1", "n2", "n3", "n4", "n5", "wl",
        ]));
        rel.push_array(row).unwrap();
        rel
    }

    #[test]
    fn corrupt_result_rows_are_typed_errors() {
        let mut e = engine(EngineConfig::mmqjp());
        e.process_document(d1()).unwrap();
        // Q1's orientation (rid 0) joining d1 with an in-batch d2.
        let batch_ts = [(DocId(2), Timestamp(20))];
        let watermark = e.pipeline.join().newest_timestamp;
        let int = Value::Int;
        let good = [
            int(0),
            int(1),
            int(2),
            int(1),
            int(2),
            int(3),
            int(1),
            int(2),
            int(3),
            int(100),
        ];
        let out = e
            .pipeline
            .join_mut()
            .produce_outputs(-1, &crafted_result(good), &batch_ts, &[], watermark)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bindings[1].node, NodeId::from_raw(2));
        for (pos, column) in [(0, "qid"), (1, "d1"), (2, "d2"), (3, "node"), (8, "node")] {
            let mut row = good;
            row[pos] = Value::Null;
            let rows = crafted_result(row);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.pipeline
                    .join_mut()
                    .produce_outputs(-1, &rows, &batch_ts, &[], watermark)
            }));
            if cfg!(debug_assertions) {
                // Debug builds stop at the key reader's assertion...
                let payload = outcome.expect_err("a corrupt key asserts in debug builds");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    message.contains(&format!("result.{column}")),
                    "column {column}: {message}"
                );
            } else {
                // ...release builds return the typed error.
                let result = outcome.expect("release builds return the error");
                assert!(
                    matches!(
                        &result,
                        Err(CoreError::CorruptStateRow { relation: "result", column: c, .. })
                            if *c == column
                    ),
                    "column {column}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn rt_tables_are_kept_until_rt_changes() {
        // Q1–Q3 share one template. Single-document batches keep finding
        // its `RT` table; a register or unregister rebuilds it once.
        for config in [EngineConfig::mmqjp(), EngineConfig::mmqjp_view_mat()] {
            let mode = config.mode;
            let mut e = engine(config);
            let feed = |e: &mut MmqjpEngine, from: u64| {
                for i in 0..4 {
                    e.process_document(d1().with_timestamp(Timestamp(from + 2 * i)))
                        .unwrap();
                    e.process_document(d2().with_timestamp(Timestamp(from + 2 * i + 1)))
                        .unwrap();
                }
            };
            feed(&mut e, 10);
            let kept = e.stats().join_tables_kept;
            assert!(kept > 0, "mode {mode:?}: {:?}", e.stats());
            let rt_version =
                |e: &MmqjpEngine| e.registry().templates().next().unwrap().rt_version();
            assert_eq!(rt_version(&e), 3, "one version per RT row pushed");
            e.unregister_query(QueryId(1)).unwrap();
            assert_eq!(rt_version(&e), 4, "and one per row removed");
            let built = e.stats().join_tables_built;
            feed(&mut e, 30);
            assert!(e.stats().join_tables_kept > kept, "mode {mode:?}");
            assert!(e.stats().join_tables_built > built, "mode {mode:?}");
            assert!(e.audit().is_empty(), "{:?}", e.audit());
        }
    }

    #[test]
    fn audit_reports_a_kept_table_newer_than_its_rt() {
        // Two engines hold the same template: with Q1–Q3 its RT reaches
        // version 3, with Q1 alone version 1. Moving the first engine's plan,
        // and the RT table it keeps, into the second is a stale table the
        // second engine would trust.
        let mut three = engine(EngineConfig::mmqjp());
        let mut one = MmqjpEngine::new(EngineConfig::mmqjp());
        one.register_query_text(Q1).unwrap();
        for e in [&mut three, &mut one] {
            for i in 0..3 {
                e.process_document(d1().with_timestamp(Timestamp(10 + 2 * i)))
                    .unwrap();
                e.process_document(d2().with_timestamp(Timestamp(11 + 2 * i)))
                    .unwrap();
            }
            assert!(e.audit().is_empty(), "{:?}", e.audit());
        }
        let plan = three
            .registry()
            .templates()
            .next()
            .unwrap()
            .plan_basic
            .clone();
        assert!(plan.as_ref().unwrap().kept_tables().any(|(_, v)| v == 3));
        one.pipeline
            .join_mut()
            .registry
            .templates_mut()
            .next()
            .unwrap()
            .plan_basic = plan;
        assert!(one.audit().contains(&AuditViolation::PlanMemo {
            template: 0,
            reason: "a kept join table newer than its template's RT",
        }));
    }

    #[test]
    fn documents_without_join_queries_are_just_absorbed() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        let out = e.process_document(d1()).unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().documents_processed, 1);
    }

    #[test]
    fn without_a_join_window_documents_are_not_retained() {
        // Retention follows the live join windows: with none, no later
        // match can need a document, so documents age out bucket by bucket
        // (1 024 time units each until a window sets the width).
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text("S//book->x1[.//author->x2]").unwrap();
        for i in 1..=10 {
            let doc = d1().with_timestamp(Timestamp(2_000 * i));
            assert_eq!(e.process_document(doc).unwrap().len(), 2);
        }
        let stats = e.stats();
        assert_eq!((stats.docs_retained, stats.docs_evicted), (1, 9));
    }
}
