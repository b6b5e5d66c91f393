//! The pipeline `front → route → join → merge` that both engines
//! instantiate.
//!
//! A [`Pipeline`] holds the configuration, the interner, the [`Front`] (all
//! Stage-1 state, one consumer of witness rows per shard, run on the
//! caller's thread) and one *slot* per shard: an [`Inline`] [`JoinStage`]
//! or a worker thread that owns one ([`Worker`](crate::shard::Worker)).
//! [`Pipeline::register`] mints every query id, and every layer — the
//! front, the shard's registry, its `RT` rows and its matches — files the
//! query under that id.
//! [`MmqjpEngine`](crate::MmqjpEngine) is the pipeline with one inline
//! slot; [`ShardedEngine`](crate::ShardedEngine) the one with `num_shards`
//! worker slots.
//!
//! A shard's requests — register, unregister, batch, stats, audit — are
//! [`Request`]s answered by [`JoinStage::serve`], through one call/collect pair:
//! [`Slot::call`] hands a request over (an inline slot answers at once) and
//! [`Pipeline::collect`] takes the answer. A failed send, a dead reply
//! channel or a [`CoreError::ShardPanicked`] answer is the shard's death
//! whatever the request was: the slot is retired and the [`FaultPolicy`]
//! applies. A batch reaches every serving slot and the replay log, or none.
//! An inline slot cannot die, so the single engine keeps no retained-query
//! ledger and no replay log.

use crate::audit::AuditViolation;
use crate::config::{EngineConfig, FaultPolicy};
use crate::engine::JoinStage;
use crate::error::{CoreError, CoreResult};
use crate::explain::PlanExplain;
use crate::fault::{FaultInjector, FaultKind, WorkerFault};
use crate::front::{Front, FrontBatch};
use crate::output::{sort_matches, MatchOutput};
use crate::recovery::{self, ReplayLog, RetainedQuery};
use crate::registry::Stage1Footprint;
use crate::relations::RoutedBatch;
use crate::stats::EngineStats;
use mmqjp_relational::StringInterner;
use mmqjp_xml::Document;
use mmqjp_xscl::{QueryId, XsclQuery};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A request to a shard, answered by [`JoinStage::serve`].
#[derive(Debug, Clone)]
pub(crate) enum Request {
    /// Register a query under the id the pipeline minted, joining only
    /// documents after the floor; answered with its Stage-1 footprint.
    Register(XsclQuery, QueryId, u64),
    Unregister(QueryId),
    /// Join one batch's routed witness rows; answered with the matches.
    Batch(RoutedBatch),
    Read(Read),
}

/// A read-only request: the kind a `&self` caller can make.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Read {
    Stats,
    Audit,
    /// The plans behind a query's join (see [`crate::explain`]).
    Explain(QueryId),
}

/// A shard's answer to the [`Request`] of the same name.
#[derive(Debug)]
pub(crate) enum Reply {
    Register(Stage1Footprint),
    Unregister,
    Batch(Vec<MatchOutput>),
    Stats(Box<EngineStats>),
    Audit(Vec<AuditViolation>),
    Explain(Option<Vec<PlanExplain>>),
}

/// The payload of `$reply` if it is a `Reply::$kind`.
macro_rules! payload {
    ($reply:expr, $kind:ident) => {
        match $reply {
            Reply::$kind(payload) => Ok(payload),
            _ => Err(CoreError::internal("a shard answers a request in kind")),
        }
    };
}

/// Where a shard's requests run.
pub(crate) trait Slot: Sized {
    /// Whether the slot is a thread: one that can die, whose death the fault
    /// policy answers, and whose matches the merge sorts into canonical
    /// order with the other threads'.
    const THREADED: bool;
    /// A request handed over, not yet collected.
    type Pending;

    /// Put `join` in service as slot `index`.
    fn start(index: usize, join: JoinStage) -> CoreResult<Self>;
    /// Hand over a request, with the fault to deliver while serving it.
    fn call(&mut self, request: Request, fault: Option<WorkerFault>) -> Self::Pending;
    fn read(&self, read: Read) -> Self::Pending;
    /// Slot `index`'s answer, or `Err` naming its death: a failed send, a
    /// dead reply channel or a [`CoreError::ShardPanicked`] answer. Sets
    /// `stalled` when the answer was not ready yet.
    fn wait(pending: Self::Pending, index: usize, stalled: &mut bool) -> Answer;
    fn alive(&self) -> bool;
    /// Take a dead or suspect slot out of service.
    fn retire(&mut self);
}

/// A slot's answer to one request, or (`Err`) its death.
pub(crate) type Answer = Result<CoreResult<Reply>, CoreError>;

/// An inline slot: the shard's join stage itself, served on the caller's
/// thread. It cannot die.
#[derive(Debug)]
pub(crate) struct Inline(JoinStage);

impl Slot for Inline {
    const THREADED: bool = false;
    type Pending = CoreResult<Reply>;

    fn start(_: usize, join: JoinStage) -> CoreResult<Self> {
        Ok(Inline(join))
    }

    fn call(&mut self, request: Request, _: Option<WorkerFault>) -> Self::Pending {
        self.0.serve(request)
    }

    fn read(&self, read: Read) -> Self::Pending {
        Ok(self.0.read(read))
    }

    fn wait(pending: Self::Pending, _: usize, _: &mut bool) -> Answer {
        Ok(pending)
    }

    fn alive(&self) -> bool {
        true
    }

    fn retire(&mut self) {}
}

/// One batch's Stage-1 product, its replay-log entry (`None` when nothing
/// recovers) and the newest timestamp before it: the watermark a slot
/// healed mid-batch is rebuilt at, the log not holding the batch yet.
type Staged = (FrontBatch, Option<Vec<Document>>, u64);

/// One batch handed to its slots: per serving slot its index, its pending
/// answer and, when slots heal, the request to retry.
struct InFlight<P> {
    answers: Vec<(usize, P, Option<Request>)>,
    singles: Vec<MatchOutput>,
    log_entry: Option<Vec<Document>>,
    watermark: u64,
}

/// The pipeline: a front and one slot per shard.
#[derive(Debug)]
pub(crate) struct Pipeline<S> {
    pub(crate) config: EngineConfig,
    pub(crate) interner: Arc<StringInterner>,
    pub(crate) front: Front,
    pub(crate) slots: Vec<S>,
    pub(crate) queries_per_shard: Vec<usize>,
    pub(crate) next_query: u64,
    /// Live subscriptions retained for recovery, by query id (ascending =
    /// registration order). Empty unless slots recover.
    retained: BTreeMap<QueryId, RetainedQuery>,
    /// Stamped survivor batches for replay; empty unless slots recover.
    pub(crate) replay_log: ReplayLog,
    /// The replay log's retention bound, recomputed on churn.
    retention: Option<u64>,
    pub(crate) injector: Option<FaultInjector>,
    /// The current batch's scheduled faults, drained as they are delivered.
    pending_faults: Vec<FaultKind>,
    /// `shards_respawned`, `faults_injected` and recovery timings.
    supervisor_stats: EngineStats,
}

impl<S: Slot> Pipeline<S> {
    /// A pipeline of `shards` slots.
    pub(crate) fn new(config: EngineConfig, shards: usize) -> Self {
        let interner = Arc::new(StringInterner::new());
        let slots = (0..shards)
            .map(|index| {
                S::start(index, JoinStage::new(config.clone(), Arc::clone(&interner)))
                    // lint:allow one-time startup; a failed spawn leaves no engine to return
                    .expect("starting a shard slot succeeds")
            })
            .collect();
        Pipeline {
            front: Front::new(&config, Arc::clone(&interner)),
            slots,
            queries_per_shard: vec![0; shards],
            next_query: 0,
            retained: BTreeMap::new(),
            replay_log: ReplayLog::default(),
            retention: Some(0),
            injector: None,
            pending_faults: Vec::new(),
            supervisor_stats: EngineStats::default(),
            interner,
            config,
        }
    }

    /// Whether a dead slot can be rebuilt.
    fn recovers(&self) -> bool {
        S::THREADED && self.config.fault_policy != FaultPolicy::FailFast
    }

    /// Whether a dead slot is rebuilt at once and its request retried.
    fn heals(&self) -> bool {
        S::THREADED && self.config.fault_policy == FaultPolicy::Quarantine
    }

    pub(crate) fn num_queries(&self) -> usize {
        self.queries_per_shard.iter().sum()
    }

    /// Mint the query's id and register it under that id on the shard the
    /// id hashes to. Ids are minted here only, in ascending order, and never
    /// reused; a failed registration changes nothing and consumes no id.
    pub(crate) fn register(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        let id = QueryId(self.next_query);
        let shard = shard_of(id, self.slots.len());
        let floor = self.front.position().0;
        let retained = self.recovers().then(|| RetainedQuery {
            query: query.clone(),
            floor,
        });
        let reply = self.request(shard, Request::Register(query, id, floor))?;
        let footprint = payload!(reply, Register)?;
        self.next_query += 1;
        self.queries_per_shard[shard] += 1;
        if let Some(retained) = retained {
            self.retained.insert(id, retained);
            self.refresh_retention();
        }
        self.front.subscribe(shard, id, &footprint)?;
        Ok(id)
    }

    /// Unregister a query on the shard that owns it; on failure the query
    /// stays registered everywhere.
    pub(crate) fn unregister(&mut self, id: QueryId) -> CoreResult<()> {
        let shard = shard_of(id, self.slots.len());
        self.request(shard, Request::Unregister(id))?;
        self.queries_per_shard[shard] -= 1;
        if self.retained.remove(&id).is_some() {
            self.refresh_retention();
        }
        self.front.unsubscribe(id)?;
        Ok(())
    }

    /// One request to slot `shard`, collected at once. A slot the fault
    /// policy leaves dark fails it with [`CoreError::ShardUnavailable`].
    /// A dead slot is settled by [`collect`](Self::collect), like a death
    /// while serving.
    fn request(&mut self, shard: usize, request: Request) -> CoreResult<Reply> {
        let watermark = self.front.position().1;
        let retry = self.heals().then(|| request.clone());
        let pending = self.slots[shard].call(request, None);
        let reply = self.collect(shard, pending, retry, watermark, &mut false)?;
        reply.ok_or(CoreError::ShardUnavailable { shard })
    }

    /// Whether slot `shard` can take a request, settling a dead one first:
    /// it is retired, then rebuilt at `watermark` under Quarantine, left
    /// dark under Degrade (`false`), and an error under FailFast.
    fn ready(&mut self, shard: usize, watermark: u64) -> CoreResult<bool> {
        if self.slots[shard].alive() {
            return Ok(true);
        }
        self.slots[shard].retire();
        match self.config.fault_policy {
            FaultPolicy::Quarantine => self.respawn(shard, watermark).map(|()| true),
            FaultPolicy::Degrade => Ok(false),
            FaultPolicy::FailFast => Err(CoreError::ShardUnavailable { shard }),
        }
    }

    /// Collect slot `shard`'s answer to `pending`. Its death retires the
    /// slot, and the fault policy decides: FailFast returns the death as
    /// the error, Degrade leaves the slot dark and answers `None`,
    /// Quarantine rebuilds it at `watermark` and serves it `retry` once,
    /// fault-free. A typed error from a live slot is the request's error
    /// under every policy.
    pub(crate) fn collect(
        &mut self,
        shard: usize,
        pending: S::Pending,
        retry: Option<Request>,
        watermark: u64,
        stalled: &mut bool,
    ) -> CoreResult<Option<Reply>> {
        let death = match S::wait(pending, shard, stalled) {
            Ok(answer) => return answer.map(Some),
            Err(death) => death,
        };
        self.slots[shard].retire();
        match (self.config.fault_policy, retry) {
            (FaultPolicy::Degrade, _) => Ok(None),
            (FaultPolicy::Quarantine, Some(retry)) => {
                self.respawn(shard, watermark)?;
                let pending = self.slots[shard].call(retry, None);
                let answer = S::wait(pending, shard, &mut false);
                if answer.is_err() {
                    self.slots[shard].retire();
                }
                answer?.map(Some)
            }
            _ => Err(death),
        }
    }

    /// Every slot's answer to `read`, by shard; `None` for a dead slot under
    /// Degrade. A read runs under `&self` and cannot retire or heal: under
    /// any other policy a dead slot fails it, and the next change or batch
    /// settles the slot.
    fn read_all(&self, read: Read) -> CoreResult<Vec<Option<Reply>>> {
        let pending: Vec<_> = (self.slots.iter())
            .map(|slot| slot.alive().then(|| slot.read(read)))
            .collect();
        (pending.into_iter().enumerate())
            .map(|(shard, pending)| self.read_answer(shard, pending))
            .collect()
    }

    /// Slot `shard`'s answer to a read handed over as `pending` (`None`: the
    /// slot was dead), under [`read_all`](Self::read_all)'s rules.
    fn read_answer(&self, shard: usize, pending: Option<S::Pending>) -> CoreResult<Option<Reply>> {
        let dead = CoreError::ShardUnavailable { shard };
        match pending.map_or(Err(dead), |p| S::wait(p, shard, &mut false)) {
            Ok(answer) => answer.map(Some),
            Err(_) if self.config.fault_policy == FaultPolicy::Degrade => Ok(None),
            Err(death) => Err(death),
        }
    }

    /// The plans behind query `id`'s join, read from the shard that owns
    /// it; `None` for an id that is not live (or, under Degrade, whose
    /// shard is dark).
    pub(crate) fn explain(&self, id: QueryId) -> CoreResult<Option<Vec<PlanExplain>>> {
        let shard = shard_of(id, self.slots.len());
        let slot = &self.slots[shard];
        let pending = slot.alive().then(|| slot.read(Read::Explain(id)));
        match self.read_answer(shard, pending)? {
            Some(reply) => payload!(reply, Explain),
            None => Ok(None),
        }
    }

    /// Per-shard statistics; a dark shard under Degrade reports zeroes.
    pub(crate) fn shard_stats(&self) -> CoreResult<Vec<EngineStats>> {
        let stats = |reply: Option<Reply>| reply.map_or(Ok(Box::default()), |r| payload!(r, Stats));
        (self.read_all(Read::Stats)?.into_iter())
            .map(|reply| stats(reply).map(|s| *s))
            .collect()
    }

    /// The field-wise sum of every shard's statistics, the front's and the
    /// supervisor's.
    pub(crate) fn stats(&self) -> CoreResult<EngineStats> {
        let shards: EngineStats = self.shard_stats()?.into_iter().sum();
        Ok(shards + self.front.stats() + self.supervisor_stats)
    }

    /// Every shard's join-stage audit (attributed to its shard when slots
    /// are threads), the recovery ledger's when slots recover, and the
    /// front's.
    pub(crate) fn audit(&self) -> CoreResult<Vec<AuditViolation>> {
        let mut out = Vec::new();
        for (shard, reply) in self.read_all(Read::Audit)?.into_iter().enumerate() {
            let Some(reply) = reply else { continue };
            out.extend(payload!(reply, Audit)?.into_iter().map(|violation| {
                if S::THREADED {
                    let violation = Box::new(violation);
                    AuditViolation::Shard { shard, violation }
                } else {
                    violation
                }
            }));
        }
        let live = self.num_queries();
        if self.recovers() {
            if self.retained.len() != live {
                let retained = self.retained.len();
                out.push(AuditViolation::RetainedQueryCount { retained, live });
            }
            if let (Some(oldest), Some(bound)) =
                (self.replay_log.oldest_entry_max_ts(), self.retention)
            {
                let cutoff = self.front.position().1.saturating_sub(bound);
                if oldest < cutoff {
                    out.push(AuditViolation::ReplayLogOverRetention { oldest, cutoff });
                }
            }
        }
        self.front.audit(live, &mut out);
        Ok(out)
    }

    /// [`process_batches`](Self::process_batches) of one batch.
    pub(crate) fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        let mut results = self.process_batches(vec![docs])?;
        Ok(results.pop().unwrap_or_default())
    }

    /// The one batch body: the front runs Stage 1 of batch `k+1` before
    /// the slots' answers to batch `k` are collected (an inline slot
    /// answered when handed it). Batch `k+1`'s Stage 1 finishing before a
    /// slot answered batch `k` counts in `pipeline_stalls`. On error the
    /// failing batch's error is returned, earlier outputs of the call are
    /// discarded, and every dispatched batch was collected first.
    pub(crate) fn process_batches(
        &mut self,
        batches: Vec<Vec<Document>>,
    ) -> CoreResult<Vec<Vec<MatchOutput>>> {
        let mut results = Vec::with_capacity(batches.len());
        let mut in_flight: Option<InFlight<S::Pending>> = None;
        for batch in batches {
            let batch_index = self.begin_batch();
            if batch.is_empty() {
                // Nothing to match or dispatch; settle the pipeline so the
                // empty result lands at the right position.
                if let Some(prev) = in_flight.take() {
                    results.push(self.merge(prev, false)?);
                }
                results.push(Vec::new());
                continue;
            }
            // Checkpoint the front: if collecting the *previous* batch fails
            // below, the staged batch is dropped undispatched and must leave
            // no trace, or the document sequence would drift ahead of what
            // the shards (and a single engine fed the same stream) ever saw.
            // Stage 1 moves no state outside the front, so restoring the
            // front is a complete rollback.
            let checkpoint = self.front.checkpoint();
            let staged = match self.stage(batch, batch_index) {
                Ok(staged) => staged,
                Err(e) => {
                    // Collect the in-flight batch before propagating, keeping
                    // the shards synchronized for the next call.
                    if let Some(prev) = in_flight.take() {
                        let _ = self.merge(prev, false);
                    }
                    return Err(e);
                }
            };
            if let Some(prev) = in_flight.take() {
                match self.merge(prev, true) {
                    Ok(outputs) => results.push(outputs),
                    Err(e) => {
                        self.front.rollback(checkpoint);
                        return Err(e);
                    }
                }
            }
            in_flight = Some(self.dispatch(staged)?);
        }
        if let Some(prev) = in_flight.take() {
            results.push(self.merge(prev, false)?);
        }
        Ok(results)
    }

    /// Begin a batch at the front and fetch its scheduled faults.
    fn begin_batch(&mut self) -> u64 {
        let index = self.front.begin_batch();
        self.pending_faults = match self.injector.as_mut() {
            Some(injector) => injector.faults_for(index),
            None => Vec::new(),
        };
        index
    }

    /// Drain the first pending fault `aimed` selects, counting it injected.
    fn take_fault(&mut self, aimed: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        let position = self.pending_faults.iter().position(aimed)?;
        self.supervisor_stats.faults_injected += 1;
        Some(self.pending_faults.swap_remove(position))
    }

    fn refresh_retention(&mut self) {
        self.retention = recovery::retention_bound(
            self.retained.values().filter_map(|r| r.query.window()),
            self.config.doc_retention_cap,
        );
    }

    /// Rebuild slot `shard` (see [`recovery`]) and put it back in service:
    /// its surviving queries re-registered under their own ids, in
    /// ascending order, at their original floors, the replay log matched again by the front for
    /// this shard alone, and the timestamp watermark restored to
    /// `watermark`. Requires slots that recover.
    pub(crate) fn respawn(&mut self, shard: usize, watermark: u64) -> CoreResult<()> {
        if !self.recovers() {
            return Err(CoreError::ShardUnavailable { shard });
        }
        let t0 = Instant::now();
        self.slots[shard].retire();
        let mut rebuilt = JoinStage::new(self.config.clone(), Arc::clone(&self.interner));
        for (&id, retained) in &self.retained {
            if shard_of(id, self.slots.len()) == shard {
                let request = Request::Register(retained.query.clone(), id, retained.floor);
                rebuilt.serve(request)?;
            }
        }
        for batch in self.replay_log.batches() {
            rebuilt.replay(self.front.replay(batch, shard)?)?;
        }
        rebuilt.restore_watermark(watermark);
        self.slots[shard] = S::start(shard, rebuilt)?;
        self.supervisor_stats.shards_respawned += 1;
        self.supervisor_stats.timings.recovery += t0.elapsed();
        Ok(())
    }

    /// Stage 1 for one batch, on the caller's thread: the front screens it,
    /// matches each document once and routes its rows into one batch per
    /// slot.
    fn stage(&mut self, docs: Vec<Document>, batch_index: u64) -> CoreResult<Staged> {
        let watermark = self.front.position().1;
        let docs = self.front.screen(docs, batch_index)?;
        let log_entry = self.recovers().then(|| docs.clone());
        let front = self.front.run(docs, self.slots.len())?;
        Ok((front, log_entry, watermark))
    }

    /// Hand a staged batch's routed witness rows to every serving slot,
    /// settling dead slots first so the batch reaches every serving slot or
    /// none. The last serving slot takes the documents, the others clones.
    fn dispatch(&mut self, staged: Staged) -> CoreResult<InFlight<S::Pending>> {
        let (front, log_entry, watermark) = staged;
        let FrontBatch {
            batches,
            doc_meta,
            docs,
            singles,
        } = front;
        let serving = (0..self.slots.len())
            .map(|shard| self.ready(shard, watermark))
            .collect::<CoreResult<Vec<bool>>>()?;
        let last = serving.iter().rposition(|&s| s);
        let last = last.ok_or(CoreError::ShardUnavailable { shard: 0 })?;
        let mut shipment = Some((doc_meta, docs));
        let mut answers = Vec::with_capacity(serving.len());
        for (shard, batch) in batches.into_iter().enumerate() {
            if !serving[shard] {
                continue;
            }
            let shipped = if shard == last {
                shipment.take()
            } else {
                shipment.clone()
            };
            let (doc_meta, docs) = shipped.ok_or(CoreError::internal("documents ship once"))?;
            let routed = RoutedBatch {
                batch,
                doc_meta,
                docs,
            };
            let request = Request::Batch(routed);
            let retry = self.heals().then(|| request.clone());
            let aimed = |f: &FaultKind| matches!(f, FaultKind::PanicShard { shard: s } | FaultKind::DropResponse { shard: s } if *s == shard);
            let fault = self.take_fault(aimed).map(|f| match f {
                FaultKind::PanicShard { .. } => WorkerFault::Panic,
                _ => WorkerFault::DropReply,
            });
            answers.push((shard, self.slots[shard].call(request, fault), retry));
        }
        Ok(InFlight {
            answers,
            singles,
            log_entry,
            watermark,
        })
    }

    /// Collect every slot's answer for one batch — even after an error, so
    /// the slots advance in lockstep — and merge the matches after the
    /// front's single-block matches, in canonical order when slots are
    /// threads. When `overlapped` (the front just ran Stage 1 of the next
    /// batch), a slot that has not answered yet counts once in
    /// `pipeline_stalls`. Then the batch is logged (dispatched ⇒ logged:
    /// surviving slots absorbed it even if one failed) and the log evicted
    /// to its retention bound.
    fn merge(
        &mut self,
        in_flight: InFlight<S::Pending>,
        overlapped: bool,
    ) -> CoreResult<Vec<MatchOutput>> {
        let InFlight {
            answers,
            singles,
            log_entry,
            watermark,
        } = in_flight;
        let mut merged = singles;
        let mut first_error: Option<CoreError> = None;
        let mut stalled = false;
        for (shard, pending, retry) in answers {
            let reply = self.collect(shard, pending, retry, watermark, &mut stalled);
            match reply.and_then(|reply| reply.map_or(Ok(Vec::new()), |r| payload!(r, Batch))) {
                Ok(matches) => merged.extend(matches),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if overlapped && stalled {
            self.front.record_stall();
        }
        if let Some(docs) = log_entry {
            self.replay_log.record(docs);
            let newest = self.front.position().1;
            self.replay_log.evict(newest, self.retention);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if S::THREADED {
            sort_matches(&mut merged);
        }
        Ok(merged)
    }
}

impl Pipeline<Inline> {
    /// The one inline slot's join stage.
    pub(crate) fn join(&self) -> &JoinStage {
        &self.slots[0].0
    }

    #[cfg(test)]
    pub(crate) fn join_mut(&mut self) -> &mut JoinStage {
        &mut self.slots[0].0
    }
}

/// Deterministic shard assignment: a Fibonacci-style multiplicative hash of
/// the query id. Using the *high* bits keeps the distribution even for the
/// sequential ids the engine assigns (the low bits of `id * odd-constant`
/// would reduce to `id mod n`).
pub(crate) fn shard_of(id: QueryId, num_shards: usize) -> usize {
    ((id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % num_shards as u64) as usize
}
