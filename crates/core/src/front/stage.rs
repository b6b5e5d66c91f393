//! [`Front`]: every piece of one engine's Stage-1 state, and the batch path
//! through it, run on the caller's thread. The single engine's front has one
//! consumer, its join stage (consumer `0`); the sharded engine's has one
//! consumer per shard. Nothing here branches on which engine owns it.

use super::{
    match_document, DocumentMatches, MatchScratch, SingleBlock, Stage1Recount, Stage1Table,
};
use crate::audit::AuditViolation;
use crate::config::{EngineConfig, FaultPolicy};
use crate::error::{CoreError, CoreResult};
use crate::fault::QuarantineRecord;
use crate::output::MatchOutput;
use crate::registry::{QueryShape, Stage1Footprint};
use crate::relations::{IngestScratch, RoutedBatch, WitnessBatch};
use crate::router::{route_document, route_to};
use crate::stats::EngineStats;
use mmqjp_relational::{FxHashMap, StringInterner};
use mmqjp_xml::{DocId, Document, Timestamp};
use mmqjp_xpath::{PatternId, TreePattern};
use mmqjp_xscl::QueryId;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// One engine's Stage 1: the subscription table, the per-query footprints
/// it was built from, the stream position, screening and the quarantine
/// ledger, the matching and ingest buffers, and the front's statistics.
///
/// A query is subscribed for one *consumer* of its witness rows from the
/// [`Stage1Footprint`] its registry returned. The pattern ids of every live
/// `FROM` clause are kept with a refcount, so subscribing a query whose
/// clause is live, on any consumer, registers no pattern.
#[derive(Debug)]
pub(crate) struct Front {
    /// The engine's interner: requested edges and node values intern here.
    interner: Arc<StringInterner>,
    table: Stage1Table,
    clauses: FxHashMap<ClauseKey, Clause>,
    /// Per live query: its consumer and its clause.
    queries: FxHashMap<QueryId, Subscriber>,
    /// Documents ingested: the last sequence number assigned.
    seq: u64,
    /// The newest timestamp stamped so far.
    newest: u64,
    /// Batches begun so far (empty ones included); pins quarantine records.
    batches: u64,
    enforce_in_order: bool,
    policy: FaultPolicy,
    retain_documents: bool,
    /// Poison documents skipped under [`FaultPolicy::Quarantine`].
    quarantine: Vec<QuarantineRecord>,
    /// The matching pass, chain and class buffers.
    matching: MatchScratch,
    /// The per-document Stage-1 output, reused document to document.
    matches: DocumentMatches,
    /// The routing ingest's pooled dedup sets.
    ingest: IngestScratch,
    stats: EngineStats,
}

/// A live `FROM` clause (window blanked), by the shape of a query subscribed
/// with it: hashed by the shape's precomputed key hash (keyed, so the
/// clauses of subscriptions cannot be chosen to collide), and compared by
/// clause only when two shapes come from different registries (shards).
#[derive(Debug, Clone)]
struct ClauseKey(Arc<QueryShape>);

impl Hash for ClauseKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.key_hash());
    }
}

impl PartialEq for ClauseKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.key() == other.0.key()
    }
}

impl Eq for ClauseKey {}

/// The pattern ids one live `FROM` clause holds in the table, for the
/// blocks of its key's shape.
#[derive(Debug)]
struct Clause {
    /// A single-block clause's pattern.
    single: Option<PatternId>,
    /// Per orientation, the previous- and current-document patterns.
    sides: Vec<(PatternId, PatternId)>,
    /// Live queries subscribed with the clause, on any consumer.
    refs: usize,
}

impl Clause {
    /// Register the patterns of a clause that is not live yet: one table
    /// registration per block of each orientation, or of the single block.
    fn register(table: &mut Stage1Table, shape: &Arc<QueryShape>) -> Self {
        let single = shape
            .single_pattern()
            .map(|pattern| table.retain_pattern(pattern.clone()));
        let sides = shape
            .orientations()
            .iter()
            .map(|o| {
                let (prev, cur) = shape.patterns(o);
                let prev = table.retain_pattern(prev.clone());
                (prev, table.retain_pattern(cur.clone()))
            })
            .collect();
        Clause {
            single,
            sides,
            refs: 1,
        }
    }

    /// Every table registration the clause holds per query.
    fn pids(&self) -> impl Iterator<Item = PatternId> + '_ {
        let sides = self.sides.iter().flat_map(|&(prev, cur)| [prev, cur]);
        self.single.into_iter().chain(sides)
    }

    /// [`pids`](Self::pids), each with the block of `shape` (one of the
    /// clause's shapes) it stands for.
    fn patterns<'a>(
        &'a self,
        shape: &'a QueryShape,
    ) -> impl Iterator<Item = (PatternId, &'a TreePattern)> {
        let single = self.single.map(|pid| (pid, shape.first_block()));
        let sides = shape.orientations().iter().zip(&self.sides);
        single
            .into_iter()
            .chain(sides.flat_map(move |(o, &(prev, cur))| {
                let (prev_pattern, cur_pattern) = shape.patterns(o);
                [(prev, prev_pattern), (cur, cur_pattern)]
            }))
    }
}

/// One live query: its consumer, and its clause by its own shape.
#[derive(Debug)]
struct Subscriber {
    consumer: usize,
    clause: ClauseKey,
}

/// What [`Front::run`] produced for one batch.
#[derive(Debug)]
pub(crate) struct FrontBatch {
    /// One witness batch per consumer.
    pub(crate) batches: Vec<WitnessBatch>,
    /// `(document id, timestamp)` of every document, in arrival order.
    pub(crate) doc_meta: Vec<(DocId, u64)>,
    /// The documents, kept only when documents are retained.
    pub(crate) docs: Vec<Document>,
    /// The single-block matches, in document order.
    pub(crate) singles: Vec<MatchOutput>,
}

/// The front state one batch's Stage 1 moves, to undo a batch that was
/// staged but never dispatched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontCheckpoint {
    seq: u64,
    newest: u64,
    quarantined: usize,
    stats: EngineStats,
}

impl Front {
    /// An empty front for an engine configured by `config`.
    pub(crate) fn new(config: &EngineConfig, interner: Arc<StringInterner>) -> Self {
        Front {
            interner,
            table: Stage1Table::new(),
            clauses: FxHashMap::default(),
            queries: FxHashMap::default(),
            seq: 0,
            newest: 0,
            batches: 0,
            enforce_in_order: config.enforce_in_order,
            policy: config.fault_policy,
            retain_documents: config.retain_documents,
            quarantine: Vec::new(),
            matching: MatchScratch::default(),
            matches: DocumentMatches::default(),
            ingest: IngestScratch::default(),
            stats: EngineStats::default(),
        }
    }

    /// The subscription table.
    pub(crate) fn table(&self) -> &Stage1Table {
        &self.table
    }

    /// The subscription table, mutably, for tests that seed a corrupted
    /// entry.
    #[cfg(test)]
    pub(crate) fn table_mut(&mut self) -> &mut Stage1Table {
        &mut self.table
    }

    /// The front's statistics, mutably, for tests that seed a drift.
    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// The front's statistics, with the live pattern count.
    pub(crate) fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.distinct_patterns = self.table.index().len();
        stats
    }

    /// The stream position: documents ingested and the newest timestamp.
    pub(crate) fn position(&self) -> (u64, u64) {
        (self.seq, self.newest)
    }

    /// Count a batch whose Stage 1 finished before the join stage had
    /// finished the previous one.
    pub(crate) fn record_stall(&mut self) {
        self.stats.pipeline_stalls += 1;
    }

    /// Drain the quarantine ledger.
    pub(crate) fn take_quarantine(&mut self) -> Vec<QuarantineRecord> {
        std::mem::take(&mut self.quarantine)
    }

    /// Everything a batch's Stage 1 moves.
    pub(crate) fn checkpoint(&self) -> FrontCheckpoint {
        FrontCheckpoint {
            seq: self.seq,
            newest: self.newest,
            quarantined: self.quarantine.len(),
            stats: self.stats,
        }
    }

    /// Undo every batch staged since `checkpoint`.
    pub(crate) fn rollback(&mut self, checkpoint: FrontCheckpoint) {
        self.seq = checkpoint.seq;
        self.newest = checkpoint.newest;
        self.quarantine.truncate(checkpoint.quarantined);
        self.stats = checkpoint.stats;
    }

    /// Subscribe `query` for `consumer`: take one reference on each pattern
    /// of its clause (registering them when the clause is not live) and
    /// request each orientation's edges for `consumer`, or list the
    /// single-block subscription. Query ids must arrive in ascending order.
    pub(crate) fn subscribe(
        &mut self,
        consumer: usize,
        query: QueryId,
        footprint: &Stage1Footprint,
    ) -> CoreResult<()> {
        let shape = &footprint.shape;
        let key = ClauseKey(Arc::clone(shape));
        let table = &mut self.table;
        match self.clauses.get_mut(&key) {
            Some(clause) => {
                clause.refs += 1;
                for pid in clause.pids() {
                    table.retain_pattern_id(pid);
                }
            }
            None => {
                let clause = Clause::register(table, shape);
                self.clauses.insert(key.clone(), clause);
            }
        }
        let clause = &self.clauses[&key];
        for (o, &(prev, cur)) in shape.orientations().iter().zip(&clause.sides) {
            table.request_edges(consumer, prev, &o.prev_edges, &self.interner)?;
            table.request_edges(consumer, cur, &o.cur_edges, &self.interner)?;
        }
        if let Some(pid) = clause.single {
            table.push_single(SingleBlock {
                query,
                pid,
                shape: Arc::clone(shape),
                publish: footprint.publish.clone(),
                select: footprint.select,
            });
        }
        let subscriber = Subscriber {
            consumer,
            clause: key,
        };
        self.queries.insert(query, subscriber);
        Ok(())
    }

    /// Release everything [`subscribe`](Self::subscribe) took for `query`.
    /// Returns the number of patterns dropped with it.
    pub(crate) fn unsubscribe(&mut self, query: QueryId) -> CoreResult<usize> {
        let unknown = || CoreError::internal("a live query is subscribed to the front");
        let Subscriber {
            consumer,
            clause: key,
        } = self.queries.remove(&query).ok_or_else(unknown)?;
        let clause = self.clauses.get_mut(&key).ok_or_else(unknown)?;
        let shape = &key.0;
        let table = &mut self.table;
        let mut dropped = 0;
        if let Some(pid) = clause.single {
            table.remove_single(query);
            dropped += usize::from(table.release_pattern(pid));
        }
        for (o, &(prev, cur)) in shape.orientations().iter().zip(&clause.sides) {
            dropped += usize::from(table.unsubscribe(consumer, prev, &o.prev_edges)?);
            dropped += usize::from(table.unsubscribe(consumer, cur, &o.cur_edges)?);
        }
        clause.refs -= 1;
        if clause.refs == 0 {
            self.clauses.remove(&key);
        }
        self.stats.patterns_dropped += dropped;
        Ok(dropped)
    }

    /// Begin a batch: returns its index in the stream.
    pub(crate) fn begin_batch(&mut self) -> u64 {
        self.batches += 1;
        self.batches - 1
    }

    /// Screen and stamp batch `batch` (see [`screen_and_stamp`]). Either the
    /// batch fails or exactly the quarantined documents are left out.
    pub(crate) fn screen(&mut self, docs: Vec<Document>, batch: u64) -> CoreResult<Vec<Document>> {
        let offered = docs.len();
        let docs = screen_and_stamp(
            docs,
            &mut self.seq,
            &mut self.newest,
            self.enforce_in_order,
            self.policy,
            batch,
            &mut self.quarantine,
        )?;
        self.stats.docs_quarantined += offered - docs.len();
        Ok(docs)
    }

    /// Stage 1 over one screened batch for `consumers` consumers: each
    /// document is matched once and its rows routed straight into the
    /// consumers' witness batches. Counts the batch once it is whole.
    pub(crate) fn run(&mut self, docs: Vec<Document>, consumers: usize) -> CoreResult<FrontBatch> {
        let mut out = FrontBatch {
            batches: (0..consumers).map(|_| WitnessBatch::new()).collect(),
            doc_meta: Vec::with_capacity(docs.len()),
            docs: Vec::new(),
            singles: Vec::new(),
        };
        // The batch's counters, added to the front's once it is whole.
        let mut tally = EngineStats::default();
        let retain = self.retain_documents;
        let mut t0 = Instant::now();
        for doc in docs {
            let mut subs = self.table.subscriptions();
            match_document(
                &mut subs,
                &doc,
                &mut self.matching,
                retain,
                &mut self.matches,
            );
            let matched = Instant::now();
            tally.timings.xpath += matched - t0;
            self.route(doc, &mut out, &mut tally)?;
            t0 = Instant::now();
            tally.timings.ingest += t0 - matched;
        }
        tally.documents_processed = out.doc_meta.len();
        tally.docs_parsed_once = out.doc_meta.len();
        tally.stage1_rows = out.batches.iter().map(|b| b.rbin_w.len()).sum();
        tally.results_emitted = out.singles.len();
        self.stats += tally;
        Ok(out)
    }

    /// Route one document, matched into `self.matches`, into `out`: its
    /// rows, its single-block matches and its metadata.
    fn route(
        &mut self,
        doc: Document,
        out: &mut FrontBatch,
        tally: &mut EngineStats,
    ) -> CoreResult<()> {
        let matches = &mut self.matches;
        tally.witnesses_routed += route_document(
            &self.table,
            &doc,
            &matches.rows,
            &self.interner,
            &mut self.ingest,
            &mut out.batches,
        )?;
        tally.stage1_pairs += matches.rows.len();
        tally.stage1_edges_suppressed += matches.suppressed;
        out.singles.append(&mut matches.singles);
        out.doc_meta.push((doc.id(), doc.timestamp().raw()));
        if self.retain_documents {
            out.docs.push(doc);
        }
        Ok(())
    }

    /// Stage 1 again over already-processed documents, for `consumer` alone
    /// (a rebuilt shard's join stage): the rows the consumer's live queries
    /// request, and no single-block matches — those were delivered in the
    /// batch's first life. Moves neither the stream position nor the stats.
    pub(crate) fn replay(&mut self, docs: &[Document], consumer: usize) -> CoreResult<RoutedBatch> {
        let (mut batch, table, matches) = (WitnessBatch::new(), &mut self.table, &mut self.matches);
        for doc in docs {
            let mut subs = table.subscriptions();
            subs.singles = &[];
            match_document(&mut subs, doc, &mut self.matching, false, matches);
            route_to(
                table,
                doc,
                &matches.rows,
                consumer,
                &self.interner,
                &mut self.ingest,
                &mut batch,
            )?;
        }
        let doc_meta = docs.iter().map(|d| (d.id(), d.timestamp().raw())).collect();
        let docs = self.retain_documents.then(|| docs.to_vec());
        Ok(RoutedBatch {
            batch,
            doc_meta,
            docs: docs.unwrap_or_default(),
        })
    }

    /// Check one subscription per live query (`live` of them), the table
    /// against a recount of the subscriptions, every clause held by exactly
    /// its refcount of them and naming live patterns equal to its blocks,
    /// and no more documents counted than sequence numbers assigned.
    pub(crate) fn audit(&self, live: usize, out: &mut Vec<AuditViolation>) {
        let mut violation = |pattern: Option<PatternId>, reason| {
            out.push(AuditViolation::FrontSubscription {
                pattern: pattern.map_or(u32::MAX, PatternId::raw),
                reason,
            });
        };
        if self.queries.len() != live {
            violation(None, "subscription count differs from the live queries");
        }
        let mut recount = Stage1Recount::default();
        let mut holders: HashMap<&ClauseKey, usize> = HashMap::new();
        // Single-block subscriptions are recounted in query-id order.
        let mut queries: Vec<_> = self.queries.iter().collect();
        queries.sort_unstable_by_key(|&(&query, _)| query);
        for (&query, sub) in queries {
            *holders.entry(&sub.clause).or_insert(0) += 1;
            let Some(clause) = self.clauses.get(&sub.clause) else {
                violation(None, "a live query's clause holds no pattern ids");
                continue;
            };
            if let Some(pid) = clause.single {
                recount.single(query, pid);
            }
            let shape = &sub.clause.0;
            for (o, &(prev, cur)) in shape.orientations().iter().zip(&clause.sides) {
                recount.join_side(sub.consumer, prev, &o.prev_edges);
                recount.join_side(sub.consumer, cur, &o.cur_edges);
            }
        }
        let index = self.table.index();
        let live_pids: HashSet<PatternId> = index.patterns().map(|(pid, _)| pid).collect();
        for (key, clause) in &self.clauses {
            if holders.get(key).copied() != Some(clause.refs) {
                violation(None, "clause refcount differs from its live queries");
            }
            for (pid, pattern) in clause.patterns(&key.0) {
                if !live_pids.contains(&pid) {
                    violation(Some(pid), "clause names a dropped pattern");
                } else if index.pattern(pid).signature() != pattern.signature() {
                    violation(Some(pid), "clause's pattern id names another pattern");
                }
            }
        }
        self.table.audit(&recount, &self.interner, out);
        // Out-of-order rejections consume sequence numbers without counting
        // a document, so processed <= assigned (never more).
        if self.stats.documents_processed as u64 > self.seq {
            out.push(AuditViolation::DocumentAccounting {
                documents_processed: self.stats.documents_processed,
                doc_seq: self.seq,
            });
        }
    }
}

/// Screen and stamp one batch against the stream watermarks `seq` (documents
/// ingested) and `newest` (newest timestamp). Each surviving document
/// consumes the next sequence number as its id and, when it arrives with
/// timestamp `0`, as its timestamp. With `enforce_in_order`, a document
/// older than `newest` is poison. Under [`FaultPolicy::Quarantine`] it is
/// appended to `quarantine`, pinned to `batch_index`, and skipped without
/// consuming a sequence number, so survivors get exactly the ids a fresh
/// engine fed only survivors would assign; under the other policies it
/// consumes its sequence number, then the batch fails (documents stamped
/// before it stay consumed too).
pub(crate) fn screen_and_stamp(
    docs: Vec<Document>,
    seq: &mut u64,
    newest: &mut u64,
    enforce_in_order: bool,
    policy: FaultPolicy,
    batch_index: u64,
    quarantine: &mut Vec<QuarantineRecord>,
) -> CoreResult<Vec<Document>> {
    let mut survivors = Vec::with_capacity(docs.len());
    for (doc_index, mut doc) in docs.into_iter().enumerate() {
        // Screen before committing the sequence number, so a quarantined
        // document leaves no gap.
        let tentative = *seq + 1;
        let ts = match doc.timestamp().raw() {
            0 => tentative,
            raw => raw,
        };
        if enforce_in_order && ts < *newest {
            let error = CoreError::OutOfOrderDocument {
                timestamp: ts,
                newest: *newest,
            };
            if policy != FaultPolicy::Quarantine {
                *seq = tentative;
                return Err(error);
            }
            quarantine.push(QuarantineRecord {
                batch: batch_index,
                doc_index,
                timestamp: ts,
                error,
            });
            continue;
        }
        *seq = tentative;
        doc.set_id(DocId(tentative));
        doc.set_timestamp(Timestamp(ts));
        *newest = (*newest).max(ts);
        survivors.push(doc);
    }
    Ok(survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessingMode;
    use crate::registry::Registry;
    use mmqjp_relational::Symbol;
    use mmqjp_xml::rss;
    use mmqjp_xpath::PatternNodeId;
    use mmqjp_xscl::parse_query;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q1_WIDE: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 250} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const SINGLE: &str = "S//blog[.//author]";

    /// A front fed by one registry, each query subscribed for the consumer
    /// the test names under the next id.
    struct Rig {
        registry: Registry,
        front: Front,
        next: u64,
    }

    impl Rig {
        fn new() -> Self {
            let interner = Arc::new(StringInterner::new());
            Rig {
                registry: Registry::new(Arc::clone(&interner)),
                front: Front::new(&EngineConfig::default(), interner),
                next: 0,
            }
        }

        fn register(&mut self, consumer: usize, text: &str) -> QueryId {
            let query = parse_query(text).unwrap();
            let id = QueryId(self.next);
            let footprint = self
                .registry
                .register(query, id, ProcessingMode::Mmqjp, 0)
                .unwrap();
            self.next += 1;
            self.front.subscribe(consumer, id, &footprint).unwrap();
            id
        }

        fn unregister(&mut self, id: QueryId) {
            self.registry.unregister(id).unwrap();
            self.front.unsubscribe(id).unwrap();
        }

        fn audit(&self) -> Vec<AuditViolation> {
            let mut out = Vec::new();
            let live = self.registry.num_queries();
            self.front.audit(live, &mut out);
            out
        }
    }

    #[test]
    fn requested_edges_cache_their_variable_symbols() {
        let mut rig = Rig::new();
        rig.register(0, Q1);
        let table = rig.front.table();
        let interner = rig.registry.interner();
        for (pid, edges) in table.requested().iter() {
            let pattern = table.index().pattern(*pid);
            for requested in edges {
                let var = |id: PatternNodeId| pattern.node(id).variable().unwrap();
                assert_eq!(requested.var1, interner.intern(var(requested.edge.0)));
                assert_eq!(requested.var2, interner.intern(var(requested.edge.1)));
            }
        }
        let out = rig.audit();
        assert!(out.is_empty(), "healthy front reported: {out:?}");

        // Seed a stale symbol: the witness rows of that edge would carry the
        // wrong variable, and the audit must say which edge.
        let requested = rig.front.table_mut().requested_mut();
        let (&pid, edges) = requested.lists_mut().next().unwrap();
        let stale = &mut edges[0];
        stale.var2 = Symbol::from_raw(stale.var2.raw() + 1_000);
        let edge = (stale.edge.0.raw(), stale.edge.1.raw());
        assert_eq!(
            rig.audit(),
            vec![AuditViolation::RequestedEdgeSymbols {
                pattern: pid.raw(),
                edge
            }]
        );
    }

    #[test]
    fn audit_checks_the_live_emit_plan() {
        let mut rig = Rig::new();
        for q in [Q1, Q2] {
            rig.register(0, q);
        }
        // Both book patterns request (book, author) and match this book the
        // same way: the second enumeration is suppressed.
        let book = rss::book_announcement(&["A", "B"], "T", &["C"], "P", "1");
        let doc = rig.front.screen(vec![book], 0).unwrap();
        rig.front.run(doc, 1).unwrap();
        let stats = rig.front.stats();
        assert!(stats.stage1_edges_suppressed > 0);
        assert!(stats.stage1_rows > 0);
        let out = rig.audit();
        assert!(out.is_empty(), "healthy front reported: {out:?}");

        assert!(rig.front.table_mut().requested_mut().merge_plan_classes());
        assert_eq!(
            rig.audit(),
            vec![AuditViolation::EmitPlan {
                reason: "its edge classes"
            }]
        );
    }

    #[test]
    fn stage1_lists_live_single_blocks_in_query_id_order() {
        let mut rig = Rig::new();
        let a = rig.register(0, SINGLE);
        rig.register(0, Q1);
        let b = rig.register(0, "S//book[.//title]");
        let c = rig.register(0, SINGLE);
        rig.unregister(b);
        let singles = rig.front.table().singles();
        let listed: Vec<QueryId> = singles.iter().map(|s| s.query).collect();
        assert_eq!(listed, vec![a, c]);

        // Seed a drift in the maintained list: the audit recounts it.
        let stale = SingleBlock {
            query: b,
            ..singles[0].clone()
        };
        rig.front.table_mut().singles_mut().push(stale);
        assert_eq!(
            rig.audit(),
            vec![AuditViolation::SingleBlockList {
                listed: 3,
                expected: 2
            }]
        );
    }

    #[test]
    fn a_live_clause_is_subscribed_by_its_pattern_ids() {
        let mut rig = Rig::new();
        let a = rig.register(0, Q1);
        let table = rig.front.table();
        let generation = table.index().generation();
        let refs = |front: &Front| {
            let index = front.table().index();
            index
                .patterns()
                .map(|(pid, _)| index.refcount(pid))
                .collect::<Vec<_>>()
        };
        assert_eq!(refs(&rig.front), vec![1, 1]);
        // The same clause under another window, and on another consumer:
        // the clause's ids take the references, no pattern is registered.
        let b = rig.register(3, Q1_WIDE);
        assert_eq!(rig.front.clauses.len(), 1);
        assert_eq!(rig.front.table().index().generation(), generation);
        assert_eq!(refs(&rig.front), vec![2, 2]);
        let consumers = rig.front.table().requested().consumers(PatternId(0));
        assert!(consumers.iter().all(|c| c == &[(0, 1), (3, 1)]));
        assert!(rig.audit().is_empty(), "{:?}", rig.audit());
        rig.unregister(a);
        assert_eq!(refs(&rig.front), vec![1, 1]);
        assert_eq!(rig.front.clauses.values().next().unwrap().refs, 1);
        assert!(rig.audit().is_empty(), "{:?}", rig.audit());
        rig.unregister(b);
        assert!(rig.front.clauses.is_empty());
        assert!(rig.front.table().is_empty());
        assert_eq!(rig.front.stats().patterns_dropped, 2);
    }

    #[test]
    fn audit_detects_seeded_clause_violations() {
        let fresh = || {
            let mut rig = Rig::new();
            rig.register(0, Q1);
            rig.register(1, Q1);
            rig.register(0, SINGLE);
            rig
        };
        let rig = fresh();
        assert!(rig.audit().is_empty(), "{:?}", rig.audit());
        let reasons = |rig: &Rig| {
            rig.audit()
                .into_iter()
                .filter_map(|v| match v {
                    AuditViolation::FrontSubscription { reason, .. } => Some(reason),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        fn q1_clause(rig: &mut Rig) -> &mut Clause {
            let key = rig.front.queries[&QueryId(0)].clause.clone();
            rig.front.clauses.get_mut(&key).unwrap()
        }

        // A refcount that is not the number of subscribers.
        let mut rig = fresh();
        q1_clause(&mut rig).refs += 1;
        assert_eq!(
            reasons(&rig),
            vec!["clause refcount differs from its live queries"]
        );

        // A dropped pattern.
        let mut rig = fresh();
        q1_clause(&mut rig).sides[0].0 = PatternId(99);
        assert!(reasons(&rig).contains(&"clause names a dropped pattern"));

        // Another live pattern.
        let mut rig = fresh();
        let sides = &mut q1_clause(&mut rig).sides[0];
        *sides = (sides.1, sides.0);
        assert!(reasons(&rig).contains(&"clause's pattern id names another pattern"));

        // A subscription the owner does not count.
        let rig = fresh();
        let mut out = Vec::new();
        rig.front.audit(2, &mut out);
        assert_eq!(
            out,
            vec![AuditViolation::FrontSubscription {
                pattern: u32::MAX,
                reason: "subscription count differs from the live queries",
            }]
        );

        // More documents counted than sequence numbers assigned.
        let mut rig = fresh();
        rig.front.stats.documents_processed += 1;
        assert_eq!(
            rig.audit(),
            vec![AuditViolation::DocumentAccounting {
                documents_processed: 1,
                doc_seq: 0,
            }]
        );
    }

    #[test]
    fn a_replay_moves_nothing_and_emits_no_single_block_match() {
        let mut rig = Rig::new();
        rig.register(0, Q1);
        rig.register(1, SINGLE);
        let blog = rss::blog_article("Ann", "u", "T", "c", "d");
        let docs = rig.front.screen(vec![blog.clone(), blog], 0).unwrap();
        let live = rig.front.run(docs.clone(), 2).unwrap();
        assert_eq!(live.singles.len(), 2, "one blog match per document");
        let (stats, position) = (rig.front.stats(), rig.front.position());

        for consumer in [0, 1] {
            let replayed = rig.front.replay(&docs, consumer).unwrap();
            let first = &live.batches[consumer];
            assert_eq!(replayed.batch.rbin_w.len(), first.rbin_w.len());
            assert_eq!(replayed.batch.rdoc_w.len(), first.rdoc_w.len());
            assert_eq!(replayed.batch.rdoc_ts_w.len(), docs.len());
            assert_eq!(replayed.doc_meta, live.doc_meta);
        }
        assert!(live.batches[0].num_witness_rows() > 0);
        assert_eq!(live.batches[1].num_witness_rows(), 0);
        assert_eq!(rig.front.stats(), stats);
        assert_eq!(rig.front.position(), position);
    }
}
