//! Deterministic chaos harness for the self-healing sharded pipeline.
//!
//! The central property is differential: under *any* seeded fault schedule —
//! shard worker panics, dropped replies, corrupted document bytes,
//! out-of-order timestamps — a [`FaultPolicy::Quarantine`] engine must
//! produce byte-identical output to a fresh, fault-free engine fed only the
//! surviving documents, and its invariant audit must come back clean after
//! every recovery. Alongside the differential sweep there are targeted tests
//! for each policy: FailFast containment (a shard panic becomes a typed
//! error, not a hang), Degrade (dead shards go dark, the rest
//! keep serving, a manual respawn restores full service), the pipelined entry
//! point's checkpoint/rollback of a staged-but-never-dispatched batch, and
//! stream-position parity after poison input between the single engine and
//! the sharded one.
//!
//! The three default seeds are fixed so CI failures replay exactly; override
//! them with `MMQJP_CHAOS_SEEDS=1,2,3` to widen the sweep.

use std::collections::HashSet;
use std::time::Duration;

use mmqjp_core::{
    corrupt_bytes, CoreError, CoreResult, EngineConfig, FaultInjector, FaultKind, FaultPlan,
    FaultPolicy, MatchOutput, MmqjpEngine, QuarantineRecord, QueryId, ShardedEngine,
};
use mmqjp_integration_tests::{
    assert_audit_clean_sharded, match_keys, sharded_engine_with_queries,
};
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::{parse_document, parse_document_streaming, rss, serialize, Document, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed seeds the CI chaos job runs. `MMQJP_CHAOS_SEEDS` (comma-
/// separated) overrides them for wider local sweeps.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("MMQJP_CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![11, 29, 47],
    }
}

fn rss_workload(
    seed: u64,
    queries: usize,
    items: usize,
) -> (Vec<mmqjp_xscl::XsclQuery>, Vec<Document>) {
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let qs = generator.generate_queries(queries, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items,
        channels: 8,
        title_vocabulary: 10,
        description_vocabulary: 15,
        ..RssStreamConfig::default()
    })
    .documents();
    (qs, docs)
}

/// Build an engine under the given fault policy with the plan installed
/// before any queries register (floors start at zero, like the reference).
fn chaos_engine(
    config: EngineConfig,
    num_shards: usize,
    policy: FaultPolicy,
    plan: FaultPlan,
    queries: &[mmqjp_xscl::XsclQuery],
) -> ShardedEngine {
    let mut engine =
        ShardedEngine::new(config.with_num_shards(num_shards).with_fault_policy(policy));
    engine.set_fault_injector(FaultInjector::new(plan));
    for q in queries {
        engine.register_query(q.clone()).expect("query registers");
    }
    engine
}

/// Re-parse a corrupted byte blob with *both* parsers. They must agree on
/// accept/reject and neither may panic (the malformed-input contract); a
/// blob both accept re-enters the stream, one both reject leaves it. Bytes
/// that are not even UTF-8 never reach either parser.
fn reparse_if_agreed(bytes: &[u8]) -> Option<Document> {
    let text = String::from_utf8(bytes.to_vec()).ok()?;
    let dom = parse_document(&text);
    let streaming = parse_document_streaming(&text);
    assert_eq!(
        dom.is_ok(),
        streaming.is_ok(),
        "DOM and streaming parsers disagree on corrupt input:\n  dom: {dom:?}\n  streaming: {streaming:?}\n  input: {text:?}"
    );
    dom.ok()
}

/// Apply the plan's *document-content* faults to the input stream — the
/// engine only delivers worker-directed faults; mutating the bytes it is fed
/// is the harness's job, identically for the engine under test and (via the
/// quarantine records) the reference.
fn apply_document_faults(
    plan: &FaultPlan,
    batches: &[Vec<Document>],
    seed: u64,
) -> Vec<Vec<Document>> {
    batches
        .iter()
        .enumerate()
        .map(|(index, batch)| {
            let mut docs = batch.clone();
            for fault in plan.faults_at(index as u64) {
                match fault {
                    FaultKind::CorruptDocument { doc_index } if *doc_index < docs.len() => {
                        let timestamp = docs[*doc_index].timestamp();
                        let bytes = corrupt_bytes(
                            &serialize(&docs[*doc_index]),
                            seed ^ ((index as u64) << 8) ^ *doc_index as u64,
                        );
                        match reparse_if_agreed(&bytes) {
                            // Serialization drops the stream timestamp, so
                            // a surviving mutant is re-stamped with the
                            // original's to stay in order.
                            Some(doc) => docs[*doc_index] = doc.with_timestamp(timestamp),
                            None => {
                                docs.remove(*doc_index);
                            }
                        }
                    }
                    FaultKind::OutOfOrderTimestamp { doc_index } if *doc_index < docs.len() => {
                        let stale = docs[*doc_index].clone().with_timestamp(Timestamp(1));
                        docs[*doc_index] = stale;
                    }
                    _ => {}
                }
            }
            docs
        })
        .collect()
}

/// The surviving-document stream: the chaos engine's input minus every
/// document its quarantine records rejected, batch positions preserved.
fn survivor_batches(mutated: &[Vec<Document>], records: &[QuarantineRecord]) -> Vec<Vec<Document>> {
    let quarantined: HashSet<(u64, usize)> =
        records.iter().map(|r| (r.batch, r.doc_index)).collect();
    mutated
        .iter()
        .enumerate()
        .map(|(batch, docs)| {
            docs.iter()
                .enumerate()
                .filter(|(i, _)| !quarantined.contains(&(batch as u64, *i)))
                .map(|(_, d)| d.clone())
                .collect()
        })
        .collect()
}

/// The worker-directed faults the engine will actually deliver for this
/// plan: each one retires a worker and forces a respawn, so the count pins
/// both `faults_injected` and `shards_respawned`.
fn worker_fault_count(plan: &FaultPlan, batches: u64) -> usize {
    (0..batches)
        .flat_map(|b| plan.faults_at(b))
        .filter(|f| {
            matches!(
                f,
                FaultKind::PanicShard { .. } | FaultKind::DropResponse { .. }
            )
        })
        .count()
}

/// The differential property itself. Runs one seeded fault schedule against
/// a Quarantine engine, derives the surviving stream from its quarantine
/// records, and demands byte-identical output from a fresh fault-free engine
/// fed only the survivors — plus a clean audit and exact failure-model
/// accounting on the chaos side.
fn run_chaos_differential(
    seed: u64,
    base_config: EngineConfig,
    num_shards: usize,
    pipelined: bool,
    num_queries: usize,
    items: usize,
) {
    let (queries, docs) = rss_workload(seed, num_queries, items);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::seeded(seed, batches.len() as u64, num_shards);
    let mut config = base_config.with_retain_documents(false);
    config.enforce_in_order = true;

    let mutated = apply_document_faults(&plan, &batches, seed);

    let mut chaos = chaos_engine(
        config.clone(),
        num_shards,
        FaultPolicy::Quarantine,
        plan.clone(),
        &queries,
    );
    let chaos_out: Vec<Vec<MatchOutput>> = if pipelined {
        chaos
            .process_batches(mutated.clone())
            .expect("quarantine absorbs every injected fault")
    } else {
        mutated
            .iter()
            .map(|batch| {
                chaos
                    .process_batch(batch.clone())
                    .expect("quarantine absorbs every injected fault")
            })
            .collect()
    };

    let records = chaos.take_quarantine_records();
    for record in &records {
        assert!(
            matches!(record.error, CoreError::OutOfOrderDocument { .. }),
            "unexpected quarantine reason: {:?}",
            record.error
        );
        assert!(record.doc_index < mutated[record.batch as usize].len());
    }

    let survivors = survivor_batches(&mutated, &records);
    let mut reference = sharded_engine_with_queries(config, num_shards, &queries);
    let expected: Vec<Vec<MatchOutput>> = survivors
        .iter()
        .map(|batch| {
            reference
                .process_batch(batch.clone())
                .expect("the surviving stream is clean by construction")
        })
        .collect();

    assert_eq!(
        chaos_out, expected,
        "chaos output diverged from the survivor reference \
         (seed {seed}, shards {num_shards}, pipelined {pipelined})"
    );
    assert_audit_clean_sharded(&chaos);

    let stats = chaos.stats().expect("every shard is live after healing");
    assert_eq!(stats.docs_quarantined, records.len());
    let worker_faults = worker_fault_count(&plan, batches.len() as u64);
    assert_eq!(stats.faults_injected, worker_faults);
    assert_eq!(stats.shards_respawned, worker_faults);
    if worker_faults > 0 {
        assert!(
            stats.timings.recovery > Duration::ZERO,
            "respawns must be accounted in the recovery phase"
        );
    }
    assert!(chaos.degraded_shards().is_empty());
}

/// The CI chaos matrix: three fixed seeds on three shards, batch-at-a-time
/// ingestion.
#[test]
fn chaos_differential_across_seeds() {
    for seed in chaos_seeds() {
        run_chaos_differential(seed, EngineConfig::mmqjp(), 3, false, 24, 48);
    }
}

/// The same property through the pipelined entry point, where recovery has
/// to cooperate with the depth-1 overlap of Stage 1 and Stage 2.
#[test]
fn chaos_differential_pipelined() {
    for seed in chaos_seeds() {
        run_chaos_differential(seed, EngineConfig::mmqjp_view_mat(), 3, true, 24, 48);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential property holds for arbitrary seeds across modes,
    /// shard counts and both entry points — smaller workloads than the
    /// fixed-seed matrix, many more schedules.
    #[test]
    fn chaos_differential_holds_for_any_seed(
        seed in 0u64..1_000_000,
        num_shards in 1usize..5,
        // A retired axis, still drawn so that every case keeps the inputs
        // it was generated with.
        _retired in 1usize..3,
        view_mat in 0u8..2,
        pipelined in 0u8..2,
    ) {
        let pipelined = pipelined == 1;
        let base = if view_mat == 1 {
            EngineConfig::mmqjp_view_mat()
        } else {
            EngineConfig::mmqjp()
        };
        run_chaos_differential(seed, base, num_shards, pipelined, 16, 32);
    }
}

/// Hand-scheduled shard deaths only (no poison input): healing must be
/// fully transparent — identical output to a never-failed engine, exact
/// respawn/fault accounting, state replayed, audit clean.
#[test]
fn injected_worker_deaths_heal_transparently() {
    let (queries, docs) = rss_workload(61, 24, 60);
    let batches: Vec<Vec<Document>> = docs.chunks(6).map(<[_]>::to_vec).collect();
    assert_eq!(batches.len(), 10);
    let plan = FaultPlan::none()
        .at(1, FaultKind::PanicShard { shard: 0 })
        .at(3, FaultKind::DropResponse { shard: 2 })
        .at(6, FaultKind::PanicShard { shard: 1 })
        .at(8, FaultKind::DropResponse { shard: 0 });
    let expected_respawns = 4;
    let config = EngineConfig::mmqjp().with_retain_documents(false);

    let mut chaos = chaos_engine(config.clone(), 3, FaultPolicy::Quarantine, plan, &queries);
    let chaos_out: Vec<Vec<MatchOutput>> = batches
        .iter()
        .map(|b| chaos.process_batch(b.clone()).expect("healed inline"))
        .collect();

    let mut reference = sharded_engine_with_queries(config, 3, &queries);
    let expected: Vec<Vec<MatchOutput>> = batches
        .iter()
        .map(|b| reference.process_batch(b.clone()).expect("fault-free"))
        .collect();
    assert_eq!(chaos_out, expected);
    assert!(
        expected.iter().any(|b| !b.is_empty()),
        "the workload must produce matches for the comparison to bite"
    );

    let stats = chaos.stats().expect("all shards live after healing");
    assert_eq!(stats.shards_respawned, expected_respawns);
    assert_eq!(stats.faults_injected, expected_respawns);
    assert_eq!(stats.docs_quarantined, 0);
    assert!(chaos.take_quarantine_records().is_empty());
    assert!(stats.rows_replayed > 0, "healing replays in-window state");
    assert!(stats.timings.recovery > Duration::ZERO);
    assert_audit_clean_sharded(&chaos);
    assert!(chaos.degraded_shards().is_empty());
}

/// FailFast containment: an injected panic surfaces as the typed
/// [`CoreError::ShardPanicked`] — never a hang, never an unwinding test
/// harness — and the dead shard stays dead (no retention to rebuild from).
#[test]
fn failfast_turns_a_panic_into_a_typed_error() {
    let (queries, docs) = rss_workload(81, 10, 12);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::none().at(1, FaultKind::PanicShard { shard: 0 });
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut engine = chaos_engine(config, 2, FaultPolicy::FailFast, plan, &queries);

    engine
        .process_batch(batches[0].clone())
        .expect("no fault scheduled for batch 0");
    let err = engine.process_batch(batches[1].clone()).unwrap_err();
    match err {
        CoreError::ShardPanicked { shard, payload } => {
            assert_eq!(shard, 0);
            assert!(
                payload.contains("injected fault"),
                "panic payload should carry the original message, got {payload:?}"
            );
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    assert_eq!(engine.degraded_shards(), vec![0]);

    // The shard is gone for good under FailFast: subsequent batches fail
    // with a typed availability error and a respawn is refused (nothing was
    // retained to rebuild from).
    let err = engine.process_batch(batches[2].clone()).unwrap_err();
    assert!(matches!(err, CoreError::ShardUnavailable { shard: 0 }));
    assert!(matches!(
        engine.respawn_shard(0).unwrap_err(),
        CoreError::ShardUnavailable { shard: 0 }
    ));
}

/// Degrade: a dead shard's queries go dark while every surviving shard
/// keeps serving; stats and audit skip the corpse; a manual respawn rebuilds
/// it from the retained ledger and replay log, after which output is again
/// identical to a never-failed engine.
#[test]
fn degrade_keeps_serving_and_manual_respawn_restores() {
    let (queries, docs) = rss_workload(71, 30, 40);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::none().at(2, FaultKind::PanicShard { shard: 1 });
    let config = EngineConfig::mmqjp().with_retain_documents(false);

    let mut degraded = chaos_engine(config.clone(), 4, FaultPolicy::Degrade, plan, &queries);
    let mut reference = sharded_engine_with_queries(config, 4, &queries);

    for (index, batch) in batches.iter().enumerate() {
        if index == 6 {
            assert_eq!(degraded.degraded_shards(), vec![1]);
            degraded.respawn_shard(1).expect("manual respawn rebuilds");
            assert!(degraded.degraded_shards().is_empty());
        }
        let out = degraded
            .process_batch(batch.clone())
            .expect("degrade keeps serving");
        let expected = reference.process_batch(batch.clone()).expect("fault-free");
        if (2..6).contains(&index) {
            // Shard 1 is dark: its matches are missing, everyone else's are
            // intact and canonically ordered.
            let out_keys: HashSet<_> = match_keys(&out).into_iter().collect();
            let expected_keys: HashSet<_> = match_keys(&expected).into_iter().collect();
            assert!(
                out_keys.is_subset(&expected_keys),
                "a degraded engine must never invent matches (batch {index})"
            );
        } else {
            assert_eq!(out, expected, "batch {index}");
        }
        // Stats and audit stay reachable throughout the outage.
        degraded.stats().expect("dead shards report zeroes");
        assert_audit_clean_sharded(&degraded);
    }
    assert_eq!(degraded.stats().unwrap().shards_respawned, 1);
}

/// Regression for the pipelined checkpoint/rollback: when collecting batch
/// `k` fails *after* batch `k+1` was already staged, the staged batch must
/// leave no trace — otherwise the front's document sequence drifts ahead of
/// anything the shards (or a reference engine) ever saw.
#[test]
fn collect_failure_rolls_back_the_staged_batch() {
    let (queries, docs) = rss_workload(91, 12, 12);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    assert_eq!(batches.len(), 3);
    let plan = FaultPlan::none().at(0, FaultKind::DropResponse { shard: 1 });
    let mut config = EngineConfig::mmqjp().with_retain_documents(false);
    config.enforce_in_order = true;
    let mut engine = chaos_engine(config, 2, FaultPolicy::FailFast, plan, &queries);

    // Timeline: batch 0 is dispatched (with the fault); batch 1 is staged by
    // the front; collecting batch 0 then discovers the dropped reply and
    // fails — at which point batch 1 must be rolled back and batch 2 never
    // reached.
    let err = engine.process_batches(batches).unwrap_err();
    assert!(matches!(err, CoreError::ShardUnavailable { shard: 1 }));
    let front = engine.front_stats();
    assert_eq!(
        front.documents_processed, 4,
        "only the dispatched batch may count; the staged one was rolled back"
    );
    assert_eq!(front.docs_parsed_once, 4);
}

/// Poison input mid-stream through the pipelined entry point under
/// Quarantine: the stale document is skipped and recorded, every batch stays
/// aligned, and output matches a reference that never saw the poison.
#[test]
fn pipelined_quarantine_skips_poison_and_stays_aligned() {
    let (queries, docs) = rss_workload(93, 16, 24);
    let batches: Vec<Vec<Document>> = docs.chunks(3).map(<[_]>::to_vec).collect();
    let mut config = EngineConfig::mmqjp().with_retain_documents(false);
    config.enforce_in_order = true;

    // Make one document in batch 3 stale by hand.
    let mut poisoned = batches.clone();
    let stale = poisoned[3][1].clone().with_timestamp(Timestamp(1));
    poisoned[3][1] = stale;

    let mut chaos = chaos_engine(
        config.clone(),
        3,
        FaultPolicy::Quarantine,
        FaultPlan::none(),
        &queries,
    );
    let out = chaos
        .process_batches(poisoned.clone())
        .expect("poison is quarantined, not fatal");

    let records = chaos.take_quarantine_records();
    assert_eq!(records.len(), 1);
    assert_eq!((records[0].batch, records[0].doc_index), (3, 1));

    let survivors = survivor_batches(&poisoned, &records);
    let mut reference = sharded_engine_with_queries(config, 3, &queries);
    let expected = reference
        .process_batches(survivors)
        .expect("survivors are clean");
    assert_eq!(out, expected);
    assert_audit_clean_sharded(&chaos);
    assert_eq!(chaos.stats().unwrap().docs_quarantined, 1);
}

/// Either engine kind behind the three calls the parity test makes.
enum Pipeline {
    Single(Box<MmqjpEngine>),
    Sharded(Box<ShardedEngine>),
}

impl Pipeline {
    fn register(&mut self, query: &str) {
        match self {
            Pipeline::Single(e) => e.register_query_text(query),
            Pipeline::Sharded(e) => e.register_query_text(query),
        }
        .expect("query registers");
    }

    fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        match self {
            Pipeline::Single(e) => e.process_batch(docs),
            Pipeline::Sharded(e) => e.process_batch(docs),
        }
    }

    fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        match self {
            Pipeline::Single(e) => e.take_quarantine_records(),
            Pipeline::Sharded(e) => e.take_quarantine_records(),
        }
    }
}

/// Stream-position parity after poison input. One screening function
/// (`mmqjp_core::front`) decides what a mid-batch out-of-order document does
/// to the stream position on every engine, and the *next* batch's matches
/// show the decision: their document ids say which documents of the poisoned
/// batch were absorbed and how many sequence numbers it spent.
///
/// * consume — FailFast and Degrade: the batch fails, the documents up to
///   and including the poison one keep their numbers, nothing is absorbed;
/// * quarantine — Quarantine: the poison document is recorded and skipped,
///   its neighbours are absorbed under gap-free ids.
#[test]
fn stream_position_after_poison_is_identical_across_engines() {
    const QUERY: &str = "S//book->b[.//title->t] FOLLOWED BY{t=u, 1000} S//blog->g[.//title->u]";
    let book =
        |ts| rss::book_announcement(&["A"], "T", &[], "P", "1").with_timestamp(Timestamp(ts));
    let blog = |ts| rss::blog_article("A", "u", "T", "c", "d").with_timestamp(Timestamp(ts));
    let mut config = EngineConfig::mmqjp().with_retain_documents(false);
    config.enforce_in_order = true;

    for policy in [
        FaultPolicy::FailFast,
        FaultPolicy::Quarantine,
        FaultPolicy::Degrade,
    ] {
        let config = config.clone().with_fault_policy(policy);
        let sharded = ShardedEngine::new(config.clone().with_num_shards(2));
        for (name, mut engine) in [
            (
                "single",
                Pipeline::Single(Box::new(MmqjpEngine::new(config.clone()))),
            ),
            ("sharded", Pipeline::Sharded(Box::new(sharded))),
        ] {
            engine.register(QUERY);
            assert!(engine.process_batch(vec![book(10)]).unwrap().is_empty());
            let poisoned = engine.process_batch(vec![book(20), blog(5), book(30)]);
            let records = engine.take_quarantine_records();
            let next: Vec<(u64, u64)> = engine
                .process_batch(vec![blog(40)])
                .expect("the stream continues after the poisoned batch")
                .iter()
                .map(|m| (m.left_doc.raw(), m.right_doc.raw()))
                .collect();

            let context = format!("{name} engine under {policy:?}");
            let rejected = |result: &CoreResult<Vec<MatchOutput>>| {
                matches!(
                    result,
                    Err(CoreError::OutOfOrderDocument {
                        timestamp: 5,
                        newest: 20
                    })
                )
            };
            match policy {
                FaultPolicy::Quarantine => {
                    assert_eq!(poisoned.expect(&context), Vec::new(), "{context}");
                    let pinned: Vec<_> = records
                        .iter()
                        .map(|r| (r.batch, r.doc_index, r.timestamp))
                        .collect();
                    assert_eq!(pinned, vec![(1, 1, 5)], "{context}");
                    assert_eq!(next, vec![(1, 4), (2, 4), (3, 4)], "{context}");
                }
                FaultPolicy::FailFast | FaultPolicy::Degrade => {
                    assert!(rejected(&poisoned), "{context}: {poisoned:?}");
                    assert!(records.is_empty(), "{context}");
                    assert_eq!(next, vec![(1, 4)], "{context}");
                }
            }
        }
    }
}

/// Recovery replays through the coordinator's front. On two shards, in
/// view-materialized mode under [`FaultPolicy::Quarantine`]: `Q1` and `Q2`
/// live on one shard and `Q3` — which shares `Q1`'s blog pattern — on the
/// other. `Q1` unregisters first, so the front keeps the blog pattern for
/// the other shard only; then each shard dies in turn and is rebuilt from
/// the replay log, its replayed rows matched by the front and routed to it
/// alone. Every batch's output equals a never-failed single engine's, and
/// the audit is clean.
#[test]
fn a_healed_shard_replays_through_the_front_after_cross_shard_churn() {
    use mmqjp_integration_tests::{Q1, Q2, Q3};
    let docs: Vec<Document> = (0..24u64)
        .map(|i| {
            let (author, title, category) = (
                ["Ann", "Bob"][(i / 2 % 2) as usize],
                ["RSS", "Atom", "XML"][(i % 3) as usize],
                ["Web", "Books"][(i / 3 % 2) as usize],
            );
            let doc = if i % 2 == 0 {
                rss::book_announcement(&[author], title, &[category], "Wrox", "1")
            } else {
                rss::blog_article(author, "http://blog", title, category, "...")
            };
            doc.with_timestamp(Timestamp(10 * (i + 1)))
        })
        .collect();
    let batches: Vec<Vec<Document>> = docs.chunks(2).map(<[_]>::to_vec).collect();
    let config = EngineConfig::mmqjp_view_mat();

    let probe = ShardedEngine::new(config.clone().with_num_shards(2));
    // Place Q1 and Q2 on Q1's shard and Q3 on the other, padding the
    // id sequence with subscriptions that never match.
    let mut script: Vec<&str> = vec![Q1];
    let home = probe.shard_of(QueryId(0));
    for (query, shard) in [(Q3, 1 - home), (Q2, home)] {
        while probe.shard_of(QueryId(script.len() as u64)) != shard {
            script.push("S//never");
        }
        script.push(query);
    }
    let plan = FaultPlan::none()
        .at(6, FaultKind::PanicShard { shard: home })
        .at(9, FaultKind::PanicShard { shard: 1 - home });
    let mut chaos = chaos_engine(config.clone(), 2, FaultPolicy::Quarantine, plan, &[]);
    let mut reference = MmqjpEngine::new(config.clone());
    for text in &script {
        let id = chaos.register_query_text(text).expect("query registers");
        assert_eq!(reference.register_query_text(text).unwrap(), id);
    }
    let q3 = QueryId(script.iter().position(|t| *t == Q3).unwrap() as u64);
    let q2 = QueryId(script.len() as u64 - 1);

    let mut later = Vec::new();
    for (index, batch) in batches.iter().enumerate() {
        if index == 4 {
            // Q1's blog pattern stays in the front for Q3's shard.
            chaos.unregister_query(QueryId(0)).unwrap();
            reference.unregister_query(QueryId(0)).unwrap();
            assert_audit_clean_sharded(&chaos);
        }
        let mut expected = reference.process_batch(batch.clone()).unwrap();
        mmqjp_core::sort_matches(&mut expected);
        let got = chaos.process_batch(batch.clone()).expect("healed inline");
        assert_eq!(got, expected, "batch {index}");
        if index > 6 {
            later.extend(got);
        }
    }
    for query in [q2, q3] {
        assert!(
            later.iter().any(|m| m.query == query),
            "{query:?} matches after its shard healed"
        );
    }
    let stats = chaos.stats().expect("all shards live after healing");
    assert_eq!(stats.shards_respawned, 2);
    assert!(stats.rows_replayed > 0, "healing replays in-window state");
    assert_audit_clean_sharded(&chaos);
    assert!(chaos.degraded_shards().is_empty());
}
