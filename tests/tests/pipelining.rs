//! Stress tests for the sharded engine's Stage-1 / Stage-2 pipeline
//! boundary: many tiny batches racing through the depth-1 pipeline, skewed
//! and degenerate shard populations, and error handling mid-stream. The
//! invariants are: no batch is reordered, dropped, or duplicated; the
//! pipelined entry point is byte-equivalent to batch-at-a-time processing;
//! and an error leaves the engine synchronized and usable.

use mmqjp_core::{CoreError, EngineConfig, MatchOutput, ShardedEngine};
use mmqjp_integration_tests::{assert_audit_clean_sharded, sharded_engine_with_topology, Q1};
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::{Document, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Batch-at-a-time reference on an identically-configured sharded engine:
/// `process_batch` never overlaps stages, so it pins the expected bytes and
/// batch alignment for `process_batches`.
fn batchwise_reference(
    config: &EngineConfig,
    queries: &[mmqjp_xscl::XsclQuery],
    batches: &[Vec<Document>],
) -> Vec<Vec<MatchOutput>> {
    let mut engine = sharded_engine_with_topology(config.clone(), config.num_shards, 2, queries);
    batches
        .iter()
        .map(|b| engine.process_batch(b.clone()).unwrap())
        .collect()
}

/// Many tiny batches: with one document per batch the pipeline turns over
/// on every call, maximizing Stage-1/Stage-2 overlap windows. Nothing may
/// be reordered, dropped, or duplicated.
#[test]
fn many_tiny_batches_keep_order_and_lose_nothing() {
    let (queries, docs) = rss_workload(51, 40, 60);
    let config = EngineConfig::mmqjp()
        .with_retain_documents(false)
        .with_num_shards(3);
    let batches: Vec<Vec<Document>> = docs.chunks(1).map(<[_]>::to_vec).collect();
    let expected = batchwise_reference(&config, &queries, &batches);
    assert!(
        expected.iter().any(|b| !b.is_empty()),
        "the workload must produce matches"
    );

    let mut engine = sharded_engine_with_topology(config, 3, 2, &queries);
    let results = engine.process_batches(batches).unwrap();
    assert_eq!(results.len(), expected.len(), "a batch was dropped");
    assert_eq!(results, expected, "batches reordered or corrupted");
    // Total match accounting survives the pipeline.
    assert_eq!(
        engine.stats().unwrap().results_emitted,
        expected.iter().map(Vec::len).sum::<usize>()
    );
    assert_audit_clean_sharded(&engine);
}

/// One shard: the pipeline degenerates to a two-thread producer/consumer
/// pair; the boundary must still hand over every batch exactly once.
#[test]
fn one_shard_pipeline_is_equivalent() {
    let (queries, docs) = rss_workload(52, 25, 40);
    let config = EngineConfig::mmqjp_view_mat()
        .with_retain_documents(false)
        .with_num_shards(1);
    let batches: Vec<Vec<Document>> = docs.chunks(3).map(<[_]>::to_vec).collect();
    let expected = batchwise_reference(&config, &queries, &batches);
    let mut engine = sharded_engine_with_topology(config, 1, 1, &queries);
    assert_eq!(engine.process_batches(batches).unwrap(), expected);
    assert_audit_clean_sharded(&engine);
}

/// Zero queries: batches must still flow through the pipeline (the shards
/// get ledger-only witness batches) without deadlocking or dropping a
/// batch, and every result is empty.
#[test]
fn zero_query_pipeline_flows_empty_batches() {
    let (_, docs) = rss_workload(53, 1, 30);
    let config = EngineConfig::mmqjp()
        .with_retain_documents(false)
        .with_num_shards(4);
    let mut engine = sharded_engine_with_topology(config, 4, 2, &[]);
    let batches: Vec<Vec<Document>> = docs.chunks(1).map(<[_]>::to_vec).collect();
    let num_batches = batches.len();
    let results = engine.process_batches(batches).unwrap();
    assert_eq!(results.len(), num_batches);
    assert!(results.iter().all(Vec::is_empty));
    let stats = engine.stats().unwrap();
    assert_eq!(stats.documents_processed, 30);
    assert_eq!(stats.witnesses_routed, 0);
    assert_audit_clean_sharded(&engine);
}

/// Empty batches interleaved with real ones: each must land at the right
/// position in the result vector (an empty batch settles the pipeline, so
/// misalignment here would betray an off-by-one at the boundary).
#[test]
fn interleaved_empty_batches_stay_aligned() {
    let (queries, docs) = rss_workload(54, 30, 20);
    let config = EngineConfig::mmqjp()
        .with_retain_documents(false)
        .with_num_shards(2);
    let mut batches: Vec<Vec<Document>> = Vec::new();
    for (i, chunk) in docs.chunks(2).enumerate() {
        if i % 3 == 0 {
            batches.push(Vec::new());
        }
        batches.push(chunk.to_vec());
    }
    batches.push(Vec::new());
    let expected = batchwise_reference(&config, &queries, &batches);
    let mut engine = sharded_engine_with_topology(config, 2, 2, &queries);
    let results = engine.process_batches(batches).unwrap();
    assert_eq!(results, expected);
    assert_audit_clean_sharded(&engine);
}

/// Slow-shard scenario: a shard count far above the query count leaves most
/// shards idle while one or two do all the Stage-2 work — the collector
/// must wait for the slow shard on every batch without deadlock or
/// reordering, whatever the front pool size.
#[test]
fn skewed_shard_load_does_not_reorder_or_deadlock() {
    let (queries, docs) = rss_workload(55, 3, 40);
    let config = EngineConfig::mmqjp()
        .with_retain_documents(false)
        .with_num_shards(7);
    let batches: Vec<Vec<Document>> = docs.chunks(2).map(<[_]>::to_vec).collect();
    let expected = batchwise_reference(&config, &queries, &batches);
    for front_pool in [1, 4] {
        let mut engine = sharded_engine_with_topology(config.clone(), 7, front_pool, &queries);
        // Most shards hold no queries at all.
        assert!(
            engine
                .queries_per_shard()
                .iter()
                .filter(|&&n| n == 0)
                .count()
                >= 4
        );
        assert_eq!(
            engine.process_batches(batches.clone()).unwrap(),
            expected,
            "front pool {front_pool}"
        );
        assert_audit_clean_sharded(&engine);
    }
}

/// An out-of-order document rejected mid-stream: `process_batches` returns
/// the error, the in-flight batch is drained (not leaked), and the engine
/// continues exactly like a single engine after a rejected batch.
#[test]
fn error_mid_stream_leaves_the_pipeline_synchronized() {
    let mut config = EngineConfig::mmqjp().with_num_shards(3);
    config.enforce_in_order = true;
    let mut engine = ShardedEngine::new(config.with_front_pool(2));
    engine.register_query_text(Q1).unwrap();

    let d1 = mmqjp_integration_tests::d1();
    let d2 = mmqjp_integration_tests::d2();
    let err = engine
        .process_batches(vec![
            vec![d1.clone().with_timestamp(Timestamp(100))],
            vec![d2.clone().with_timestamp(Timestamp(50))], // rejected
            vec![d2.clone().with_timestamp(Timestamp(150))], // never reached
        ])
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::OutOfOrderDocument {
            timestamp: 50,
            newest: 100
        }
    ));

    // The pipeline drained: a later in-order batch still matches against
    // the state from the first batch.
    let out = engine
        .process_batch(vec![d2.with_timestamp(Timestamp(150))])
        .unwrap();
    assert_eq!(out.len(), 1);
    // Even after a rejected batch, the invariant audit stays clean.
    assert_audit_clean_sharded(&engine);
}
