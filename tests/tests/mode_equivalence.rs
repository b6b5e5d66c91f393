//! The central correctness property of the reproduction: the three Stage-2
//! strategies (Sequential, MMQJP, MMQJP with view materialization) produce
//! exactly the same matches on the same workload — template sharing and view
//! materialization are pure optimizations — and the multi-core
//! `ShardedEngine` reproduces each of them byte for byte at every shard
//! count: Sharded ≡ Sequential ≡ MMQJP ≡ MMQJP+VM.

use mmqjp_core::{EngineConfig, MmqjpEngine, ProcessingMode};
use mmqjp_integration_tests::{
    all_modes, match_keys, run_stream, run_stream_sharded, run_stream_sorted,
    sharded_engine_with_queries, SHARD_COUNTS,
};
use mmqjp_workload::{
    ChurnConfig, ChurnWorkload, ComplexSchemaWorkload, FlatSchemaWorkload, RssQueryGenerator,
    RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::{Document, Timestamp};
use mmqjp_xscl::XsclQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the same queries and documents through every mode (with an optional
/// config tweak) and assert the match sets coincide; additionally run every
/// mode through `ShardedEngine` at each [`SHARD_COUNTS`] entry and assert
/// the sharded output is byte-identical to the (canonically ordered)
/// single-engine output of the same mode. Returns the number of matches.
fn assert_modes_agree_with(
    queries: &[XsclQuery],
    docs: &[Document],
    tweak: impl Fn(EngineConfig) -> EngineConfig,
) -> usize {
    let mut reference: Option<Vec<_>> = None;
    let mut count = 0;
    for mode in all_modes() {
        let config = tweak(
            EngineConfig {
                mode,
                ..EngineConfig::default()
            }
            .with_retain_documents(false),
        );
        let mut engine = MmqjpEngine::new(config.clone());
        for q in queries {
            engine.register_query(q.clone()).expect("query registers");
        }
        let matches = run_stream_sorted(&mut engine, docs.to_vec());
        let keys = match_keys(&matches);
        count = keys.len();
        match &reference {
            None => reference = Some(keys),
            Some(r) => assert_eq!(
                r,
                &keys,
                "mode {mode:?} disagrees with {:?}",
                ProcessingMode::Sequential
            ),
        }
        // The sharded pipeline (parse-once front stage + witness routing)
        // must reproduce the same bytes at every shard count.
        for &num_shards in shard_counts_for(mode, docs.len()) {
            let mut sharded = sharded_engine_with_queries(config.clone(), num_shards, queries);
            let sharded_matches = run_stream_sharded(&mut sharded, docs.to_vec());
            assert_eq!(
                sharded_matches, matches,
                "Sharded({num_shards} shards) diverges from single-engine {mode:?}"
            );
        }
    }
    count
}

/// Shard counts to sweep the pipelined entry point over for a given inner
/// mode and stream length, budgeted like [`shard_counts_for`]: each mode
/// gets representative counts, and the full shard-count sweep of the
/// pipelined entry point is certified in `sharding.rs`.
fn pipelined_shard_counts_for(mode: ProcessingMode, num_docs: usize) -> &'static [usize] {
    let light = num_docs <= 60;
    match mode {
        ProcessingMode::Sequential => {
            if light {
                &[4]
            } else {
                &[]
            }
        }
        ProcessingMode::Mmqjp => {
            if light {
                &[1, 4, 7]
            } else {
                &[2]
            }
        }
        ProcessingMode::MmqjpViewMat => {
            if light {
                &[2, 4, 7]
            } else {
                &[4]
            }
        }
    }
}

/// Shard counts to sweep for a given inner mode and stream length.
///
/// Every sharded run costs roughly `num_shards ×` the per-shard fixed work
/// (Stage-1 patterns and templates are replicated into each shard holding
/// one of their queries), with no wall-clock win on the single-CPU CI
/// runners, so the sweep is budgeted: short streams exercise the full
/// [`SHARD_COUNTS`] sweep in every mode; long streams exercise small counts
/// in the cheap MMQJP modes (the large counts are certified by the short
/// scenarios, which share all the engine code). Sequential — whose per-query
/// evaluation dwarfs everything else — gets one representative count on
/// short streams only.
fn shard_counts_for(mode: ProcessingMode, num_docs: usize) -> &'static [usize] {
    let light = num_docs <= 60;
    match mode {
        ProcessingMode::Sequential => {
            if light {
                &[4]
            } else {
                &[]
            }
        }
        ProcessingMode::Mmqjp => {
            if light {
                &SHARD_COUNTS
            } else {
                &[1, 2]
            }
        }
        ProcessingMode::MmqjpViewMat => {
            if light {
                &SHARD_COUNTS
            } else {
                &[2, 4]
            }
        }
    }
}

/// [`assert_modes_agree_with`] with the default configuration.
fn assert_modes_agree(queries: &[XsclQuery], docs: &[Document]) -> usize {
    assert_modes_agree_with(queries, docs, |config| config)
}

/// A small document stream over the flat schema: several documents whose
/// leaf values overlap pairwise so joins fire between different positions.
fn flat_stream(workload: &FlatSchemaWorkload, docs: usize) -> Vec<Document> {
    (0..docs)
        .map(|i| {
            let mut d = workload.document(10 * (i as u64 + 1));
            // Rotate one leaf value so not every document matches every other
            // document on every leaf.
            let leaf = d.first_with_tag("leaf0").unwrap();
            d.set_text(leaf, format!("value-{}", i % 3));
            d
        })
        .collect()
}

#[test]
fn modes_agree_on_flat_schema_workload() {
    let workload = FlatSchemaWorkload::new(6, 0.8);
    let mut rng = StdRng::seed_from_u64(101);
    let queries = workload.generate_queries(150, &mut rng);
    let docs = flat_stream(&workload, 6);
    let matches = assert_modes_agree(&queries, &docs);
    assert!(matches > 0, "the workload must actually produce matches");
}

#[test]
fn modes_agree_on_complex_schema_workload() {
    let workload = ComplexSchemaWorkload::new(3, 3, 0.5);
    let mut rng = StdRng::seed_from_u64(202);
    let queries = workload.generate_queries(120, &mut rng);
    let docs: Vec<Document> = (0..5).map(|i| workload.document(5 * (i + 1))).collect();
    let matches = assert_modes_agree(&queries, &docs);
    assert!(matches > 0);
}

#[test]
fn modes_agree_on_rss_stream() {
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(303);
    let queries = generator.generate_queries(100, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 120,
        channels: 15,
        title_vocabulary: 25,
        description_vocabulary: 40,
        ..RssStreamConfig::default()
    })
    .documents();
    let matches = assert_modes_agree(&queries, &docs);
    assert!(matches > 0);
}

#[test]
fn modes_agree_with_finite_windows() {
    // Finite windows exercise the temporal filter of Algorithm 3.
    let generator = RssQueryGenerator::new(0.8).with_window(mmqjp_xscl::Window::Time(7));
    let mut rng = StdRng::seed_from_u64(404);
    let queries = generator.generate_queries(80, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 80,
        channels: 8,
        title_vocabulary: 10,
        description_vocabulary: 15,
        ..RssStreamConfig::default()
    })
    .documents();
    assert_modes_agree(&queries, &docs);
}

#[test]
fn modes_agree_with_state_pruning() {
    // Window-based pruning is per-shard: a shard prunes by the maximum window
    // of *its* query subset, which can be tighter than the global maximum
    // when windows are heterogeneous. Pruning only ever discards state no
    // resident query can reach, so the matches must still coincide. Mix three
    // window lengths to make the per-shard maxima genuinely differ.
    let mut rng = StdRng::seed_from_u64(909);
    let mut queries = Vec::new();
    for window in [5, 15, 40] {
        let generator = RssQueryGenerator::new(0.8).with_window(mmqjp_xscl::Window::Time(window));
        queries.extend(generator.generate_queries(25, &mut rng));
    }
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 60,
        channels: 6,
        title_vocabulary: 8,
        description_vocabulary: 12,
        ..RssStreamConfig::default()
    })
    .documents();
    assert_modes_agree_with(&queries, &docs, |config| {
        config.with_prune_state_by_window(true)
    });
}

#[test]
fn modes_agree_on_long_windowed_churn_stream() {
    // The sustained-operation scenario: a stream several times longer than
    // the largest window, with incremental bucketed expiry active the whole
    // time. Heterogeneous windows make per-shard expiry cutoffs differ, and
    // the bucketed drop retains rows slightly past their window (never less)
    // — the temporal filter must keep every mode and shard count
    // byte-identical through all of it.
    let workload = ChurnWorkload::new(ChurnConfig {
        items: 150,
        num_queries: 45,
        windows: vec![25, 60, 160],
        ..ChurnConfig::default()
    });
    let queries = workload.queries();
    let docs = workload.documents();
    let matches = assert_modes_agree_with(&queries, &docs, |config| {
        config.with_prune_state_by_window(true)
    });
    assert!(matches > 0, "the churn workload must produce matches");
}

#[test]
fn doc_retention_eviction_does_not_change_results() {
    // The doc_store/doc_timestamps leak fix evicts retention state even when
    // join-state pruning is off (the default); matches must be unaffected,
    // with and without an explicit retention cap at the window bound.
    let workload = ChurnWorkload::new(ChurnConfig {
        items: 90,
        num_queries: 30,
        windows: vec![30, 90],
        ..ChurnConfig::default()
    });
    let queries = workload.queries();
    let docs = workload.documents();
    let baseline = assert_modes_agree(&queries, &docs);
    let capped = assert_modes_agree_with(&queries, &docs, |config| {
        config.with_doc_retention_cap(Some(90))
    });
    assert_eq!(baseline, capped);
    assert!(baseline > 0);
}

#[test]
fn view_cache_capacity_does_not_change_results() {
    // A tiny LRU view cache forces constant eviction and recomputation; the
    // results must not change.
    let workload = FlatSchemaWorkload::new(5, 0.8);
    let mut rng = StdRng::seed_from_u64(505);
    let queries = workload.generate_queries(100, &mut rng);
    let docs = flat_stream(&workload, 8);

    let run = |capacity: Option<usize>| {
        let mut engine = MmqjpEngine::new(
            EngineConfig::mmqjp_view_mat()
                .with_view_cache_capacity(capacity)
                .with_retain_documents(false),
        );
        for q in &queries {
            engine.register_query(q.clone()).unwrap();
        }
        match_keys(&run_stream(&mut engine, docs.clone()))
    };
    let unbounded = run(None);
    let tiny = run(Some(2));
    assert_eq!(unbounded, tiny);
    assert!(!unbounded.is_empty());
}

#[test]
fn batched_processing_agrees_across_modes() {
    // process_batch trades intra-batch matches for throughput; all modes must
    // make the same trade and agree with each other. The set-up is the
    // paper's Fig. 16 (RSS queries, batched, no retained documents), so the
    // figure's claim is pinned here too, as plan-execution counts.
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(606);
    let queries = generator.generate_queries(60, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 90,
        channels: 9,
        title_vocabulary: 12,
        description_vocabulary: 20,
        ..RssStreamConfig::default()
    })
    .documents();

    let batches = docs.chunks(30).len();
    let mut reference: Option<Vec<_>> = None;
    let mut stats = Vec::new();
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        }
        .with_retain_documents(false);
        let mut engine = MmqjpEngine::new(config.clone());
        for q in &queries {
            engine.register_query(q.clone()).unwrap();
        }
        let mut matches = Vec::new();
        for chunk in docs.chunks(30) {
            let mut batch = engine.process_batch(chunk.to_vec()).unwrap();
            mmqjp_core::sort_matches(&mut batch);
            matches.extend(batch);
        }
        stats.push((mode, engine.stats()));
        let keys = match_keys(&matches);
        match &reference {
            None => reference = Some(keys),
            Some(r) => assert_eq!(r, &keys, "mode {mode:?} disagrees"),
        }
        // Sharded batches must be byte-identical to the single engine's
        // (canonically ordered) batches.
        for &num_shards in shard_counts_for(mode, docs.len()) {
            let mut sharded = sharded_engine_with_queries(config.clone(), num_shards, &queries);
            let mut sharded_matches = Vec::new();
            for chunk in docs.chunks(30) {
                sharded_matches.extend(sharded.process_batch(chunk.to_vec()).unwrap());
            }
            assert_eq!(
                sharded_matches, matches,
                "Sharded({num_shards}) batched run diverges from {mode:?}"
            );
        }
        // The pipelined entry point (Stage 1 of batch k+1 overlapping
        // Stage 2 of batch k) must produce the same bytes, batch-aligned.
        for &num_shards in pipelined_shard_counts_for(mode, docs.len()) {
            let mut pipelined = sharded_engine_with_queries(config.clone(), num_shards, &queries);
            let batches: Vec<Vec<Document>> = docs.chunks(30).map(<[_]>::to_vec).collect();
            let pipelined_matches: Vec<_> = pipelined
                .process_batches(batches)
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(
                pipelined_matches, matches,
                "Sharded({num_shards} shards) pipelined run diverges from {mode:?}"
            );
        }
    }

    // Fig. 16's claim: shared per-template evaluation beats the per-query
    // Sequential loop. `PhysicalPlan::execute` counts every call after the
    // first as a scratch reuse, so an engine's plan executions are
    // `scratch_reuses + 1`. Sequential runs one plan per registration per
    // batch; the MMQJP modes at most one per template per batch.
    let executions = |mode| {
        let (_, s) = stats.iter().find(|(m, _)| *m == mode).unwrap();
        (s.scratch_reuses + 1, s.templates)
    };
    let (sequential, _) = executions(ProcessingMode::Sequential);
    assert_eq!(sequential, queries.len() * batches);
    for mode in [ProcessingMode::Mmqjp, ProcessingMode::MmqjpViewMat] {
        let (shared, templates) = executions(mode);
        assert!(
            shared <= templates * batches,
            "{mode:?}: {shared} plan executions for {templates} templates x {batches} batches"
        );
        assert!(
            shared < sequential,
            "{mode:?}: {shared} plan executions, Sequential {sequential}"
        );
    }
}

#[test]
fn single_document_batches_equal_per_document_processing() {
    let workload = FlatSchemaWorkload::new(4, 0.8);
    let mut rng = StdRng::seed_from_u64(707);
    let queries = workload.generate_queries(60, &mut rng);
    let docs = flat_stream(&workload, 5);

    let mut per_doc = MmqjpEngine::new(EngineConfig::mmqjp().with_retain_documents(false));
    let mut batched = MmqjpEngine::new(EngineConfig::mmqjp().with_retain_documents(false));
    for q in &queries {
        per_doc.register_query(q.clone()).unwrap();
        batched.register_query(q.clone()).unwrap();
    }
    let a = match_keys(&run_stream(&mut per_doc, docs.clone()));
    let mut b_matches = Vec::new();
    for d in docs {
        b_matches.extend(batched.process_batch(vec![d]).unwrap());
    }
    let b = match_keys(&b_matches);
    assert_eq!(a, b);
}

#[test]
fn timestamps_default_to_arrival_order() {
    // Documents without explicit timestamps get sequence-number timestamps,
    // so FOLLOWED BY still behaves deterministically.
    let workload = FlatSchemaWorkload::new(4, 0.8);
    let mut rng = StdRng::seed_from_u64(808);
    let queries = workload.generate_queries(40, &mut rng);
    let docs: Vec<Document> = (0..4)
        .map(|_| workload.document(0).with_timestamp(Timestamp(0)))
        .collect();
    assert_modes_agree(&queries, &docs);
}
