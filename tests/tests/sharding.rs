//! Integration tests for the multi-core `ShardedEngine`: determinism of the
//! merged output under thread interleaving, edge cases of `process_batch` on
//! both engine types, and cross-shard statistics aggregation.

use mmqjp_core::front::{self, DocumentMatches, Edge, MatchScratch, Stage1Table};
use mmqjp_core::{
    route_document, CoreError, EngineConfig, EngineStats, IngestScratch, MmqjpEngine,
    ShardedEngine, WitnessBatch,
};
use mmqjp_integration_tests::stage1::{resolve_edges, rows_from_bindings};
use mmqjp_integration_tests::{
    all_modes, assert_audit_clean_sharded, d1, d2, run_stream_sharded, run_stream_sorted,
    sharded_engine_with_queries, Q1, SHARD_COUNTS,
};
use mmqjp_relational::StringInterner;
use mmqjp_workload::{
    ChurnConfig, ChurnWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::{rss, DocId, Document, Timestamp};
use mmqjp_xpath::PatternId;
use mmqjp_xscl::QueryId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Duration;

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
        channels: 10,
        title_vocabulary: 12,
        description_vocabulary: 18,
        ..RssStreamConfig::default()
    })
    .documents();
    (qs, docs)
}

/// Two sharded engines built from the same seed must produce identical
/// (ordered) outputs even though their worker threads interleave differently
/// run to run — the canonical merge order erases all scheduling
/// nondeterminism. Each engine is run twice to double the number of observed
/// interleavings.
#[test]
fn sharded_output_is_deterministic_across_interleavings() {
    let (queries, docs) = rss_workload(42, 80, 60);
    let run = || {
        let config = EngineConfig::mmqjp_view_mat().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, 4, &queries);
        run_stream_sharded(&mut engine, docs.clone())
    };
    let first = run();
    assert!(!first.is_empty(), "the workload must produce matches");
    for attempt in 0..3 {
        let again = run();
        assert_eq!(first, again, "run {attempt} diverged");
    }
}

/// Per-shard statistics plus the front stage's sum exactly to the aggregate —
/// no counter is dropped or double-counted — and the query/document
/// accounting matches the parse-once / partition-queries design.
#[test]
fn shard_stats_sum_to_aggregate() {
    let (queries, docs) = rss_workload(43, 50, 40);
    let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
    for q in &queries {
        single.register_query(q.clone()).unwrap();
    }
    let single_templates = single.stats().templates;
    for &num_shards in &SHARD_COUNTS {
        let config = EngineConfig::mmqjp().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, num_shards, &queries);
        let num_docs = docs.len();
        run_stream_sharded(&mut engine, docs.clone());
        let per_shard = engine.shard_stats().unwrap();
        assert_eq!(per_shard.len(), num_shards);
        let total = engine.stats().unwrap();
        let shard_sum: EngineStats = per_shard.iter().copied().sum();
        assert_eq!(total, shard_sum + engine.front_stats());
        assert_eq!(total.queries_registered, queries.len());
        assert_eq!(total.documents_processed, num_docs);
        assert_eq!(
            engine.queries_per_shard().iter().sum::<usize>(),
            queries.len()
        );
        // A template is replicated into every shard holding one of its
        // queries, and both stages' time reaches the aggregate.
        assert!(total.templates >= single_templates);
        assert!(total.timings.xpath > Duration::ZERO);
        assert!(total.timings.stage2_join_time() > Duration::ZERO);
    }
}

/// The front runs on the caller's thread and accounts its Stage-1 work:
/// documents matched and counted once, node pairs read, rows routed, and
/// the time spent. No shard ever counts a document itself.
#[test]
fn a_one_party_front_still_counts_its_stage1_work() {
    let (queries, docs) = rss_workload(48, 20, 15);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut engine = sharded_engine_with_queries(config, 2, &queries);
    let n = docs.len();
    run_stream_sharded(&mut engine, docs);
    let front = engine.front_stats();
    assert_eq!(front.docs_parsed_once, n);
    assert_eq!(front.documents_processed, n);
    assert_eq!(engine.stats().unwrap().documents_processed, n);
    let per_shard = engine.shard_stats().unwrap();
    assert_eq!(per_shard.len(), 2);
    assert!(per_shard.iter().all(|s| s.documents_processed == 0));
    assert!(front.stage1_pairs > 0);
    assert!(front.witnesses_routed > 0);
    assert!(front.timings.xpath > Duration::ZERO);
    assert_eq!(
        engine.stats().unwrap().witnesses_routed,
        front.witnesses_routed
    );
}

// ---------------------------------------------------------------------------
// The full shard-count × mode sweep
// ---------------------------------------------------------------------------

/// Run `docs` in batches of `batch` through a single engine in `config`'s
/// mode, sorting each batch canonically — the byte-level reference every
/// sharded configuration must reproduce.
fn single_engine_reference(
    config: &EngineConfig,
    queries: &[mmqjp_xscl::XsclQuery],
    docs: &[Document],
    batch: usize,
) -> Vec<mmqjp_core::MatchOutput> {
    let mut engine = MmqjpEngine::new(config.clone());
    for q in queries {
        engine.register_query(q.clone()).unwrap();
    }
    let mut out = Vec::new();
    for chunk in docs.chunks(batch) {
        let mut matches = engine.process_batch(chunk.to_vec()).unwrap();
        mmqjp_core::sort_matches(&mut matches);
        out.extend(matches);
    }
    out
}

/// Sweep every shard count × mode over a scenario and
/// assert (a) the pipelined sharded output is byte-identical to the single
/// engine's canonically-ordered batches and (b) the statistics decompose
/// exactly into shard sums plus front-stage stats, with each document
/// parsed exactly once.
fn assert_sharded_sweep_matches_single_engine(
    queries: &[mmqjp_xscl::XsclQuery],
    docs: &[Document],
    batch: usize,
    tweak: impl Fn(EngineConfig) -> EngineConfig,
) {
    for mode in all_modes() {
        let config = tweak(
            EngineConfig {
                mode,
                ..EngineConfig::default()
            }
            .with_retain_documents(false),
        );
        let expected = single_engine_reference(&config, queries, docs, batch);
        for &num_shards in &SHARD_COUNTS {
            let mut sharded = sharded_engine_with_queries(config.clone(), num_shards, queries);
            let batches: Vec<Vec<Document>> = docs.chunks(batch).map(<[_]>::to_vec).collect();
            let num_batches = batches.len();
            let results = sharded.process_batches(batches).unwrap();
            assert_eq!(results.len(), num_batches, "a batch was dropped");
            let got: Vec<_> = results.into_iter().flatten().collect();
            assert_eq!(
                got, expected,
                "{mode:?} sharded({num_shards} shards) diverges"
            );

            // Exact stats decomposition: aggregate == shard sum + front.
            let per_shard = sharded.shard_stats().unwrap();
            let front = sharded.front_stats();
            let total = sharded.stats().unwrap();
            let shard_sum: EngineStats = per_shard.iter().copied().sum();
            assert_eq!(total, shard_sum + front);
            // Parse-once accounting: each document is parsed and counted
            // exactly once, at the front — never per shard.
            assert_eq!(front.docs_parsed_once, docs.len());
            assert_eq!(total.documents_processed, docs.len());
            assert!(per_shard.iter().all(|s| s.documents_processed == 0));
            assert_eq!(total.results_emitted, expected.len());
        }
    }
}

#[test]
fn sharded_sweep_on_windowed_rss_stream() {
    // Finite windows exercise the temporal filter through routed batches.
    let generator = RssQueryGenerator::new(0.8).with_window(mmqjp_xscl::Window::Time(15));
    let mut rng = StdRng::seed_from_u64(44);
    let queries = generator.generate_queries(20, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 30,
        channels: 6,
        title_vocabulary: 8,
        description_vocabulary: 12,
        ..RssStreamConfig::default()
    })
    .documents();
    assert_sharded_sweep_matches_single_engine(&queries, &docs, 7, |c| c);
}

#[test]
fn sharded_sweep_on_churn_stream_with_pruning() {
    // The sustained-operation scenario: heterogeneous windows with
    // incremental state expiry active, so shard-side retention bookkeeping
    // runs from routed ledger rows rather than shard-local Stage-1 output.
    let workload = ChurnWorkload::new(ChurnConfig {
        items: 40,
        num_queries: 18,
        windows: vec![15, 40],
        ..ChurnConfig::default()
    });
    let queries = workload.queries();
    let docs = workload.documents();
    assert_sharded_sweep_matches_single_engine(&queries, &docs, 9, |c| c);
}

/// Batches of one and of five documents through both entry points, on two
/// shards, reproduce the single engine in every mode, single-block
/// subscriptions included.
#[test]
fn small_batches_match_the_single_engine_on_both_entry_points() {
    let (mut queries, docs) = rss_workload(47, 30, 15);
    queries.push(mmqjp_xscl::parse_query("S//blog->b[.//author->a]").unwrap());
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        }
        .with_retain_documents(false);
        for batch in [1usize, 5] {
            let expected = single_engine_reference(&config, &queries, &docs, batch);
            assert!(!expected.is_empty(), "the workload must produce matches");
            let batches: Vec<Vec<Document>> = docs.chunks(batch).map(<[_]>::to_vec).collect();

            let mut batchwise = sharded_engine_with_queries(config.clone(), 2, &queries);
            let got: Vec<_> = batches
                .iter()
                .flat_map(|b| batchwise.process_batch(b.clone()).unwrap())
                .collect();
            assert_eq!(got, expected, "{mode:?} process_batch, batches of {batch}");

            let mut pipelined = sharded_engine_with_queries(config.clone(), 2, &queries);
            let got: Vec<_> = pipelined
                .process_batches(batches)
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(
                got, expected,
                "{mode:?} process_batches, batches of {batch}"
            );
            for engine in [&batchwise, &pipelined] {
                assert_eq!(engine.front_stats().docs_parsed_once, docs.len());
                assert_audit_clean_sharded(engine);
            }
        }
    }
}

/// The pipelined entry point's merged output is deterministic across thread
/// interleavings too, with the front racing four shards.
#[test]
fn pipelined_output_is_deterministic_across_interleavings() {
    let (queries, docs) = rss_workload(45, 60, 50);
    let run = || {
        let config = EngineConfig::mmqjp_view_mat().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, 4, &queries);
        let batches: Vec<Vec<Document>> = docs.chunks(10).map(<[_]>::to_vec).collect();
        engine.process_batches(batches).unwrap()
    };
    let first = run();
    assert!(
        first.iter().any(|b| !b.is_empty()),
        "the workload must produce matches"
    );
    for attempt in 0..3 {
        assert_eq!(first, run(), "run {attempt} diverged");
    }
}

// ---------------------------------------------------------------------------
// process_batch edge cases, exercised identically on both engine types
// ---------------------------------------------------------------------------

#[test]
fn empty_batch_is_a_no_op_on_both_engines() {
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        single.register_query_text(Q1).unwrap();
        assert!(single.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(single.stats().documents_processed, 0);

        let mut sharded = ShardedEngine::new(config.with_num_shards(3));
        sharded.register_query_text(Q1).unwrap();
        assert!(sharded.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(sharded.stats().unwrap().documents_processed, 0);
    }
}

#[test]
fn zero_registered_queries_absorb_documents() {
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        assert!(single.process_batch(vec![d1(), d2()]).unwrap().is_empty());
        assert_eq!(single.stats().documents_processed, 2);

        // Every shard of a query-less sharded engine is an empty shard and
        // the router has no subscriptions, so the shards receive only ledger
        // rows — and each document is still parsed and counted exactly once.
        let mut sharded = ShardedEngine::new(config.with_num_shards(4));
        assert!(sharded.process_batch(vec![d1(), d2()]).unwrap().is_empty());
        let stats = sharded.stats().unwrap();
        assert_eq!(stats.documents_processed, 2);
        assert_eq!(stats.docs_parsed_once, 2);
        assert_eq!(stats.witnesses_routed, 0);
    }
}

#[test]
fn single_block_only_query_sets_match_on_both_engines() {
    // No join queries at all: Stage 2 is idle and matches come straight from
    // the Stage-1 front (the sharded front stage answers single-block
    // subscriptions itself; Stage 2 never sees them).
    let subscriptions = [
        "S//blog[.//author]",
        "S//book[.//title]",
        "S//blog[.//category]",
    ];
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        for s in subscriptions {
            single.register_query_text(s).unwrap();
        }
        let mut expected = Vec::new();
        for doc in [d1(), d2()] {
            let mut matches = single.process_batch(vec![doc]).unwrap();
            mmqjp_core::sort_matches(&mut matches);
            expected.extend(matches);
        }
        assert_eq!(expected.len(), 3); // book: title; blog: author + category

        for &num_shards in &SHARD_COUNTS {
            let mut sharded = ShardedEngine::new(config.clone().with_num_shards(num_shards));
            for s in subscriptions {
                sharded.register_query_text(s).unwrap();
            }
            let mut got = Vec::new();
            for doc in [d1(), d2()] {
                got.extend(sharded.process_batch(vec![doc]).unwrap());
            }
            assert_eq!(got, expected, "Sharded({num_shards} shards) diverges");
            assert_eq!(sharded.front_stats().results_emitted, expected.len());
        }
    }
}

#[test]
fn out_of_order_batch_errors_identically_on_both_engines() {
    let mut config = EngineConfig::mmqjp();
    config.enforce_in_order = true;

    let mut single = MmqjpEngine::new(config.clone());
    single.register_query_text(Q1).unwrap();
    single
        .process_document(d1().with_timestamp(Timestamp(100)))
        .unwrap();
    let single_err = single
        .process_batch(vec![d2().with_timestamp(Timestamp(50))])
        .unwrap_err();

    let mut sharded = ShardedEngine::new(config.with_num_shards(3));
    sharded.register_query_text(Q1).unwrap();
    sharded
        .process_document(d1().with_timestamp(Timestamp(100)))
        .unwrap();
    let sharded_err = sharded
        .process_batch(vec![d2().with_timestamp(Timestamp(50))])
        .unwrap_err();

    assert_eq!(single_err, sharded_err);
    assert!(matches!(
        sharded_err,
        CoreError::OutOfOrderDocument {
            timestamp: 50,
            newest: 100
        }
    ));

    // Both engines recover identically: a later in-order document matches.
    let a = single
        .process_document(d2().with_timestamp(Timestamp(150)))
        .map(|mut m| {
            mmqjp_core::sort_matches(&mut m);
            m
        })
        .unwrap();
    let b = sharded
        .process_document(d2().with_timestamp(Timestamp(150)))
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 1);
}

// ---------------------------------------------------------------------------
// Edge classes never cross shards
// ---------------------------------------------------------------------------

/// Two join queries whose patterns differ (a `title` vs an `isbn`
/// predicate on the book, one more branch on the blog) but request the
/// same self edges on `author`. In the books and blogs of
/// [`shared_class_stream`] those edges have equal useful sets, so on one
/// shard the second query's enumeration repeats the first's.
const SHARED_CLASS_QUERIES: [&str; 2] = [
    "S//book->b[.//author->a][.//title->t] FOLLOWED BY{a=x, 100} S//blog->g[.//author->x]",
    "S//book->b[.//author->a][.//isbn->i] FOLLOWED BY{a=y, 100} \
     S//blog->h[.//author->y][.//title->z]",
];

/// Books and blogs by shared authors, stamped with ids and timestamps.
fn shared_class_stream() -> Vec<Document> {
    let docs = [
        rss::book_announcement(&["Ann", "Bob"], "RSS", &["Web"], "Wrox", "1"),
        rss::blog_article("Bob", "http://b", "On RSS", "Books", "..."),
        rss::book_announcement(&["Cy"], "XML", &[], "Wrox", "2"),
        rss::blog_article("Ann", "http://a", "On XML", "Books", "..."),
        rss::blog_article("Cy", "http://c", "On XML", "Books", "..."),
    ];
    (1..)
        .zip(docs)
        .map(|(i, d)| d.with_id(DocId(i)).with_timestamp(Timestamp(i * 10)))
        .collect()
}

/// The witness rows of a batch as a sorted multiset, as in the routing
/// theorem (`properties::witness_routing_is_a_partition_of_stage1_output`):
/// routed and self-derived batches may order one pattern's edges
/// differently.
fn witness_multiset(batch: &WitnessBatch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .rbin_w
        .iter()
        .map(|t| format!("bin{:?}", t.to_vec()))
        .chain(batch.rdoc_w.iter().map(|t| format!("doc{:?}", t.to_vec())))
        .collect();
    rows.sort();
    rows
}

/// Route the front's rows for [`SHARED_CLASS_QUERIES`] placed on shards
/// `placement` (of two) and check each shard's routed batch against what it
/// derives for itself with the DOM reference. Returns how many
/// `(pattern, edge)` enumerations the front suppressed.
fn route_shared_class_stream(placement: [usize; 2]) -> usize {
    let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
    let interner = StringInterner::new();
    let mut table = Stage1Table::new();
    let mut shard_req: Vec<HashMap<PatternId, Vec<Edge>>> = vec![HashMap::new(); 2];
    for (text, shard) in SHARED_CLASS_QUERIES.iter().zip(placement) {
        let id = engine.register_query_text(text).unwrap();
        let shape = engine.registry().query(id).unwrap().shape();
        for o in shape.orientations() {
            let (prev, cur) = shape.patterns(o);
            for (pattern, edges) in [(prev, &o.prev_edges), (cur, &o.cur_edges)] {
                let pid = table
                    .subscribe(shard, pattern.clone(), edges, &interner)
                    .unwrap();
                let req = shard_req[shard].entry(pid).or_default();
                for e in edges {
                    if !req.contains(e) {
                        req.push(*e);
                    }
                }
            }
        }
    }

    let mut index = table.index().clone();
    let docs = shared_class_stream();
    let mut routed = vec![WitnessBatch::new(), WitnessBatch::new()];
    let (mut matching, mut matches) = (MatchScratch::default(), DocumentMatches::default());
    let mut scratch = IngestScratch::default();
    let mut suppressed = 0;
    for doc in &docs {
        let mut subs = table.subscriptions();
        front::match_document(&mut subs, doc, &mut matching, false, &mut matches);
        suppressed += matches.suppressed;
        route_document(
            &table,
            doc,
            &matches.rows,
            &interner,
            &mut scratch,
            &mut routed,
        )
        .unwrap();
    }
    for (shard, req) in shard_req.iter().enumerate() {
        let own = resolve_edges(&index, req, &interner);
        let mut derived = WitnessBatch::new();
        for doc in &docs {
            let bindings = index.evaluate_edge_bindings(doc, req);
            let rows = rows_from_bindings(&index, &own, &bindings);
            derived
                .ingest_document(doc, &rows, &own, &interner, &mut scratch)
                .unwrap();
        }
        assert_eq!(
            derived.num_witness_rows() > 0,
            placement.contains(&shard),
            "a shard derives rows when it holds a query"
        );
        assert_eq!(
            witness_multiset(&routed[shard]),
            witness_multiset(&derived),
            "placement {placement:?}: shard {shard}'s routed rows diverge from its own Stage 1"
        );
    }
    suppressed
}

/// The front's edge classes include the shards an edge's rows are routed
/// to. Two members of one class with equal useful sets suppress each other
/// on one shard; placed on two shards, each emits, because suppressing the
/// second would starve its shard of rows no other member sends it. Checked
/// at the router (each shard's routed batch equals what it derives for
/// itself, as in the routing theorem) and end to end (two shards, the
/// queries on different ones, match the single engine).
#[test]
fn edge_class_suppression_never_crosses_shards() {
    assert!(
        route_shared_class_stream([0, 0]) > 0,
        "on one shard the second query's enumeration is suppressed"
    );
    assert_eq!(
        route_shared_class_stream([0, 1]),
        0,
        "across shards nothing is suppressed"
    );

    let mut sharded = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(2));
    let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
    let first = sharded
        .register_query_text(SHARED_CLASS_QUERIES[0])
        .unwrap();
    single.register_query_text(SHARED_CLASS_QUERIES[0]).unwrap();
    // Query ids are sequential; a filler subscription (which never matches)
    // shifts the second query's id until it hashes to the other shard.
    let mut next = QueryId(first.raw() + 1);
    while sharded.shard_of(next) == sharded.shard_of(first) {
        for filler in [
            sharded.register_query_text("S//never"),
            single.register_query_text("S//never"),
        ] {
            assert_eq!(filler.unwrap(), next);
        }
        next = QueryId(next.raw() + 1);
    }
    let second = sharded
        .register_query_text(SHARED_CLASS_QUERIES[1])
        .unwrap();
    single.register_query_text(SHARED_CLASS_QUERIES[1]).unwrap();
    assert_ne!(sharded.shard_of(first), sharded.shard_of(second));

    let expected = run_stream_sorted(&mut single, shared_class_stream());
    let got = run_stream_sharded(&mut sharded, shared_class_stream());
    assert_eq!(got, expected, "two shards diverge from the single engine");
    for query in [first, second] {
        assert!(
            expected.iter().any(|m| m.query == query),
            "{query:?} matches"
        );
    }
    assert!(single.stats().stage1_edges_suppressed > 0);
    assert_eq!(sharded.front_stats().stage1_edges_suppressed, 0);
}

// ---------------------------------------------------------------------------
// One front for both engines
// ---------------------------------------------------------------------------

/// Eight queries over two distinct patterns: `Q1`'s clause under eight
/// windows. Every topology counts the patterns once, in its front — not
/// once per shard holding a query — so `distinct_patterns` and
/// `patterns_dropped` equal the single engine's after registering, after
/// some queries leave and after the last one does.
#[test]
fn pattern_counters_equal_the_single_engine_on_every_topology() {
    let texts: Vec<String> = (1..=8)
        .map(|w| Q1.replace(", 1000}", &format!(", {}}}", 100 * w)))
        .collect();
    assert!(texts.windows(2).all(|pair| pair[0] != pair[1]));
    for &num_shards in &SHARD_COUNTS {
        let config = EngineConfig::mmqjp().with_num_shards(num_shards);
        let mut single = MmqjpEngine::new(config.clone());
        let mut sharded = ShardedEngine::new(config);
        for text in &texts {
            let id = single.register_query_text(text).unwrap();
            assert_eq!(sharded.register_query_text(text).unwrap(), id);
        }
        let topology = format!("{num_shards} shards");
        let check = |single: &MmqjpEngine, sharded: &ShardedEngine, step: &str| {
            let (want, got) = (single.stats(), sharded.stats().unwrap());
            assert_eq!(
                got.distinct_patterns, want.distinct_patterns,
                "{topology}, {step}"
            );
            assert_eq!(
                got.patterns_dropped, want.patterns_dropped,
                "{topology}, {step}"
            );
            assert_eq!(
                got.distinct_patterns,
                sharded.stage1_table().index().len(),
                "{topology}, {step}"
            );
            want
        };
        let registered = check(&single, &sharded, "registered");
        assert_eq!(registered.distinct_patterns, 2);
        for id in 0..5 {
            single.unregister_query(QueryId(id)).unwrap();
            sharded.unregister_query(QueryId(id)).unwrap();
        }
        let some_left = check(&single, &sharded, "five unregistered");
        assert_eq!(some_left.patterns_dropped, 0);
        for id in 5..8 {
            single.unregister_query(QueryId(id)).unwrap();
            sharded.unregister_query(QueryId(id)).unwrap();
        }
        let all_left = check(&single, &sharded, "all unregistered");
        assert_eq!(
            (all_left.distinct_patterns, all_left.patterns_dropped),
            (0, 2)
        );
        assert_audit_clean_sharded(&sharded);
    }
}

/// The single engine is the pipeline with one inline shard slot; a sharded
/// engine with one worker shard is the same pipeline with a worker-thread
/// slot. Through a register / unregister / document script in every mode,
/// every `EngineStats` counter of the two is equal after every step — all but the timings and `pipeline_stalls`,
/// which only a worker slot can cause.
#[test]
fn every_counter_equals_the_single_engine_on_one_worker_shard() {
    let (queries, docs) = rss_workload(53, 24, 48);
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        }
        .with_num_shards(1);
        let mut single = MmqjpEngine::new(config.clone());
        let mut sharded = ShardedEngine::new(config.clone());
        let check = |single: &MmqjpEngine, sharded: &ShardedEngine, step: &str| {
            let counters = |mut stats: EngineStats| {
                stats.timings = Default::default();
                stats.pipeline_stalls = 0;
                stats
            };
            let (want, got) = (single.stats(), sharded.stats().unwrap());
            assert_eq!(counters(got), counters(want), "{:?}, {step}", config.mode);
        };
        check(&single, &sharded, "empty");
        for query in &queries[..16] {
            let id = single.register_query(query.clone()).unwrap();
            assert_eq!(sharded.register_query(query.clone()).unwrap(), id);
        }
        check(&single, &sharded, "registered");
        for (step, batch) in docs.chunks(6).enumerate() {
            let out = single.process_batch(batch.to_vec()).unwrap();
            let got = sharded.process_batch(batch.to_vec()).unwrap();
            assert_eq!(got.len(), out.len(), "batch {step}");
            check(&single, &sharded, &format!("batch {step}"));
            // Churn between batches: one query leaves, one arrives.
            let victim = QueryId(step as u64);
            single.unregister_query(victim).unwrap();
            sharded.unregister_query(victim).unwrap();
            let query = &queries[16 + step % 8];
            let id = single.register_query(query.clone()).unwrap();
            assert_eq!(sharded.register_query(query.clone()).unwrap(), id);
            check(&single, &sharded, &format!("churn {step}"));
        }
        assert!(single.stats().results_emitted > 0, "{:?}", config.mode);
        assert!(single.stats().queries_unregistered > 0);
        assert!(single.audit().is_empty());
        assert_audit_clean_sharded(&sharded);
    }
}

/// Both engines time witness ingest — routing the front's rows into the
/// consumers' witness batches — apart from matching, and the sharded
/// engine's shards do no Stage-1 work: its ingest time is its front's.
#[test]
fn both_engines_time_witness_ingest_apart_from_matching() {
    let (queries, docs) = rss_workload(49, 20, 15);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut single = MmqjpEngine::new(config.clone());
    for q in &queries {
        single.register_query(q.clone()).unwrap();
    }
    run_stream_sorted(&mut single, docs.clone());
    let stats = single.stats();
    assert!(stats.stage1_rows > 0, "the workload ingests witness rows");
    assert!(stats.timings.ingest > Duration::ZERO);
    assert!(stats.timings.xpath > Duration::ZERO);

    let mut sharded = sharded_engine_with_queries(config, 2, &queries);
    run_stream_sharded(&mut sharded, docs);
    let front = sharded.front_stats();
    assert!(front.timings.ingest > Duration::ZERO);
    assert!(front.timings.xpath > Duration::ZERO);
    let total = sharded.stats().unwrap();
    assert!(total.timings.ingest > Duration::ZERO);
    assert_eq!(total.timings.ingest, front.timings.ingest);
    assert_eq!(total.stage1_rows, front.stage1_rows);
}
