//! Shared harness code for the benchmark targets that regenerate every table
//! and figure of the paper's evaluation (Section 6).
//!
//! Each bench target under `benches/` is a `harness = false` binary that
//! prints the corresponding series in a plain-text table, so
//! `cargo bench --workspace` reproduces the whole evaluation and the output
//! can be diffed against the paper's reported shapes (see the "Benchmarks"
//! section of the repository `README.md`).
//!
//! Sweep sizes are controlled by the `MMQJP_BENCH_SCALE` environment variable
//! (`default`, `paper`, `smoke`); see
//! [`mmqjp_workload::BenchScale`].

#![forbid(unsafe_code)]

use mmqjp_core::{
    EngineConfig, EngineStats, MmqjpEngine, PhaseTimings, ProcessingMode, ShardedEngine,
};
use mmqjp_workload::{
    BenchScale, ChurnConfig, ChurnWorkload, ComplexSchemaWorkload, FlatSchemaWorkload,
    RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::Document;
use mmqjp_xscl::XsclQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The three competitors of the paper's evaluation.
pub const MODES: [ProcessingMode; 3] = [
    ProcessingMode::MmqjpViewMat,
    ProcessingMode::Mmqjp,
    ProcessingMode::Sequential,
];

/// Pretty-print a results table: one row per x value, one column per series.
pub fn print_table(title: &str, x_label: &str, columns: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    print!("{x_label:>24}");
    for c in columns {
        print!("  {c:>18}");
    }
    println!();
    for (x, values) in rows {
        print!("{x:>24}");
        for v in values {
            print!("  {v:>18}");
        }
        println!();
    }
}

/// Format a duration in milliseconds with three significant decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

/// Format an events/second throughput.
pub fn fmt_throughput(t: f64) -> String {
    format!("{t:.0} ev/s")
}

/// Build an engine in `mode`, register `queries`, and return it. Document
/// retention is disabled — the benchmarks measure join processing, not output
/// construction, matching the paper's measurement.
pub fn engine_with(mode: ProcessingMode, queries: &[XsclQuery]) -> MmqjpEngine {
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_retain_documents(false);
    engine_with_config(config, queries)
}

/// Build an engine from an explicit configuration and register `queries`.
pub fn engine_with_config(config: EngineConfig, queries: &[XsclQuery]) -> MmqjpEngine {
    let mut engine = MmqjpEngine::new(config);
    for q in queries {
        engine
            .register_query(q.clone())
            .expect("generated queries register cleanly");
    }
    engine
}

/// Result of one technical-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct TechnicalRun {
    /// Stage-2 join time (the paper's "total conjunctive query processing
    /// time").
    pub join_time: Duration,
    /// Full phase breakdown.
    pub timings: PhaseTimings,
    /// Number of query templates the engine compiled the workload into.
    pub templates: usize,
    /// Number of matches produced.
    pub matches: usize,
}

/// Run the technical benchmark of Section 6.1: register the queries, stream
/// the two fixed documents through the engine, and report the Stage-2 join
/// time.
pub fn run_two_document_benchmark(
    mode: ProcessingMode,
    queries: &[XsclQuery],
    d1: Document,
    d2: Document,
) -> TechnicalRun {
    let mut engine = engine_with(mode, queries);
    let mut matches = 0;
    matches += engine.process_document(d1).expect("d1 processes").len();
    matches += engine.process_document(d2).expect("d2 processes").len();
    let stats = engine.stats();
    TechnicalRun {
        join_time: stats.timings.stage2_join_time(),
        timings: stats.timings,
        templates: stats.templates,
        matches,
    }
}

/// Generate the flat-schema workload of Figures 8–10.
pub fn flat_workload(
    num_queries: usize,
    leaves: usize,
    zipf: f64,
    seed: u64,
) -> (Vec<XsclQuery>, Document, Document) {
    let w = FlatSchemaWorkload::new(leaves, zipf);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = w.generate_queries(num_queries, &mut rng);
    let (d1, d2) = w.documents();
    (queries, d1, d2)
}

/// Generate the complex-schema workload of Figures 11–13.
pub fn complex_workload(
    num_queries: usize,
    branching: usize,
    max_vj: usize,
    zipf: f64,
    seed: u64,
) -> (Vec<XsclQuery>, Document, Document) {
    let w = ComplexSchemaWorkload::new(branching, max_vj, zipf);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = w.generate_queries(num_queries, &mut rng);
    let (d1, d2) = w.documents();
    (queries, d1, d2)
}

/// Result of one RSS stream replay.
#[derive(Debug, Clone, Copy)]
pub struct RssRun {
    /// Join-processing throughput in events per second (Stage-2 time only,
    /// matching Figure 16's measurement).
    pub throughput: f64,
    /// Total matches produced.
    pub matches: usize,
    /// Number of templates.
    pub templates: usize,
}

/// Replay a synthetic RSS stream against `num_queries` random subscriptions
/// in the given mode, batching witness loading as the paper does.
pub fn run_rss_benchmark(
    mode: ProcessingMode,
    num_queries: usize,
    items: usize,
    batch: usize,
    seed: u64,
) -> RssRun {
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = generator.generate_queries(num_queries, &mut rng);
    let mut engine = engine_with(mode, &queries);

    let stream = RssStreamGenerator::new(RssStreamConfig {
        items,
        ..RssStreamConfig::default()
    });
    let docs = stream.documents();
    let mut matches = 0usize;
    for chunk in docs.chunks(batch.max(1)) {
        matches += engine
            .process_batch(chunk.to_vec())
            .expect("batch processes")
            .len();
    }
    let stats = engine.stats();
    RssRun {
        throughput: stats.join_throughput_docs_per_sec(),
        matches,
        templates: stats.templates,
    }
}

/// Result of one sharded RSS stream replay (Figure 17).
#[derive(Debug, Clone, Copy)]
pub struct ShardedRssRun {
    /// Wall-clock throughput of the replay loop in documents per second.
    /// Unlike [`RssRun::throughput`] (which counts only single-threaded
    /// Stage-2 time) this is end-to-end wall time — the quantity sharding
    /// actually improves on a multi-core machine.
    pub wall_throughput: f64,
    /// Total Stage-1 (parse + pattern-match + witness construction) work
    /// summed across every shard *and* the front stage. The front pool
    /// parses each document exactly once, so only the routing share of this
    /// grows as shards are added.
    pub parse_time: Duration,
    /// Total Stage-2 join work summed across the shards.
    pub join_time: Duration,
    /// Documents counted by the engine: exactly the stream length
    /// (parse-once).
    pub documents_processed: usize,
    /// Pipeline stalls reported by the front stage.
    pub pipeline_stalls: usize,
    /// Total matches produced.
    pub matches: usize,
    /// Sum of per-shard template counts (shared templates are replicated
    /// into every shard holding one of their member queries).
    pub templates: usize,
}

/// Replay the Figure-16 RSS workload through a [`ShardedEngine`] with the
/// given shard count, front-pool size and inner mode, measuring wall-clock
/// throughput and the Stage-1 / Stage-2 work split. The replay goes through
/// [`ShardedEngine::process_batches`] so Stage 1 of batch `k+1` overlaps
/// Stage 2 of batch `k`.
pub fn run_sharded_rss_benchmark(
    mode: ProcessingMode,
    num_shards: usize,
    front_pool: usize,
    num_queries: usize,
    items: usize,
    batch: usize,
    seed: u64,
) -> ShardedRssRun {
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = generator.generate_queries(num_queries, &mut rng);
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_retain_documents(false)
    .with_num_shards(num_shards)
    .with_front_pool(front_pool);
    let mut engine = ShardedEngine::new(config);
    for q in queries {
        engine
            .register_query(q)
            .expect("generated queries register cleanly");
    }

    let stream = RssStreamGenerator::new(RssStreamConfig {
        items,
        ..RssStreamConfig::default()
    });
    let docs = stream.documents();
    let num_docs = docs.len();
    let start = std::time::Instant::now();
    let batches: Vec<Vec<Document>> = docs.chunks(batch.max(1)).map(<[_]>::to_vec).collect();
    let matches = engine
        .process_batches(batches)
        .expect("batches process")
        .iter()
        .map(Vec::len)
        .sum::<usize>();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = engine.stats().expect("shard workers are alive");
    ShardedRssRun {
        wall_throughput: if elapsed > 0.0 {
            num_docs as f64 / elapsed
        } else {
            0.0
        },
        // Total Stage-1 work: pattern matching plus witness-relation
        // construction (the front builds the routed batches, so that cost
        // is inside its `xpath` bucket).
        parse_time: stats.timings.xpath,
        join_time: stats.timings.stage2_join_time(),
        documents_processed: stats.documents_processed,
        pipeline_stalls: stats.pipeline_stalls,
        matches,
        templates: stats.templates,
    }
}

/// Result of one sustained-throughput churn replay (Figure 18).
#[derive(Debug, Clone, Copy)]
pub struct ChurnRun {
    /// Steady-state throughput: wall-clock docs/s over the *second half* of
    /// the stream, after the windows have filled. With incremental expiry
    /// this stays flat as the stream grows; with rebuild-on-prune it falls.
    pub steady_throughput: f64,
    /// Wall-clock docs/s over the whole stream.
    pub total_throughput: f64,
    /// Total matches produced.
    pub matches: usize,
    /// Final engine statistics (eviction counters, resident state).
    pub stats: EngineStats,
}

/// Replay a churn-heavy windowed stream of `items` documents against the
/// standard churn query set in the given mode, with window pruning and
/// document retention enabled (the sustained-operation configuration), and
/// measure steady-state wall-clock throughput.
pub fn run_churn_benchmark(mode: ProcessingMode, num_queries: usize, items: usize) -> ChurnRun {
    let workload = ChurnWorkload::new(ChurnConfig {
        items,
        num_queries,
        ..ChurnConfig::default()
    });
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_prune_state_by_window(true);
    let mut engine = MmqjpEngine::new(config);
    for q in workload.queries() {
        engine
            .register_query(q)
            .expect("generated queries register cleanly");
    }
    let docs = workload.documents_with_items(items);
    let half = docs.len() / 2;
    let mut matches = 0usize;
    let start = std::time::Instant::now();
    let mut half_elapsed = 0.0f64;
    for (i, doc) in docs.into_iter().enumerate() {
        if i == half {
            half_elapsed = start.elapsed().as_secs_f64();
        }
        matches += engine
            .process_document(doc)
            .expect("document processes")
            .len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steady_secs = elapsed - half_elapsed;
    ChurnRun {
        steady_throughput: if steady_secs > 0.0 {
            (items - half) as f64 / steady_secs
        } else {
            0.0
        },
        total_throughput: if elapsed > 0.0 {
            items as f64 / elapsed
        } else {
            0.0
        },
        matches,
        stats: engine.stats(),
    }
}

/// Result of one subscription-churn replay (Figure 19).
#[derive(Debug, Clone, Copy)]
pub struct SubscriptionChurnRun {
    /// Steady-state throughput: wall-clock docs/s over the second half of
    /// the stream (subscription events are replayed inline, so this includes
    /// register/unregister cost). With O(footprint) unregistration this
    /// stays flat as the stream — and therefore the cumulative number of
    /// lifecycle events — grows 10×.
    pub steady_throughput: f64,
    /// Total matches produced.
    pub matches: usize,
    /// Queries registered over the whole replay (cumulative).
    pub total_registered: usize,
    /// Final engine statistics (live population, retirement counters,
    /// resident state).
    pub stats: EngineStats,
}

/// Replay a subscription-churn script of `items` documents in the given
/// mode. With `honor_unregister = false` the unsubscribe events are skipped
/// — the append-only population an engine without a query lifecycle would
/// accumulate — which makes the resident-state plateau visible by contrast.
pub fn run_subscription_churn_benchmark(
    mode: ProcessingMode,
    initial_queries: usize,
    items: usize,
    honor_unregister: bool,
) -> SubscriptionChurnRun {
    use mmqjp_workload::{SubscriptionChurnConfig, SubscriptionEvent};
    let workload = mmqjp_workload::SubscriptionChurnWorkload::new(SubscriptionChurnConfig {
        items,
        initial_queries,
        ..SubscriptionChurnConfig::default()
    });
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_prune_state_by_window(true);
    let mut engine = MmqjpEngine::new(config);
    let events = workload.events_with_items(items);
    let mut reg_ids = Vec::new();
    let half = items / 2;
    let mut docs_seen = 0usize;
    let mut matches = 0usize;
    let start = std::time::Instant::now();
    let mut half_elapsed = 0.0f64;
    for event in events {
        match event {
            SubscriptionEvent::Register(q) => {
                reg_ids.push(engine.register_query(*q).expect("query registers"));
            }
            SubscriptionEvent::Unregister(n) => {
                if honor_unregister {
                    engine
                        .unregister_query(reg_ids[n])
                        .expect("scripted targets are live");
                }
            }
            SubscriptionEvent::Document(d) => {
                if docs_seen == half {
                    half_elapsed = start.elapsed().as_secs_f64();
                }
                docs_seen += 1;
                matches += engine
                    .process_document(*d)
                    .expect("document processes")
                    .len();
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steady_secs = elapsed - half_elapsed;
    SubscriptionChurnRun {
        steady_throughput: if steady_secs > 0.0 {
            (docs_seen - half) as f64 / steady_secs
        } else {
            0.0
        },
        matches,
        total_registered: reg_ids.len(),
        stats: engine.stats(),
    }
}

/// The scale selected through the environment.
pub fn scale() -> BenchScale {
    BenchScale::from_env()
}

/// Print the standard header for a figure bench.
pub fn figure_header(figure: &str, description: &str) {
    println!("--------------------------------------------------------------------------------");
    println!("{figure}: {description}");
    println!(
        "scale: {:?} (set MMQJP_BENCH_SCALE=paper|default|smoke to change)",
        scale()
    );
    println!("--------------------------------------------------------------------------------");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_workload_generation() {
        let (queries, d1, d2) = flat_workload(50, 6, 0.8, 1);
        assert_eq!(queries.len(), 50);
        assert_eq!(d1.len(), 7);
        assert_eq!(d2.len(), 7);
    }

    #[test]
    fn two_document_benchmark_runs_in_all_modes() {
        let (queries, d1, d2) = flat_workload(40, 4, 0.8, 2);
        let mut results = Vec::new();
        for mode in MODES {
            let run = run_two_document_benchmark(mode, &queries, d1.clone(), d2.clone());
            assert!(run.templates >= 1 && run.templates <= 4);
            results.push(run.matches);
        }
        // All modes find the same number of matches.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn rss_benchmark_smoke() {
        let run = run_rss_benchmark(ProcessingMode::MmqjpViewMat, 30, 100, 50, 3);
        assert!(run.templates <= 5);
        assert!(run.throughput >= 0.0);
    }

    #[test]
    fn sharded_rss_benchmark_matches_single_engine_counts() {
        let single = run_rss_benchmark(ProcessingMode::Mmqjp, 30, 100, 50, 3);
        for (shards, front_pool) in [(1, 1), (3, 1), (2, 2)] {
            let sharded = run_sharded_rss_benchmark(
                ProcessingMode::Mmqjp,
                shards,
                front_pool,
                30,
                100,
                50,
                3,
            );
            assert_eq!(sharded.matches, single.matches, "{shards} shards");
            assert!(sharded.wall_throughput > 0.0);
            assert!(sharded.templates >= single.templates);
            // Parse-once accounting: each document is counted (and parsed)
            // exactly once at the front, not once per shard.
            assert_eq!(sharded.documents_processed, 100);
            assert!(sharded.parse_time > Duration::ZERO);
            assert!(sharded.join_time > Duration::ZERO);
        }
    }

    #[test]
    fn churn_benchmark_reports_eviction_counters() {
        // 500 items span 1000 time units — well past the largest (400)
        // window, so state must churn.
        let run = run_churn_benchmark(ProcessingMode::MmqjpViewMat, 20, 500);
        assert!(run.matches > 0);
        assert!(run.steady_throughput > 0.0);
        assert!(run.total_throughput > 0.0);
        assert!(
            run.stats.state_rows_evicted > 0,
            "a 1000-time-unit churn stream must evict state: {:?}",
            run.stats
        );
        assert!(run.stats.docs_evicted > 0);
        // Resident state is bounded by the windows, below stream length.
        assert!(run.stats.docs_retained < 300);
    }

    #[test]
    fn subscription_churn_benchmark_contrasts_live_and_append_only() {
        let run = run_subscription_churn_benchmark(ProcessingMode::Mmqjp, 12, 200, true);
        assert!(run.matches > 0);
        assert!(run.steady_throughput > 0.0);
        assert!(run.stats.queries_unregistered > 0, "{:?}", run.stats);
        assert_eq!(
            run.stats.queries_registered,
            run.total_registered - run.stats.queries_unregistered
        );
        // The same script with unsubscribes ignored accumulates the whole
        // population — the growth an engine without a query lifecycle pays.
        let append = run_subscription_churn_benchmark(ProcessingMode::Mmqjp, 12, 200, false);
        assert_eq!(append.total_registered, run.total_registered);
        assert_eq!(append.stats.queries_registered, append.total_registered);
        assert!(append.stats.queries_registered > run.stats.queries_registered);
        assert!(append.stats.distinct_patterns >= run.stats.distinct_patterns);
    }

    #[test]
    fn formatting_helpers() {
        assert!(fmt_ms(Duration::from_millis(12)).starts_with("12.000"));
        assert_eq!(fmt_throughput(1234.56), "1235 ev/s");
    }
}
