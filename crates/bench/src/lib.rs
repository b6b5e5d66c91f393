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

use mmqjp_core::{EngineConfig, MmqjpEngine, PhaseTimings, ProcessingMode};
use mmqjp_workload::{
    BenchScale, ComplexSchemaWorkload, FlatSchemaWorkload, RssQueryGenerator, RssStreamConfig,
    RssStreamGenerator,
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
    fn formatting_helpers() {
        assert!(fmt_ms(Duration::from_millis(12)).starts_with("12.000"));
        assert_eq!(fmt_throughput(1234.56), "1235 ev/s");
    }
}
