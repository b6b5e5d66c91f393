//! Figure 17 (beyond the paper): wall-clock RSS throughput of the
//! `ShardedEngine` vs shard count, for MMQJP and MMQJP with view
//! materialization on the Figure-16 workload — in both topologies.
//!
//! Two series per mode:
//!
//! - **replicated** (`front_pool = 0`): the document stream is cloned to
//!   every shard, so each shard re-runs parsing and Stage-1 pattern matching.
//!   The `parse` column (total Stage-1 work summed across shards) grows
//!   roughly linearly with the shard count — the replication tax.
//! - **hybrid** (`front_pool >= 1`): a document-parallel front stage parses
//!   each document exactly once and routes witness rows to subscribing
//!   shards, pipelining Stage 1 of batch `k+1` with Stage 2 of batch `k`.
//!   The `parse` column stays flat as shards are added — the per-document
//!   Stage-1 cost no longer scales with the shard count.
//!
//! Expected shape on an `N`-core machine: both series grow with the shard
//! count until saturation, with hybrid holding its advantage as the
//! replicated topology's duplicated Stage-1 work eats its scaling. On a
//! single-core runner the sweep degenerates to ≈ 1× — the table still
//! prints the speedup and parse columns so the trend is visible wherever
//! the bench runs.
//!
//! When the `MMQJP_BENCH_JSON_FIG17` environment variable names a file, the
//! run additionally writes both series as JSON (`BENCH_fig17.json` in CI) so
//! the sharding trajectory is tracked as an artifact from PR to PR. (A
//! separate variable from fig16's `MMQJP_BENCH_JSON`, which is set for the
//! whole bench run in CI and must keep naming fig16's artifact.)

use mmqjp_bench::{figure_header, run_sharded_rss_benchmark, scale, ShardedRssRun};
use mmqjp_core::ProcessingMode;

/// Fixed workload seed: the query set and stream are deterministic, so two
/// runs on the same machine and scale differ only by timer noise.
const SEED: u64 = 16;

/// Front-pool size of the hybrid series. Small on purpose: the point of the
/// figure is that parse-once wins on routing, not on front-stage
/// parallelism, so the front is kept narrower than the shard sweep.
const FRONT_POOL: usize = 2;

pub fn main() {
    figure_header(
        "Figure 17",
        "RSS stream — wall-clock throughput vs shard count (replicated vs hybrid sharding)",
    );
    let scale = scale();
    let items = scale.rss_items();
    let batch = scale.rss_batch();
    let shard_counts = scale.shard_counts();
    let num_queries = *scale.query_counts().last().expect("non-empty sweep");
    println!(
        "stream: {items} items, 418 channels, batch size {batch}, {num_queries} queries, \
         hybrid front pool {FRONT_POOL}, {} cores available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // (mode label, topology, shards, run) tuples for the JSON artifact.
    let mut series: Vec<(&'static str, &'static str, usize, ShardedRssRun)> = Vec::new();
    for mode in [ProcessingMode::MmqjpViewMat, ProcessingMode::Mmqjp] {
        for (topology, front_pool) in [("replicated", 0), ("hybrid", FRONT_POOL)] {
            println!("\n=== Figure 17 — {} / {topology} ===", mode.label());
            println!(
                "{:>24}  {:>18}  {:>12}  {:>12}  {:>12}  {:>10}",
                "shards", "throughput", "speedup", "parse", "join", "matches"
            );
            let mut base = None;
            for &shards in &shard_counts {
                let run = run_sharded_rss_benchmark(
                    mode,
                    shards,
                    front_pool,
                    num_queries,
                    items,
                    batch,
                    SEED,
                );
                series.push((mode.label(), topology, shards, run));
                let base = *base.get_or_insert(run.wall_throughput);
                let speedup = if base > 0.0 {
                    run.wall_throughput / base
                } else {
                    0.0
                };
                println!(
                    "{:>24}  {:>18}  {:>11.2}x  {:>12}  {:>12}  {:>10}",
                    format!("{shards} shards"),
                    format!("{:.0} docs/s", run.wall_throughput),
                    speedup,
                    format!("{:.1} ms", run.parse_time.as_secs_f64() * 1e3),
                    format!("{:.1} ms", run.join_time.as_secs_f64() * 1e3),
                    run.matches,
                );
            }
        }
    }

    if let Ok(path) = std::env::var("MMQJP_BENCH_JSON_FIG17") {
        // Bench binaries run with the package directory as CWD; anchor
        // relative paths at the workspace root so CI finds the artifact.
        let mut target = std::path::PathBuf::from(&path);
        if target.is_relative() {
            target = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(target);
        }
        let json = fig17_json(&format!("{:?}", scale), items, batch, num_queries, &series);
        match std::fs::write(&target, json) {
            Ok(()) => println!("\nwrote sharding series to {}", target.display()),
            // Fail loudly: CI uploads this file, and a swallowed write error
            // would only surface later as a misleading missing-artifact
            // failure.
            Err(e) => panic!("failed to write {}: {e}", target.display()),
        }
    }
}

/// Hand-rolled JSON for the sharding series (no serde_json in the build
/// environment): `{"figure", "scale", "items", "batch", "queries", "seed",
/// "front_pool", "cores", "note", "series": [...]}`.
fn fig17_json(
    scale: &str,
    items: usize,
    batch: usize,
    queries: usize,
    series: &[(&str, &str, usize, ShardedRssRun)],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"fig17_sharded_throughput\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"items\": {items},\n"));
    out.push_str(&format!("  \"batch\": {batch},\n"));
    out.push_str(&format!("  \"queries\": {queries},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"front_pool\": {FRONT_POOL},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"docs_per_sec is end-to-end wall clock; parse_ms is total Stage-1 \
         work summed across shards and front (grows with shards when replicated, flat \
         when hybrid); every row's matches must be nonzero — the workload joins \
         fields with themselves, so cross-document joins fire; absolute numbers vary by \
         machine — only the cross-topology ratios at equal shard counts are comparable \
         across runs\",\n",
    );
    out.push_str("  \"series\": [\n");
    let entries: Vec<String> = series
        .iter()
        .map(|(mode, topology, shards, run)| {
            format!(
                "    {{\"mode\": \"{mode}\", \"topology\": \"{topology}\", \"shards\": {shards}, \
                 \"docs_per_sec\": {:.1}, \"parse_ms\": {:.3}, \"join_ms\": {:.3}, \
                 \"pipeline_stalls\": {}, \"matches\": {}}}",
                run.wall_throughput,
                run.parse_time.as_secs_f64() * 1e3,
                run.join_time.as_secs_f64() * 1e3,
                run.pipeline_stalls,
                run.matches,
            )
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
