//! Figure 17 (beyond the paper): wall-clock RSS throughput of the
//! `ShardedEngine` vs shard count, for MMQJP and MMQJP with view
//! materialization on the Figure-16 workload.
//!
//! A document-parallel front stage parses each document exactly once and
//! routes witness rows to subscribing shards, pipelining Stage 1 of batch
//! `k+1` with Stage 2 of batch `k`. The `parse` column is total Stage-1
//! work: parsing and matching happen once per document whatever the shard
//! count, so only its routing share grows as shards are added, while the
//! `join` column is split over more threads.
//!
//! Expected shape on an `N`-core machine: throughput grows with the shard
//! count until the front stage or the cores saturate. On a single-core
//! runner the sweep degenerates to ≈ 1× — the table still prints the
//! speedup and parse columns so the trend is visible wherever the bench
//! runs.

use mmqjp_bench::{figure_header, run_sharded_rss_benchmark, scale};
use mmqjp_core::ProcessingMode;

/// Fixed workload seed: the query set and stream are deterministic, so two
/// runs on the same machine and scale differ only by timer noise.
const SEED: u64 = 16;

/// Front-pool size. Small on purpose: the figure sweeps the join stage, so
/// the front is kept narrower than the shard sweep.
const FRONT_POOL: usize = 2;

pub fn main() {
    figure_header(
        "Figure 17",
        "RSS stream — wall-clock throughput vs shard count",
    );
    let scale = scale();
    let items = scale.rss_items();
    let batch = scale.rss_batch();
    let shard_counts = scale.shard_counts();
    let num_queries = *scale.query_counts().last().expect("non-empty sweep");
    println!(
        "stream: {items} items, 418 channels, batch size {batch}, {num_queries} queries, \
         front pool {FRONT_POOL}, {} cores available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    for mode in [ProcessingMode::MmqjpViewMat, ProcessingMode::Mmqjp] {
        println!("\n=== Figure 17 — {} ===", mode.label());
        println!(
            "{:>24}  {:>18}  {:>12}  {:>12}  {:>12}  {:>10}",
            "shards", "throughput", "speedup", "parse", "join", "matches"
        );
        let mut base = None;
        for &shards in &shard_counts {
            let run = run_sharded_rss_benchmark(
                mode,
                shards,
                FRONT_POOL,
                num_queries,
                items,
                batch,
                SEED,
            );
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
