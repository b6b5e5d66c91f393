//! Figure 16: join-processing throughput (events/second) on the RSS feed
//! stream vs. the number of registered queries, for MMQJP with view
//! materialization, MMQJP, and Sequential evaluation.
//!
//! Paper shape: MMQJP sustains thousands of events per second and stays flat
//! beyond ~10 000 queries (the random generator starts producing duplicate
//! queries); view materialization adds a further constant-factor gain;
//! Sequential throughput collapses as the query count grows.

use mmqjp_bench::{figure_header, fmt_throughput, print_table, run_rss_benchmark, scale, MODES};
use mmqjp_core::ProcessingMode;

/// Fixed workload seed: the query set and stream are deterministic, so two
/// runs on the same machine and scale differ only by timer noise.
const SEED: u64 = 16;

pub fn main() {
    figure_header(
        "Figure 16",
        "RSS stream — join throughput vs number of queries (T = INF, batched)",
    );
    let scale = scale();
    let items = scale.rss_items();
    let batch = scale.rss_batch();
    println!("stream: {items} items, 418 channels, batch size {batch}");

    let columns: Vec<String> = MODES.iter().map(|m| m.label().to_owned()).collect();
    let mut rows = Vec::new();
    for &n in &scale.query_counts() {
        let mut values = Vec::new();
        for mode in MODES {
            if mode == ProcessingMode::Sequential && n > scale.rss_sequential_cap() {
                values.push("(skipped)".to_owned());
                continue;
            }
            let run = run_rss_benchmark(mode, n, items, batch, SEED);
            values.push(fmt_throughput(run.throughput));
        }
        rows.push((format!("{n} queries"), values));
    }
    print_table("Figure 16", "number of queries", &columns, &rows);
}
