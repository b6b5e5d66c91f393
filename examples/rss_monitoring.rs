//! Internet-scale RSS feed monitoring (the paper's Section 6.3 scenario):
//! hundreds of thousands of join subscriptions over a synthetic RSS/Atom
//! stream, single-threaded and sharded across cores.
//!
//! Run with
//! `cargo run --release -p mmqjp-examples --bin rss_monitoring -- [ITEMS] [QUERIES] [SHARDS]`
//! (defaults: 2000 items, 1000 queries, one shard per available core).

use mmqjp_core::{EngineConfig, MmqjpEngine, ProcessingMode, ShardedEngine};
use mmqjp_examples::arg_or;
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    let items = arg_or(1, 2000);
    let num_queries = arg_or(2, 1000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num_shards = arg_or(3, cores);

    println!("synthetic RSS stream: {items} items from 418 channels");
    println!("registering {num_queries} join subscriptions over the feed-item fields\n");

    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(2006);
    let queries = generator.generate_queries(num_queries, &mut rng);

    // Generate the stream once, outside every timed region, so the reported
    // wall times and the sharded speedup measure engine work only.
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items,
        ..RssStreamConfig::default()
    })
    .documents();

    let mut single_wall: Option<Duration> = None;
    for mode in [ProcessingMode::MmqjpViewMat, ProcessingMode::Mmqjp] {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        }
        .with_retain_documents(false);
        let mut engine = MmqjpEngine::new(config);
        for q in queries.clone() {
            engine
                .register_query(q)
                .expect("generated queries are valid");
        }

        let start = Instant::now();
        let mut matches = 0usize;
        for chunk in docs.chunks(500) {
            matches += engine
                .process_batch(chunk.to_vec())
                .expect("processing succeeds")
                .len();
        }
        let elapsed = start.elapsed();
        if mode == ProcessingMode::MmqjpViewMat {
            single_wall = Some(elapsed);
        }
        let stats = engine.stats();
        println!(
            "{:10}: {} templates, {matches} matches, wall time {elapsed:?}, \
             join throughput {:.0} events/s (Stage-2 only), view cache hits {}",
            mode.label(),
            engine.num_templates(),
            stats.join_throughput_docs_per_sec(),
            stats.view_cache_hits,
        );
    }

    // The same workload, sharded across worker threads: the query population
    // is hash-partitioned, each document is parsed once by the front stage
    // and its witness rows routed to the subscribing shards, and the merged
    // output is identical to the single-engine runs above.
    let config = EngineConfig::mmqjp_view_mat()
        .with_retain_documents(false)
        .with_num_shards(num_shards);
    let mut engine = ShardedEngine::new(config);
    for q in queries {
        engine
            .register_query(q)
            .expect("generated queries are valid");
    }
    println!(
        "\nsharded MMQJP+VM: {num_shards} shards on {cores} cores, queries per shard {:?}",
        engine.queries_per_shard()
    );
    let start = Instant::now();
    let mut matches = 0usize;
    for chunk in docs.chunks(500) {
        matches += engine
            .process_batch(chunk.to_vec())
            .expect("processing succeeds")
            .len();
    }
    let elapsed = start.elapsed();
    print!("sharded   : {matches} matches, wall time {elapsed:?}");
    if let Some(single) = single_wall {
        println!(
            ", speedup over single-threaded MMQJP+VM {:.2}x",
            single.as_secs_f64() / elapsed.as_secs_f64().max(f64::EPSILON)
        );
    } else {
        println!();
    }
}
