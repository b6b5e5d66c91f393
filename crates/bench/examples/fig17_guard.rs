//! CI guard over the Figure-17 sharding artifact.
//!
//! Reads `BENCH_fig17.json` (regenerated by the `fig17_sharded_throughput`
//! bench when `MMQJP_BENCH_JSON_FIG17` is set) and fails when hybrid
//! parse-once sharding loses to replicated-document sharding at 4 shards.
//! The hybrid topology exists to eliminate the replicated topology's
//! duplicated Stage-1 work, so falling below replicated throughput means
//! the routing overhead has outgrown the parsing it saves — a regression,
//! not a tuning matter. Two further checks pin the parse-once property
//! itself: hybrid Stage-1 work at 4 shards must stay close to its 1-shard
//! value, and at the top of the shard sweep it must stay clearly below the
//! replicated topology's per-shard re-parsing total.
//!
//! Usage: `cargo run -p mmqjp-bench --release --example fig17_guard [path]`
//! (the path defaults to `BENCH_fig17.json` at the workspace root). The
//! artifact is hand-rolled JSON written by our own bench, so a minimal
//! line scanner is enough — no JSON dependency.

const GUARD_SHARDS: u64 = 4;
const GUARD_MODE: &str = "MMQJP";
/// Shared CI runners are noisy; the guard catches the parse-once collapse
/// (hybrid at or below replicated by a wide margin), not run-to-run jitter.
const THROUGHPUT_TOLERANCE: f64 = 0.85;
/// Hybrid Stage-1 work may drift this much from 1 to 4 shards and still
/// count as flat. On an idle multi-core machine the drift is within 20%;
/// on an oversubscribed single-core runner wall-clock parse timing is
/// inflated by preemption while shard threads join concurrently, so the
/// bound is generous. The sharp parse-once check is cross-topology below.
const PARSE_FLATNESS: f64 = 2.0;
/// Hybrid total Stage-1 work must stay clearly below the replicated
/// topology's (which re-parses per shard). If routing ever degenerates into
/// per-shard re-parsing the ratio jumps to ≈ 1, far above this bound even
/// under noise.
const PARSE_VS_REPLICATED: f64 = 0.95;
/// Shard count for the cross-topology parse check — the *top* of the sweep,
/// not [`GUARD_SHARDS`]: the shared streaming automaton made per-shard
/// Stage-1 cheap enough that at small shard counts the replication tax is
/// comparable to the front stage's fixed wall-clock overhead (front-worker
/// time includes preemption on oversubscribed runners). The once-vs-per-shard
/// property is unambiguous where replication is most expensive.
const CROSS_TOPOLOGY_SHARDS: u64 = 8;
/// The workload seed baked into `fig17_sharded_throughput`. Cross-run
/// comparisons of the committed artifact are meaningless if the query set
/// changed, so the guard refuses artifacts produced with any other seed.
const EXPECTED_SEED: u64 = 16;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_fig17.json")
            .to_string_lossy()
            .into_owned()
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));

    // Comparability preconditions: a committed artifact produced with a
    // different seed, or missing the workload-scale header, cannot be
    // compared against future runs — fail before checking any ratio.
    let mut header = Header::default();
    let mut replicated = None;
    let mut replicated_parse = None;
    let mut hybrid = None;
    let mut hybrid_parse_1 = None;
    let mut hybrid_parse_4 = None;
    let mut hybrid_parse_top = None;
    for line in text.lines() {
        if str_field(line, "\"topology\":").is_none() {
            // Header line (series rows all carry a topology).
            header.seed = header.seed.or_else(|| int_field(line, "\"seed\":"));
            header.batch = header.batch.or_else(|| int_field(line, "\"batch\":"));
            header.queries = header.queries.or_else(|| int_field(line, "\"queries\":"));
            header.scale = header
                .scale
                .or_else(|| str_field(line, "\"scale\":").map(str::to_owned));
            continue;
        }
        let (Some(mode), Some(topology), Some(shards), Some(dps), Some(parse_ms), Some(matches)) = (
            str_field(line, "\"mode\":"),
            str_field(line, "\"topology\":"),
            int_field(line, "\"shards\":"),
            f64_field(line, "\"docs_per_sec\":"),
            f64_field(line, "\"parse_ms\":"),
            int_field(line, "\"matches\":"),
        ) else {
            panic!("series row missing a required field in {path}: {line}");
        };
        // A zero-match row means the workload degenerated (as it once did,
        // when the query generator paired unrelated fields into never-
        // satisfiable joins) and every throughput number on the row is
        // measuring an empty pipeline.
        assert!(
            matches > 0,
            "zero matches for {mode} / {topology} at {shards} shards — the fig17 workload \
             stopped producing joins, so its throughput numbers are meaningless"
        );
        if mode != GUARD_MODE {
            continue;
        }
        match (topology, shards) {
            ("replicated", GUARD_SHARDS) => replicated = Some(dps),
            ("replicated", CROSS_TOPOLOGY_SHARDS) => replicated_parse = Some(parse_ms),
            ("hybrid", GUARD_SHARDS) => {
                hybrid = Some(dps);
                hybrid_parse_4 = Some(parse_ms);
            }
            ("hybrid", CROSS_TOPOLOGY_SHARDS) => hybrid_parse_top = Some(parse_ms),
            ("hybrid", 1) => hybrid_parse_1 = Some(parse_ms),
            _ => {}
        }
    }

    let seed = header
        .seed
        .unwrap_or_else(|| panic!("no seed header in {path}"));
    assert!(
        seed == EXPECTED_SEED,
        "artifact seed {seed} != expected {EXPECTED_SEED}: the workload is not the one this \
         guard's thresholds were calibrated for"
    );
    let batch = header
        .batch
        .unwrap_or_else(|| panic!("no batch header in {path}"));
    let queries = header
        .queries
        .unwrap_or_else(|| panic!("no queries header in {path}"));
    let scale = header
        .scale
        .unwrap_or_else(|| panic!("no scale header in {path}"));
    assert!(
        batch > 0 && queries > 0,
        "degenerate workload header in {path}: batch {batch}, queries {queries}"
    );
    println!(
        "fig17 guard preconditions: seed {seed}, scale {scale}, batch {batch}, {queries} queries"
    );

    let replicated = replicated.unwrap_or_else(|| {
        panic!("no replicated {GUARD_MODE} entry at {GUARD_SHARDS} shards in {path}")
    });
    let replicated_parse = replicated_parse.unwrap_or_else(|| {
        panic!("no replicated {GUARD_MODE} entry at {CROSS_TOPOLOGY_SHARDS} shards in {path}")
    });
    let hybrid = hybrid.unwrap_or_else(|| {
        panic!("no hybrid {GUARD_MODE} entry at {GUARD_SHARDS} shards in {path}")
    });
    let parse_1 =
        hybrid_parse_1.unwrap_or_else(|| panic!("no hybrid {GUARD_MODE} entry at 1 shard"));
    let parse_4 = hybrid_parse_4.expect("hybrid entry at GUARD_SHARDS sets parse_ms");
    let parse_top = hybrid_parse_top.unwrap_or_else(|| {
        panic!("no hybrid {GUARD_MODE} entry at {CROSS_TOPOLOGY_SHARDS} shards in {path}")
    });

    println!(
        "fig17 guard at {GUARD_SHARDS} shards: hybrid {hybrid:.0} docs/s vs replicated \
         {replicated:.0} docs/s ({:.2}x)",
        hybrid / replicated
    );
    assert!(
        hybrid >= replicated * THROUGHPUT_TOLERANCE,
        "hybrid sharding regressed: parse-once witness routing ({hybrid:.0} docs/s) fell \
         below {THROUGHPUT_TOLERANCE}x the replicated-document topology ({replicated:.0} \
         docs/s) at {GUARD_SHARDS} shards"
    );

    println!(
        "fig17 guard parse flatness: hybrid Stage-1 work {parse_1:.1} ms at 1 shard vs \
         {parse_4:.1} ms at {GUARD_SHARDS} shards ({:.2}x)",
        parse_4 / parse_1.max(f64::MIN_POSITIVE)
    );
    assert!(
        parse_4 <= parse_1 * PARSE_FLATNESS,
        "parse-once property regressed: hybrid Stage-1 work grew from {parse_1:.1} ms at \
         1 shard to {parse_4:.1} ms at {GUARD_SHARDS} shards (> {PARSE_FLATNESS}x) — \
         Stage-1 cost is scaling with the shard count again"
    );

    println!(
        "fig17 guard cross-topology parse: hybrid {parse_top:.1} ms vs replicated \
         {replicated_parse:.1} ms at {CROSS_TOPOLOGY_SHARDS} shards ({:.2}x)",
        parse_top / replicated_parse.max(f64::MIN_POSITIVE)
    );
    assert!(
        parse_top <= replicated_parse * PARSE_VS_REPLICATED,
        "parse-once property regressed: hybrid Stage-1 work ({parse_top:.1} ms) is no longer \
         clearly below the replicated topology's per-shard re-parsing ({replicated_parse:.1} \
         ms) at {CROSS_TOPOLOGY_SHARDS} shards — each document should be parsed once, not \
         once per shard"
    );
    println!("fig17 guard passed");
}

/// Comparability headers scanned from the artifact's preamble.
#[derive(Default)]
struct Header {
    seed: Option<u64>,
    batch: Option<u64>,
    queries: Option<u64>,
    scale: Option<String>,
}

/// The integer following `key` on `line`, if present.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(key).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The quoted string following `key` on `line`, if present.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(key).nth(1)?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// The float following `key` on `line`, if present.
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(key).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits.parse().ok()
}
