//! Retention differentials: a query's own window decides its matches, so
//! neither eviction, the retention cap's bucket slack nor the shard layout
//! can change a result.
//!
//! Each query `q` has a horizon `h_q`: its time window capped by
//! `doc_retention_cap`, the cap alone for an INF or COUNT window, unbounded
//! with neither. A pair is emitted only when its two timestamps lie within
//! `h_q` of each other *and* the stored document lies within `h_q` of the
//! watermark before its batch. Every shard evicts below its own queries'
//! largest horizon and sees every document's timestamp, so the sharded
//! engine must reproduce the single engine exactly — on out-of-order
//! streams, where a straggler reaches back behind the watermark, and under a
//! cap below a live window, where a finite-window query used to match
//! through another query's longer-lived state.

use mmqjp_core::{sort_matches, EngineConfig, MatchOutput, MmqjpEngine, ProcessingMode};
use mmqjp_integration_tests::{
    all_modes, assert_audit_clean, assert_audit_clean_sharded, match_keys,
    sharded_engine_with_queries, SHARD_COUNTS,
};
use mmqjp_workload::{ChurnConfig, ChurnWorkload, RssQueryGenerator};
use mmqjp_xml::{Document, Timestamp};
use mmqjp_xscl::{Window, XsclQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 300-item churn stream with `num_queries` finite-window queries split
/// over `windows`, plus `infinite` INF-window queries.
fn workload(
    windows: Vec<u64>,
    num_queries: usize,
    infinite: usize,
) -> (Vec<XsclQuery>, Vec<Document>) {
    let churn = ChurnWorkload::new(ChurnConfig {
        items: 300,
        num_queries,
        windows,
        ..ChurnConfig::default()
    });
    let mut queries = churn.queries();
    let mut rng = StdRng::seed_from_u64(5);
    queries.extend(
        RssQueryGenerator::new(0.8)
            .with_window(Window::Infinite)
            .generate_queries(infinite, &mut rng),
    );
    (queries, churn.documents())
}

/// Stamp every 7th document 90 time units late and every 11th 200 units
/// late (the churn stream advances 2 units per item).
fn with_stragglers(docs: Vec<Document>) -> Vec<Document> {
    docs.into_iter()
        .enumerate()
        .map(|(i, doc)| {
            let late = match i + 1 {
                n if n % 11 == 0 => 200,
                n if n % 7 == 0 => 90,
                _ => 0,
            };
            let ts = doc.timestamp().raw().saturating_sub(late).max(1);
            doc.with_timestamp(Timestamp(ts))
        })
        .collect()
}

fn config(mode: ProcessingMode, cap: Option<u64>) -> EngineConfig {
    EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_doc_retention_cap(cap)
}

/// The single engine's matches, each call canonically sorted.
fn single(
    config: &EngineConfig,
    queries: &[XsclQuery],
    docs: &[Document],
    batch: usize,
) -> Vec<MatchOutput> {
    let mut engine = MmqjpEngine::new(config.clone());
    for q in queries {
        engine.register_query(q.clone()).expect("query registers");
    }
    let mut out = Vec::new();
    for chunk in docs.chunks(batch) {
        let mut matches = engine.process_batch(chunk.to_vec()).expect("batch runs");
        sort_matches(&mut matches);
        out.extend(matches);
    }
    assert_audit_clean(&engine);
    out
}

/// The sharded engine's matches (each call arrives canonically sorted).
fn sharded(
    config: &EngineConfig,
    num_shards: usize,
    queries: &[XsclQuery],
    docs: &[Document],
    batch: usize,
) -> Vec<MatchOutput> {
    let mut engine = sharded_engine_with_queries(config.clone(), num_shards, queries);
    let mut out = Vec::new();
    for chunk in docs.chunks(batch) {
        out.extend(engine.process_batch(chunk.to_vec()).expect("batch runs"));
    }
    assert_audit_clean_sharded(&engine);
    out
}

/// Assert the sharded run equals the single engine's, bag first (so a
/// failure names the missing count), then match for match.
fn assert_same(got: &[MatchOutput], expected: &[MatchOutput], ctx: &str) {
    assert_eq!(
        match_keys(got).len(),
        expected.len(),
        "{ctx}: the sharded engine emitted {} of the single engine's {} matches",
        got.len(),
        expected.len()
    );
    assert_eq!(match_keys(got), match_keys(expected), "{ctx}: match bags");
    assert!(got == expected, "{ctx}: matches differ");
}

/// Out-of-order stream with INF queries present: a finite-window query
/// must not match a straggler against state that only an unrelated INF
/// query kept alive, whatever the shard layout.
#[test]
fn stragglers_match_identically_on_every_shard_count() {
    let (queries, docs) = workload(vec![25, 60, 160], 45, 6);
    let docs = with_stragglers(docs);
    for mode in all_modes() {
        let config = config(mode, None);
        for batch in [1usize, 5] {
            let expected = single(&config, &queries, &docs, batch);
            assert!(!expected.is_empty(), "the workload must produce matches");
            for &shards in &SHARD_COUNTS {
                let got = sharded(&config, shards, &queries, &docs, batch);
                let ctx = format!("{mode:?}, batch {batch}, {shards} shards");
                assert_same(&got, &expected, &ctx);
            }
        }
    }
}

/// In-order stream, a retention cap below the widest live window, INF
/// queries present: the cap bounds every query's matches by itself, not by
/// the bucket slack of whatever state the shard happens to keep. Two thirds
/// of the finite windows are short, so on seven shards some INF query
/// shares its shard with short windows only and that shard's buckets are
/// narrower than the single engine's.
#[test]
fn a_cap_below_a_live_window_matches_identically_on_seven_shards() {
    let (queries, docs) = workload(vec![20, 20, 300], 40, 3);
    for cap in [50u64, 100, 200] {
        for mode in all_modes() {
            let config = config(mode, Some(cap));
            for batch in [1usize, 5] {
                let expected = single(&config, &queries, &docs, batch);
                assert!(!expected.is_empty(), "the workload must produce matches");
                let got = sharded(&config, 7, &queries, &docs, batch);
                let ctx = format!("{mode:?}, cap {cap}, batch {batch}");
                assert_same(&got, &expected, &ctx);
            }
        }
    }
}

/// FNV-1a over a canonically sorted match bag: query, both documents and
/// every `(variable, document, node)` binding.
fn digest(matches: &[MatchOutput]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (query, left, right, bindings) in match_keys(matches) {
        for v in [query, left, right] {
            eat(&v.to_le_bytes());
        }
        for (variable, doc, node) in bindings {
            eat(variable.as_bytes());
            eat(&doc.to_le_bytes());
            eat(&node.to_le_bytes());
        }
    }
    h
}

/// On an in-order, uncapped stream the rule only restates the window, so
/// every mode keeps the bag an engine that never evicted join state
/// emitted: the count and digest below were captured from such an engine,
/// the same in all three modes.
#[test]
fn uncapped_in_order_bags_are_pinned() {
    let (queries, docs) = workload(vec![25, 60, 160], 45, 6);
    for mode in all_modes() {
        let matches = single(&config(mode, None), &queries, &docs, 1);
        let got = (matches.len(), digest(&matches));
        assert_eq!(got, (12_137, 1_048_986_301_554_948_982), "{mode:?}");
    }
}
