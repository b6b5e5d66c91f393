//! Stage 2 over window state read in place: when every batch shares a
//! string value with every resident document, the MMQJP batch restriction
//! keeps every `Rbin` row, so the join reads the segmented state where it
//! lies — through the chunked row addressing, across many time buckets — as
//! Sequential mode always does. Both modes must agree with each other and
//! with a nested loop over the stream's document pairs, which knows the
//! documents' values without asking any engine code.

use mmqjp_core::{EngineConfig, MatchOutput, MmqjpEngine, ProcessingMode};
use mmqjp_integration_tests::{assert_audit_clean, match_keys};
use mmqjp_xml::{parse_document, DocId, Document, Timestamp};
use std::collections::BTreeMap;

/// Two value joins: the same `a` and the same `b` within `WINDOW`.
const QUERY: &str = "S//item->x1[.//a->x2][.//b->x3] \
    FOLLOWED BY{x2=x5 AND x3=x6, 48} \
    S//item->x4[.//a->x5][.//b->x6]";
const WINDOW: u64 = 48;
/// Documents per batch: each batch carries both `a` values, so every
/// resident document shares one with it.
const BATCH: usize = 4;
const DOCS: usize = 120;

/// Document `i`'s `(a, b)` values: `a` alternates, `b` cycles with another
/// period, so equal pairs recur at irregular distances.
fn values(i: usize) -> (&'static str, &'static str) {
    let a = ["red", "green"][i % 2];
    let b = ["one", "two", "three"][(i * 7 / 3) % 3];
    (a, b)
}

fn stream() -> Vec<Document> {
    (0..DOCS)
        .map(|i| {
            let (a, b) = values(i);
            let text = format!("<item><a>{a}</a><b>{b}</b><c>filler {i}</c></item>");
            parse_document(&text)
                .unwrap()
                .with_id(DocId(i as u64 + 1))
                .with_timestamp(Timestamp(i as u64 + 1))
        })
        .collect()
}

/// The expected `(left doc, right doc)` pairs of the query: an earlier
/// document of an earlier batch (a batch joins the window before it, not
/// itself) within the window, with equal `a` and equal `b`.
fn nested_loop() -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    for cur in 0..DOCS {
        for prev in 0..cur {
            let ts = |i: usize| i as u64 + 1;
            if prev / BATCH < cur / BATCH
                && ts(cur) - ts(prev) <= WINDOW
                && values(prev) == values(cur)
            {
                pairs.push((prev as u64 + 1, cur as u64 + 1));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

fn run(mode: ProcessingMode) -> (Vec<MatchOutput>, usize) {
    let mut engine = MmqjpEngine::new(EngineConfig {
        mode,
        ..EngineConfig::default()
    });
    engine.register_query_text(QUERY).unwrap();
    let mut out = Vec::new();
    let mut most_buckets = 0;
    let docs = stream();
    for batch in docs.chunks(BATCH) {
        out.extend(engine.process_batch(batch.to_vec()).unwrap());
        most_buckets = most_buckets.max(engine.stats().state_buckets);
    }
    assert_audit_clean(&engine);
    (out, most_buckets)
}

#[test]
fn a_window_read_in_place_matches_sequential_and_the_nested_loop() {
    let expected = nested_loop();
    assert!(expected.len() > 100, "{}", expected.len());
    let (mmqjp, buckets) = run(ProcessingMode::Mmqjp);
    // The window spans many buckets, so the state is chunked.
    assert!(buckets >= 3, "{buckets} buckets");
    let mut got: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for m in &mmqjp {
        *got.entry((m.left_doc.raw(), m.right_doc.raw()))
            .or_default() += 1;
    }
    // One item, one `a` and one `b` per document: one match per pair.
    assert!(got.values().all(|&n| n == 1), "{got:?}");
    assert_eq!(got.into_keys().collect::<Vec<_>>(), expected, "MMQJP");

    let (sequential, _) = run(ProcessingMode::Sequential);
    assert_eq!(match_keys(&mmqjp), match_keys(&sequential), "Sequential");
}
