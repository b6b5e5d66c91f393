//! Per-layer measurements taken in isolation (traced run only, outside the
//! clocks of the main loop): one layer's entry point over a fixed sample of
//! the workload's own inputs.

use crate::gen::Generator;
use crate::workloads::Workload;
use mmqjp_core::{sort_matches, MatchOutput};
use mmqjp_xml::{parse_document_streaming, PullParser};
use mmqjp_xpath::{PatternIndex, SharedPass};
use mmqjp_xscl::parse_query;
use std::hint::black_box;
use std::time::Instant;

/// Documents sampled from the head of the stream.
pub const SAMPLE_DOCS: usize = 2_000;
/// `parse_query` calls timed (the workload's query strings, cycled).
const QUERY_PARSES: usize = 2_000;

#[derive(Debug, Default)]
pub struct Isolated {
    /// `PullParser::next_event` to the end of every sampled text, no tree.
    pub pull_mb_per_s: f64,
    /// `shared_pass_reusing` over the sampled documents with the workload's
    /// distinct patterns, per pull-parser event of those documents.
    pub automaton_ns_per_event: f64,
    pub xscl_parse_us_per_query: f64,
    /// `sort_matches` over the kept outputs.
    pub merge_matches_per_s: f64,
    /// A sampled text or query the layer rejected.
    pub failed: bool,
}

pub fn measure(w: &Workload, seed: u64, sample_docs: usize, kept: &mut [MatchOutput]) -> Isolated {
    let mut out = Isolated::default();
    let mut gen = Generator::new(w, seed);
    let queries: Vec<String> = (0..w.queries).map(|_| gen.next_query()).collect();
    let texts: Vec<String> = (0..sample_docs)
        .map(|_| {
            let mut text = String::new();
            gen.next_document(&mut text);
            text
        })
        .collect();

    let t = Instant::now();
    let mut events = 0u64;
    for text in &texts {
        let mut parser = PullParser::new(text);
        loop {
            match parser.next_event() {
                Ok(Some(event)) => {
                    black_box(&event);
                    events += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    out.failed = true;
                    break;
                }
            }
        }
    }
    let bytes: usize = texts.iter().map(String::len).sum();
    out.pull_mb_per_s = bytes as f64 / 1e6 / t.elapsed().as_secs_f64();

    let t = Instant::now();
    for text in queries.iter().cycle().take(QUERY_PARSES) {
        out.failed |= black_box(parse_query(text)).is_err();
    }
    out.xscl_parse_us_per_query = t.elapsed().as_secs_f64() * 1e6 / QUERY_PARSES as f64;

    let mut index = PatternIndex::new();
    for text in &queries {
        if let Ok(query) = parse_query(text) {
            for block in query.blocks().into_iter().flat_map(|(l, r)| [l, r]) {
                index.register(block.pattern.clone());
            }
        }
    }
    let docs: Vec<_> = texts
        .iter()
        .filter_map(|t| parse_document_streaming(t).ok())
        .collect();
    out.failed |= docs.len() != texts.len();
    let mut pass = SharedPass::default();
    if let Some(first) = docs.first() {
        // Builds the automaton, which is lazy, outside the clock.
        index.shared_pass_reusing(first, &mut pass);
    }
    let t = Instant::now();
    for doc in &docs {
        index.shared_pass_reusing(doc, &mut pass);
        black_box(&pass);
    }
    out.automaton_ns_per_event = t.elapsed().as_nanos() as f64 / events.max(1) as f64;

    if !kept.is_empty() {
        let t = Instant::now();
        sort_matches(kept);
        out.merge_matches_per_s = kept.len() as f64 / t.elapsed().as_secs_f64();
    }
    out
}
