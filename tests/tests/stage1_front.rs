//! Certification of the streaming single-pass front end.
//!
//! Three properties anchor it:
//!
//! 1. **Parser differential** (proptest): the pull parser — both when it
//!    builds a DOM (`parse_document_streaming`) and when it feeds the fused
//!    parse ⊕ Stage-1 pass with no DOM at all
//!    (`evaluate_witnesses_streaming_text`) — agrees byte for byte with the
//!    DOM parser on randomly generated documents exercising CDATA sections,
//!    numeric character references, comments, self-closing elements and
//!    attributes.
//! 2. **Stage-1 differential**: for every document of the RSS and
//!    complex-schema workloads and of the random-XML generator, the front
//!    (`mmqjp_core::front`, the only Stage 1 the engines run) produces the
//!    edge bindings and single-block witnesses of the per-pattern DOM
//!    matcher in `mmqjp-xpath`, which survives purely as this reference.
//! 3. **Mode × engine sweep**: every processing mode on the single engine
//!    and the sharded one produces byte-identical match output on the RSS
//!    join workload with single-block subscriptions mixed in.

use mmqjp_core::{front, EngineConfig, MmqjpEngine, ProcessingMode, Registry, ShardedEngine};
use mmqjp_integration_tests::{all_modes, match_keys, run_stream_sharded, run_stream_sorted};
use mmqjp_relational::StringInterner;
use mmqjp_workload::{
    ComplexSchemaWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::{parse_document, parse_document_streaming, Document};
use mmqjp_xpath::{parse_pattern, PatternIndex, PatternMatcher, SharedPass};
use mmqjp_xscl::{parse_query, XsclQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Random XML documents for the parser differential
// ---------------------------------------------------------------------------

/// One construction step of a random document. Interpreted against a stack
/// of open elements, so any op sequence yields well-formed XML.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: usize,
    tag: usize,
    value: usize,
}

/// Render an op sequence into XML text. The vocabulary is small on purpose
/// (tags `t0..t5`, values `v0..`) so patterns can match, and every decoration
/// the pull parser must handle is reachable: comments, CDATA, numeric
/// character references (decimal and hex), self-closing elements,
/// attributes, and plain nested elements.
fn render_xml(ops: &[Op]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?><!-- preamble --><r>");
    let mut depth = 1usize;
    for op in ops {
        let t = op.tag % 6;
        let v = op.value;
        match op.kind % 9 {
            0 => {
                out.push_str(&format!("<t{t}>"));
                depth += 1;
            }
            1 => {
                if depth > 1 {
                    out.push_str(&format!("</t{}>", close_tag(&out)));
                    depth -= 1;
                }
            }
            2 => out.push_str(&format!("<t{t}/>")),
            3 => out.push_str(&format!("v{v}&#38;&#x3C;x")),
            4 => out.push_str(&format!("<![CDATA[v{v} <raw> & unescaped]]>")),
            5 => out.push_str(&format!("<!-- comment {v} -->")),
            6 => out.push_str(&format!("v{v} ")),
            7 => out.push_str(&format!("<t{t} a=\"v{v}\" b=\"&#65;\"/>")),
            _ => {
                out.push_str(&format!("<t{t} a=\"v{v}\">"));
                depth += 1;
            }
        }
    }
    while depth > 1 {
        out.push_str(&format!("</t{}>", close_tag(&out)));
        depth -= 1;
    }
    out.push_str("</r>");
    out
}

/// The tag of the innermost open element, recovered from the rendered text
/// (the last `<tN...>` that is neither closed after it nor self-closing).
/// Linear rescan — fine at test sizes, and it keeps `render_xml` stateless.
fn close_tag(rendered: &str) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let bytes = rendered.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            if rendered[i..].starts_with("<!--") {
                i += rendered[i..]
                    .find("-->")
                    .map_or(rendered.len() - i, |p| p + 3);
                continue;
            }
            if rendered[i..].starts_with("<![CDATA[") {
                i += rendered[i..]
                    .find("]]>")
                    .map_or(rendered.len() - i, |p| p + 3);
                continue;
            }
            if rendered[i..].starts_with("<?") {
                i += rendered[i..]
                    .find("?>")
                    .map_or(rendered.len() - i, |p| p + 2);
                continue;
            }
            let end = i + rendered[i..].find('>').expect("well-formed render");
            let inner = &rendered[i + 1..end];
            if let Some(tag) = inner.strip_prefix('/') {
                let _ = tag;
                stack.pop();
            } else if !inner.ends_with('/') {
                let name = inner.split_whitespace().next().expect("tag name");
                if let Some(n) = name.strip_prefix('t') {
                    stack.push(n.parse().expect("numeric test tag"));
                } else {
                    stack.push(usize::MAX); // the root <r>
                }
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    *stack.last().expect("an open element") // callers guard depth > 1
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..9, 0usize..6, 0usize..40), 0..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, tag, value)| Op { kind, tag, value })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pull parser builds the same DOM as the backtracking parser on
    /// random documents with CDATA, entities, comments and self-closing
    /// elements.
    #[test]
    fn streaming_parse_equals_dom_parse(ops in ops_strategy()) {
        let xml = render_xml(&ops);
        let dom = parse_document(&xml).expect("DOM parser accepts rendered doc");
        let streamed = parse_document_streaming(&xml).expect("pull parser accepts rendered doc");
        prop_assert_eq!(dom, streamed, "parsers diverged on: {}", xml);
    }

    /// The fused parse ⊕ Stage-1 pass (no DOM built at all) yields the same
    /// per-pattern witnesses as parse-then-match on the same random text.
    #[test]
    fn fused_text_pass_equals_parse_then_match(ops in ops_strategy()) {
        let xml = render_xml(&ops);
        let mut index = PatternIndex::new();
        for p in [
            "S//r->root[.//t0->a]",
            "S//t1->x[.//t2->y]",
            "S//t0->e[.//t3->f][.//t4->g]",
            "S//r->r1[.//t5->v]",
        ] {
            index.register(parse_pattern(p).expect("pattern parses"));
        }
        let streamed = index
            .evaluate_witnesses_streaming_text(&xml)
            .expect("fused pass accepts rendered doc");
        let doc = parse_document(&xml).expect("DOM parser accepts rendered doc");
        let dom = index.evaluate_witnesses(&doc);
        prop_assert_eq!(streamed, dom, "fused pass diverged on: {}", xml);
    }
}

// ---------------------------------------------------------------------------
// Stage-1 differential: the front against the per-pattern DOM matcher
// ---------------------------------------------------------------------------

/// Single-block subscriptions over the RSS item schema.
const RSS_SUBSCRIPTIONS: [&str; 3] = [
    "S//item[.//title]",
    "S//channel[.//item]",
    "S//item[.//enclosure_url]",
];

/// A registry holding `queries` (join queries and single-block
/// subscriptions alike), as an engine in the default mode would build it.
fn registry_of(queries: impl IntoIterator<Item = XsclQuery>) -> Registry {
    let mut registry = Registry::new(Arc::new(StringInterner::new()));
    for q in queries {
        registry
            .register(q, ProcessingMode::default(), 0)
            .expect("query registers");
    }
    registry
}

/// Run the front over every document and compare both of its products with
/// the reference that shares no evaluation code with it: the requested-edge
/// bindings with `PatternIndex::evaluate_edge_bindings` (one DOM matcher walk
/// per pattern) and the single-block answers with `PatternMatcher::witnesses`
/// on each subscription's own pattern. Returns how many bindings and
/// single-block witnesses were compared, so callers can insist the
/// comparison was not vacuous.
fn front_equals_dom_reference(registry: &mut Registry, docs: &[Document]) -> (usize, usize) {
    let mut reference = registry.pattern_index().clone();
    let requested = registry.requested_edges().clone();
    let mut pass = SharedPass::default();
    let (mut bindings, mut witnesses) = (0, 0);
    for doc in docs {
        // The reference falls back to every edge of a pattern nobody
        // requested edges of (a single-block subscription); the front emits
        // witness rows for join-side patterns only.
        let expected_bindings: Vec<_> = reference
            .evaluate_edge_bindings(doc, &requested)
            .into_iter()
            .filter(|(pid, _)| requested.contains_key(pid))
            .collect();
        let mut subs = registry.stage1();
        let expected_singles: Vec<_> = subs
            .singles
            .iter()
            .flat_map(|s| {
                let witnesses = PatternMatcher::new(s.pattern).witnesses(doc);
                witnesses
                    .into_iter()
                    .map(move |w| (s.query, w.bindings().to_vec()))
            })
            .collect();
        let got = front::match_document(&mut subs, doc, &mut pass, false);
        let got_singles: Vec<_> = got
            .singles
            .iter()
            .map(|m| {
                let nodes = m.bindings.iter().map(|b| (b.variable.clone(), b.node));
                (m.query, nodes.collect::<Vec<_>>())
            })
            .collect();
        assert_eq!(got.bindings, expected_bindings, "edge bindings diverge");
        assert_eq!(
            got_singles, expected_singles,
            "single-block answers diverge"
        );
        bindings += got.bindings.iter().map(|(_, b)| b.len()).sum::<usize>();
        witnesses += got_singles.len();
    }
    (bindings, witnesses)
}

/// Every document of the RSS workload: join queries plus single-block
/// subscriptions, front against DOM reference.
#[test]
fn front_equals_dom_reference_on_the_rss_workload() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut queries = RssQueryGenerator::new(0.8).generate_queries(16, &mut rng);
    queries.extend(RSS_SUBSCRIPTIONS.map(|s| parse_query(s).expect("subscription parses")));
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 60,
        ..RssStreamConfig::default()
    })
    .documents();
    let (bindings, witnesses) = front_equals_dom_reference(&mut registry_of(queries), &docs);
    assert!(
        bindings > 0 && witnesses > 0,
        "the comparison must not be vacuous"
    );
}

/// Every document of the complex-schema workload (the paper's 3-level
/// schema, up to 3 value joins per query).
#[test]
fn front_equals_dom_reference_on_the_complex_schema_workload() {
    let workload = ComplexSchemaWorkload::new(4, 3, 0.8);
    let mut rng = StdRng::seed_from_u64(22);
    let queries = workload.generate_queries(24, &mut rng);
    let docs: Vec<Document> = (1..=4).map(|ts| workload.document(ts)).collect();
    let (bindings, _) = front_equals_dom_reference(&mut registry_of(queries), &docs);
    assert!(bindings > 0, "the comparison must not be vacuous");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same differential on random documents from the parser
    /// generator: nesting, repeated tags, attributes, CDATA and empty
    /// elements in shapes no workload produces.
    #[test]
    fn front_equals_dom_reference_on_random_xml(ops in ops_strategy()) {
        let doc = parse_document(&render_xml(&ops)).expect("DOM parser accepts rendered doc");
        let queries = [
            "S//r->a[.//t0->b] FOLLOWED BY{b=d, 100} S//t1->c[.//t2->d]",
            "S//t0->e[.//t3->f][.//t4->g] JOIN{f=h AND g=i, 100} S//r->j[.//t5->h][.//t1->i]",
            "S//t2->k[.//t2->l] FOLLOWED BY{l=n, 100} S//t3->m[.//t0->n]",
            "S//t1[.//t2]",
            "S//r[.//t0][.//t5]",
        ];
        let mut registry =
            registry_of(queries.map(|q| parse_query(q).expect("query parses")));
        front_equals_dom_reference(&mut registry, &[doc]);
    }
}

// ---------------------------------------------------------------------------
// Mode × engine sweep
// ---------------------------------------------------------------------------

/// Byte-identical match output from the single engine and the sharded one
/// (one and two front workers) in all three processing modes, on the RSS
/// join workload plus single-block subscriptions (answered inline by the
/// single engine's front, by the front workers when sharded).
#[test]
fn match_output_identical_across_modes_and_engines() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut queries = RssQueryGenerator::new(0.8).generate_queries(16, &mut rng);
    let joins = queries.len() as u64;
    queries.extend(RSS_SUBSCRIPTIONS.map(|s| parse_query(s).expect("subscription parses")));
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 60,
        ..RssStreamConfig::default()
    })
    .documents();

    let mut reference: Option<Vec<_>> = None;
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        }
        .with_retain_documents(false);
        let mut engine = MmqjpEngine::new(config.clone());
        for q in &queries {
            engine.register_query(q.clone()).expect("query registers");
        }
        let matches = run_stream_sorted(&mut engine, docs.clone());
        let keys = match_keys(&matches);
        assert!(
            keys.iter().any(|k| k.0 < joins) && keys.iter().any(|k| k.0 >= joins),
            "the sweep workload must produce join and single-block matches"
        );
        match &reference {
            None => reference = Some(keys),
            Some(r) => assert_eq!(r, &keys, "single-engine {mode:?} diverges"),
        }
        for front_pool in [1usize, 2] {
            let mut sharded = ShardedEngine::new(
                config
                    .clone()
                    .with_num_shards(4)
                    .with_front_pool(front_pool),
            );
            for q in &queries {
                sharded.register_query(q.clone()).expect("query registers");
            }
            let sharded_matches = run_stream_sharded(&mut sharded, docs.clone());
            assert_eq!(
                sharded_matches, matches,
                "sharded(front {front_pool}) diverges from single-engine {mode:?}"
            );
        }
    }
}
