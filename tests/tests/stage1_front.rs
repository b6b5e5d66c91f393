//! Certification of the streaming single-pass front end.
//!
//! Three properties anchor it:
//!
//! 1. **Parser differential** (proptest): the pull parser
//!    (`parse_document_streaming`) builds the same DOM, byte for byte, as the
//!    backtracking DOM parser on randomly generated documents exercising
//!    CDATA sections, numeric character references, comments, self-closing
//!    elements and attributes.
//! 2. **Stage-1 differential**: for every document of the RSS and
//!    complex-schema workloads and of the random-XML generator, the front
//!    (`mmqjp_core::front`, the only Stage 1 the engines run) produces the
//!    single-block witnesses of the per-pattern DOM matcher in
//!    `mmqjp-xpath`, which survives purely as this reference, and its
//!    witness rows as an order-preserving subsequence of the reference's:
//!    every row the front leaves out repeats the ingest key of an earlier
//!    row it kept (the front skips a `(pattern, edge)` whose pairs an
//!    earlier member of its edge class already emitted). The witness batch
//!    ingested from the front's rows equals the one ingested from the
//!    reference's, row for row, and every bound node's `RdocW` value is the
//!    reference's `binding_string_value`.
//! 3. **Mode × engine sweep**: every processing mode on the single engine
//!    and the sharded one produces byte-identical match output on the RSS
//!    join workload with single-block subscriptions mixed in.

use mmqjp_core::front::{
    self, DocumentMatches, MatchScratch, NodeSource, RequestedEdges, WitnessRow,
};
use mmqjp_core::{node_key, EngineConfig, MmqjpEngine, ShardedEngine};
use mmqjp_integration_tests::stage1::{edge_lists, ingest_rows, rows_from_bindings};
use mmqjp_integration_tests::{
    all_modes, assert_audit_clean, match_keys, run_stream_sharded, run_stream_sorted,
};
use mmqjp_relational::{StringInterner, Symbol};
use mmqjp_workload::{
    ComplexSchemaWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::{parse_document, parse_document_streaming, Document, Timestamp};
use mmqjp_xpath::{
    binding_string_value, EdgeBinding, NodeTest, PatternId, PatternIndex, PatternMatcher,
};
use mmqjp_xscl::{parse_query, XsclQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

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
/// attributes (the root `<r>` carries some when the first op's value is
/// even), and plain nested elements. Few or text-only ops leave a
/// root-only document.
fn render_xml(ops: &[Op]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?><!-- preamble --><r");
    match ops.first() {
        Some(op) if op.value % 2 == 0 => {
            out.push_str(&format!(" a=\"v{}\" b=\"&#65;\">", op.value / 2));
        }
        _ => out.push('>'),
    }
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

/// An engine in the default mode holding `queries` (join queries and
/// single-block subscriptions alike): the differentials match against its
/// front's Stage-1 table.
fn engine_of(queries: impl IntoIterator<Item = XsclQuery>) -> MmqjpEngine {
    let mut engine = MmqjpEngine::new(EngineConfig::default());
    for q in queries {
        engine.register_query(q).expect("query registers");
    }
    engine
}

/// How much one [`front_equals_dom_reference`] run compared.
#[derive(Debug, Default)]
struct Compared {
    /// Rows the front emitted.
    rows: usize,
    /// Reference rows the front left out, each a repeat of a kept row.
    omitted: usize,
    /// Single-block witnesses.
    witnesses: usize,
}

/// Run the front over every document and compare both of its products with
/// the reference that shares no evaluation code with it: the witness rows
/// with `PatternIndex::evaluate_edge_bindings` (one DOM matcher walk per
/// pattern, mapped onto rows by the test-support adapter; see
/// [`rows_are_a_covered_subsequence`]) and the single-block answers with
/// `PatternMatcher::witnesses` on each subscription's own pattern. Then
/// ingest both row sets and compare the batches (see
/// [`ingest_equals_reference`]). Returns what was compared, so callers can
/// insist the comparison was not vacuous.
fn front_equals_dom_reference(engine: &MmqjpEngine, docs: &[Document]) -> Compared {
    let mut table = engine.stage1_table().clone();
    let mut reference = table.index().clone();
    let requested = table.requested().clone();
    let interner = engine.interner().clone();
    let mut matching = MatchScratch::default();
    let mut got = DocumentMatches::default();
    let mut compared = Compared::default();
    for doc in docs {
        let bindings = reference.evaluate_edge_bindings(doc, &edge_lists(&requested));
        let expected_rows = rows_from_bindings(&reference, &requested, &bindings);
        let mut subs = table.subscriptions();
        let expected_singles: Vec<_> = subs
            .singles
            .iter()
            .flat_map(|s| {
                let witnesses = PatternMatcher::new(s.pattern()).witnesses(doc);
                witnesses
                    .into_iter()
                    .map(move |w| (s.query, w.bindings().to_vec()))
            })
            .collect();
        front::match_document(&mut subs, doc, &mut matching, false, &mut got);
        let got_singles: Vec<_> = got
            .singles
            .iter()
            .map(|m| {
                let nodes = m.bindings.iter().map(|b| (b.variable.clone(), b.node));
                (m.query, nodes.collect::<Vec<_>>())
            })
            .collect();
        let omitted = rows_are_a_covered_subsequence(&requested, &got.rows, &expected_rows);
        assert!(
            omitted == 0 || got.suppressed > 0,
            "rows were left out, but no enumeration was suppressed"
        );
        assert_eq!(
            got_singles, expected_singles,
            "single-block answers diverge"
        );
        ingest_equals_reference(&reference, &requested, &interner, doc, &got.rows, &bindings);
        compared.rows += got.rows.len();
        compared.omitted += omitted;
        compared.witnesses += got_singles.len();
    }
    compared
}

/// The ingest key of a row — `(var1, var2, node1 key, node2 key)`, what a
/// consumer's per-document dedup compares.
fn ingest_key(requested: &RequestedEdges, row: &WitnessRow) -> (Symbol, Symbol, i64, i64) {
    let edge = &requested.get(&row.pid).expect("a requested pattern")[row.edge as usize];
    (
        edge.var1,
        edge.var2,
        node_key(row.node1, edge.var1, &edge.source1),
        node_key(row.node2, edge.var2, &edge.source2),
    )
}

/// The front's rows `got` are the reference's rows `expected` in the
/// reference's order with some left out, and every row left out has the
/// ingest key of a row kept before it — so the one consumer, ingesting
/// either sequence, keeps the same rows in the same order. Returns how many
/// rows were left out. (The reference's rows of one document are distinct,
/// so matching `got` greedily against `expected` is exact.)
fn rows_are_a_covered_subsequence(
    requested: &RequestedEdges,
    got: &[WitnessRow],
    expected: &[WitnessRow],
) -> usize {
    let mut kept = HashSet::new();
    let (mut next, mut omitted) = (0, 0);
    for row in expected {
        if got.get(next) == Some(row) {
            kept.insert(ingest_key(requested, row));
            next += 1;
        } else {
            assert!(
                kept.contains(&ingest_key(requested, row)),
                "the front left out {row:?}, which no earlier kept row covers"
            );
            omitted += 1;
        }
    }
    assert_eq!(
        &got[next..],
        &[][..],
        "the front's rows are not a subsequence of the reference's"
    );
    omitted
}

/// The batch ingested from the front's `rows` equals, row for row and in
/// order, the batch ingested from the reference `bindings` through the
/// test-support adapter — `RbinW`, `RdocW` and `RdocTSW` — and every
/// reference binding's descendant finds its own value in `RdocW` under its
/// node key: the element's string value, or the attribute's value for an
/// attribute step, computed by the reference `binding_string_value`.
fn ingest_equals_reference(
    index: &PatternIndex,
    requested: &RequestedEdges,
    interner: &StringInterner,
    doc: &Document,
    rows: &[front::WitnessRow],
    bindings: &[(PatternId, Vec<EdgeBinding>)],
) {
    let got = ingest_rows(doc, rows, requested, interner);
    let reference = rows_from_bindings(index, requested, bindings);
    let expected = ingest_rows(doc, &reference, requested, interner);
    assert_eq!(got.rbin_w, expected.rbin_w, "RbinW diverges");
    assert_eq!(got.rdoc_w, expected.rdoc_w, "RdocW diverges");
    assert_eq!(got.rdoc_ts_w, expected.rdoc_ts_w, "RdocTSW diverges");

    let values: HashMap<i64, String> = got
        .rdoc_w
        .iter()
        .map(|t| {
            let sym = t[2].as_sym().expect("strVal is a symbol");
            let value = interner.resolve(sym).expect("interned value");
            (t[1].as_int().expect("node key"), value.to_string())
        })
        .collect();
    for (pid, edge_bindings) in bindings {
        if requested.get(pid).is_none() {
            continue;
        }
        let pattern = index.pattern(*pid);
        for b in edge_bindings {
            let node = pattern.variable_node(&b.descendant_var).expect("bound");
            let var = interner.get(&b.descendant_var).expect("interned variable");
            let source = match pattern.node(node).test() {
                NodeTest::Attribute(name) => NodeSource::Attribute(name.as_str().into()),
                _ => NodeSource::Element,
            };
            let key = node_key(b.descendant, var, &source);
            assert_eq!(
                values.get(&key).map(String::as_str),
                Some(binding_string_value(doc, pattern, node, b.descendant).as_str()),
                "RdocW value of {} at {}",
                b.descendant_var,
                b.descendant
            );
        }
    }
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
    let compared = front_equals_dom_reference(&engine_of(queries), &docs);
    assert!(
        compared.rows > 0 && compared.witnesses > 0,
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
    let compared = front_equals_dom_reference(&engine_of(queries), &docs);
    assert!(compared.rows > 0, "the comparison must not be vacuous");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same differential on random documents from the parser
    /// generator: nesting, repeated tags, attributes, CDATA and empty
    /// elements in shapes no workload produces.
    #[test]
    fn front_equals_dom_reference_on_random_xml(ops in ops_strategy()) {
        let doc = parse_document(&render_xml(&ops)).expect("DOM parser accepts rendered doc");
        front_equals_dom_reference(&random_xml_engine(), &[doc]);
    }
}

/// The query set of the random-XML sweeps. Besides descendant chains it
/// holds a single-block pattern matching the root (so a root-only document
/// must match), and attribute-step join queries binding the root's `@a` and
/// `@b` next to a join on the root element itself (so one element carries an
/// element binding and two attribute bindings, each with its own value).
/// The last join query's reduced tree skips the unbound `t5` step, so it
/// requests a multi-step chain edge.
const RANDOM_XML_QUERIES: [&str; 9] = [
    "S//r->a[.//t0->b] FOLLOWED BY{b=d, 100} S//t1->c[.//t2->d]",
    "S//t0->e[.//t3->f][.//t4->g] JOIN{f=h AND g=i, 100} S//r->j[.//t5->h][.//t1->i]",
    "S//t2->k[.//t2->l] FOLLOWED BY{l=n, 100} S//t3->m[.//t0->n]",
    "S//r->a[./@a->b][./@b->c] FOLLOWED BY{b=e AND c=f, 100} S//t3->d[./@a->e][./@b->f]",
    "S//r->x FOLLOWED BY{x=y, 100} S//t1->y",
    "S//t1[.//t2]",
    "S//r[.//t0][.//t5]",
    "S//r",
    "S//t0->a[.//t5->m[.//t1->b]][.//t2->c] FOLLOWED BY{b=d AND c=e, 100} S//t3->x[.//t1->d][.//t2->e]",
];

fn random_xml_engine() -> MmqjpEngine {
    engine_of(RANDOM_XML_QUERIES.map(|q| parse_query(q).expect("query parses")))
}

/// The ingest differential on its own, over the three document sources:
/// the RSS workload, the complex-schema workload and a seeded run of the
/// random-XML generator. Covers self edges (single-node join sides),
/// multi-step chain edges (reduced trees skip unbound intermediate nodes)
/// and patterns sharing canonical variables (the RSS query generator reuses
/// its item schema, so the front leaves out rows there), all through
/// [`ingest_equals_reference`].
#[test]
fn integer_rows_equal_reference_ingest() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut rss_queries = RssQueryGenerator::new(0.8).generate_queries(24, &mut rng);
    rss_queries.extend(RSS_SUBSCRIPTIONS.map(|s| parse_query(s).expect("subscription parses")));
    let rss_docs = RssStreamGenerator::new(RssStreamConfig {
        items: 40,
        ..RssStreamConfig::default()
    })
    .documents();

    let complex = ComplexSchemaWorkload::new(4, 3, 0.8);
    let complex_queries = complex.generate_queries(24, &mut rng);
    let complex_docs: Vec<Document> = (1..=4).map(|ts| complex.document(ts)).collect();

    let random_docs: Vec<Document> = (0..64)
        .map(|_| {
            let len = rng.gen_range(0..24);
            let ops: Vec<Op> = (0..len)
                .map(|_| Op {
                    kind: rng.gen_range(0..9),
                    tag: rng.gen_range(0..6),
                    value: rng.gen_range(0..40),
                })
                .collect();
            parse_document(&render_xml(&ops)).expect("DOM parser accepts rendered doc")
        })
        .collect();

    let sources = [
        (engine_of(rss_queries), rss_docs),
        (engine_of(complex_queries), complex_docs),
        (random_xml_engine(), random_docs),
    ];
    let (mut self_edges, mut chain_edges, mut omitted) = (0, 0, 0);
    for (engine, docs) in sources {
        let compared = front_equals_dom_reference(&engine, &docs);
        assert!(compared.rows > 0, "the comparison must not be vacuous");
        omitted += compared.omitted;
        for (pid, edges) in engine.stage1_table().requested().iter() {
            let pattern = engine.stage1_table().index().pattern(*pid);
            for &(a, d) in edges.iter().map(|e| &e.edge) {
                self_edges += usize::from(a == d);
                chain_edges += usize::from(a != d && pattern.node(d).parent() != Some(a));
            }
        }
    }
    assert!(
        self_edges > 0 && chain_edges > 0,
        "self and chain edges are covered"
    );
    assert!(omitted > 0, "edge classes suppress some enumeration");
}

// ---------------------------------------------------------------------------
// Regressions: root-only documents and attribute bindings
// ---------------------------------------------------------------------------

/// A document that is only its root element matches like any other: the
/// shared automaton used to skip it entirely.
#[test]
fn root_only_document_matches_in_every_mode() {
    let query = "S//book->b[./@isbn->i] FOLLOWED BY{i=r, 100} S//blog->g[.//isbn_ref->r]";
    for mode in all_modes() {
        let mut engine = MmqjpEngine::new(EngineConfig {
            mode,
            ..EngineConfig::default()
        });
        engine.register_query_text(query).expect("query registers");
        engine
            .register_query_text("S//book")
            .expect("subscription registers");
        let book = parse_document(r#"<book isbn="123">Foo</book>"#).expect("parses");
        let blog = parse_document("<blog><isbn_ref>123</isbn_ref></blog>").expect("parses");
        let first = engine
            .process_document(book.with_timestamp(Timestamp(1)))
            .unwrap();
        assert_eq!(
            first.len(),
            1,
            "{mode:?}: the single-block subscription matches"
        );
        let second = engine
            .process_document(blog.with_timestamp(Timestamp(2)))
            .unwrap();
        assert_eq!(second.len(), 1, "{mode:?}: the join matches");
        assert_audit_clean(&engine);
    }
}

/// An attribute binding and an element binding of one element keep their
/// own values: each query matches when registered together, as it does
/// alone.
#[test]
fn attribute_and_element_bindings_of_one_element_keep_their_values() {
    let by_isbn = "S//book->b[./@isbn->i] FOLLOWED BY{i=r, 100} S//blog->g[.//isbn_ref->r]";
    let by_text = "S//book->x FOLLOWED BY{x=t, 100} S//blog->g[.//note->t]";
    let stream = || {
        [
            r#"<book isbn="123"><t>Foo</t></book>"#,
            "<blog><isbn_ref>123</isbn_ref><note>Foo</note></blog>",
        ]
        .iter()
        .zip(1..)
        .map(|(xml, ts)| {
            parse_document(xml)
                .expect("parses")
                .with_timestamp(Timestamp(ts))
        })
        .collect::<Vec<_>>()
    };
    for mode in all_modes() {
        let mut engine = MmqjpEngine::new(EngineConfig {
            mode,
            ..EngineConfig::default()
        });
        let ids = [by_isbn, by_text].map(|q| engine.register_query_text(q).expect("registers"));
        let mut matched: Vec<_> = stream()
            .into_iter()
            .flat_map(|doc| engine.process_document(doc).unwrap())
            .map(|m| m.query)
            .collect();
        matched.sort();
        assert_eq!(matched, ids.to_vec(), "{mode:?}: both queries match");
        assert_audit_clean(&engine);
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
