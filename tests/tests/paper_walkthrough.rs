//! End-to-end reproduction of the paper's running example: the queries of
//! Tables 1–2 against the documents of Figures 1–2, following the
//! Section 4.4.1 walkthrough and the Table 4 relation contents.

use mmqjp_core::QueryId;
use mmqjp_integration_tests::{all_modes, d1, d2, engine_with_queries, Q1, Q2, Q3};
use mmqjp_xml::{serialize, NodeId};

#[test]
fn three_example_queries_share_one_template_with_six_meta_variables() {
    for mode in all_modes() {
        let engine = engine_with_queries(mode, &[Q1, Q2, Q3]);
        assert_eq!(engine.num_queries(), 3);
        assert_eq!(engine.num_templates(), 1, "mode {mode:?}");
        let template = engine.registry().templates().next().unwrap();
        assert_eq!(template.template.num_meta_vars(), 6);
        // RT mirrors Table 4(a): one tuple per query, qid + 6 vars + wl.
        assert_eq!(template.rt().len(), 3);
        assert_eq!(template.rt().schema().arity(), 8);
    }
}

#[test]
fn walkthrough_produces_q1_and_q2_matches_only() {
    for mode in all_modes() {
        let mut engine = engine_with_queries(mode, &[Q1, Q2, Q3]);
        // d1 is the first event: Rdoc/Rbin are empty, no results (§4.4.1).
        let first = engine.process_document(d1()).unwrap();
        assert!(first.is_empty(), "mode {mode:?}");
        // d2 arrives: Q1 and Q2 produce one output each; Q3 (two blog
        // postings) does not fire.
        let out = engine.process_document(d2()).unwrap();
        let mut fired: Vec<u64> = out.iter().map(|m| m.query.raw()).collect();
        fired.sort_unstable();
        assert_eq!(fired, vec![0, 1], "mode {mode:?}");
    }
}

#[test]
fn q1_output_document_contains_both_subtrees() {
    let mut engine = engine_with_queries(mmqjp_core::ProcessingMode::Mmqjp, &[Q1]);
    engine.process_document(d1()).unwrap();
    let out = engine.process_document(d2()).unwrap();
    assert_eq!(out.len(), 1);
    let doc = out[0]
        .document
        .as_ref()
        .expect("SELECT * constructs a document");
    // "The root of the output document has two subtrees, where the first
    // corresponds to the subtree rooted at the book element in d1, and the
    // second to the subtree rooted at the blog element in d2."
    assert_eq!(doc.root().tag(), "result");
    let children = doc.root().children();
    assert_eq!(children.len(), 2);
    assert_eq!(doc.node(children[0]).tag(), "book");
    assert_eq!(doc.node(children[1]).tag(), "blog");
    let xml = serialize(doc);
    assert!(xml.contains("<author>Danny Ayers</author>"));
    assert!(xml.contains("Beginning RSS and Atom Programming"));
}

#[test]
fn q1_bindings_identify_the_matching_author() {
    let mut engine = engine_with_queries(mmqjp_core::ProcessingMode::MmqjpViewMat, &[Q1]);
    engine.process_document(d1()).unwrap();
    let out = engine.process_document(d2()).unwrap();
    assert_eq!(out.len(), 1);
    let m = &out[0];
    assert_eq!(m.query, QueryId(0));
    // In our Figure-1 fixture Danny Ayers is node 1 of the book document
    // (the paper numbers its authors 2 and 3 because it includes attribute
    // nodes; the pre-order property is the same).
    let author = m.binding("S//book//author").unwrap();
    assert_eq!(author.node, NodeId::from_raw(1));
    let title = m.binding("S//book//title").unwrap();
    assert_eq!(title.node, NodeId::from_raw(3));
    // Blog-side bindings point into d2.
    let blog_author = m.binding("S//blog//author").unwrap();
    assert_eq!(blog_author.doc, m.right_doc);
}

#[test]
fn q3_fires_on_a_pair_of_blog_postings() {
    for mode in all_modes() {
        let mut engine = engine_with_queries(mode, &[Q3]);
        engine.process_document(d2()).unwrap();
        // A second posting by the same author with the same title.
        let repost = d2().with_timestamp(mmqjp_xml::Timestamp(40));
        let out = engine.process_document(repost).unwrap();
        assert_eq!(out.len(), 1, "mode {mode:?}");
        assert_eq!(out[0].query, QueryId(0));
    }
}

#[test]
fn order_matters_for_followed_by() {
    for mode in all_modes() {
        let mut engine = engine_with_queries(mode, &[Q1, Q2]);
        // Blog article first, book announcement second: nothing fires.
        engine
            .process_document(d2().with_timestamp(mmqjp_xml::Timestamp(5)))
            .unwrap();
        let out = engine
            .process_document(d1().with_timestamp(mmqjp_xml::Timestamp(9)))
            .unwrap();
        assert!(out.is_empty(), "mode {mode:?}");
    }
}

#[test]
fn witness_relations_match_table_4_shapes() {
    // After processing d1 with Q1, Q2, Q3 registered, the join state holds
    // the book document's bindings: author x2, title, category x2 string
    // values (Table 4(b)) and the corresponding variable-pair tuples
    // (Table 4(c)).
    let mut engine = engine_with_queries(mmqjp_core::ProcessingMode::Mmqjp, &[Q1, Q2, Q3]);
    engine.process_document(d1()).unwrap();
    let stats = engine.stats();
    // Five bound nodes of d1 (2 authors, 1 title, 2 categories).
    assert_eq!(stats.rdoc_tuples, 5);
    // Five variable-pair bindings (book//author x2, book//title,
    // book//category x2) — the blog-side patterns do not match d1.
    assert_eq!(stats.rbin_tuples, 5);
}
