//! Integration of the full pipeline from raw XML text to query matches:
//! XML parsing (`mmqjp-xml`) → tree-pattern evaluation (`mmqjp-xpath`) →
//! XSCL analysis (`mmqjp-xscl`) → template-shared join processing
//! (`mmqjp-core`).

use mmqjp_core::{EngineConfig, MmqjpEngine};
use mmqjp_integration_tests::reference::{self, sorted_rows};
use mmqjp_relational::{
    Atom, ConjunctiveQuery, ExecScratch, PhysicalPlan, PlanInput, Relation, Schema, StringInterner,
    Term, Value,
};
use mmqjp_xml::{parse_document, parse_document_streaming, Timestamp};
use mmqjp_xpath::{parse_pattern, PatternMatcher};
use mmqjp_xscl::{normalize_query, parse_query, JoinGraph, ReducedGraph, TemplateCatalog};

const BOOK_XML: &str = r#"<?xml version="1.0"?>
<book isbn="0764579169">
  <author>Danny Ayers</author>
  <author>Andrew Watt</author>
  <title>Beginning RSS and Atom Programming</title>
  <category>Scripting &amp; Programming</category>
</book>"#;

const BLOG_XML: &str = r#"<blog>
  <author>Danny Ayers</author>
  <title>Beginning RSS and Atom Programming</title>
  <category>Book Announcement</category>
  <description>Just heard ...</description>
</blog>"#;

#[test]
fn raw_xml_to_matches() {
    let mut engine = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
    engine
        .register_query_text(
            "S//book->b[.//author->a][.//title->t] \
             FOLLOWED BY{a=a2 AND t=t2, 100} \
             S//blog->g[.//author->a2][.//title->t2]",
        )
        .unwrap();

    let book = parse_document(BOOK_XML)
        .unwrap()
        .with_timestamp(Timestamp(1));
    let blog = parse_document(BLOG_XML)
        .unwrap()
        .with_timestamp(Timestamp(2));

    assert!(engine.process_document(book).unwrap().is_empty());
    let matches = engine.process_document(blog).unwrap();
    assert_eq!(matches.len(), 1);
    let doc = matches[0].document.as_ref().unwrap();
    assert_eq!(doc.root().children().len(), 2);
}

#[test]
fn xpath_witnesses_feed_the_relational_layer() {
    // Manually drive Stage 1 and Stage 2 for one query, mirroring what the
    // engine does internally, to validate the crate boundaries.
    let doc = parse_document(BOOK_XML).unwrap();
    // Leave the nodes anonymous so canonical (definition-path) variable names
    // are assigned, as the engine does at registration time.
    let mut pattern = parse_pattern("S//book[.//author]").unwrap();
    pattern.assign_canonical_variables();
    let matcher = PatternMatcher::new(&pattern);
    let bindings = matcher.all_edge_bindings(&doc);
    assert_eq!(bindings.len(), 2); // two authors

    // Load the bindings into a relation (variable names interned, as the
    // engine does) and run a compiled conjunctive query over it.
    let interner = StringInterner::new();
    let var = |name: &str| Value::Sym(interner.intern(name));
    let mut rel = Relation::new(Schema::new(["var1", "var2", "node1", "node2"]));
    for b in &bindings {
        rel.push_array([
            var(&b.ancestor_var),
            var(&b.descendant_var),
            Value::from(b.ancestor.raw()),
            Value::from(b.descendant.raw()),
        ])
        .unwrap();
    }
    let q = ConjunctiveQuery::new(["N"]).atom(Atom::new(
        "bindings",
        [
            Term::constant(var("_S//book")),
            Term::constant(var("_S//book//author")),
            Term::var("Root"),
            Term::var("N"),
        ],
    ));
    let mut plan = PhysicalPlan::compile(&q, |_| Some(4)).unwrap();
    let result = plan
        .execute(&[PlanInput::from(&rel)], &mut ExecScratch::new(), false)
        .unwrap();
    let expected = reference::evaluate(&q, &[("bindings", &rel)]);
    assert_eq!(sorted_rows(&result), expected);
    let authors: Vec<Vec<Value>> = bindings
        .iter()
        .map(|b| vec![Value::from(b.descendant.raw())])
        .collect();
    assert_eq!(expected, authors);
}

#[test]
fn xscl_analysis_pipeline_is_consistent_with_engine_registration() {
    let text = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    // Manual analysis path.
    let normalized = normalize_query(&parse_query(text).unwrap()).unwrap();
    let graph = JoinGraph::from_query(&normalized.query).unwrap();
    let reduced = ReducedGraph::from_join_graph(&graph);
    let mut catalog = TemplateCatalog::new();
    let membership = catalog.insert(&reduced);
    assert_eq!(catalog.template(membership.template).num_meta_vars(), 6);

    // Engine path: the engine must arrive at a template of the same shape.
    let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
    engine.register_query_text(text).unwrap();
    let engine_template = &engine.registry().templates().next().unwrap().template;
    assert_eq!(engine_template.num_meta_vars(), 6);
    assert_eq!(engine_template.num_left(), 3);
    assert!(mmqjp_xscl::template::isomorphism(&reduced, &engine_template.graph).is_some());
}

#[test]
fn malformed_inputs_are_rejected_across_layers() {
    // XML layer.
    assert!(parse_document("<a><b></a>").is_err());
    // XPath layer.
    assert!(parse_pattern("S//a[").is_err());
    // XSCL layer.
    assert!(parse_query("S//a->x FOLLOWED BY{, 10} S//b->y").is_err());
    // Engine layer: predicates over unbound variables.
    let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
    assert!(engine
        .register_query_text("S//a->x FOLLOWED BY{zz=y, 10} S//b->y")
        .is_err());
    // Registering a valid query still works afterwards.
    assert!(engine
        .register_query_text("S//a->x FOLLOWED BY{x=y, 10} S//b->y")
        .is_ok());
}

/// A value join on the outer element of a deeply nested document reads its
/// whole subtree's string value and copies the subtree into the output; both
/// must work on a small stack.
#[test]
fn value_join_on_a_deep_document_fits_a_small_stack() {
    const DEPTH: usize = 100_000;
    std::thread::Builder::new()
        .stack_size(1024 * 1024)
        .spawn(|| {
            let mut engine = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
            engine
                .register_query_text("S//deep->x FOLLOWED BY{x=y, 100} S//flat->y")
                .unwrap();
            let xml = format!(
                "<deep>{}v{}</deep>",
                "<n>".repeat(DEPTH),
                "</n>".repeat(DEPTH)
            );
            let deep = parse_document_streaming(&xml)
                .unwrap()
                .with_timestamp(Timestamp(1));
            let flat = parse_document("<flat>v</flat>")
                .unwrap()
                .with_timestamp(Timestamp(2));
            assert!(engine.process_document(deep).unwrap().is_empty());
            let matches = engine.process_document(flat).unwrap();
            assert_eq!(matches.len(), 1);
            let out = matches[0].document.as_ref().unwrap();
            assert_eq!(out.len(), 1 + (DEPTH + 1) + 1);
            assert_eq!(out.string_value(out.root().children()[0]), "v");
            assert!(engine.audit().is_empty());
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn attribute_values_participate_in_joins() {
    let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
    // Join the book's isbn attribute value against a blog post that quotes
    // the same isbn in its text.
    engine
        .register_query_text(
            "S//book->b[./@isbn->i] FOLLOWED BY{i=r, 100} S//blog->g[.//isbn_ref->r]",
        )
        .unwrap();
    let book = parse_document(BOOK_XML)
        .unwrap()
        .with_timestamp(Timestamp(1));
    let blog =
        parse_document("<blog><author>Someone</author><isbn_ref>0764579169</isbn_ref></blog>")
            .unwrap()
            .with_timestamp(Timestamp(2));
    assert!(engine.process_document(book).unwrap().is_empty());
    let out = engine.process_document(blog).unwrap();
    assert_eq!(out.len(), 1);
}
