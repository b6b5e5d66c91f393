//! Shared fixtures: the paper's running example (Figures 1–2, Tables 1–2)
//! and helpers for building engines in each processing mode.

use mmqjp_core::{
    sort_matches, AuditViolation, EngineConfig, FaultInjector, FaultPlan, MatchOutput, MmqjpEngine,
    ProcessingMode, ShardedEngine,
};
use mmqjp_xml::{rss, Document, Timestamp};

/// Q1 of Table 2: book announcement followed by a blog article from one of
/// its authors with the same title.
pub const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
    FOLLOWED BY{x2=x5 AND x3=x6, 1000} \
    S//blog->x4[.//author->x5][.//title->x6]";

/// Q2 of Table 2: same author, same category.
pub const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
    FOLLOWED BY{x2=x5 AND x7=x8, 1000} \
    S//blog->x4[.//author->x5][.//category->x8]";

/// Q3 of Table 2: a pair of blog postings by the same author with the same
/// title.
pub const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
    FOLLOWED BY{x5=x5' AND x6=x6', 1000} \
    S//blog->x4'[.//author->x5'][.//title->x6']";

/// Document d1 of Figure 1 (the book announcement), timestamp 10.
pub fn d1() -> Document {
    rss::book_announcement(
        &["Danny Ayers", "Andrew Watt"],
        "Beginning RSS and Atom Programming",
        &["Scripting & Programming", "Web Site Development"],
        "Wrox",
        "0764579169",
    )
    .with_timestamp(Timestamp(10))
}

/// Document d2 of Figure 2 (the blog article), timestamp 25. The category is
/// chosen to also satisfy Q2, as in the paper's walkthrough (Table 4(f)).
pub fn d2() -> Document {
    rss::blog_article(
        "Danny Ayers",
        "http://dannyayers.com/topics/books/rss-book",
        "Beginning RSS and Atom Programming",
        "Scripting & Programming",
        "Just heard ...",
    )
    .with_timestamp(Timestamp(25))
}

/// All three processing modes.
pub fn all_modes() -> [ProcessingMode; 3] {
    [
        ProcessingMode::Sequential,
        ProcessingMode::Mmqjp,
        ProcessingMode::MmqjpViewMat,
    ]
}

/// Shard counts the equivalence suite exercises: the degenerate single shard,
/// even splits, and a count (7) that leaves some shards nearly or completely
/// empty on small query sets.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Build an engine in the given mode with the given queries registered.
pub fn engine_with_queries(mode: ProcessingMode, queries: &[&str]) -> MmqjpEngine {
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    };
    let mut engine = MmqjpEngine::new(config);
    for q in queries {
        engine
            .register_query_text(q)
            .unwrap_or_else(|e| panic!("query {q:?} failed to register: {e}"));
    }
    engine
}

/// Render an audit's violations one per line for assertion messages.
fn render_violations(violations: &[AuditViolation]) -> String {
    violations
        .iter()
        .map(|v| format!("  - {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Assert a single engine's invariant audit comes back clean.
pub fn assert_audit_clean(engine: &MmqjpEngine) {
    let violations = engine.audit();
    assert!(
        violations.is_empty(),
        "engine invariant audit reported {} violation(s):\n{}",
        violations.len(),
        render_violations(&violations)
    );
}

/// Assert a sharded engine's invariant audit comes back clean across every
/// shard and the front stage.
pub fn assert_audit_clean_sharded(engine: &ShardedEngine) {
    let violations = engine.audit().expect("audit reaches every shard");
    assert!(
        violations.is_empty(),
        "sharded invariant audit reported {} violation(s):\n{}",
        violations.len(),
        render_violations(&violations)
    );
}

/// Run a stream of documents through an engine, collecting all matches.
/// The engine's invariant audit must come back clean afterwards.
pub fn run_stream(engine: &mut MmqjpEngine, docs: Vec<Document>) -> Vec<MatchOutput> {
    let mut out = Vec::new();
    for doc in docs {
        out.extend(engine.process_document(doc).expect("processing succeeds"));
    }
    assert_audit_clean(engine);
    out
}

/// Run a stream of documents through a sharded engine, collecting all
/// matches (each document's matches arrive already canonically ordered).
/// The cross-shard invariant audit must come back clean afterwards.
pub fn run_stream_sharded(engine: &mut ShardedEngine, docs: Vec<Document>) -> Vec<MatchOutput> {
    let mut out = Vec::new();
    for doc in docs {
        out.extend(engine.process_document(doc).expect("processing succeeds"));
    }
    assert_audit_clean_sharded(engine);
    out
}

/// Build a sharded engine from a (per-shard) config, shard count and query
/// set.
pub fn sharded_engine_with_queries(
    config: EngineConfig,
    num_shards: usize,
    queries: &[mmqjp_xscl::XsclQuery],
) -> ShardedEngine {
    let mut engine = ShardedEngine::new(config.with_num_shards(num_shards));
    // Every sharded fixture runs with a benign (empty) fault plan installed:
    // the injection plumbing must be zero-cost and non-perturbing, so every
    // equivalence assertion built on these fixtures proves exactly that.
    engine.set_fault_injector(FaultInjector::new(FaultPlan::none()));
    for q in queries {
        engine.register_query(q.clone()).expect("query registers");
    }
    engine
}

/// Run a stream through a single engine, canonically sorting each call's
/// matches the way [`ShardedEngine`] does — the result is byte-comparable
/// with [`run_stream_sharded`] on the same workload.
pub fn run_stream_sorted(engine: &mut MmqjpEngine, docs: Vec<Document>) -> Vec<MatchOutput> {
    let mut out = Vec::new();
    for doc in docs {
        let mut matches = engine.process_document(doc).expect("processing succeeds");
        sort_matches(&mut matches);
        out.extend(matches);
    }
    assert_audit_clean(engine);
    out
}

/// A comparable key for a match: `(query, left doc, right doc, sorted
/// (variable, doc, node) bindings)`.
pub type MatchKey = (u64, u64, u64, Vec<(String, u64, u32)>);

/// The [`MatchKey`] of one match. Output documents are excluded: Sequential
/// and MMQJP construct identical documents, but comparing them is redundant
/// given the bindings.
pub fn match_key(m: &MatchOutput) -> MatchKey {
    let mut bindings: Vec<(String, u64, u32)> = m
        .bindings
        .iter()
        .map(|b| (b.variable.clone(), b.doc.raw(), b.node.raw()))
        .collect();
    bindings.sort();
    (m.query.raw(), m.left_doc.raw(), m.right_doc.raw(), bindings)
}

/// Sorted match keys of a match list.
pub fn match_keys(matches: &[MatchOutput]) -> Vec<MatchKey> {
    let mut keys: Vec<_> = matches.iter().map(match_key).collect();
    keys.sort();
    keys
}
