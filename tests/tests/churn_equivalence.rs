//! Differential equivalence harness for online subscription churn.
//!
//! The certified crux: after **any** interleaving of registers, unregisters
//! and documents, the engine's matches are byte-identical (modulo the query-
//! id renumbering the harness reverses) to a *fresh* engine that only ever
//! held the surviving queries — each registered at the same position in the
//! document stream — fed the same documents. Matches produced by doomed
//! queries during their lifetime are exactly the rows filtered out; nothing
//! else may differ.
//!
//! Every scripted scenario runs across Sequential / MMQJP / MMQJP+VM, both
//! on the single `MmqjpEngine` and on `ShardedEngine` with 1 / 2 / 4 shards
//! (where churned and reference engines may even place the same query on
//! *different* shards, since ids differ — the canonical merge order must
//! absorb that too). Each scenario also accounts for the registry's shape
//! memo: on a single engine, registering a clause (window aside) that a
//! live query already holds is a reuse, and every other registration builds
//! its shape. And every script is replayed once more on a single engine and
//! a one-shard `ShardedEngine` side by side, whose Stage-1 tables — the
//! registry's and the coordinator's — must agree after every step. Both
//! engines of every differential pass the invariant audit after every step.

use mmqjp_core::{
    sort_matches, CoreError, EngineConfig, EngineStats, MatchOutput, MmqjpEngine, QueryId,
    ShardedEngine,
};
use mmqjp_integration_tests::all_modes;
use mmqjp_xml::{rss, Document, Timestamp};
use mmqjp_xscl::{parse_query, FromClause, Window};
use std::collections::{HashMap, HashSet};

/// One step of a churn script.
#[derive(Debug, Clone)]
enum Op {
    /// Register this query text; its ordinal is its position among `Reg`
    /// ops.
    Reg(&'static str),
    /// Unregister the query registered by the n-th `Reg` op.
    Unreg(usize),
    /// Process one document.
    Doc(Document),
}

/// A single or sharded engine behind one interface, so every scenario runs
/// against both.
enum AnyEngine {
    Single(Box<MmqjpEngine>),
    Sharded(Box<ShardedEngine>),
}

impl AnyEngine {
    fn register(&mut self, text: &str) -> QueryId {
        match self {
            AnyEngine::Single(e) => e.register_query_text(text).expect("query registers"),
            AnyEngine::Sharded(e) => e.register_query_text(text).expect("query registers"),
        }
    }

    fn unregister(&mut self, id: QueryId) -> Result<(), CoreError> {
        match self {
            AnyEngine::Single(e) => e.unregister_query(id),
            AnyEngine::Sharded(e) => e.unregister_query(id),
        }
    }

    fn process(&mut self, doc: Document) -> Vec<MatchOutput> {
        match self {
            AnyEngine::Single(e) => e.process_document(doc).expect("document processes"),
            AnyEngine::Sharded(e) => e.process_document(doc).expect("document processes"),
        }
    }

    fn stats(&self) -> EngineStats {
        match self {
            AnyEngine::Single(e) => e.stats(),
            AnyEngine::Sharded(e) => e.stats().expect("shards answer"),
        }
    }

    /// Assert the engine's invariant audit comes back clean.
    fn assert_audit_clean(&self) {
        match self {
            AnyEngine::Single(e) => mmqjp_integration_tests::assert_audit_clean(e),
            AnyEngine::Sharded(e) => mmqjp_integration_tests::assert_audit_clean_sharded(e),
        }
    }

    /// Assert the shape memo's counters: every registration built or reused
    /// a shape, and — on a single engine, whose one registry sees every
    /// query — exactly `reuses` of them found their clause live.
    fn assert_shape_accounting(&self, registrations: usize, reuses: usize, label: &str) {
        let stats = self.stats();
        assert_eq!(
            stats.shapes_built + stats.shapes_reused,
            registrations,
            "{label}: every registration builds or reuses a shape"
        );
        if let AnyEngine::Single(_) = self {
            assert_eq!(
                stats.shapes_reused, reuses,
                "{label}: re-registering a live clause reuses its shape"
            );
        }
    }
}

/// The shape-memo key of a query text: its `FROM` clause, window blanked.
fn shape_key(text: &str) -> FromClause {
    let mut from = parse_query(text).expect("query parses").from;
    if let FromClause::Join { window, .. } = &mut from {
        *window = Window::Infinite;
    }
    from
}

/// Live queries per shape key, counting the registrations that found their
/// key live.
#[derive(Default)]
struct LiveShapes {
    live: HashMap<FromClause, usize>,
    registrations: usize,
    reuses: usize,
}

impl LiveShapes {
    fn register(&mut self, text: &str) {
        let count = self.live.entry(shape_key(text)).or_insert(0);
        self.reuses += usize::from(*count > 0);
        self.registrations += 1;
        *count += 1;
    }

    fn unregister(&mut self, text: &str) {
        *self
            .live
            .get_mut(&shape_key(text))
            .expect("unregistered texts were registered") -= 1;
    }
}

/// Run one script differentially on one engine constructor: the churned
/// engine replays the whole script; the reference engine replays it with the
/// doomed queries' registrations (and all unregisters) removed. At every
/// document, the churned matches restricted to surviving queries must be
/// byte-identical to the reference matches (after mapping reference ids back
/// to churned ids), in canonical order.
fn run_differential(mut make: impl FnMut() -> AnyEngine, script: &[Op], label: &str) {
    // Which Reg ordinals get unregistered somewhere in the script.
    let doomed: HashSet<usize> = script
        .iter()
        .filter_map(|op| match op {
            Op::Unreg(n) => Some(*n),
            _ => None,
        })
        .collect();

    let mut churned = make();
    let mut reference = make();
    let mut churned_ids: Vec<QueryId> = Vec::new();
    let mut survivors: HashSet<QueryId> = HashSet::new();
    let mut churned_of_ref: HashMap<QueryId, QueryId> = HashMap::new();
    let mut reg_ordinal = 0usize;
    let mut doc_count = 0usize;
    let mut texts: Vec<&str> = Vec::new();
    let (mut churned_shapes, mut reference_shapes) = (LiveShapes::default(), LiveShapes::default());

    for op in script {
        match op {
            Op::Reg(text) => {
                let cid = churned.register(text);
                churned_ids.push(cid);
                texts.push(text);
                churned_shapes.register(text);
                if !doomed.contains(&reg_ordinal) {
                    survivors.insert(cid);
                    let rid = reference.register(text);
                    churned_of_ref.insert(rid, cid);
                    reference_shapes.register(text);
                }
                reg_ordinal += 1;
            }
            Op::Unreg(n) => {
                churned
                    .unregister(churned_ids[*n])
                    .expect("scripted unregister targets are live");
                churned_shapes.unregister(texts[*n]);
            }
            Op::Doc(doc) => {
                doc_count += 1;
                let mut got: Vec<MatchOutput> = churned
                    .process(doc.clone())
                    .into_iter()
                    .filter(|m| survivors.contains(&m.query))
                    .collect();
                let mut expected: Vec<MatchOutput> = reference
                    .process(doc.clone())
                    .into_iter()
                    .map(|mut m| {
                        m.query = churned_of_ref[&m.query];
                        m
                    })
                    .collect();
                sort_matches(&mut got);
                sort_matches(&mut expected);
                assert_eq!(
                    got, expected,
                    "{label}: document #{doc_count} diverged from the survivor engine"
                );
            }
        }
        // After every register, unregister and document, every refcounted
        // structure in both engines must still balance exactly.
        churned.assert_audit_clean();
        reference.assert_audit_clean();
    }
    churned.assert_shape_accounting(
        churned_shapes.registrations,
        churned_shapes.reuses,
        &format!("{label}/churned"),
    );
    reference.assert_shape_accounting(
        reference_shapes.registrations,
        reference_shapes.reuses,
        &format!("{label}/reference"),
    );
}

/// Replay `script` on an `MmqjpEngine` and a one-shard `ShardedEngine`
/// registering the same queries in the same order: after every step the two
/// fronts' Stage-1 tables must be equal — patterns with refcounts,
/// requested-edge lists in order with their consumers, single-block
/// subscriptions and emission-plan classes.
fn assert_tables_agree(config: &EngineConfig, script: &[Op]) {
    let mut single = MmqjpEngine::new(config.clone());
    let mut sharded = ShardedEngine::new(config.clone().with_num_shards(1));
    let mut ids = Vec::new();
    let mut compiled = false;
    for (step, op) in script.iter().enumerate() {
        match op {
            Op::Reg(text) => {
                let id = single.register_query_text(text).expect("query registers");
                let twin = sharded.register_query_text(text).expect("query registers");
                assert_eq!(twin, id);
                ids.push(id);
            }
            Op::Unreg(n) => {
                single.unregister_query(ids[*n]).expect("live target");
                sharded.unregister_query(ids[*n]).expect("live target");
            }
            Op::Doc(doc) => {
                let mut expected = single.process_document(doc.clone()).expect("processes");
                sort_matches(&mut expected);
                let got = sharded.process_document(doc.clone()).expect("processes");
                assert_eq!(got, expected, "step {step}");
            }
        }
        let snapshot = single.stage1_table().snapshot();
        compiled |= !snapshot.classes.is_empty();
        assert_eq!(sharded.stage1_table().snapshot(), snapshot, "step {step}");
    }
    assert!(compiled, "the tables held requested edges at some step");
}

/// Run a script differentially across every mode × {single, sharded 1/2/4},
/// and check the two engines' Stage-1 tables agree throughout.
fn assert_equivalence(script: &[Op]) {
    assert_tables_agree(&EngineConfig::default(), script);
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let c = config.clone();
        run_differential(
            move || AnyEngine::Single(Box::new(MmqjpEngine::new(c.clone()))),
            script,
            &format!("{mode:?}/single"),
        );
        for shards in [1usize, 2, 4] {
            let c = config.clone().with_num_shards(shards);
            run_differential(
                move || AnyEngine::Sharded(Box::new(ShardedEngine::new(c.clone()))),
                script,
                &format!("{mode:?}/sharded({shards})"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Q1 with a 100-unit window: book followed by a same-author same-title
/// blog article.
const Q_BOOK_BLOG: &str = "S//book->x1[.//author->x2][.//title->x3] \
    FOLLOWED BY{x2=x5 AND x3=x6, 100} \
    S//blog->x4[.//author->x5][.//title->x6]";
/// Q_BOOK_BLOG's clause under a 25-unit window: the same shape.
const Q_BOOK_BLOG_NARROW: &str = "S//book->x1[.//author->x2][.//title->x3] \
    FOLLOWED BY{x2=x5 AND x3=x6, 25} \
    S//blog->x4[.//author->x5][.//title->x6]";
/// Q2: same author, same category (shares the template of Q_BOOK_BLOG).
const Q_BOOK_BLOG_CAT: &str = "S//book->x1[.//author->x2][.//category->x7] \
    FOLLOWED BY{x2=x5 AND x7=x8, 100} \
    S//blog->x4[.//author->x5][.//category->x8]";
/// Q3: blog-blog self join, window 300 — the widest window of the suite.
const Q_BLOG_BLOG_WIDE: &str = "S//blog->x4[.//author->x5][.//title->x6] \
    FOLLOWED BY{x5=x5' AND x6=x6', 300} \
    S//blog->x4'[.//author->x5'][.//title->x6']";
/// A narrow-window title join.
const Q_TITLE_NARROW: &str =
    "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 20} S//blog->x4[.//title->x6]";
/// A symmetric JOIN query (two orientations).
const Q_TITLE_JOIN: &str = "S//item->a[.//title->t1] JOIN{t1=t2, 100} S//post->b[.//title->t2]";
/// A single-block subscription that stays registered throughout.
const Q_SINGLE: &str = "S//blog[.//author]";

fn book(ts: u64) -> Document {
    rss::book_announcement(
        &["Danny Ayers", "Andrew Watt"],
        "Beginning RSS and Atom Programming",
        &["Scripting & Programming", "Web Site Development"],
        "Wrox",
        "0764579169",
    )
    .with_timestamp(Timestamp(ts))
}

fn blog(ts: u64) -> Document {
    rss::blog_article(
        "Danny Ayers",
        "http://dannyayers.com/topics/books/rss-book",
        "Beginning RSS and Atom Programming",
        "Scripting & Programming",
        "Just heard ...",
    )
    .with_timestamp(Timestamp(ts))
}

// ---------------------------------------------------------------------------
// Scripted scenarios
// ---------------------------------------------------------------------------

#[test]
fn unregister_mid_window_drops_only_the_departed_query() {
    // Q0 and Q1 share one template; Q0 departs *between* the book and the
    // blog article, with live join state for both in the window.
    assert_equivalence(&[
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_BOOK_BLOG_CAT),
        Op::Reg(Q_SINGLE),
        Op::Doc(book(10)),
        Op::Unreg(0),
        Op::Doc(blog(20)),
        Op::Doc(book(30)),
        Op::Doc(blog(40)),
    ]);
}

#[test]
fn unregister_last_member_of_a_shared_template() {
    // Both members of the shared template depart one after the other; the
    // template is retired mid-stream while the single-block subscription
    // keeps the document flow observable.
    assert_equivalence(&[
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_BOOK_BLOG_CAT),
        Op::Reg(Q_SINGLE),
        Op::Doc(book(10)),
        Op::Doc(blog(20)),
        Op::Unreg(1),
        Op::Doc(book(30)),
        Op::Unreg(0),
        Op::Doc(blog(40)),
        Op::Doc(book(50)),
        Op::Doc(blog(60)),
    ]);
}

#[test]
fn unregister_the_widest_window_query() {
    // The 300-unit blog-blog query departs; retention tightens to the
    // 20-unit window, and the narrow query's matches must be unaffected —
    // including across a gap that the tightened retention now evicts.
    assert_equivalence(&[
        Op::Reg(Q_TITLE_NARROW),
        Op::Reg(Q_BLOG_BLOG_WIDE),
        Op::Doc(book(10)),
        Op::Doc(blog(21)),
        Op::Doc(blog(40)),
        Op::Unreg(1),
        Op::Doc(book(200)),
        Op::Doc(blog(210)),
        Op::Doc(blog(500)),
    ]);
}

#[test]
fn reregister_an_isomorphic_query() {
    // Q0 departs and an isomorphic twin arrives later: the twin gets a
    // fresh id and a fresh template, and only joins documents that arrived
    // after its own registration — exactly like the reference engine where
    // it is the only book-blog query ever registered.
    assert_equivalence(&[
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_SINGLE),
        Op::Doc(book(10)),
        Op::Doc(blog(20)),
        Op::Unreg(0),
        Op::Doc(book(30)),
        Op::Reg(Q_BOOK_BLOG),
        Op::Doc(book(40)),
        Op::Doc(blog(50)),
        Op::Doc(blog(60)),
    ]);
}

#[test]
fn twins_of_a_live_query_reuse_its_shape() {
    // Q0's clause arrives again — under another window — while Q0 is live,
    // Q0 departs, and a third copy arrives while the twin still holds the
    // shape: both later registrations are reuses, and each twin joins only
    // the documents after its own registration, with its own window.
    assert_equivalence(&[
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_SINGLE),
        Op::Doc(book(10)),
        Op::Reg(Q_BOOK_BLOG_NARROW),
        Op::Doc(blog(20)),
        Op::Doc(book(30)),
        Op::Unreg(0),
        Op::Doc(blog(40)),
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_SINGLE),
        Op::Doc(book(50)),
        Op::Doc(blog(90)),
        Op::Doc(blog(200)),
    ]);
    let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
    e.register_query_text(Q_BOOK_BLOG).unwrap();
    e.register_query_text(Q_BOOK_BLOG_NARROW).unwrap();
    let stats = e.stats();
    assert_eq!((stats.shapes_built, stats.shapes_reused), (1, 1));
}

#[test]
fn a_member_swapped_between_batches_rebuilds_the_kept_rt_table() {
    // Four members of one template, alternating title and category joins,
    // so `RT` outgrows the batch's atoms and its plan keeps a join table over
    // it across batches. Q0 departs and a twin arrives between two batches:
    // `RT` holds four rows before and after, every key in a new position, so
    // only `RT`'s version — not its row count — can tell the table is stale.
    let script = [
        Op::Reg(Q_BOOK_BLOG),
        Op::Reg(Q_BOOK_BLOG_CAT),
        Op::Reg(Q_BOOK_BLOG_NARROW),
        Op::Reg(Q_BOOK_BLOG_CAT),
        Op::Doc(book(10)),
        Op::Doc(blog(20)),
        Op::Doc(book(30)),
        Op::Doc(blog(40)),
        Op::Unreg(0),
        Op::Reg(Q_BOOK_BLOG),
        Op::Doc(book(50)),
        Op::Doc(blog(60)),
        Op::Doc(blog(70)),
    ];
    assert_equivalence(&script);
    // The scenario detects a stale table only while the swap meets a kept
    // one: each mode's template plan probes a kept `RT` table before the
    // swap and again after it.
    for config in [EngineConfig::mmqjp(), EngineConfig::mmqjp_view_mat()] {
        let mode = config.mode;
        let mut e = MmqjpEngine::new(config);
        let (swap, mut ids) = (8, Vec::new());
        let mut before = EngineStats::default();
        for (step, op) in script.iter().enumerate() {
            if step == swap {
                before = e.stats();
            }
            match op {
                Op::Reg(text) => ids.push(e.register_query_text(text).expect("registers")),
                Op::Unreg(n) => e.unregister_query(ids[*n]).expect("live target"),
                Op::Doc(doc) => {
                    e.process_document(doc.clone()).expect("processes");
                }
            }
        }
        let after = e.stats();
        assert!(before.join_tables_kept > 0, "{mode:?}: {before:?}");
        assert!(after.join_tables_kept > before.join_tables_kept, "{mode:?}");
    }
}

#[test]
fn unregister_a_symmetric_join_query() {
    // A JOIN query holds two orientations (possibly in two templates);
    // unregistering it must release both.
    let item = |ts: u64| {
        let mut b = mmqjp_xml::DocumentBuilder::new("item");
        b.child_text("title", "shared");
        b.finish().with_timestamp(Timestamp(ts))
    };
    let post = |ts: u64| {
        let mut b = mmqjp_xml::DocumentBuilder::new("post");
        b.child_text("title", "shared");
        b.finish().with_timestamp(Timestamp(ts))
    };
    assert_equivalence(&[
        Op::Reg(Q_TITLE_JOIN),
        Op::Reg(Q_SINGLE),
        Op::Doc(item(10)),
        Op::Doc(post(20)),
        Op::Unreg(0),
        Op::Doc(item(30)),
        Op::Doc(post(40)),
    ]);
}

#[test]
fn interleaved_churn_with_windowed_pruning() {
    // Churn under windowed eviction: eviction, retention tightening and
    // unregistration interleave on one stream.
    let script = [
        Op::Reg(Q_TITLE_NARROW),
        Op::Reg(Q_BOOK_BLOG),
        Op::Doc(book(10)),
        Op::Doc(blog(25)),
        Op::Reg(Q_BLOG_BLOG_WIDE),
        Op::Doc(blog(60)),
        Op::Unreg(1),
        Op::Doc(book(90)),
        Op::Doc(blog(100)),
        Op::Unreg(2),
        Op::Doc(blog(120)),
        Op::Reg(Q_BOOK_BLOG_CAT),
        Op::Doc(book(400)),
        Op::Doc(blog(410)),
    ];
    assert_tables_agree(&EngineConfig::default(), &script);
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let c = config.clone();
        run_differential(
            move || AnyEngine::Single(Box::new(MmqjpEngine::new(c.clone()))),
            &script,
            &format!("{mode:?}/single/pruned"),
        );
        for shards in [1usize, 2, 4] {
            let c = config.clone().with_num_shards(shards);
            run_differential(
                move || AnyEngine::Sharded(Box::new(ShardedEngine::new(c.clone()))),
                &script,
                &format!("{mode:?}/sharded({shards})/pruned"),
            );
        }
    }
}

#[test]
fn churned_engine_stats_stay_exact() {
    // One concrete script, checked against the lifecycle counters.
    let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
    let a = e.register_query_text(Q_BOOK_BLOG).unwrap();
    let b = e.register_query_text(Q_BOOK_BLOG_CAT).unwrap();
    e.process_document(book(10)).unwrap();
    e.process_document(blog(20)).unwrap();
    e.unregister_query(a).unwrap();
    e.unregister_query(b).unwrap();
    let c = e.register_query_text(Q_BOOK_BLOG).unwrap();
    assert!(c > b, "freed ids are never reused");
    let stats = e.stats();
    assert_eq!(stats.queries_registered, 1);
    assert_eq!(stats.queries_unregistered, 2);
    assert_eq!(stats.templates, 1);
    assert_eq!(stats.templates_retired, 1);
    assert_eq!(stats.distinct_patterns, 2);
    assert_eq!(stats.patterns_dropped, 4);
    // The re-registration came after its clause's last subscriber left, so
    // it rebuilt the shape; a twin of a live query reuses it.
    assert_eq!((stats.shapes_built, stats.shapes_reused), (3, 0));
    e.register_query_text(Q_BOOK_BLOG).unwrap();
    let stats = e.stats();
    assert_eq!((stats.shapes_built, stats.shapes_reused), (3, 1));
    assert_eq!(stats.templates, 1);
    mmqjp_integration_tests::assert_audit_clean(&e);
}
