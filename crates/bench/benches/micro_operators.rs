//! Criterion micro-benchmarks of the performance-critical building blocks:
//! relational hash joins, tree-pattern matching, witness construction,
//! template insertion and single-document engine processing.
//!
//! These are not paper figures; they guard against regressions in the
//! substrate the figures are built on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mmqjp_core::{EngineConfig, MmqjpEngine};
use mmqjp_relational::{
    ops, Atom, ConjunctiveQuery, Database, ExecScratch, PhysicalPlan, PlanInput, Relation, Schema,
    Term, Value,
};
use mmqjp_workload::{FlatSchemaWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xpath::{parse_pattern, PatternMatcher};
use mmqjp_xscl::{normalize_query, JoinGraph, ReducedGraph, TemplateCatalog};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hash_join(c: &mut Criterion) {
    let mut left = Relation::new(Schema::new(["k", "x"]));
    let mut right = Relation::new(Schema::new(["k", "y"]));
    for i in 0..2000i64 {
        left.push_values(vec![Value::Int(i % 200), Value::Int(i)])
            .unwrap();
        right
            .push_values(vec![Value::Int(i % 300), Value::Int(i)])
            .unwrap();
    }
    c.bench_function("relational/hash_join_2k_x_2k", |b| {
        b.iter(|| ops::hash_join(&left, &right, &["k"], &["k"]).unwrap().len());
    });
}

fn bench_rowid_vs_materializing_join(c: &mut Criterion) {
    // The late-materialization contrast on one conjunctive join:
    // `out(x, y) :- l(k, x), r(k, y)`. The materializing legs clone binding
    // relations and combined tuples per call (ops::hash_join and the
    // interpreting Database::evaluate); the row-id leg executes the compiled
    // PhysicalPlan over borrowed inputs with pooled scratch, materializing
    // only the final output tuples.
    let mut left = Relation::new(Schema::new(["k", "x"]));
    let mut right = Relation::new(Schema::new(["k", "y"]));
    for i in 0..2000i64 {
        left.push_values(vec![Value::Int(i % 200), Value::Int(i)])
            .unwrap();
        right
            .push_values(vec![Value::Int(i % 300), Value::Int(i)])
            .unwrap();
    }
    let cq = ConjunctiveQuery::new(["x", "y"])
        .atom(Atom::new("l", [Term::var("k"), Term::var("x")]))
        .atom(Atom::new("r", [Term::var("k"), Term::var("y")]));
    let mut db = Database::new();
    db.register("l", left.clone());
    db.register("r", right.clone());

    c.bench_function("relational/materializing_join_interpreted_2k", |b| {
        b.iter(|| db.evaluate(&cq).unwrap().len());
    });

    let mut plan = PhysicalPlan::compile(&cq, |_| Some(2)).unwrap();
    let inputs: Vec<PlanInput<'_>> = plan
        .relations()
        .iter()
        .map(|name| {
            if name == "l" {
                PlanInput::from(&left)
            } else {
                PlanInput::from(&right)
            }
        })
        .collect();
    let mut scratch = ExecScratch::new();
    c.bench_function("relational/rowid_join_compiled_2k", |b| {
        b.iter(|| plan.execute(&inputs, &mut scratch, false).unwrap().len());
    });

    // The shared-table contrast — the kernel of Stage 2, where a small
    // intermediate probes a large batch-shared atom once per template: a
    // 100-row `l` against the 2k-row `r`, eight executions a batch. Untagged,
    // every execution builds its own table over `r`; tagged, the batch
    // builds one and probes it eight times.
    let mut small = Relation::new(Schema::new(["k", "x"]));
    for i in 0..100i64 {
        small
            .push_values(vec![Value::Int(i * 3), Value::Int(i)])
            .unwrap();
    }
    for (name, shared) in [
        ("relational/probe_100_into_2k_x8_private_tables", false),
        ("relational/probe_100_into_2k_x8_shared_table", true),
    ] {
        let inputs: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|rel| match (rel == "l", shared) {
                (true, _) => PlanInput::from(&small),
                (false, false) => PlanInput::from(&right),
                (false, true) => PlanInput::from(&right).shared(0),
            })
            .collect();
        c.bench_function(name, |b| {
            b.iter(|| {
                scratch.begin_batch();
                (0..8)
                    .map(|_| plan.execute(&inputs, &mut scratch, false).unwrap().len())
                    .sum::<usize>()
            });
        });
    }
}

fn bench_pattern_matching(c: &mut Criterion) {
    let item = RssStreamGenerator::new(RssStreamConfig {
        items: 1,
        ..RssStreamConfig::default()
    })
    .documents()
    .pop()
    .unwrap();
    let pattern =
        parse_pattern("S//item->r[.//title->t][.//channel_url->u][.//description->d]").unwrap();
    let matcher = PatternMatcher::new(&pattern);
    c.bench_function("xpath/witnesses_feed_item", |b| {
        b.iter(|| matcher.witnesses(&item).len());
    });
    c.bench_function("xpath/edge_bindings_feed_item", |b| {
        b.iter(|| matcher.all_edge_bindings(&item).len());
    });
}

fn bench_template_insertion(c: &mut Criterion) {
    let w = FlatSchemaWorkload::new(6, 0.8);
    let mut rng = StdRng::seed_from_u64(5);
    let graphs: Vec<ReducedGraph> = w
        .generate_queries(200, &mut rng)
        .into_iter()
        .map(|q| {
            let n = normalize_query(&q).unwrap().query;
            ReducedGraph::from_join_graph(&JoinGraph::from_query(&n).unwrap())
        })
        .collect();
    c.bench_function("xscl/template_catalog_insert_200", |b| {
        b.iter_batched(
            TemplateCatalog::new,
            |mut catalog| {
                for g in &graphs {
                    catalog.insert(g);
                }
                catalog.len()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_query_registration(c: &mut Criterion) {
    let gen = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(6);
    let queries = gen.generate_queries(500, &mut rng);
    c.bench_function("core/register_500_rss_queries", |b| {
        b.iter_batched(
            || MmqjpEngine::new(EngineConfig::mmqjp().with_retain_documents(false)),
            |mut engine| {
                for q in &queries {
                    engine.register_query(q.clone()).unwrap();
                }
                engine.num_templates()
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_document_processing(c: &mut Criterion) {
    let gen = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(7);
    let queries = gen.generate_queries(300, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 40,
        title_vocabulary: 20,
        ..RssStreamConfig::default()
    })
    .documents();

    c.bench_function("core/process_document_viewmat_300_queries", |b| {
        b.iter_batched(
            || {
                let mut engine =
                    MmqjpEngine::new(EngineConfig::mmqjp_view_mat().with_retain_documents(false));
                for q in &queries {
                    engine.register_query(q.clone()).unwrap();
                }
                // Pre-load part of the stream as join state.
                for d in docs[..30].iter().cloned() {
                    engine.process_document(d).unwrap();
                }
                (engine, docs[30].clone())
            },
            |(mut engine, doc)| engine.process_document(doc).unwrap().len(),
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hash_join,
        bench_rowid_vs_materializing_join,
        bench_pattern_matching,
        bench_template_insertion,
        bench_query_registration,
        bench_document_processing
);
criterion_main!(benches);
