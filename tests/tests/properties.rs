//! Property-based tests (proptest) over the core data structures and the
//! engine's end-to-end invariants.

use mmqjp_core::front::Stage1Table;
use mmqjp_core::{
    route_document, sort_matches, EngineConfig, EngineStats, IngestScratch, MmqjpEngine,
    ProcessingMode, ShardedEngine, WitnessBatch,
};
use mmqjp_integration_tests::reference::{self, sorted_rows};
use mmqjp_integration_tests::stage1::{edge_lists, resolve_edges, rows_from_bindings};
use mmqjp_integration_tests::{match_keys, run_stream};
use mmqjp_relational::{
    Atom, ChunkedRows, ConjunctiveQuery, ExecScratch, PhysicalPlan, PlanInput, Relation, Schema,
    SegmentedRelation, StringInterner, Term, Value,
};
use mmqjp_xml::{parse_document, serialize, DocId, Document, DocumentBuilder, Timestamp};
use mmqjp_xpath::{PatternId, PatternNodeId};
use mmqjp_xscl::{
    normalize_query, parse_query, JoinGraph, ReducedGraph, TemplateCatalog, ValueJoin,
};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A random flat document: a root with up to 8 leaves whose tags and values
/// are drawn from small vocabularies (so that joins can fire).
fn flat_document_strategy() -> impl Strategy<Value = Document> {
    (
        prop::collection::vec((0usize..6, 0usize..5), 1..8),
        1u64..1000,
    )
        .prop_map(|(leaves, ts)| {
            let mut b = DocumentBuilder::new("item");
            b.timestamp(Timestamp(ts));
            for (tag, value) in leaves {
                b.child_text(format!("f{tag}"), format!("v{value}"));
            }
            b.finish()
        })
}

/// A random join query over the flat vocabulary: between 1 and 3 value joins
/// pairing random fields.
fn flat_query_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..6, 0usize..6), 1..4).prop_map(|pairs| {
        let mut left_preds = Vec::new();
        let mut right_preds = Vec::new();
        let mut joins = Vec::new();
        for (i, (lf, rf)) in pairs.iter().enumerate() {
            left_preds.push(format!("[.//f{lf}->l{i}]"));
            right_preds.push(format!("[.//f{rf}->r{i}]"));
            joins.push(format!("l{i}=r{i}"));
        }
        format!(
            "S//item->lr{} FOLLOWED BY{{{}, 1000}} S//item->rr{}",
            left_preds.join(""),
            joins.join(" AND "),
            right_preds.join("")
        )
    })
}

// ---------------------------------------------------------------------------
// XML layer
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xml_serialize_parse_roundtrip(doc in flat_document_strategy()) {
        let xml = serialize(&doc);
        let parsed = parse_document(&xml).unwrap();
        prop_assert_eq!(parsed.len(), doc.len());
        for id in doc.node_ids() {
            prop_assert_eq!(parsed.node(id).tag(), doc.node(id).tag());
            prop_assert_eq!(parsed.string_value(id), doc.string_value(id));
        }
        parsed.check_invariants().unwrap();
    }

    #[test]
    fn document_preorder_invariants(doc in flat_document_strategy()) {
        doc.check_invariants().unwrap();
        // Every non-root node's parent has a smaller pre-order id.
        for node in doc.nodes() {
            if let Some(p) = node.parent() {
                prop_assert!(p.raw() < node.id().raw());
            }
        }
        // string_value of the root contains every leaf's value.
        let root_value = doc.string_value(mmqjp_xml::NodeId::ROOT);
        for leaf in doc.leaves() {
            prop_assert!(root_value.contains(&doc.string_value(leaf)));
        }
    }
}

// ---------------------------------------------------------------------------
// Relational layer
// ---------------------------------------------------------------------------

fn small_relation(rows: Vec<(i64, i64)>) -> Relation {
    let mut r = Relation::new(Schema::new(["a", "b"]));
    for (a, b) in rows {
        r.push_values(vec![Value::Int(a), Value::Int(b)]).unwrap();
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distinct_is_idempotent_and_order_insensitive(
        rows in prop::collection::vec((0i64..4, 0i64..4), 0..20),
    ) {
        let r = small_relation(rows);
        let d1 = r.distinct();
        let d2 = d1.distinct();
        prop_assert_eq!(d1.len(), d2.len());
        prop_assert_eq!(d1.sorted(), r.sorted().distinct().sorted());
    }

    /// The central compiled-execution property: on random relations, schemas
    /// and conjunctive queries, [`PhysicalPlan`] execution returns the same
    /// *bag* as the nested-loop [`reference`] — and the same set with inline
    /// dedup — both over flat and chunked (segmented) inputs. Row order is
    /// the executor's own (memoized join order, shared tables), so both
    /// sides are compared sorted.
    ///
    /// The row generator is biased toward the columnar kernel's edge
    /// shapes: empty relations (empty-selection short-circuit), single-row
    /// relations (degenerate build sides), and all-duplicate rows (every
    /// join key collides in one hash chain; inline dedup collapses the
    /// output), alongside the general case. Each relation draws a shape
    /// code: 0 empties it, 1 keeps a single row, 2 repeats the first row,
    /// 3..=5 leave the rows as generated, and 6 and 7 change the rows' value
    /// type (see [`random_relations`]), so keys of different types with
    /// equal payload bits meet in one join column.
    #[test]
    fn compiled_plans_match_the_nested_loop_reference(
        rel_specs in rel_specs_strategy(),
        (atom_specs, head_picks) in query_spec_strategy(),
    ) {
        let relations = random_relations(&rel_specs);
        let cq = random_query(&relations, &atom_specs, &head_picks);

        let named: Vec<(&str, &Relation)> =
            relations.iter().map(|(name, rel)| (name.as_str(), rel)).collect();
        let expected = reference::evaluate(&cq, &named);
        let mut expected_set = expected.clone();
        expected_set.dedup();

        // Compiled path over flat borrowed inputs.
        let mut plan = compile_over(&cq, &relations);
        let flat_inputs: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|name| PlanInput::from(&relations[relation_index(name)].1))
            .collect();
        let mut scratch = ExecScratch::new();
        let compiled = plan.execute(&flat_inputs, &mut scratch, false).unwrap();
        prop_assert_eq!(sorted_rows(&compiled), expected.clone(), "bag-equal to the reference");
        let deduped = plan.execute(&flat_inputs, &mut scratch, true).unwrap();
        prop_assert_eq!(sorted_rows(&deduped), expected_set.clone(), "inline dedup == set");

        // Chunked (segmented) inputs: split every relation into buckets
        // preserving row order; results must not change.
        let segmented: Vec<SegmentedRelation> =
            relations.iter().map(|(_, rel)| segment(rel)).collect();
        let chunked: Vec<ChunkedRows<'_>> =
            segmented.iter().map(ChunkedRows::from_segmented).collect();
        let chunked_inputs: Vec<PlanInput<'_>> = plan
            .relations()
            .iter()
            .map(|name| PlanInput::from(&chunked[relation_index(name)]))
            .collect();
        let via_chunks = plan.execute(&chunked_inputs, &mut scratch, false).unwrap();
        prop_assert_eq!(sorted_rows(&via_chunks), expected, "chunked inputs are equivalent");
        let via_chunks = plan.execute(&chunked_inputs, &mut scratch, true).unwrap();
        prop_assert_eq!(sorted_rows(&via_chunks), expected_set, "chunked inline dedup == set");
        prop_assert!(scratch.scratch_reuses() >= 2, "scratch is pooled across executions");
    }

    /// Sharing never changes an answer: K random plans run over the *same*
    /// tagged inputs through one scratch — join tables built by one plan and
    /// probed by the next, each plan's second run on its memoized order and
    /// on tables that all exist already — and every result equals the same
    /// plan's execution through a fresh scratch over untagged inputs. Once
    /// over flat inputs, once (after `begin_batch`) over chunked ones.
    #[test]
    fn plans_sharing_one_scratch_match_fresh_executions(
        rel_specs in rel_specs_strategy(),
        query_specs in prop::collection::vec(query_spec_strategy(), 2..6),
    ) {
        let relations = random_relations(&rel_specs);
        let mut plans: Vec<PhysicalPlan> = query_specs
            .iter()
            .map(|(atom_specs, head_picks)| {
                compile_over(&random_query(&relations, atom_specs, head_picks), &relations)
            })
            .collect();
        let segmented: Vec<SegmentedRelation> =
            relations.iter().map(|(_, rel)| segment(rel)).collect();
        let chunked: Vec<ChunkedRows<'_>> =
            segmented.iter().map(ChunkedRows::from_segmented).collect();

        let mut scratch = ExecScratch::new();
        for use_chunks in [false, true] {
            scratch.begin_batch();
            let input_of = |name: &String| {
                let i = relation_index(name);
                if use_chunks {
                    PlanInput::from(&chunked[i])
                } else {
                    PlanInput::from(&relations[i].1)
                }
            };
            for run in 0..2 {
                for (k, plan) in plans.iter_mut().enumerate() {
                    let distinct = (k + run) % 2 == 0;
                    let untagged: Vec<PlanInput<'_>> =
                        plan.relations().iter().map(input_of).collect();
                    // One tag per relation, the same in every plan.
                    let tagged: Vec<PlanInput<'_>> = plan
                        .relations()
                        .iter()
                        .map(|name| input_of(name).shared(relation_index(name) as u32))
                        .collect();
                    let fresh = plan
                        .clone()
                        .execute(&untagged, &mut ExecScratch::new(), distinct)
                        .unwrap();
                    let shared = plan.execute(&tagged, &mut scratch, distinct).unwrap();
                    prop_assert_eq!(
                        shared.sorted(),
                        fresh.sorted(),
                        "plan {} run {} chunked {}", k, run, use_chunks
                    );
                }
            }
        }
        prop_assert_eq!(
            scratch.join_orders_reused(),
            3 * scratch.join_orders_planned(),
            "of a plan's four runs, only the first plans an order"
        );
    }
}

type RelSpec = (usize, usize, Vec<(i64, i64, i64)>);
type QuerySpec = (Vec<(usize, Vec<usize>)>, Vec<usize>);

/// Up to three relations `(arity, shape code, rows)`.
fn rel_specs_strategy() -> impl Strategy<Value = Vec<RelSpec>> {
    prop::collection::vec(
        (
            1usize..4,
            0usize..8,
            prop::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..8),
        ),
        1..4,
    )
}

/// A body of up to four atoms `(relation pick, term codes)` and head picks.
fn query_spec_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        prop::collection::vec((0usize..4, prop::collection::vec(0usize..8, 3..4)), 1..5),
        prop::collection::vec(0usize..8, 0..4),
    )
}

/// Random relations r0..rk with arities 1..=3 and small-int rows (so joins
/// fire and duplicates occur), shaped by each spec's shape code. Codes 6 and
/// 7 keep the rows but turn every int `k` into `Value::Sym` with raw payload
/// `k` (code 7: `Value::Null` for 0), so a join with another relation can
/// pair `Int(k)` with a `Sym` or `Null` that a payload-only comparison would
/// take for equal.
fn random_relations(rel_specs: &[RelSpec]) -> Vec<(String, Relation)> {
    let interner = StringInterner::new();
    let syms: Vec<Value> = (0..4u32)
        .map(|k| {
            let sym = interner.intern(&format!("s{k}"));
            assert_eq!(sym.raw(), k, "a fresh interner numbers symbols from 0");
            Value::Sym(sym)
        })
        .collect();
    rel_specs
        .iter()
        .enumerate()
        .map(|(i, (arity, shape, rows))| {
            let shaped: Vec<(i64, i64, i64)> = match shape {
                0 => Vec::new(),
                1 => rows.iter().take(1).copied().collect(),
                2 => vec![*rows.first().unwrap_or(&(0, 0, 0)); rows.len().max(2)],
                _ => rows.clone(),
            };
            let value = |k: i64| match shape {
                6 => syms[k as usize],
                7 if k == 0 => Value::Null,
                7 => syms[k as usize],
                _ => Value::Int(k),
            };
            let mut r = Relation::new(Schema::new((0..*arity).map(|c| format!("c{c}"))));
            for (a, b, c) in shaped {
                let vals = [value(a), value(b), value(c)];
                r.push_values(vals[..*arity].to_vec()).unwrap();
            }
            (format!("r{i}"), r)
        })
        .collect()
}

/// The index of relation `r{i}` in [`random_relations`]' output.
fn relation_index(name: &str) -> usize {
    name[1..].parse().unwrap()
}

/// A random conjunctive query over `relations`: each atom picks a relation
/// and fills its positions with variables v0..v4 or constants 0..2 (repeated
/// variables and cross products arise naturally); the head is a random
/// subset of the body variables (always bound).
fn random_query(
    relations: &[(String, Relation)],
    atom_specs: &[(usize, Vec<usize>)],
    head_picks: &[usize],
) -> ConjunctiveQuery {
    let mut cq_atoms = Vec::new();
    for (rel_pick, term_codes) in atom_specs {
        let (name, rel) = &relations[rel_pick % relations.len()];
        let terms: Vec<Term> = term_codes[..rel.schema().arity()]
            .iter()
            .map(|&t| {
                if t < 5 {
                    Term::var(format!("v{t}"))
                } else {
                    Term::constant((t - 5) as i64)
                }
            })
            .collect();
        cq_atoms.push(Atom::new(name.clone(), terms));
    }
    let mut body_vars: Vec<String> = Vec::new();
    for a in &cq_atoms {
        for v in a.variables() {
            if !body_vars.iter().any(|b| b == v) {
                body_vars.push(v.to_owned());
            }
        }
    }
    let mut head: Vec<String> = Vec::new();
    if !body_vars.is_empty() {
        for p in head_picks {
            let v = &body_vars[p % body_vars.len()];
            if !head.contains(v) {
                head.push(v.clone());
            }
        }
    }
    let mut cq = ConjunctiveQuery::new(head);
    for a in cq_atoms {
        cq.push_atom(a);
    }
    cq
}

fn compile_over(cq: &ConjunctiveQuery, relations: &[(String, Relation)]) -> PhysicalPlan {
    PhysicalPlan::compile(cq, |name| {
        relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.schema().arity())
    })
    .unwrap()
}

/// Split a relation into buckets of three rows, preserving row order.
fn segment(rel: &Relation) -> SegmentedRelation {
    let mut seg = SegmentedRelation::new(rel.schema().clone());
    for (i, t) in rel.iter().enumerate() {
        seg.push((i / 3) as u64, t.to_vec()).unwrap();
    }
    seg
}

// ---------------------------------------------------------------------------
// XSCL layer
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_parse_display_roundtrip(text in flat_query_strategy()) {
        let q = parse_query(&text).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        prop_assert_eq!(q.predicates(), q2.predicates());
        prop_assert_eq!(q.window(), q2.window());
        prop_assert_eq!(q.op(), q2.op());
    }

    #[test]
    fn templates_are_invariant_under_variable_renaming(text in flat_query_strategy()) {
        // Renaming the user variables (l{i} -> user{i}, r{i} -> peer{i})
        // must not change the template.
        let renamed = text.replace('l', "user").replace('r', "peer");
        let g1 = ReducedGraph::from_join_graph(
            &JoinGraph::from_query(&normalize_query(&parse_query(&text).unwrap()).unwrap().query)
                .unwrap(),
        );
        let g2 = ReducedGraph::from_join_graph(
            &JoinGraph::from_query(
                &normalize_query(&parse_query(&renamed).unwrap()).unwrap().query,
            )
            .unwrap(),
        );
        let mut catalog = TemplateCatalog::new();
        let m1 = catalog.insert(&g1);
        let m2 = catalog.insert(&g2);
        prop_assert_eq!(m1.template, m2.template);
    }

    #[test]
    fn reduction_keeps_exactly_the_join_relevant_nodes(text in flat_query_strategy()) {
        let q = normalize_query(&parse_query(&text).unwrap()).unwrap().query;
        let graph = JoinGraph::from_query(&q).unwrap();
        let reduced = ReducedGraph::from_join_graph(&graph);
        // Every value-join edge of the query maps to an edge of the reduced
        // graph, and every reduced leaf is a join node.
        prop_assert_eq!(reduced.num_value_joins() <= graph.num_value_joins(), true);
        prop_assert!(reduced.num_value_joins() >= 1);
        for side in [mmqjp_xscl::Side::Left, mmqjp_xscl::Side::Right] {
            let tree = reduced.tree(side);
            for (i, node) in tree.nodes.iter().enumerate() {
                if tree.children(i).is_empty() {
                    prop_assert!(node.is_join_node, "leaf {i} must be a join node");
                }
            }
        }
    }

    #[test]
    fn normalization_is_idempotent(text in flat_query_strategy()) {
        let q = parse_query(&text).unwrap();
        let once = normalize_query(&q).unwrap().query;
        let twice = normalize_query(&once).unwrap().query;
        prop_assert_eq!(once.predicates(), twice.predicates());
        let (l1, r1) = once.blocks().unwrap();
        let (l2, r2) = twice.blocks().unwrap();
        prop_assert_eq!(l1.pattern.signature(), l2.pattern.signature());
        prop_assert_eq!(r1.pattern.signature(), r2.pattern.signature());
    }
}

// ---------------------------------------------------------------------------
// Witness routing (sharded front stage)
// ---------------------------------------------------------------------------

/// The witness rows of a batch as a sorted multiset of rendered rows.
/// Routing may append a pattern's rows in a different order than direct
/// evaluation (the subscribed edge list is merge-ordered, the requested map
/// insertion-ordered), so batches are compared order-insensitively.
fn witness_multiset(batch: &WitnessBatch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .rbin_w
        .iter()
        .map(|t| format!("bin{:?}", t.to_vec()))
        .chain(batch.rdoc_w.iter().map(|t| format!("doc{:?}", t.to_vec())))
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sharded front stage's routing theorem: for any query population,
    /// shard assignment and document stream, the witness rows routed to a
    /// shard are exactly the rows that shard would have derived by running
    /// Stage 1 over its own requested-edge map — rows partition along the
    /// subscription map, nothing is duplicated or lost. A row reaches a
    /// shard if and only if one of the shard's own patterns derives it, and
    /// the union across shards is exactly the single-engine Stage-1 output.
    /// Stage 1 speaks integer rows here as in the engines: the reference
    /// bindings are mapped onto rows against the union's resolved edge
    /// lists (routed) or each shard's own (self-derived).
    #[test]
    fn witness_routing_is_a_partition_of_stage1_output(
        query_texts in prop::collection::vec(flat_query_strategy(), 1..8),
        mut docs in prop::collection::vec(flat_document_strategy(), 1..5),
        num_shards in 1usize..6,
    ) {
        for (i, d) in docs.iter_mut().enumerate() {
            d.set_id(DocId(i as u64 + 1));
            d.set_timestamp(Timestamp((i as u64 + 1) * 10));
        }

        // Harvest each query's (pattern, requested edges) registrations from
        // a scratch engine, exactly as the sharded front stage does, and
        // subscribe them into one Stage-1 table under a round-robin shard
        // assignment (the routing theorem must hold for any assignment).
        let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
        let mut ids = Vec::new();
        for t in &query_texts {
            ids.push(engine.register_query_text(t).unwrap());
        }
        let interner = StringInterner::new();
        let mut table = Stage1Table::new();
        let mut everything = Stage1Table::new();
        let mut shard_req: Vec<HashMap<PatternId, Vec<(PatternNodeId, PatternNodeId)>>> =
            vec![HashMap::new(); num_shards];
        for (i, id) in ids.iter().enumerate() {
            let shard = i % num_shards;
            let shape = engine.registry().query(*id).unwrap().shape();
            for o in shape.orientations() {
                let (prev, cur) = shape.patterns(o);
                for (pattern, edges) in [(prev, &o.prev_edges), (cur, &o.cur_edges)] {
                    let pid = table.subscribe(shard, pattern.clone(), edges, &interner).unwrap();
                    let also = everything.subscribe(0, pattern.clone(), edges, &interner).unwrap();
                    prop_assert_eq!(also, pid);
                    let req = shard_req[shard].entry(pid).or_default();
                    for e in edges {
                        if !req.contains(e) {
                            req.push(*e);
                        }
                    }
                }
            }
        }

        // Route every document's Stage-1 output; `everything` plays the
        // single-engine reference (one consumer subscribed to it all). The
        // rows come from the DOM reference, numbered against the table's
        // lists, which both tables build in the same order.
        let mut index = table.index().clone();
        let union_req = edge_lists(table.requested());
        prop_assert_eq!(&edge_lists(everything.requested()), &union_req);
        let mut scratch = IngestScratch::default();
        let mut routed: Vec<WitnessBatch> =
            (0..num_shards).map(|_| WitnessBatch::new()).collect();
        let mut global = vec![WitnessBatch::new()];
        for doc in &docs {
            let bindings = index.evaluate_edge_bindings(doc, &union_req);
            let rows = rows_from_bindings(&index, table.requested(), &bindings);
            route_document(&table, doc, &rows, &interner, &mut scratch, &mut routed).unwrap();
            route_document(&everything, doc, &rows, &interner, &mut scratch, &mut global)
                .unwrap();
        }

        // Every shard sees every document's retention-ledger row, witnesses
        // or not — window pruning depends on it.
        for batch in &routed {
            prop_assert_eq!(batch.rdoc_ts_w.len(), docs.len());
            prop_assert_eq!(batch.doc_ids.len(), docs.len());
        }

        // Each shard's routed rows are exactly what it would self-derive
        // from its own requested-edge map. (Patterns absent from a map get
        // the all-edges fallback; the row adapter drops their bindings.)
        for (shard, req) in shard_req.iter().enumerate() {
            let own = resolve_edges(&index, req, &interner);
            let mut derived = WitnessBatch::new();
            for doc in &docs {
                let bindings = index.evaluate_edge_bindings(doc, req);
                let rows = rows_from_bindings(&index, &own, &bindings);
                derived
                    .ingest_document(doc, &rows, &own, &interner, &mut scratch)
                    .unwrap();
            }
            prop_assert_eq!(
                witness_multiset(&routed[shard]),
                witness_multiset(&derived),
                "shard {} routed rows diverge from self-derived Stage-1",
                shard
            );
        }

        // Nothing is lost or invented: the set union of routed rows equals
        // the single-subscriber reference's rows. (Set, not multiset:
        // structurally distinct patterns share canonical variables, so two
        // patterns on different shards may each legitimately derive the same
        // witness row — the reference's per-document dedup collapses those
        // into one row while every subscribing shard keeps its own copy.)
        let mut union_rows: Vec<String> = routed.iter().flat_map(witness_multiset).collect();
        union_rows.sort();
        union_rows.dedup();
        prop_assert_eq!(
            union_rows,
            witness_multiset(&global[0]),
            "routed union diverges from the single-engine Stage-1 output"
        );

        // Degenerate exact partition: one shard must receive the reference
        // output row for row.
        if num_shards == 1 {
            prop_assert_eq!(witness_multiset(&routed[0]), witness_multiset(&global[0]));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level properties
// ---------------------------------------------------------------------------

/// One step of a random subscription-churn script.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Register this query text.
    Register(String),
    /// Unregister one of the currently live registrations (`pick % live`
    /// at replay time; a no-op when none are live).
    Unregister(usize),
    /// Process this document batch.
    Batch(Vec<Document>),
}

/// Decode the raw generated tuples into a churn script: codes 0–1 register,
/// 2 unregisters, 3–5 process a batch (so documents dominate the mix).
fn decode_churn_ops(raw: Vec<(usize, String, usize, Vec<Document>)>) -> Vec<ChurnOp> {
    raw.into_iter()
        .map(|(code, query, pick, docs)| match code {
            0 | 1 => ChurnOp::Register(query),
            2 => ChurnOp::Unregister(pick),
            _ => ChurnOp::Batch(docs),
        })
        .collect()
}

proptest! {
    // End-to-end cases are more expensive; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_modes_produce_identical_matches(
        query_texts in prop::collection::vec(flat_query_strategy(), 1..12),
        mut docs in prop::collection::vec(flat_document_strategy(), 1..6),
    ) {
        // Make timestamps strictly increasing so FOLLOWED BY is
        // deterministic regardless of generated values.
        for (i, d) in docs.iter_mut().enumerate() {
            d.set_timestamp(Timestamp((i as u64 + 1) * 10));
        }
        let mut reference: Option<Vec<_>> = None;
        for mode in [
            ProcessingMode::Sequential,
            ProcessingMode::Mmqjp,
            ProcessingMode::MmqjpViewMat,
        ] {
            let config = EngineConfig { mode, ..EngineConfig::default() }
                .with_retain_documents(false);
            let mut engine = MmqjpEngine::new(config);
            for t in &query_texts {
                engine.register_query_text(t).unwrap();
            }
            let keys = match_keys(&run_stream(&mut engine, docs.clone()));
            match &reference {
                None => reference = Some(keys),
                Some(r) => prop_assert_eq!(r, &keys, "mode {:?} disagrees", mode),
            }
        }
    }

    #[test]
    fn sharded_engine_equals_single_engine_and_stats_sum(
        query_texts in prop::collection::vec(flat_query_strategy(), 1..10),
        mut docs in prop::collection::vec(flat_document_strategy(), 1..6),
        num_shards in 1usize..8,
        mode_index in 0usize..3,
        batch_size in 1usize..4,
    ) {
        for (i, d) in docs.iter_mut().enumerate() {
            d.set_timestamp(Timestamp((i as u64 + 1) * 10));
        }
        let mode = [
            ProcessingMode::Sequential,
            ProcessingMode::Mmqjp,
            ProcessingMode::MmqjpViewMat,
        ][mode_index];
        let config = EngineConfig { mode, ..EngineConfig::default() }
            .with_retain_documents(false);

        let mut single = MmqjpEngine::new(config.clone());
        let mut sharded = ShardedEngine::new(config.with_num_shards(num_shards));
        for t in &query_texts {
            let a = single.register_query_text(t).unwrap();
            let b = sharded.register_query_text(t).unwrap();
            prop_assert_eq!(a, b, "query id assignment diverged");
        }

        // Batched processing: the sharded output must equal the single
        // engine's canonically-ordered output batch for batch.
        for chunk in docs.chunks(batch_size) {
            let mut expected = single.process_batch(chunk.to_vec()).unwrap();
            sort_matches(&mut expected);
            let got = sharded.process_batch(chunk.to_vec()).unwrap();
            prop_assert_eq!(&got, &expected, "sharded({}) batch diverged", num_shards);
        }

        // Merged stats are exactly the field-wise sum of the per-shard
        // stats plus the front stage's, which counts each document once.
        let per_shard = sharded.shard_stats().unwrap();
        prop_assert_eq!(per_shard.len(), num_shards);
        let merged = sharded.stats().unwrap();
        let shard_sum: EngineStats = per_shard.iter().copied().sum();
        prop_assert_eq!(merged, shard_sum + sharded.front_stats());
        prop_assert_eq!(merged.queries_registered, query_texts.len());
        prop_assert_eq!(merged.documents_processed, docs.len());
        prop_assert_eq!(merged.results_emitted,
            shard_sum.results_emitted + sharded.front_stats().results_emitted);
    }

    #[test]
    fn random_churn_interleavings_match_the_survivor_engine(
        raw_ops in prop::collection::vec(
            (
                0usize..6,
                flat_query_strategy(),
                0usize..64,
                prop::collection::vec(flat_document_strategy(), 1..3),
            ),
            1..16,
        ),
        mode_index in 0usize..3,
    ) {
        let ops = decode_churn_ops(raw_ops);
        let mode = [
            ProcessingMode::Sequential,
            ProcessingMode::Mmqjp,
            ProcessingMode::MmqjpViewMat,
        ][mode_index];
        let config = EngineConfig { mode, ..EngineConfig::default() }
            .with_retain_documents(false);

        // Resolve unregister targets against the ops seen so far, so every
        // script is valid: an Unregister picks among the still-live earlier
        // registrations (and becomes a no-op when none are live).
        let mut churned = MmqjpEngine::new(config.clone());
        let mut reference = MmqjpEngine::new(config);
        let mut churned_ids: Vec<mmqjp_xscl::QueryId> = Vec::new();
        let mut live: Vec<usize> = Vec::new(); // ordinals of live registrations
        let mut doomed: Vec<usize> = Vec::new();

        // Pass 1: determine which registrations survive (to know what the
        // reference engine must hold) without touching an engine.
        let mut reg_count = 0usize;
        for op in &ops {
            match op {
                ChurnOp::Register(_) => {
                    live.push(reg_count);
                    reg_count += 1;
                }
                ChurnOp::Unregister(pick) => {
                    if !live.is_empty() {
                        doomed.push(live.remove(pick % live.len()));
                    }
                }
                ChurnOp::Batch(_) => {}
            }
        }
        let doomed_set: std::collections::HashSet<usize> = doomed.iter().copied().collect();

        // Pass 2: replay. The reference engine registers only survivors, at
        // the same stream positions.
        let mut live: Vec<usize> = Vec::new();
        let mut reg_ordinal = 0usize;
        let mut ts = 0u64;
        let mut survivors = std::collections::HashSet::new();
        let mut churned_of_ref = std::collections::HashMap::new();
        let mut total_unregs = 0usize;
        let mut max_seen_id = None::<mmqjp_xscl::QueryId>;
        for op in &ops {
            match op {
                ChurnOp::Register(text) => {
                    let cid = churned.register_query_text(text).unwrap();
                    // No QueryId reuse, ever: ids are strictly increasing.
                    if let Some(prev) = max_seen_id {
                        prop_assert!(cid > prev, "id {cid:?} reused after {prev:?}");
                    }
                    max_seen_id = Some(cid);
                    churned_ids.push(cid);
                    if !doomed_set.contains(&reg_ordinal) {
                        survivors.insert(cid);
                        let rid = reference.register_query_text(text).unwrap();
                        churned_of_ref.insert(rid, cid);
                    }
                    live.push(reg_ordinal);
                    reg_ordinal += 1;
                }
                ChurnOp::Unregister(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.remove(pick % live.len());
                    let before = churned.stats();
                    churned.unregister_query(churned_ids[victim]).unwrap();
                    total_unregs += 1;
                    let after = churned.stats();
                    // Monotonicity under pure unregister: the live template
                    // and pattern populations never grow.
                    prop_assert!(after.templates <= before.templates);
                    prop_assert!(after.distinct_patterns <= before.distinct_patterns);
                    prop_assert_eq!(after.queries_registered, before.queries_registered - 1);
                }
                ChurnOp::Batch(docs) => {
                    let mut batch = docs.clone();
                    for d in batch.iter_mut() {
                        ts += 10;
                        d.set_timestamp(Timestamp(ts));
                    }
                    let mut got: Vec<_> = churned
                        .process_batch(batch.clone())
                        .unwrap()
                        .into_iter()
                        .filter(|m| survivors.contains(&m.query))
                        .collect();
                    let mut expected: Vec<_> = reference
                        .process_batch(batch)
                        .unwrap()
                        .into_iter()
                        .map(|mut m| {
                            m.query = churned_of_ref[&m.query];
                            m
                        })
                        .collect();
                    sort_matches(&mut got);
                    sort_matches(&mut expected);
                    prop_assert_eq!(got, expected, "churned diverged in {:?}", mode);
                }
            }
        }
        // Exact lifecycle counters.
        let stats = churned.stats();
        prop_assert_eq!(stats.queries_unregistered, total_unregs);
        prop_assert_eq!(stats.queries_registered, churned_ids.len() - total_unregs);
        prop_assert_eq!(stats.queries_registered, survivors.len());
        // The surviving populations agree with the reference engine.
        let ref_stats = reference.stats();
        prop_assert_eq!(stats.templates, ref_stats.templates);
        prop_assert_eq!(stats.distinct_patterns, ref_stats.distinct_patterns);
        // After the whole interleaving, every refcounted structure balances.
        prop_assert!(churned.audit().is_empty(), "churned engine audit failed");
        prop_assert!(reference.audit().is_empty(), "reference engine audit failed");
    }

    /// The invariant auditor itself, fuzzed: replay a random
    /// register/unregister/batch interleaving against a single engine and a
    /// sharded engine, auditing after *every* operation — any
    /// refcount drift, index corruption, or router desync shows up at the
    /// first operation that introduces it.
    #[test]
    fn invariant_audit_stays_clean_under_random_churn(
        raw_ops in prop::collection::vec(
            (
                0usize..6,
                flat_query_strategy(),
                0usize..64,
                prop::collection::vec(flat_document_strategy(), 1..3),
            ),
            1..12,
        ),
        num_shards in 1usize..5,
        // A retired axis, still drawn so that every case keeps the inputs
        // it was generated with.
        _retired in 1usize..3,
    ) {
        let ops = decode_churn_ops(raw_ops);
        let config = EngineConfig::mmqjp().with_retain_documents(false);
        let mut single = MmqjpEngine::new(config.clone());
        let mut sharded = ShardedEngine::new(
            config.with_num_shards(num_shards),
        );
        let mut live: Vec<mmqjp_xscl::QueryId> = Vec::new();
        let mut ts = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match op {
                ChurnOp::Register(text) => {
                    let a = single.register_query_text(text).unwrap();
                    let b = sharded.register_query_text(text).unwrap();
                    prop_assert_eq!(a, b);
                    live.push(a);
                }
                ChurnOp::Unregister(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.remove(pick % live.len());
                    single.unregister_query(victim).unwrap();
                    sharded.unregister_query(victim).unwrap();
                }
                ChurnOp::Batch(docs) => {
                    let mut batch = docs.clone();
                    for d in batch.iter_mut() {
                        ts += 10;
                        d.set_timestamp(Timestamp(ts));
                    }
                    single.process_batch(batch.clone()).unwrap();
                    sharded.process_batch(batch).unwrap();
                }
            }
            let violations = single.audit();
            prop_assert!(
                violations.is_empty(),
                "single-engine audit failed after op #{}: {:?}", step, violations
            );
            let violations = sharded.audit().unwrap();
            prop_assert!(
                violations.is_empty(),
                "sharded audit failed after op #{} ({} shards): {:?}",
                step, num_shards, violations
            );
        }
    }

    #[test]
    fn matches_respect_value_equality(
        query_text in flat_query_strategy(),
        mut docs in prop::collection::vec(flat_document_strategy(), 2..5),
    ) {
        for (i, d) in docs.iter_mut().enumerate() {
            d.set_timestamp(Timestamp((i as u64 + 1) * 10));
        }
        let mut engine = MmqjpEngine::new(EngineConfig::mmqjp());
        engine.register_query_text(&query_text).unwrap();
        let query = parse_query(&query_text).unwrap();
        let predicates: Vec<ValueJoin> = query.predicates().to_vec();
        let docs_by_seq: Vec<Document> = docs.clone();

        let matches = run_stream(&mut engine, docs);
        for m in &matches {
            // Soundness: for every reported match, the joined string values
            // are really equal, and the left document precedes the right one.
            prop_assert!(m.left_doc.raw() < m.right_doc.raw());
            let left_doc = &docs_by_seq[(m.left_doc.raw() - 1) as usize];
            let right_doc = &docs_by_seq[(m.right_doc.raw() - 1) as usize];
            for _p in &predicates {
                // Bindings are reported under canonical names; check that
                // every left-side binding value that participates in some
                // join has an equal right-side counterpart binding.
                let mut left_values: Vec<String> = Vec::new();
                let mut right_values: Vec<String> = Vec::new();
                for b in &m.bindings {
                    if b.doc == m.left_doc {
                        left_values.push(left_doc.string_value(b.node));
                    } else {
                        right_values.push(right_doc.string_value(b.node));
                    }
                }
                // At least one pair of equal values must exist (the joined
                // leaves); root bindings are included in the lists, so we
                // check intersection rather than full equality.
                let any_equal = left_values.iter().any(|lv| right_values.contains(lv));
                prop_assert!(any_equal, "no equal joined values in match {m}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-input hardening
// ---------------------------------------------------------------------------

/// Feed a mutated serialization of a valid document to both parsers and
/// check the hardening contract: neither panics, both return a typed result,
/// and they agree on accept vs. reject. When both accept, they must accept
/// the *same* document (bytes, not just verdicts).
fn check_parsers_on_corrupt_bytes(original: &Document, seed: u64) {
    let bytes = mmqjp_core::corrupt_bytes(&serialize(original), seed);
    // The parsers take `&str`; bytes that are not UTF-8 never reach them.
    let Ok(text) = String::from_utf8(bytes) else {
        return;
    };
    let dom = parse_document(&text);
    let streaming = mmqjp_xml::parse_document_streaming(&text);
    assert_eq!(
        dom.is_ok(),
        streaming.is_ok(),
        "DOM and streaming parsers disagree on mutated input:\n  dom: {dom:?}\n  streaming: {streaming:?}\n  input: {text:?}"
    );
    if let (Ok(dom), Ok(streaming)) = (dom, streaming) {
        assert_eq!(
            serialize(&dom),
            serialize(&streaming),
            "parsers accepted mutated input but built different documents: {text:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte mutations of a valid document yield typed errors —
    /// never a panic — from both the streaming pull parser and the DOM
    /// parser, and the two always agree on accept/reject.
    #[test]
    fn corrupted_documents_fail_typed_and_parsers_agree(
        doc in flat_document_strategy(),
        seed in 0u64..1_000_000_000,
    ) {
        check_parsers_on_corrupt_bytes(&doc, seed);
    }
}

/// The same contract against deeper, realistic markup (the paper's running
/// example) across a fixed sweep of mutation seeds.
#[test]
fn corrupted_rss_documents_fail_typed_and_parsers_agree() {
    let d1 = mmqjp_integration_tests::d1();
    let d2 = mmqjp_integration_tests::d2();
    for seed in 0..512u64 {
        check_parsers_on_corrupt_bytes(&d1, seed);
        check_parsers_on_corrupt_bytes(&d2, seed);
    }
}
