//! Registration-time plan verification over a well-formed catalog.
//!
//! The malformed-plan fixtures live next to the verifier in
//! `mmqjp-relational` (each one triggers a specific
//! [`PlanViolation`](mmqjp_relational::PlanViolation)). This suite covers
//! the complementary direction: a diverse, *well-formed* catalog — the
//! paper's Figure 1/2 queries plus generated flat-schema, complex-schema
//! and RSS workloads — must compile, verify and register cleanly in every
//! processing mode, on the single engine and the sharded one.

use mmqjp_core::{EngineConfig, MmqjpEngine, ShardedEngine};
use mmqjp_integration_tests::{
    all_modes, assert_audit_clean, assert_audit_clean_sharded, run_stream, Q1, Q2, Q3,
};
use mmqjp_workload::{
    ComplexSchemaWorkload, FlatSchemaWorkload, RssQueryGenerator, RssStreamConfig,
    RssStreamGenerator,
};
use mmqjp_xml::Document;
use mmqjp_xscl::{parse_query, XsclQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A catalog spanning every query shape the workload generators produce,
/// plus the paper's walkthrough queries.
fn well_formed_catalog() -> Vec<XsclQuery> {
    let mut queries: Vec<XsclQuery> = [Q1, Q2, Q3]
        .iter()
        .map(|q| parse_query(q).expect("fixture query parses"))
        .collect();

    let mut rng = StdRng::seed_from_u64(42);
    let flat = FlatSchemaWorkload::new(12, 0.8);
    queries.extend(flat.generate_queries(8, &mut rng));
    let complex = ComplexSchemaWorkload::new(4, 3, 0.8);
    queries.extend(complex.generate_queries(8, &mut rng));
    queries.extend(RssQueryGenerator::new(0.8).generate_queries(8, &mut rng));
    queries
}

/// Documents that actually exercise the catalog's patterns.
fn catalog_documents() -> Vec<Document> {
    let mut docs = Vec::new();
    let flat = FlatSchemaWorkload::new(12, 0.8);
    let (a, b) = flat.documents();
    docs.push(a);
    docs.push(b);
    let complex = ComplexSchemaWorkload::new(4, 3, 0.8);
    let (a, b) = complex.documents();
    docs.push(a);
    docs.push(b);
    docs.extend(
        RssStreamGenerator::new(RssStreamConfig {
            items: 6,
            channels: 3,
            title_vocabulary: 10,
            description_vocabulary: 15,
            ..RssStreamConfig::default()
        })
        .documents(),
    );
    // Re-timestamp into one monotone stream so in-order engines accept it.
    for (i, d) in docs.iter_mut().enumerate() {
        d.set_timestamp(mmqjp_xml::Timestamp(i as u64 + 1));
    }
    docs
}

/// Every generated query must register (i.e. compile *and* pass the plan
/// verifier, which always runs) in all three modes, the verified plans
/// produce matches, and the engine invariant audit stays clean afterwards.
#[test]
fn well_formed_catalog_verifies_in_all_three_modes() {
    let queries = well_formed_catalog();
    let docs = catalog_documents();
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut engine = MmqjpEngine::new(config);
        for (i, q) in queries.iter().enumerate() {
            engine
                .register_query(q.clone())
                .unwrap_or_else(|e| panic!("well-formed query #{i} rejected in {mode:?}: {e}"));
        }
        let matches = run_stream(&mut engine, docs.clone());
        assert!(!matches.is_empty(), "the catalog sweep matches in {mode:?}");
        assert_audit_clean(&engine);
    }
}

/// The sharded engine routes registrations through the same verified path
/// on every shard.
#[test]
fn sharded_registration_verifies_on_every_shard() {
    let queries = well_formed_catalog();
    let mut engine = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(3));
    for (i, q) in queries.iter().enumerate() {
        engine
            .register_query(q.clone())
            .unwrap_or_else(|e| panic!("well-formed query #{i} rejected: {e}"));
    }
    for doc in catalog_documents() {
        engine.process_document(doc).expect("processing succeeds");
    }
    assert_audit_clean_sharded(&engine);
}
