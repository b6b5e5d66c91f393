//! One engine fed by one generated stream, a submission at a time.
//!
//! This file holds every call into the program under test on the hot path,
//! and nothing outside the frozen API listed in README.md.

use crate::gen::{mix64, Generator};
use crate::workloads::Workload;
use mmqjp_core::{
    EngineConfig, EngineStats, MatchOutput, MmqjpEngine, PhaseTimings, ProcessingMode,
    ShardedEngine,
};
use mmqjp_xml::{parse_document_streaming, Document};
use mmqjp_xscl::QueryId;
use std::collections::VecDeque;
use std::time::Instant;

/// Order-insensitive summary of a set of matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    pub matches: u64,
    pub digest: u64,
}

impl Fold {
    pub fn add(&mut self, query: u64, left_doc: u64, right_doc: u64) {
        self.matches += 1;
        let h = mix64(mix64(mix64(query) ^ left_doc) ^ right_doc);
        self.digest = self.digest.wrapping_add(h);
    }
}

/// `PhaseTimings` in nanoseconds, with the two view phases merged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub xpath: u64,
    pub ingest: u64,
    pub rvj: u64,
    pub view: u64,
    pub conjunctive: u64,
    pub materialize: u64,
    pub output: u64,
    pub maintenance: u64,
    pub recovery: u64,
}

impl Phases {
    fn of(t: &PhaseTimings) -> Self {
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        Phases {
            xpath: ns(t.xpath),
            ingest: ns(t.ingest),
            rvj: ns(t.compute_rvj),
            view: ns(t.compute_rl) + ns(t.compute_rr),
            conjunctive: ns(t.conjunctive),
            materialize: ns(t.materialize),
            output: ns(t.output),
            maintenance: ns(t.maintenance),
            recovery: ns(t.recovery),
        }
    }

    pub fn total(&self) -> u64 {
        self.xpath
            + self.ingest
            + self.rvj
            + self.view
            + self.conjunctive
            + self.materialize
            + self.output
            + self.maintenance
            + self.recovery
    }

    /// Field-wise `self - before`.
    fn since(&self, before: &Phases) -> Phases {
        Phases {
            xpath: self.xpath - before.xpath,
            ingest: self.ingest - before.ingest,
            rvj: self.rvj - before.rvj,
            view: self.view - before.view,
            conjunctive: self.conjunctive - before.conjunctive,
            materialize: self.materialize - before.materialize,
            output: self.output - before.output,
            maintenance: self.maintenance - before.maintenance,
            recovery: self.recovery - before.recovery,
        }
    }

    pub fn add(&mut self, other: &Phases) {
        self.xpath += other.xpath;
        self.ingest += other.ingest;
        self.rvj += other.rvj;
        self.view += other.view;
        self.conjunctive += other.conjunctive;
        self.materialize += other.materialize;
        self.output += other.output;
        self.maintenance += other.maintenance;
        self.recovery += other.recovery;
    }
}

/// What the engine's counters attribute to one traced engine call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attributed {
    /// All workers together (front and shard threads included).
    pub phases: Phases,
    /// The sharded engine's front stage alone (zero on the single engine).
    pub front_ns: u64,
    pub rows_materialized: u64,
}

/// Wall-clock record of one submission and the lifecycle operations before
/// it. Offsets are nanoseconds since the session's epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub unregister: (u64, u64),
    pub register: (u64, u64),
    pub start: u64,
    pub parsed: u64,
    pub processed: u64,
    /// After the traced run's `stats()` read (equals `processed` untraced).
    pub stats_read: u64,
    pub end: u64,
    pub docs: usize,
    pub bytes: usize,
    pub matches: u64,
    /// Operations (submission, register, unregister) that returned `Err`.
    pub failed: u64,
    pub attempted: u64,
    /// Zero unless the submission was traced.
    pub attributed: Attributed,
}

impl Sample {
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }
}

enum Engine {
    Single(Box<MmqjpEngine>),
    Sharded(Box<ShardedEngine>),
}

impl Engine {
    fn register(&mut self, text: &str) -> Option<QueryId> {
        match self {
            Engine::Single(e) => e.register_query_text(text).ok(),
            Engine::Sharded(e) => e.register_query_text(text).ok(),
        }
    }

    fn unregister(&mut self, id: QueryId) -> bool {
        match self {
            Engine::Single(e) => e.unregister_query(id).is_ok(),
            Engine::Sharded(_) => unreachable!("churn workloads run on the single engine"),
        }
    }

    /// One engine call; `None` if it returned `Err`.
    fn process(&mut self, batches: Vec<Vec<Document>>) -> Option<Vec<Vec<MatchOutput>>> {
        match self {
            Engine::Single(e) => batches
                .into_iter()
                .map(|batch| {
                    match <[Document; 1]>::try_from(batch) {
                        Ok([doc]) => e.process_document(doc),
                        Err(batch) => e.process_batch(batch),
                    }
                    .ok()
                })
                .collect(),
            Engine::Sharded(e) => e.process_batches(batches).ok(),
        }
    }

    /// Counters of all workers together, and the busy time of the sharded
    /// engine's front stage alone.
    fn stats(&self) -> Option<(EngineStats, u64)> {
        match self {
            Engine::Single(e) => Some((e.stats(), 0)),
            Engine::Sharded(e) => Some((
                e.stats().ok()?,
                Phases::of(&e.front_stats().timings).total(),
            )),
        }
    }

    fn audit_violations(&self) -> Option<usize> {
        match self {
            Engine::Single(e) => Some(e.audit().len()),
            Engine::Sharded(e) => e.audit().ok().map(|v| v.len()),
        }
    }
}

pub struct Session {
    workload: Workload,
    gen: Generator,
    engine: Engine,
    /// Live subscriptions, oldest first (churn only).
    live: VecDeque<QueryId>,
    texts: Vec<String>,
    epoch: Instant,
    pub docs_done: usize,
    pub fold: Fold,
    /// Failed registrations during set-up.
    pub setup_failed: u64,
    /// Time inside the set-up's `register_query_text` calls.
    pub setup_register_ns: u64,
}

impl Session {
    /// Set-up: generator tables, engine construction, initial registrations.
    /// A gate `reference` is the same stream and subscriptions on a single
    /// engine in the given mode.
    pub fn new(w: &Workload, seed: u64, reference: Option<ProcessingMode>) -> Self {
        let mut gen = Generator::new(w, seed);
        let config = EngineConfig {
            mode: reference.unwrap_or(w.mode),
            ..EngineConfig::default()
        }
        .with_retain_documents(false)
        .with_prune_state_by_window(true);
        let mut engine = if w.sharded && reference.is_none() {
            Engine::Sharded(Box::new(ShardedEngine::new(
                config.with_num_shards(1).with_front_pool(1),
            )))
        } else {
            Engine::Single(Box::new(MmqjpEngine::new(config)))
        };
        let mut live = VecDeque::with_capacity(w.queries + 1);
        let mut setup_failed = 0;
        let mut setup_register_ns = 0;
        for _ in 0..w.queries {
            let text = gen.next_query();
            let t = Instant::now();
            let id = engine.register(&text);
            setup_register_ns += t.elapsed().as_nanos() as u64;
            match id {
                Some(id) => live.push_back(id),
                None => setup_failed += 1,
            }
        }
        Session {
            workload: *w,
            gen,
            engine,
            live,
            texts: vec![String::new(); w.docs_per_submission()],
            epoch: Instant::now(),
            docs_done: 0,
            fold: Fold::default(),
            setup_failed,
            setup_register_ns,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run the lifecycle operations (churn) and one submission. With
    /// `traced`, the engine's counters are read around the engine call and
    /// their deltas returned in the sample. With `keep`, the submission's
    /// outputs are appended to it instead of dropped.
    pub fn submission(&mut self, traced: bool, keep: Option<&mut Vec<MatchOutput>>) -> Sample {
        let w = self.workload;
        let mut s = Sample::default();

        if w.churn {
            let text = self.gen.next_query();
            s.attempted += 2;
            s.unregister.0 = self.now();
            let unregistered = match self.live.pop_front() {
                Some(id) => self.engine.unregister(id),
                None => false,
            };
            s.unregister.1 = self.now();
            s.register.0 = s.unregister.1;
            let registered = self.engine.register(&text);
            s.register.1 = self.now();
            s.failed += u64::from(!unregistered) + u64::from(registered.is_none());
            self.live.extend(registered);
        }

        // Rendered before the clock starts, so that memory stays bounded and
        // the generator is in no measured interval.
        for text in &mut self.texts {
            self.gen.next_document(text);
        }
        s.docs = self.texts.len();
        s.bytes = self.texts.iter().map(String::len).sum();
        s.attempted += 1;
        let before = if traced { self.engine.stats() } else { None };

        s.start = self.now();
        let parsed: Result<Vec<Vec<Document>>, _> = self
            .texts
            .chunks(w.batch)
            .map(|chunk| chunk.iter().map(|t| parse_document_streaming(t)).collect())
            .collect();
        s.parsed = self.now();
        let outputs = parsed.ok().and_then(|batches| self.engine.process(batches));
        s.processed = self.now();
        let after = if traced { self.engine.stats() } else { None };
        s.stats_read = self.now();
        let before_fold = self.fold.matches;
        for m in outputs.iter().flatten().flatten() {
            self.fold.add(m.query.raw(), m.left_doc.0, m.right_doc.0);
        }
        s.end = self.now();

        s.matches = self.fold.matches - before_fold;
        s.failed += u64::from(outputs.is_none());
        if let (Some((b, front_before)), Some((a, front_after))) = (before, after) {
            s.attributed = Attributed {
                phases: Phases::of(&a.timings).since(&Phases::of(&b.timings)),
                front_ns: front_after - front_before,
                rows_materialized: (a.rows_materialized - b.rows_materialized) as u64,
            };
        }
        if let (Some(keep), Some(outputs)) = (keep, outputs) {
            keep.extend(outputs.into_iter().flatten());
        }
        self.docs_done += s.docs;
        s
    }

    /// Counters of all workers (`None` if a worker is gone).
    pub fn stats(&self) -> Option<EngineStats> {
        self.engine.stats().map(|(all, _)| all)
    }

    /// Number of violated engine invariants (`None` if a worker is gone).
    pub fn audit_violations(&self) -> Option<usize> {
        self.engine.audit_violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_invariant_under_permutation_and_sensitive_to_content() {
        let ids = [(1, 2, 3), (4, 5, 6), (1, 3, 2), (9, 9, 9)];
        let fold = |order: &[usize]| {
            let mut f = Fold::default();
            for &i in order {
                let (q, l, r) = ids[i];
                f.add(q, l, r);
            }
            f
        };
        assert_eq!(fold(&[0, 1, 2, 3]), fold(&[3, 1, 0, 2]));
        assert_ne!(fold(&[0, 1, 2]), fold(&[0, 1, 3]));
        // (1, 2, 3) and (1, 3, 2) differ: the hash is not symmetric.
        assert_ne!(fold(&[0]), fold(&[2]));
    }
}
