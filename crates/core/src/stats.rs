//! Engine statistics and per-phase timings.
//!
//! Figures 14 and 15 of the paper break the total conjunctive-query
//! processing time into the time spent computing `Rvj`, `RL`, `RR` and the
//! per-template conjunctive queries. [`PhaseTimings`] records exactly those
//! phases (plus Stage-1, output construction and state maintenance, which the
//! paper reports separately or excludes).

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Cumulative wall-clock time per processing phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Stage 1: XPath evaluation — the shared automaton pass and reading the
    /// requested edges' node pairs off it as integer witness rows.
    pub xpath: Duration,
    /// Witness-relation construction: the front routing each document's
    /// Stage-1 witness rows into its consumers' `RbinW`/`RdocW` relations —
    /// the per-consumer dedup and interning each new node's value. Timed
    /// apart from [`xpath`](Self::xpath) on both engines.
    pub ingest: Duration,
    /// Computing the common string values `STR` / the `Rvj` semi-join
    /// (view-materialization mode), or gathering the batch-restricted
    /// `Rdoc`/`Rbin` inputs shared by every template (basic MMQJP mode).
    pub compute_rvj: Duration,
    /// Computing (or fetching from the view cache) the `RL` slices.
    pub compute_rl: Duration,
    /// Computing the `RR` slices.
    pub compute_rr: Duration,
    /// Evaluating the per-template (or per-query, in Sequential mode)
    /// conjunctive queries: selection, join ordering and the row-id join
    /// pipeline (everything up to the final head projection).
    pub conjunctive: Duration,
    /// Materializing output tuples at the final head projection of the
    /// compiled plans (the late-materialization step of the columnar
    /// kernel). Split out from [`conjunctive`](Self::conjunctive) so the
    /// per-stage cost of a batch is visible.
    pub materialize: Duration,
    /// Temporal filtering and output-document construction (Algorithm 3).
    pub output: Duration,
    /// Join-state and view-cache maintenance (Algorithms 2 and 5).
    pub maintenance: Duration,
    /// Failure recovery: respawning dead workers, re-registering surviving
    /// subscriptions and replaying the in-window join state from the
    /// `ReplayLog`. Zero on a fault-free stream.
    pub recovery: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.xpath
            + self.ingest
            + self.compute_rvj
            + self.compute_rl
            + self.compute_rr
            + self.conjunctive
            + self.materialize
            + self.output
            + self.maintenance
            + self.recovery
    }

    /// The portion the paper calls "total conjunctive query processing time"
    /// in Figures 8–15: everything in Stage 2 except output construction and
    /// state maintenance.
    pub fn stage2_join_time(&self) -> Duration {
        self.compute_rvj + self.compute_rl + self.compute_rr + self.conjunctive + self.materialize
    }
}

impl AddAssign for PhaseTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.xpath += rhs.xpath;
        self.ingest += rhs.ingest;
        self.compute_rvj += rhs.compute_rvj;
        self.compute_rl += rhs.compute_rl;
        self.compute_rr += rhs.compute_rr;
        self.conjunctive += rhs.conjunctive;
        self.materialize += rhs.materialize;
        self.output += rhs.output;
        self.maintenance += rhs.maintenance;
        self.recovery += rhs.recovery;
    }
}

/// Cumulative statistics for an engine instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Documents processed so far.
    pub documents_processed: usize,
    /// Query matches emitted so far.
    pub results_emitted: usize,
    /// Live registered queries (registered and not unregistered).
    pub queries_registered: usize,
    /// Queries unregistered so far (cumulative).
    pub queries_unregistered: usize,
    /// Distinct query templates currently live in the catalog.
    pub templates: usize,
    /// Templates retired so far because their last member query
    /// unregistered (cumulative).
    pub templates_retired: usize,
    /// Distinct tree patterns currently live in the Stage-1 index.
    pub distinct_patterns: usize,
    /// Stage-1 patterns dropped so far because their last subscriber
    /// unregistered (cumulative).
    pub patterns_dropped: usize,
    /// Tuples currently held in the `Rbin` join-state relation.
    pub rbin_tuples: usize,
    /// Tuples currently held in the `Rdoc` join-state relation.
    pub rdoc_tuples: usize,
    /// Timestamp buckets currently resident in the segmented join state.
    pub state_buckets: usize,
    /// Documents currently retained for output construction / temporal
    /// filtering.
    pub docs_retained: usize,
    /// Join-state buckets dropped by window expiry so far.
    pub state_buckets_evicted: usize,
    /// Join-state rows (`Rbin` + `Rdoc`) dropped by window expiry so far.
    pub state_rows_evicted: usize,
    /// Retained documents (and their timestamps) evicted so far.
    pub docs_evicted: usize,
    /// Materialized `RL` view-cache slices invalidated by window expiry so
    /// far (targeted invalidation — unaffected slices survive eviction).
    pub view_slices_invalidated: usize,
    /// View-cache hits (view-materialization mode).
    pub view_cache_hits: usize,
    /// View-cache misses.
    pub view_cache_misses: usize,
    /// View-cache evictions.
    pub view_cache_evictions: usize,
    /// Query shapes derived at registration (cumulative): registrations
    /// whose `FROM` clause, window aside, had no live subscriber, so the
    /// registry normalized it, reduced its join graph and matched it against
    /// the template catalog.
    pub shapes_built: usize,
    /// Registrations served by a live subscriber's memoized shape
    /// (cumulative): an `RT` row and refcount bumps, no normalization,
    /// reduction or isomorphism test.
    pub shapes_reused: usize,
    /// Physical plans compiled at registration time (cumulative; one per
    /// new template in the MMQJP modes — the variant the engine's mode
    /// executes — and one per orientation in Sequential mode). Plans are
    /// executed by reference per batch, never re-compiled or cloned on the
    /// hot path.
    pub plans_compiled: usize,
    /// Output tuples materialized by the compiled-plan executor. Late
    /// materialization builds each result row exactly once, at the final
    /// head projection; intermediate join results are row ids only.
    pub rows_materialized: usize,
    /// Plan executions that ran on the engine's pooled scratch buffers —
    /// every execution after the first. Together with
    /// [`plans_compiled`](Self::plans_compiled) this certifies that plans
    /// and executor buffers are engine-lifetime objects, not per-batch
    /// ones: an execution allocates nothing but its result relation.
    pub scratch_reuses: usize,
    /// Join hash tables built by the plan executor: the per-execution
    /// tables of filtered atoms, the batch-shared tables, and a template's
    /// kept `RT` table whenever `RT` changed since its plan last built it
    /// (a register or unregister of one of its members).
    pub join_tables_built: usize,
    /// Join steps that probed a batch-shared table an earlier step of the
    /// same batch had built (possibly for another template). With
    /// [`join_tables_built`](Self::join_tables_built) this is the sharing
    /// ratio of Stage 2: builds follow the batch, probes follow the
    /// templates.
    pub join_tables_reused: usize,
    /// Join steps that probed the `RT` table their template's plan kept
    /// from an earlier execution, possibly of an earlier batch: `RT` had
    /// not changed since (same version, same row count).
    pub join_tables_kept: usize,
    /// Plan executions that sampled their inputs and planned a join order:
    /// a plan's first execution, and every later one in which some atom's
    /// length, and the length its order was planned for, both clamped up to
    /// the 64-row distinct sample, differ by more than 2×. Atoms of at most
    /// 64 rows therefore never trigger a re-plan.
    pub join_orders_planned: usize,
    /// Plan executions that reused the plan's memoized join order.
    pub join_orders_reused: usize,
    /// Intermediate rows that probed a join table, summed over the join
    /// steps of every plan execution — the volume the join kernel's probe
    /// loop works through.
    pub join_rows_probed: usize,
    /// Row ids the join kernel copied into its intermediate's existing
    /// columns. A join step whose every probing row found exactly one
    /// partner, in order, copies none.
    pub join_ids_moved: usize,
    /// Stage-1 node pairs the front emitted — one per requested edge
    /// binding of every matching join-side pattern whose enumeration was
    /// not suppressed (see
    /// [`stage1_edges_suppressed`](Self::stage1_edges_suppressed)), before
    /// the per-document dedup.
    pub stage1_pairs: usize,
    /// `RbinW` rows kept after the per-document dedup. Patterns of different
    /// queries share canonical variables, so pairs still repeat across edge
    /// classes and across members whose useful sets differ:
    /// [`stage1_pairs`](Self::stage1_pairs) ÷ `stage1_rows` is the
    /// enumeration Stage 1 still wastes. Sharded, rows are deduplicated per
    /// shard and summed over the shards they are routed to.
    pub stage1_rows: usize,
    /// `(pattern, edge)` enumerations the front skipped because an earlier
    /// member of the same edge class had, in that document, the same useful
    /// sets on every path node: its pairs would all have been repeats that
    /// ingest drops.
    pub stage1_edges_suppressed: usize,
    /// Documents Stage-1-evaluated exactly once by the engine's front, on
    /// either engine; equal to the number of documents it ingested.
    pub docs_parsed_once: usize,
    /// Witness rows (`RbinW` + `RdocW`) the front routed to its consumers:
    /// the single engine's join stage, or the query shards. Rows for a
    /// pattern travel only to the shards whose queries subscribed to it, so
    /// this counts deliveries: a row shared by subscribers on two shards is
    /// routed (and counted) twice.
    pub witnesses_routed: usize,
    /// Batches for which the pipelined sharded front finished Stage 1 of
    /// batch `k+1` before the shards had finished Stage 2 of batch `k` —
    /// i.e. the front stalled waiting for the join stage. A high ratio of
    /// stalls to batches means Stage 2 is the bottleneck and more shards
    /// would help; zero stalls mean Stage 1 is.
    pub pipeline_stalls: usize,
    /// Shard worker threads respawned by the supervisor after a
    /// contained panic or a dropped channel — automatically under
    /// [`FaultPolicy::Quarantine`](crate::FaultPolicy), or via a manual
    /// `ShardedEngine::respawn_shard` under
    /// [`FaultPolicy::Degrade`](crate::FaultPolicy).
    pub shards_respawned: usize,
    /// Poison documents skipped (with a typed `QuarantineRecord`) instead of
    /// failing their batch, under
    /// [`FaultPolicy::Quarantine`](crate::FaultPolicy).
    pub docs_quarantined: usize,
    /// Witness rows (`RbinW` + `RdocW`) rebuilt from the `ReplayLog` while
    /// recovering a respawned shard's in-window join state.
    pub rows_replayed: usize,
    /// Faults actually injected by a `FaultInjector` driving this engine.
    /// Always zero outside the deterministic chaos harness; a benign (empty)
    /// `FaultPlan` keeps it at zero by definition.
    pub faults_injected: usize,
    /// Cumulative per-phase timings.
    pub timings: PhaseTimings,
}

impl EngineStats {
    /// Throughput in documents per second over the total measured time.
    /// Returns 0.0 before any document has been processed.
    pub fn throughput_docs_per_sec(&self) -> f64 {
        let secs = self.timings.total().as_secs_f64();
        if secs == 0.0 || self.documents_processed == 0 {
            0.0
        } else {
            self.documents_processed as f64 / secs
        }
    }

    /// Throughput counting only Stage-2 join time, matching the paper's
    /// Figure 16 measurement (which excludes loading and Stage-1 cost).
    pub fn join_throughput_docs_per_sec(&self) -> f64 {
        let secs = self.timings.stage2_join_time().as_secs_f64();
        if secs == 0.0 || self.documents_processed == 0 {
            0.0
        } else {
            self.documents_processed as f64 / secs
        }
    }
}

/// Summing engine stats adds every counter and timing field. This is the
/// aggregation [`ShardedEngine`](crate::ShardedEngine) uses: each query lives
/// in exactly one shard, so `queries_registered` sums to the global query
/// count, while per-shard quantities (`documents_processed`, `templates`,
/// timings, ...) sum to the total work done across all shards. Documents
/// and live patterns are counted once, by the front (shards count neither),
/// so the aggregate `documents_processed` equals the number of ingested
/// documents.
impl AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: Self) {
        self.documents_processed += rhs.documents_processed;
        self.results_emitted += rhs.results_emitted;
        self.queries_registered += rhs.queries_registered;
        self.queries_unregistered += rhs.queries_unregistered;
        self.templates += rhs.templates;
        self.templates_retired += rhs.templates_retired;
        self.distinct_patterns += rhs.distinct_patterns;
        self.patterns_dropped += rhs.patterns_dropped;
        self.rbin_tuples += rhs.rbin_tuples;
        self.rdoc_tuples += rhs.rdoc_tuples;
        self.state_buckets += rhs.state_buckets;
        self.docs_retained += rhs.docs_retained;
        self.state_buckets_evicted += rhs.state_buckets_evicted;
        self.state_rows_evicted += rhs.state_rows_evicted;
        self.docs_evicted += rhs.docs_evicted;
        self.view_slices_invalidated += rhs.view_slices_invalidated;
        self.view_cache_hits += rhs.view_cache_hits;
        self.view_cache_misses += rhs.view_cache_misses;
        self.view_cache_evictions += rhs.view_cache_evictions;
        self.shapes_built += rhs.shapes_built;
        self.shapes_reused += rhs.shapes_reused;
        self.plans_compiled += rhs.plans_compiled;
        self.rows_materialized += rhs.rows_materialized;
        self.scratch_reuses += rhs.scratch_reuses;
        self.join_tables_built += rhs.join_tables_built;
        self.join_tables_reused += rhs.join_tables_reused;
        self.join_tables_kept += rhs.join_tables_kept;
        self.join_orders_planned += rhs.join_orders_planned;
        self.join_orders_reused += rhs.join_orders_reused;
        self.join_rows_probed += rhs.join_rows_probed;
        self.join_ids_moved += rhs.join_ids_moved;
        self.stage1_pairs += rhs.stage1_pairs;
        self.stage1_rows += rhs.stage1_rows;
        self.stage1_edges_suppressed += rhs.stage1_edges_suppressed;
        self.docs_parsed_once += rhs.docs_parsed_once;
        self.witnesses_routed += rhs.witnesses_routed;
        self.pipeline_stalls += rhs.pipeline_stalls;
        self.shards_respawned += rhs.shards_respawned;
        self.docs_quarantined += rhs.docs_quarantined;
        self.rows_replayed += rhs.rows_replayed;
        self.faults_injected += rhs.faults_injected;
        self.timings += rhs.timings;
    }
}

impl Add for EngineStats {
    type Output = EngineStats;

    fn add(mut self, rhs: Self) -> EngineStats {
        self += rhs;
        self
    }
}

impl Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let t = PhaseTimings {
            xpath: Duration::from_millis(1),
            ingest: Duration::from_millis(9),
            compute_rvj: Duration::from_millis(2),
            compute_rl: Duration::from_millis(3),
            compute_rr: Duration::from_millis(4),
            conjunctive: Duration::from_millis(5),
            materialize: Duration::from_millis(8),
            output: Duration::from_millis(6),
            maintenance: Duration::from_millis(7),
            recovery: Duration::from_millis(10),
        };
        assert_eq!(t.total(), Duration::from_millis(55));
        assert_eq!(t.stage2_join_time(), Duration::from_millis(22));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = PhaseTimings {
            xpath: Duration::from_millis(1),
            ..Default::default()
        };
        let b = PhaseTimings {
            xpath: Duration::from_millis(2),
            conjunctive: Duration::from_millis(3),
            ..Default::default()
        };
        a += b;
        assert_eq!(a.xpath, Duration::from_millis(3));
        assert_eq!(a.conjunctive, Duration::from_millis(3));
    }

    #[test]
    fn throughput_handles_zero() {
        let s = EngineStats::default();
        assert_eq!(s.throughput_docs_per_sec(), 0.0);
        assert_eq!(s.join_throughput_docs_per_sec(), 0.0);
    }

    #[test]
    fn engine_stats_sum_adds_every_counter() {
        let a = EngineStats {
            documents_processed: 1,
            results_emitted: 2,
            queries_registered: 3,
            queries_unregistered: 11,
            templates: 4,
            templates_retired: 12,
            distinct_patterns: 5,
            patterns_dropped: 13,
            rbin_tuples: 6,
            rdoc_tuples: 7,
            state_buckets: 1,
            docs_retained: 2,
            state_buckets_evicted: 3,
            state_rows_evicted: 4,
            docs_evicted: 5,
            view_slices_invalidated: 6,
            view_cache_hits: 8,
            view_cache_misses: 9,
            view_cache_evictions: 10,
            shapes_built: 33,
            shapes_reused: 34,
            plans_compiled: 14,
            rows_materialized: 15,
            scratch_reuses: 16,
            join_tables_built: 25,
            join_tables_reused: 26,
            join_tables_kept: 36,
            join_orders_planned: 27,
            join_orders_reused: 28,
            join_rows_probed: 31,
            join_ids_moved: 32,
            stage1_pairs: 29,
            stage1_rows: 30,
            stage1_edges_suppressed: 35,
            docs_parsed_once: 17,
            witnesses_routed: 18,
            pipeline_stalls: 19,
            shards_respawned: 21,
            docs_quarantined: 22,
            rows_replayed: 23,
            faults_injected: 24,
            timings: PhaseTimings {
                xpath: Duration::from_millis(1),
                ..Default::default()
            },
        };
        let b = EngineStats {
            documents_processed: 10,
            results_emitted: 20,
            queries_registered: 30,
            queries_unregistered: 110,
            templates: 40,
            templates_retired: 120,
            distinct_patterns: 50,
            patterns_dropped: 130,
            rbin_tuples: 60,
            rdoc_tuples: 70,
            state_buckets: 10,
            docs_retained: 20,
            state_buckets_evicted: 30,
            state_rows_evicted: 40,
            docs_evicted: 50,
            view_slices_invalidated: 60,
            view_cache_hits: 80,
            view_cache_misses: 90,
            view_cache_evictions: 100,
            shapes_built: 330,
            shapes_reused: 340,
            plans_compiled: 140,
            rows_materialized: 150,
            scratch_reuses: 160,
            join_tables_built: 250,
            join_tables_reused: 260,
            join_tables_kept: 360,
            join_orders_planned: 270,
            join_orders_reused: 280,
            join_rows_probed: 310,
            join_ids_moved: 320,
            stage1_pairs: 290,
            stage1_rows: 300,
            stage1_edges_suppressed: 350,
            docs_parsed_once: 170,
            witnesses_routed: 180,
            pipeline_stalls: 190,
            shards_respawned: 210,
            docs_quarantined: 220,
            rows_replayed: 230,
            faults_injected: 240,
            timings: PhaseTimings {
                xpath: Duration::from_millis(2),
                ..Default::default()
            },
        };
        let s: EngineStats = [a, b].into_iter().sum();
        assert_eq!(s.documents_processed, 11);
        assert_eq!(s.results_emitted, 22);
        assert_eq!(s.queries_registered, 33);
        assert_eq!(s.queries_unregistered, 121);
        assert_eq!(s.templates, 44);
        assert_eq!(s.templates_retired, 132);
        assert_eq!(s.distinct_patterns, 55);
        assert_eq!(s.patterns_dropped, 143);
        assert_eq!(s.rbin_tuples, 66);
        assert_eq!(s.rdoc_tuples, 77);
        assert_eq!(s.state_buckets, 11);
        assert_eq!(s.docs_retained, 22);
        assert_eq!(s.state_buckets_evicted, 33);
        assert_eq!(s.state_rows_evicted, 44);
        assert_eq!(s.docs_evicted, 55);
        assert_eq!(s.view_slices_invalidated, 66);
        assert_eq!(s.view_cache_hits, 88);
        assert_eq!(s.view_cache_misses, 99);
        assert_eq!(s.view_cache_evictions, 110);
        assert_eq!(s.shapes_built, 363);
        assert_eq!(s.shapes_reused, 374);
        assert_eq!(s.plans_compiled, 154);
        assert_eq!(s.rows_materialized, 165);
        assert_eq!(s.scratch_reuses, 176);
        assert_eq!(s.join_tables_built, 275);
        assert_eq!(s.join_tables_reused, 286);
        assert_eq!(s.join_tables_kept, 396);
        assert_eq!(s.join_orders_planned, 297);
        assert_eq!(s.join_orders_reused, 308);
        assert_eq!(s.join_rows_probed, 341);
        assert_eq!(s.join_ids_moved, 352);
        assert_eq!(s.stage1_pairs, 319);
        assert_eq!(s.stage1_rows, 330);
        assert_eq!(s.stage1_edges_suppressed, 385);
        assert_eq!(s.docs_parsed_once, 187);
        assert_eq!(s.witnesses_routed, 198);
        assert_eq!(s.pipeline_stalls, 209);
        assert_eq!(s.shards_respawned, 231);
        assert_eq!(s.docs_quarantined, 242);
        assert_eq!(s.rows_replayed, 253);
        assert_eq!(s.faults_injected, 264);
        assert_eq!(s.timings.xpath, Duration::from_millis(3));
        assert_eq!(s, a + b);
        assert_eq!(
            Vec::<EngineStats>::new().into_iter().sum::<EngineStats>(),
            EngineStats::default()
        );
    }

    #[test]
    fn throughput_positive_when_measured() {
        let s = EngineStats {
            documents_processed: 10,
            timings: PhaseTimings {
                conjunctive: Duration::from_millis(100),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(s.throughput_docs_per_sec() > 0.0);
        assert!((s.join_throughput_docs_per_sec() - 100.0).abs() < 1e-9);
    }
}
