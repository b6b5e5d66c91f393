//! One run of one workload: set-up, warm-up, the measured closed loop, the
//! correctness gate, and the metrics of `BENCHMARK.json`.

use crate::gen::mix64;
use crate::isolated::{self, SAMPLE_DOCS};
use crate::session::{Fold, Phases, Sample, Session};
use crate::trace::Trace;
use crate::workloads::{Workload, GATE_DOCS};
use mmqjp_core::{EngineStats, ProcessingMode};
use std::path::PathBuf;
use std::time::Instant;

/// Traced submissions whose outputs feed the isolated `sort_matches` timing.
const MERGE_SUBMISSIONS: u64 = 50;
/// `--smoke` divides every document count by this.
const SMOKE_SCALE: usize = 50;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub trace_dir: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, gate results, share sum.
    pub notes: Vec<String>,
}

/// Sums over a class of post-warm-up submissions.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    submissions: u64,
    docs: u64,
    bytes: u64,
    matches: u64,
    latency: u64,
    parse: u64,
    process: u64,
    consume: u64,
    unregister: u64,
    register: u64,
    phases: Phases,
    front: u64,
    rows_materialized: u64,
}

impl Sums {
    fn add(&mut self, s: &Sample) {
        self.submissions += 1;
        self.docs += s.docs as u64;
        self.bytes += s.bytes as u64;
        self.matches += s.matches;
        self.latency += s.latency();
        self.parse += s.parsed - s.start;
        self.process += s.processed - s.parsed;
        self.consume += s.end - s.stats_read;
        self.unregister += s.unregister.1 - s.unregister.0;
        self.register += s.register.1 - s.register.0;
        self.phases.add(&s.attributed.phases);
        self.front += s.attributed.front_ns;
        self.rows_materialized += s.attributed.rows_materialized;
    }

    /// Time the client was kept busy: submissions plus lifecycle operations.
    fn busy(&self) -> u64 {
        self.latency + self.unregister + self.register
    }

    fn docs_per_s(&self) -> f64 {
        ratio(self.docs as f64 * 1e9, self.busy() as f64)
    }
}

/// State read at the end of the first episode: exact for a seed.
struct First {
    fold: Fold,
    /// Documents and XML bytes of the measured part.
    docs: u64,
    bytes: u64,
    stats: Option<EngineStats>,
    /// Peak resident set so far. Read here and not at exit, or a run with
    /// more episodes, whose freed memory fragments, would look larger.
    peak_rss_mb: f64,
}

/// Per-layer values that are not sums over submissions.
struct Scalars {
    setup_register_us: f64,
    late_vs_early: f64,
    trace_overhead: f64,
}

/// `a / b`, or 0 when the denominator is (a layer this workload never uses).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of a sorted sample (0 for an empty one).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value a quarter of the way in from the fast end (nearest rank): the
/// third best of ten episodes. Interference from outside the process only
/// ever slows an episode, so this is a steadier estimate of what the program
/// does than the median, while a regression, which slows every episode,
/// moves it just as far.
pub fn fast_quartile(values: &mut [f64], higher_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    if higher_is_better {
        values.reverse();
    }
    values[values.len().div_ceil(4).max(1) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let per = w.docs_per_submission();
    let scale = if opts.smoke { SMOKE_SCALE } else { 1 };
    // Whole submissions, at least one.
    let scaled = |docs: usize| docs.div_ceil(scale).div_ceil(per).max(1) * per;
    let warmup_docs = scaled(w.warmup_docs());
    let episode_docs = warmup_docs + scaled(w.measured_docs);
    // First and last fifth of an episode's measured submissions.
    let measured = (episode_docs - warmup_docs) / per;
    let fifth = (measured / 5).max(1);
    // The gate's references: another mode on a single engine over a prefix.
    let mut references = vec![(ProcessingMode::Sequential, scaled(w.sequential_docs))];
    if w.sharded || w.mode != ProcessingMode::Mmqjp {
        references.push((ProcessingMode::Mmqjp, scaled(GATE_DOCS)));
    }
    let mut notes = Vec::new();

    // ---- Episodes of the closed loop until the time is up -------------------
    // One client, one submission in flight. Every episode is the same work:
    // a fresh engine, the same stream. What the run reports is the median
    // episode, so that a disturbance from outside, which slows some episodes,
    // does not move it, and a faster engine is not measured on a longer (and
    // so larger) stream than a slower one.
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups = Vec::new();
    let (mut docs_per_s, mut p50_ms, mut p95_ms) = (vec![], vec![], vec![]);
    let mut late_vs_early = Vec::new();
    let mut submissions = 0;
    let mut traced = Sums::default();
    // Latencies of the traced run's two classes, all episodes together.
    let mut by_class: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut trace = Trace::default();
    let mut kept = Vec::new();
    let mut checkpoints: Vec<(usize, Fold)> = Vec::new();
    let mut first: Option<First> = None;
    let mut repeatable = true;
    let mut latencies: Vec<u64> = Vec::with_capacity(measured);
    let session = loop {
        let t = Instant::now();
        let mut session = Session::new(w, opts.seed, None);
        setups.push(t.elapsed().as_secs_f64());
        attempted += w.queries as u64;
        failed += session.setup_failed;

        let mut episode = Sums::default();
        let (mut early, mut late) = (Sums::default(), Sums::default());
        latencies.clear();
        let mut index = 0;
        while session.docs_done < episode_docs {
            let warm = session.docs_done >= warmup_docs;
            // The traced run traces half of the submissions, so that the two
            // classes see the same engine states and their difference is the
            // tracing overhead. Which half is a coin tossed per submission:
            // alternating them would tie the classes to whatever else has an
            // even period.
            let is_traced = opts.trace && warm && mix64(index as u64) & 1 == 1;
            let keep = (is_traced && first.is_none() && traced.submissions < MERGE_SUBMISSIONS)
                .then_some(&mut kept);
            let s = session.submission(is_traced, keep);
            attempted += s.attempted;
            failed += s.failed;
            if first.is_none()
                && references
                    .iter()
                    .any(|&(_, docs)| docs == session.docs_done)
            {
                checkpoints.push((session.docs_done, session.fold));
            }
            if warm {
                let nth = index - warmup_docs / per;
                episode.add(&s);
                if nth < fifth {
                    early.add(&s);
                } else if nth >= measured - fifth {
                    late.add(&s);
                }
                if opts.trace {
                    by_class[usize::from(is_traced)].push(s.latency());
                }
                if is_traced {
                    traced.add(&s);
                    if first.is_none() {
                        trace.record(index as u32, &s);
                    }
                } else {
                    latencies.push(s.latency());
                }
            }
            index += 1;
        }

        latencies.sort_unstable();
        submissions += latencies.len();
        docs_per_s.push(episode.docs_per_s());
        p50_ms.push(percentile(&latencies, 50.0) as f64 / 1e6);
        p95_ms.push(percentile(&latencies, 95.0) as f64 / 1e6);
        late_vs_early.push(ratio(late.docs_per_s(), early.docs_per_s()));
        match &first {
            None => {
                first = Some(First {
                    fold: session.fold,
                    docs: episode.docs,
                    bytes: episode.bytes,
                    stats: session.stats(),
                    peak_rss_mb: peak_rss_mb(),
                });
            }
            Some(first) => repeatable &= first.fold == session.fold,
        }
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break session;
        }
    };
    let first = first.expect("at least one episode ran");

    // ---- Correctness gate, outside every clock -----------------------------
    let mut correct = true;
    let mut check = |ok: bool, what: String| {
        notes.push(format!("gate {}: {what}", if ok { "ok" } else { "FAILED" }));
        correct &= ok;
    };
    for &(mode, docs) in &references {
        let started = Instant::now();
        let mut reference = Session::new(w, opts.seed, Some(mode));
        let mut reference_failed = reference.setup_failed;
        while reference.docs_done < docs {
            reference_failed += reference.submission(false, None).failed;
        }
        let ours = checkpoints.iter().find(|c| c.0 == docs).map(|c| c.1);
        check(
            ours == Some(reference.fold) && reference_failed == 0,
            format!(
                "first {docs} documents match a single {mode:?} engine \
                 ({} matches, digest {:016x}, {:.2} s)",
                reference.fold.matches,
                reference.fold.digest,
                started.elapsed().as_secs_f64()
            ),
        );
    }
    check(
        repeatable,
        format!(
            "all {} episodes reached the same (matches, digest)",
            setups.len()
        ),
    );
    // At smoke scale a stream of a few hundred items over vocabularies of
    // 50 000 values may well have no match.
    check(
        first.fold.matches > 0 || opts.smoke,
        format!("matches > 0 ({})", first.fold.matches),
    );
    let violations = session.audit_violations();
    check(
        violations == Some(0),
        format!("audit() is empty ({violations:?})"),
    );
    check(failed == 0, format!("no operation returned Err ({failed})"));

    // ---- Metrics ------------------------------------------------------------
    let metrics = if opts.trace {
        let sample_docs = SAMPLE_DOCS.div_ceil(scale);
        let iso = isolated::measure(w, opts.seed, sample_docs, &mut kept);
        if iso.failed {
            correct = false;
            notes.push("gate FAILED: an isolated layer rejected a generated input".to_owned());
        }
        if let Some(dir) = &opts.trace_dir {
            let path = dir.join(format!("trace-{}.jsonl", w.name));
            match trace.write(&path) {
                Ok(()) => notes.push(format!("trace: {}", path.display())),
                Err(e) => notes.push(format!("trace not written: {e}")),
            }
        }
        let [untraced_latencies, traced_latencies] = &mut by_class;
        notes.push(format!(
            "traced submissions: {}, untraced: {}",
            traced_latencies.len(),
            untraced_latencies.len()
        ));
        untraced_latencies.sort_unstable();
        traced_latencies.sort_unstable();
        let (m, share_sum) = per_layer(
            &traced,
            &first,
            &iso,
            &Scalars {
                setup_register_us: ratio(session.setup_register_ns as f64 / 1e3, w.queries as f64),
                late_vs_early: median(&mut late_vs_early),
                // On medians: a few very slow submissions (a table that
                // grows) fall into one class or the other by chance.
                trace_overhead: ratio(
                    percentile(traced_latencies, 50.0) as f64,
                    percentile(untraced_latencies, 50.0) as f64,
                ) - 1.0,
            },
        );
        notes.push(format!("shares sum to {share_sum:.4}"));
        m
    } else {
        notes.push(format!(
            "{} episodes of {episode_docs} documents, {submissions} post-warm-up submissions",
            setups.len()
        ));
        let metric = |name, value, unit| Metric { name, value, unit };
        let docs_per_s = fast_quartile(&mut docs_per_s, true);
        // Every episode is the same documents, so the same bytes.
        let mb_per_doc = ratio(first.bytes as f64 / 1e6, first.docs as f64);
        vec![
            metric("docs_per_s", docs_per_s, "docs/s"),
            metric("mb_per_s", docs_per_s * mb_per_doc, "MB/s"),
            metric("batch_p50_ms", fast_quartile(&mut p50_ms, false), "ms"),
            metric("batch_p95_ms", fast_quartile(&mut p95_ms, false), "ms"),
            metric("peak_rss_mb", first.peak_rss_mb, "MB"),
            metric("setup_s", median(&mut setups), "s"),
        ]
    };

    Outcome {
        correct,
        attempted,
        // A run whose outputs are wrong has no operation that counts.
        failed: if correct { failed } else { attempted },
        metrics,
        notes,
    }
}

/// The per-layer metrics of the traced submissions, and the sum of the
/// shares (1 but for the harness's own bookkeeping between spans).
fn per_layer(
    t: &Sums,
    first: &First,
    iso: &isolated::Isolated,
    scalars: &Scalars,
) -> (Vec<Metric>, f64) {
    let busy = t.busy() as f64;
    let docs = t.docs as f64;
    let p = &t.phases;
    let share = |ns: u64| ratio(ns as f64, busy);
    let us_per_doc = |ns: u64| ratio(ns as f64 / 1e3, docs);
    let per_s = |count: u64, ns: u64| ratio(count as f64 * 1e9, ns as f64);
    let stats = first.stats.unwrap_or_default();
    // Negative on the pipelined workload when the stages overlap: the
    // workers' phase times then add up to more than the call took.
    let unattributed = ratio(t.process as f64 - p.total() as f64, busy);
    let lifecycle_ops = if t.register > 0 { t.submissions } else { 0 } as f64;

    let shares = [
        ("xml.parse.share", share(t.parse)),
        ("xpath.share", share(p.xpath)),
        ("core.ingest.share", share(p.ingest)),
        ("core.rvj.share", share(p.rvj)),
        ("core.view.share", share(p.view)),
        ("relational.conjunctive.share", share(p.conjunctive)),
        ("relational.materialize.share", share(p.materialize)),
        ("core.output.share", share(p.output)),
        ("core.maintenance.share", share(p.maintenance)),
        ("core.lifecycle.share", share(t.unregister + t.register)),
        ("core.process.unattributed_share", unattributed),
        ("bench.consume.share", share(t.consume)),
    ];
    let share_sum = shares.iter().map(|(_, v)| v).sum();
    let mut out: Vec<Metric> = shares
        .iter()
        .map(|&(name, value)| Metric {
            name,
            value,
            unit: "ratio",
        })
        .collect();
    let mut metric = |name, value, unit| out.push(Metric { name, value, unit });

    metric(
        "xml.parse.mb_per_s",
        ratio(t.bytes as f64 * 1e3, t.parse as f64),
        "MB/s",
    );
    metric("xml.parse.us_per_doc", us_per_doc(t.parse), "us");
    metric("xml.pull.mb_per_s", iso.pull_mb_per_s, "MB/s");
    metric("xml.bytes", first.bytes as f64, "count");
    metric("xml.docs", first.docs as f64, "count");
    metric("xpath.us_per_doc", us_per_doc(p.xpath), "us");
    metric(
        "xpath.automaton.ns_per_event",
        iso.automaton_ns_per_event,
        "ns",
    );
    metric("xpath.patterns", stats.distinct_patterns as f64, "count");
    metric("xscl.parse.us_per_query", iso.xscl_parse_us_per_query, "us");
    metric(
        "relational.conjunctive.us_per_doc",
        us_per_doc(p.conjunctive),
        "us",
    );
    metric(
        "relational.materialize.rows_per_s",
        per_s(t.rows_materialized, p.materialize),
        "1/s",
    );
    metric(
        "relational.rows_materialized",
        stats.rows_materialized as f64,
        "count",
    );
    metric(
        "relational.plans_compiled",
        stats.plans_compiled as f64,
        "count",
    );
    metric(
        "relational.scratch_reuses",
        stats.scratch_reuses as f64,
        "count",
    );
    metric("core.ingest.us_per_doc", us_per_doc(p.ingest), "us");
    metric(
        "core.view.hit_ratio",
        ratio(
            stats.view_cache_hits as f64,
            (stats.view_cache_hits + stats.view_cache_misses) as f64,
        ),
        "ratio",
    );
    metric(
        "core.view.slices_invalidated",
        stats.view_slices_invalidated as f64,
        "count",
    );
    metric(
        "core.output.matches_per_s",
        per_s(t.matches, p.output),
        "1/s",
    );
    metric(
        "core.state.rows_evicted",
        stats.state_rows_evicted as f64,
        "count",
    );
    metric(
        "core.state.buckets_evicted",
        stats.state_buckets_evicted as f64,
        "count",
    );
    metric(
        "core.state.rows_resident",
        (stats.rbin_tuples + stats.rdoc_tuples) as f64,
        "count",
    );
    metric("core.state.late_vs_early", scalars.late_vs_early, "ratio");
    metric(
        "core.register.us_per_query",
        scalars.setup_register_us,
        "us",
    );
    metric(
        "core.register.churn_us_per_query",
        ratio(t.register as f64 / 1e3, lifecycle_ops),
        "us",
    );
    metric(
        "core.unregister.us_per_query",
        ratio(t.unregister as f64 / 1e3, lifecycle_ops),
        "us",
    );
    metric("core.merge.matches_per_s", iso.merge_matches_per_s, "1/s");
    let shard_busy = if t.front > 0 { p.total() - t.front } else { 0 };
    metric("core.shard.front_share", share(t.front), "ratio");
    metric("core.shard.join_share", share(shard_busy), "ratio");
    metric(
        "core.shard.overlap_ratio",
        ratio((t.front + shard_busy) as f64, t.process as f64),
        "ratio",
    );
    metric(
        "core.shard.witnesses_routed",
        stats.witnesses_routed as f64,
        "count",
    );
    metric(
        "core.shard.pipeline_stalls",
        stats.pipeline_stalls as f64,
        "count",
    );
    metric("bench.trace_overhead_frac", scalars.trace_overhead, "ratio");
    metric("bench.matches", first.fold.matches as f64, "count");
    // Folded to 32 bits so that the JSON number is exact.
    metric(
        "bench.digest",
        ((first.fold.digest >> 32) ^ (first.fold.digest & 0xFFFF_FFFF)) as f64,
        "count",
    );
    (out, share_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        // 1 000 samples leave exactly ten beyond the 99th percentile.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), 990);
    }

    #[test]
    fn median_and_fast_quartile() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fast_quartile(&mut ten, false), 3.0);
        assert_eq!(fast_quartile(&mut ten, true), 8.0);
        assert_eq!(fast_quartile(&mut [5.0], true), 5.0);
        assert_eq!(fast_quartile(&mut [2.0, 9.0, 4.0, 7.0, 1.0], false), 2.0);
    }

    #[test]
    fn shares_sum_to_one() {
        // A traced submission whose spans tile it exactly: 10 parse, 70
        // process (60 attributed), 5 consume, plus 15 of lifecycle.
        let phases = Phases {
            xpath: 20,
            conjunctive: 40,
            ..Default::default()
        };
        let s = Sample {
            unregister: (0, 5),
            register: (5, 15),
            start: 100,
            parsed: 110,
            processed: 180,
            stats_read: 180,
            end: 185,
            docs: 2,
            bytes: 200,
            matches: 3,
            attempted: 3,
            attributed: crate::session::Attributed {
                phases,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut t = Sums::default();
        t.add(&s);
        let first = First {
            fold: Fold::default(),
            docs: 0,
            bytes: 0,
            stats: None,
            peak_rss_mb: 0.0,
        };
        let scalars = Scalars {
            setup_register_us: 0.0,
            late_vs_early: 1.0,
            trace_overhead: 0.0,
        };
        let (metrics, sum) = per_layer(&t, &first, &Default::default(), &scalars);
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("xml.parse.share"), 0.1);
        assert_eq!(get("xpath.share"), 0.2);
        assert_eq!(get("relational.conjunctive.share"), 0.4);
        assert_eq!(get("core.process.unattributed_share"), 0.1);
        assert_eq!(get("core.lifecycle.share"), 0.15);
        assert_eq!(get("bench.consume.share"), 0.05);
        assert_eq!(get("bench.trace_overhead_frac"), 0.0);
    }
}
