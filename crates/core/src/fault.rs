//! Deterministic fault injection for the sharded pipeline.
//!
//! Production failure handling is only trustworthy if it is exercised, and it
//! is only *testable* if the failures are reproducible. This module provides a
//! seeded, step-indexed fault schedule ([`FaultPlan`]) and the runtime that
//! drives it ([`FaultInjector`]): "panic shard 2 while it serves batch 7",
//! "drop shard 0's response channel at batch 3", "corrupt the bytes of
//! document 1 in batch 5". The same seed always produces the same schedule,
//! so a chaos-harness failure replays exactly.
//!
//! The injector is strictly opt-in: a [`ShardedEngine`](crate::ShardedEngine)
//! without one (the default) never consults this module on the hot path, and
//! a benign plan ([`FaultPlan::none`]) injects nothing — the equivalence
//! fixtures run once under a benign plan to prove the plumbing itself is
//! non-perturbing.
//!
//! Poison *input* (as opposed to injected worker death) is recorded by the
//! quarantine path as a [`QuarantineRecord`], regardless of whether the
//! poison arrived organically or via [`FaultKind::OutOfOrderTimestamp`].

use crate::error::CoreError;
use std::collections::BTreeMap;

/// A single injected fault, addressed by batch index via [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Panic the given shard worker while it serves this batch. The worker
    /// contains the panic ([`CoreError::ShardPanicked`]) and retires; what
    /// happens next depends on the
    /// [`FaultPolicy`](crate::FaultPolicy).
    PanicShard {
        /// Index of the shard to kill.
        shard: usize,
    },
    /// Make the given shard drop this batch's reply channel without
    /// answering (the worker itself stays alive but desynchronised, so the
    /// supervisor treats it exactly like a death and respawns it). Models a
    /// lost response rather than a crashed computation.
    DropResponse {
        /// Index of the shard whose reply is dropped.
        shard: usize,
    },
    /// Panic the given spawned front worker while it matches its slice of
    /// this batch. Only [`FaultPolicy::Quarantine`](crate::FaultPolicy)
    /// respawns it; under the other policies the batch and every later one
    /// fail with [`CoreError::FrontUnavailable`]. A fault is delivered only
    /// to a party in `1..front_pool` that receives a non-empty slice: party
    /// 0 is the caller's thread, which is never killed, so a fault aimed at
    /// it (or at a party beyond the pool) injects nothing.
    PanicFront {
        /// Front party of the worker to kill, in `1..front_pool`.
        worker: usize,
    },
    /// Corrupt the serialized bytes of the given document before parsing.
    /// Applied by the harness (which owns the raw bytes) via
    /// [`corrupt_bytes`]; the engine itself never sees this kind.
    CorruptDocument {
        /// Index of the document within the batch.
        doc_index: usize,
    },
    /// Rewrite the given document's timestamp to one older than the stream
    /// watermark, turning it into poison input for an in-order engine.
    OutOfOrderTimestamp {
        /// Index of the document within the batch.
        doc_index: usize,
    },
}

/// A deterministic, step-indexed schedule of faults: batch index → faults to
/// inject while that batch is processed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    steps: BTreeMap<u64, Vec<FaultKind>>,
}

impl FaultPlan {
    /// The benign plan: injects nothing, ever. Installing it proves the
    /// injection plumbing is non-perturbing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a fault to inject at the given (0-based) batch index. Builder
    /// style; multiple faults may target the same batch.
    pub fn at(mut self, batch: u64, fault: FaultKind) -> Self {
        self.steps.entry(batch).or_default().push(fault);
        self
    }

    /// Derive a pseudo-random plan from `seed`, scheduling roughly one fault
    /// every few batches across `batches` steps for an engine with
    /// `num_shards` shards and `front_pool` front parties (each clamped to at
    /// least `1`, as the engine does). Front panics target the spawned
    /// parties `1..front_pool`; with `front_pool ≤ 1` there is no front thread
    /// to kill, so the plan draws one of the other four kinds instead. The
    /// same arguments always yield the same plan.
    pub fn seeded(seed: u64, batches: u64, num_shards: usize, front_pool: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::default();
        let shards = num_shards.max(1) as u64;
        let workers = front_pool.max(1) as u64 - 1;
        for batch in 0..batches {
            // ~40% of batches get one fault; the rest run clean so the
            // pipeline also exercises fault-free steady state post-recovery.
            if rng.next() % 10 >= 4 {
                continue;
            }
            let kind = match workers {
                0 => [0, 1, 3, 4][(rng.next() % 4) as usize],
                _ => rng.next() % 5,
            };
            let fault = match kind {
                0 => FaultKind::PanicShard {
                    shard: (rng.next() % shards) as usize,
                },
                1 => FaultKind::DropResponse {
                    shard: (rng.next() % shards) as usize,
                },
                2 => FaultKind::PanicFront {
                    worker: 1 + (rng.next() % workers) as usize,
                },
                3 => FaultKind::CorruptDocument {
                    doc_index: (rng.next() % 4) as usize,
                },
                _ => FaultKind::OutOfOrderTimestamp {
                    doc_index: (rng.next() % 4) as usize,
                },
            };
            plan = plan.at(batch, fault);
        }
        plan
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.steps.values().all(Vec::is_empty)
    }

    /// The faults scheduled for the given batch index.
    pub fn faults_at(&self, batch: u64) -> &[FaultKind] {
        self.steps.get(&batch).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Runtime driver for a [`FaultPlan`]: hands the engine the faults scheduled
/// for each batch and counts how many were actually delivered.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    injected: usize,
}

impl FaultInjector {
    /// Create an injector for the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, injected: 0 }
    }

    /// The faults to inject for the given batch index. Each returned fault
    /// is counted as injected (mirrored into the engine's `faults_injected`
    /// stat by the caller).
    pub fn faults_for(&mut self, batch: u64) -> Vec<FaultKind> {
        let faults = self.plan.faults_at(batch).to_vec();
        self.injected += faults.len();
        faults
    }

    /// Total faults delivered so far.
    pub fn injected(&self) -> usize {
        self.injected
    }
}

/// A poison document that was skipped under
/// [`FaultPolicy::Quarantine`](crate::FaultPolicy) instead of failing its
/// batch. The record pins the document's exact position in the stream so a
/// differential harness can reconstruct the surviving-document stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// 0-based index of the batch the document arrived in.
    pub batch: u64,
    /// Index of the document within its batch.
    pub doc_index: usize,
    /// The offending document's (effective) timestamp.
    pub timestamp: u64,
    /// Why the document was rejected.
    pub error: CoreError,
}

/// Deterministically mutate the bytes of a serialized document, for the
/// malformed-input and chaos harnesses. The mutation count and positions
/// derive from `seed` alone. The result is arbitrary bytes — it may or may
/// not still parse; harnesses must treat accept and reject as both valid as
/// long as the two parsers agree and neither panics.
pub fn corrupt_bytes(input: &str, seed: u64) -> Vec<u8> {
    let mut bytes = input.as_bytes().to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let mut rng = SplitMix64::new(seed);
    let mutations = 1 + (rng.next() % 4) as usize;
    for _ in 0..mutations {
        let pos = (rng.next() % bytes.len() as u64) as usize;
        match rng.next() % 3 {
            0 => bytes[pos] = (rng.next() % 256) as u8,
            1 => {
                bytes.remove(pos);
                if bytes.is_empty() {
                    return bytes;
                }
            }
            _ => bytes.insert(pos, (rng.next() % 256) as u8),
        }
    }
    bytes
}

/// Minimal splitmix64 generator so fault schedules need no external RNG
/// crate and stay identical across platforms.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How an injected fault is delivered to a shard worker thread, carried
/// inside the worker's request messages (a front worker's request carries
/// only a panic flag). `Panic` makes the worker panic mid-request
/// (exercising containment); `DropReply` makes it skip the request and drop
/// the reply channel without dying (exercising supervisor detection of lost
/// responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerFault {
    Panic,
    DropReply,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_is_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(plan);
        for b in 0..100 {
            assert!(inj.faults_for(b).is_empty());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn builder_schedules_faults() {
        let plan = FaultPlan::none()
            .at(2, FaultKind::PanicShard { shard: 1 })
            .at(2, FaultKind::OutOfOrderTimestamp { doc_index: 0 })
            .at(5, FaultKind::DropResponse { shard: 0 });
        assert!(!plan.is_empty());
        assert_eq!(plan.faults_at(2).len(), 2);
        assert_eq!(plan.faults_at(3).len(), 0);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.faults_for(2).len(), 2);
        assert_eq!(inj.faults_for(5).len(), 1);
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 20, 4, 2);
        let b = FaultPlan::seeded(42, 20, 4, 2);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 20, 4, 2);
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
        // A front pool of 0 is clamped to 1, exactly as the engine does.
        assert_eq!(
            FaultPlan::seeded(42, 64, 4, 0),
            FaultPlan::seeded(42, 64, 4, 1)
        );
    }

    #[test]
    fn seeded_front_panics_target_spawned_workers_only() {
        let front_workers = |pool: usize| -> Vec<usize> {
            let plan = FaultPlan::seeded(42, 256, 4, pool);
            (0..256)
                .flat_map(|b| plan.faults_at(b))
                .filter_map(|f| match f {
                    FaultKind::PanicFront { worker } => Some(*worker),
                    _ => None,
                })
                .collect()
        };
        // One party is the caller's thread alone: nothing to kill, and the
        // plan still schedules faults at the usual rate.
        assert!(front_workers(1).is_empty());
        assert!(!FaultPlan::seeded(42, 256, 4, 1).is_empty());
        let three = front_workers(3);
        assert!(!three.is_empty());
        assert!(three.iter().all(|w| (1..3).contains(w)), "{three:?}");
        assert!(three.contains(&1) && three.contains(&2));
    }

    #[test]
    fn corrupt_bytes_is_deterministic_and_mutating() {
        let doc = "<rss><item><title>t</title></item></rss>";
        let a = corrupt_bytes(doc, 7);
        let b = corrupt_bytes(doc, 7);
        assert_eq!(a, b);
        assert_ne!(a, doc.as_bytes());
        assert!(corrupt_bytes("", 7).is_empty());
    }
}
