//! Checkpoint/replay recovery for a pipeline whose shard slots are threads.
//!
//! A shard worker that dies — panics or loses its channel, on any request —
//! takes its in-memory join state with it. This module rebuilds that state deterministically,
//! without ever checkpointing the state itself (`Pipeline::respawn`):
//!
//! 1. **Re-register** the shard's surviving subscriptions from the retained
//!    global registry ([`RetainedQuery`]) in a fresh join stage, through the
//!    same `serve` every registration takes, each under its own id and at
//!    its original arrival floor, so recovered queries only match documents
//!    they would have matched before the crash. (The front never released
//!    them.)
//! 2. **Replay** the in-window document stream from a bounded [`ReplayLog`]:
//!    the coordinator's front matches each logged batch again and routes to
//!    the healed shard alone the rows its live queries request, and the join
//!    stage runs state maintenance only (no Stage 2, no output — those
//!    results were already delivered before the crash). The retention
//!    bound limits what must be kept: once a document has aged beyond every
//!    registered query's horizon, no future output can reference it, so the
//!    log can drop it too.
//!
//! Because ids, timestamps and registration order are all replayed exactly,
//! the rebuilt engine's *subsequent* output is byte-identical to that of an
//! engine that never failed — the property the chaos differential harness
//! asserts.

use mmqjp_xml::Document;
use mmqjp_xscl::{Window, XsclQuery};
use std::collections::VecDeque;

/// A live subscription as retained by the coordinator for recovery: the
/// normalized query plus the arrival floor it was originally registered at.
#[derive(Debug, Clone)]
pub(crate) struct RetainedQuery {
    /// The query, exactly as first registered.
    pub(crate) query: XsclQuery,
    /// `next_doc_seq` at original registration time: the query only matches
    /// documents with a later sequence number.
    pub(crate) floor: u64,
}

/// A bounded log of already-prepared document batches (ids and timestamps
/// assigned), retained only as far back as some registered window can still
/// reach. Held by the coordinator — one log serves every shard, because
/// every shard's state derives from the same global document stream.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    entries: VecDeque<ReplayEntry>,
}

#[derive(Debug, Clone)]
struct ReplayEntry {
    docs: Vec<Document>,
    /// Newest timestamp in `docs`; the whole entry is retired once this ages
    /// beyond the retention bound.
    max_ts: u64,
}

impl ReplayLog {
    /// Append one processed batch (already id- and timestamp-stamped).
    /// Empty batches carry no replayable state and are skipped.
    pub(crate) fn record(&mut self, docs: Vec<Document>) {
        if docs.is_empty() {
            return;
        }
        let max_ts = docs.iter().map(|d| d.timestamp().raw()).max().unwrap_or(0);
        self.entries.push_back(ReplayEntry { docs, max_ts });
    }

    /// Drop entries whose newest document has aged beyond `bound` relative
    /// to the stream watermark `newest`. A `None` bound (some window is
    /// unbounded and no cap is configured) retains everything, mirroring
    /// document retention in the engine itself. Batches are retired whole:
    /// an entry whose newest document is still in-window is kept even if
    /// older documents in it are not — replay re-runs the engine's own
    /// eviction, so over-retention cannot change the rebuilt state.
    pub(crate) fn evict(&mut self, newest: u64, bound: Option<u64>) {
        let Some(bound) = bound else { return };
        let cutoff = newest.saturating_sub(bound);
        while let Some(front) = self.entries.front() {
            if front.max_ts >= cutoff {
                break;
            }
            self.entries.pop_front();
        }
    }

    /// Number of retained batches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log retains no batches.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total documents across all retained batches.
    pub fn total_docs(&self) -> usize {
        self.entries.iter().map(|e| e.docs.len()).sum()
    }

    /// Newest timestamp of the oldest retained batch, if any — used by the
    /// audit to check the log stays within its retention bound.
    pub(crate) fn oldest_entry_max_ts(&self) -> Option<u64> {
        self.entries.front().map(|e| e.max_ts)
    }

    /// The retained batches, oldest first.
    pub(crate) fn batches(&self) -> impl Iterator<Item = &[Document]> {
        self.entries.iter().map(|e| e.docs.as_slice())
    }
}

/// A query's horizon: how far apart its two documents' timestamps, and its
/// stored document's timestamp and the watermark before the batch, may lie
/// for a pair to match. A time window capped by `cap`; the cap alone for an
/// `Infinite` window; `None` — unbounded — with neither.
pub(crate) fn horizon(window: Window, cap: Option<u64>) -> Option<u64> {
    match window {
        Window::Time(t) => Some(cap.map_or(t, |c| t.min(c))),
        Window::Infinite => cap,
    }
}

/// How far back rows and documents must be retained for live join queries
/// with the given windows: the largest [`horizon`]. `None` — retain
/// forever — when some horizon is unbounded; with no window at all nothing
/// is retained. The one retention policy: a join stage evicts at it and the
/// pipeline bounds its replay log with it, so the log never evicts what a
/// shard might still need, and no eviction removes a document the matching
/// rule accepts.
pub(crate) fn retention_bound(
    windows: impl IntoIterator<Item = Window>,
    cap: Option<u64>,
) -> Option<u64> {
    windows.into_iter().try_fold(0, |bound, window| {
        horizon(window, cap).map(|h| bound.max(h))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::parse_document;
    use mmqjp_xml::{DocId, Timestamp};

    fn doc(id: u64, ts: u64) -> Document {
        let mut d = parse_document("<a><b>x</b></a>").expect("valid doc");
        d.set_id(DocId(id));
        d.set_timestamp(Timestamp(ts));
        d
    }

    #[test]
    fn log_records_and_evicts_by_entry_max_ts() {
        let mut log = ReplayLog::default();
        log.record(vec![]);
        assert!(log.is_empty());
        log.record(vec![doc(1, 10), doc(2, 20)]);
        log.record(vec![doc(3, 30)]);
        log.record(vec![doc(4, 45)]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_docs(), 4);
        // Bound 20 at watermark 45: cutoff 25 retires only the first entry
        // (max_ts 20); the entry with max_ts 30 survives whole.
        log.evict(45, Some(20));
        assert_eq!(log.len(), 2);
        assert_eq!(log.oldest_entry_max_ts(), Some(30));
        // Unbounded retention keeps everything.
        log.evict(1_000_000, None);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn retention_bound_mirrors_engine_policy() {
        use mmqjp_xscl::{parse_query, XsclError};
        let text = |w: &str| {
            format!(
                "S//book->x1[.//author->x2] FOLLOWED BY{{x2=x5, {w}}} \
                 S//blog->x4[.//author->x5]"
            )
        };
        let q_win = |w: &str| parse_query(&text(w)).expect("valid query");
        let bound = |queries: &[&XsclQuery], cap| {
            retention_bound(queries.iter().filter_map(|q| q.window()), cap)
        };
        let a = q_win("100");
        let b = q_win("500");
        assert_eq!(bound(&[&a, &b], None), Some(500));
        assert_eq!(bound(&[&a, &b], Some(200)), Some(200));
        let inf = q_win("INF");
        assert_eq!(bound(&[&a, &inf], None), None);
        assert_eq!(bound(&[&a, &inf], Some(800)), Some(800));
        // A tuple-count window never reaches the bound: it is refused.
        assert!(matches!(
            parse_query(&text("COUNT 10")),
            Err(XsclError::Unsupported { .. })
        ));
        let single = parse_query("S//book->x1[.//author->x2]").expect("valid query");
        assert_eq!(bound(&[&single], None), Some(0));
        assert_eq!(bound(&[], None), Some(0));
    }
}
