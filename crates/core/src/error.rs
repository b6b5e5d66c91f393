//! Error types for the MMQJP engine.

use mmqjp_relational::RelError;
use mmqjp_xscl::XsclError;
use std::fmt;

/// Convenience result alias used throughout the crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors produced by the MMQJP engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A query could not be parsed or normalized.
    Query(XsclError),
    /// An internal relational operation failed (indicates a bug in query
    /// compilation rather than a user error).
    Relational(RelError),
    /// The query is not supported by the Join Processor (e.g. a single-block
    /// subscription registered where a join query is required).
    Unsupported {
        /// Human-readable description.
        reason: String,
    },
    /// A document was submitted with a timestamp older than one already
    /// processed while the engine is configured for in-order streams.
    OutOfOrderDocument {
        /// The timestamp of the offending document.
        timestamp: u64,
        /// The newest timestamp seen so far.
        newest: u64,
    },
    /// A referenced query id is unknown.
    UnknownQuery {
        /// The raw query id.
        id: u64,
    },
    /// A shard worker thread of a [`ShardedEngine`](crate::ShardedEngine) is
    /// gone (its thread panicked or was shut down), so the request could not
    /// be completed.
    ShardUnavailable {
        /// Index of the unavailable shard.
        shard: usize,
    },
    /// A spawned Stage-1 front worker thread of a
    /// [`ShardedEngine`](crate::ShardedEngine) is gone. The shards are
    /// untouched (no shard is degraded and `respawn_shard` has nothing to
    /// rebuild); only [`FaultPolicy::Quarantine`](crate::FaultPolicy::Quarantine)
    /// respawns and re-syncs a front worker, so under the other policies
    /// every later batch fails with this error too.
    FrontUnavailable {
        /// Front party of the unavailable worker, in `1..front_pool` (party
        /// 0 is the caller's thread, which this error never names).
        worker: usize,
    },
    /// A shard worker caught a panic while serving a request. The worker
    /// contains the panic (the channel is answered with this typed error
    /// instead of being silently dropped) and then retires itself: a
    /// panicking engine's state is suspect, so the supervisor must respawn
    /// the shard (see `ShardedEngine::respawn_shard`) before it serves again.
    ShardPanicked {
        /// Index of the shard whose worker panicked.
        shard: usize,
        /// The panic payload, rendered as a string (`"<non-string panic
        /// payload>"` when the payload was not a string).
        payload: String,
    },
    /// An internal engine invariant did not hold. This always indicates a
    /// bug in the engine (never a user error); the engine reports it as a
    /// typed error instead of panicking on the processing path.
    Internal {
        /// Which invariant was violated.
        context: &'static str,
    },
    /// A join-state or witness tuple carried a value of the wrong type in an
    /// index-key column. This indicates state corruption (or a bug in witness
    /// construction), never a user error: the engine refuses to silently
    /// collapse such rows onto a sentinel key.
    CorruptStateRow {
        /// Name of the relation holding the malformed row.
        relation: &'static str,
        /// Name of the offending column.
        column: &'static str,
        /// Debug rendering of the malformed value.
        value: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Relational(e) => write!(f, "internal relational error: {e}"),
            CoreError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
            CoreError::OutOfOrderDocument { timestamp, newest } => write!(
                f,
                "out-of-order document: timestamp {timestamp} is older than already-processed {newest}"
            ),
            CoreError::UnknownQuery { id } => write!(f, "unknown query id {id}"),
            CoreError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} worker is unavailable")
            }
            CoreError::FrontUnavailable { worker } => {
                write!(f, "front worker {worker} is unavailable")
            }
            CoreError::ShardPanicked { shard, payload } => {
                write!(f, "shard {shard} worker panicked: {payload}")
            }
            CoreError::Internal { context } => {
                write!(f, "internal engine invariant violated: {context}")
            }
            CoreError::CorruptStateRow {
                relation,
                column,
                value,
            } => write!(
                f,
                "corrupt state row: {relation}.{column} holds {value} instead of an index key"
            ),
        }
    }
}

impl CoreError {
    /// Shorthand for an [`Internal`](Self::Internal) invariant violation.
    pub(crate) fn internal(context: &'static str) -> Self {
        CoreError::Internal { context }
    }
}

impl std::error::Error for CoreError {}

impl From<XsclError> for CoreError {
    fn from(e: XsclError) -> Self {
        CoreError::Query(e)
    }
}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e: CoreError = XsclError::NoValueJoins.into();
        assert!(e.to_string().contains("query error"));
        let e: CoreError = RelError::UnknownRelation {
            relation: "Rbin".into(),
        }
        .into();
        assert!(e.to_string().contains("Rbin"));
        assert!(CoreError::Unsupported {
            reason: "nested joins".into()
        }
        .to_string()
        .contains("nested joins"));
        assert!(CoreError::OutOfOrderDocument {
            timestamp: 1,
            newest: 5
        }
        .to_string()
        .contains("out-of-order"));
        assert!(CoreError::UnknownQuery { id: 7 }.to_string().contains('7'));
        assert!(CoreError::ShardUnavailable { shard: 2 }
            .to_string()
            .contains("shard 2"));
        assert!(CoreError::FrontUnavailable { worker: 1 }
            .to_string()
            .contains("front worker 1"));
        let e = CoreError::ShardPanicked {
            shard: 3,
            payload: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("index out of bounds"));
        assert!(CoreError::internal("watermark went backwards")
            .to_string()
            .contains("watermark went backwards"));
        let e = CoreError::CorruptStateRow {
            relation: "Rdoc",
            column: "strVal",
            value: "Null".into(),
        };
        assert!(e.to_string().contains("Rdoc.strVal"));
        assert!(e.to_string().contains("Null"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error>(_: &E) {}
        check(&CoreError::UnknownQuery { id: 0 });
    }
}
