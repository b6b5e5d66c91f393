//! Error types for the relational engine.

use crate::verify::PlanViolation;
use std::fmt;

/// Convenience result alias used throughout the crate.
pub type RelResult<T> = Result<T, RelError>;

/// Errors produced by relation updates and conjunctive-query compilation and
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A tuple's arity did not match the relation schema.
    ArityMismatch {
        /// Name of the relation or operation.
        context: String,
        /// Expected number of columns.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A column name was not found in a schema.
    UnknownColumn {
        /// The missing column name.
        column: String,
        /// The columns that do exist.
        available: Vec<String>,
    },
    /// A relation name referenced by a query has no known arity at plan
    /// compilation.
    UnknownRelation {
        /// The missing relation name.
        relation: String,
    },
    /// A row position or range lies beyond a relation's rows.
    RowOutOfRange {
        /// The operation and relation involved.
        context: String,
        /// The first position out of range (the end, for a range).
        row: usize,
        /// Rows the relation holds.
        rows: usize,
    },
    /// A conjunctive query is malformed (e.g. head variable not bound in the
    /// body, empty body, or an atom arity mismatch).
    MalformedQuery {
        /// Human-readable description.
        reason: String,
    },
    /// A compiled plan failed registration-time verification
    /// (see [`crate::verify`]).
    PlanVerification {
        /// Every violation found, in check order.
        violations: Vec<PlanViolation>,
    },
    /// A join table memoized for a batch-shared plan input was found with a
    /// different row count than its input: the caller changed the relation
    /// behind the tag without calling
    /// [`ExecScratch::begin_batch`](crate::ExecScratch::begin_batch). A
    /// caller bug, reported instead of joining against stale rows.
    StaleJoinTable {
        /// The input's shared tag.
        tag: u32,
        /// Rows of the input the table was built over.
        built_rows: u32,
        /// Rows of the input it was about to be probed for.
        rows: u32,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::ArityMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch in {context}: expected {expected} values, found {found}"
            ),
            RelError::UnknownColumn { column, available } => write!(
                f,
                "unknown column `{column}` (available: {})",
                available.join(", ")
            ),
            RelError::UnknownRelation { relation } => {
                write!(f, "unknown relation `{relation}`")
            }
            RelError::RowOutOfRange { context, row, rows } => {
                write!(f, "row {row} out of range in {context} ({rows} rows)")
            }
            RelError::MalformedQuery { reason } => write!(f, "malformed query: {reason}"),
            RelError::PlanVerification { violations } => {
                write!(
                    f,
                    "plan verification failed ({} violations):",
                    violations.len()
                )?;
                for v in violations {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
            RelError::StaleJoinTable {
                tag,
                built_rows,
                rows,
            } => write!(
                f,
                "stale shared join table for input tag {tag}: built over {built_rows} rows, input now has {rows}"
            ),
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_contain_details() {
        let e = RelError::ArityMismatch {
            context: "Rdoc".into(),
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("Rdoc"));
        assert!(e.to_string().contains('3'));

        let e = RelError::UnknownColumn {
            column: "strVal".into(),
            available: vec!["docid".into(), "node".into()],
        };
        assert!(e.to_string().contains("strVal"));
        assert!(e.to_string().contains("docid"));

        let e = RelError::UnknownRelation {
            relation: "Rbin".into(),
        };
        assert!(e.to_string().contains("Rbin"));

        let e = RelError::RowOutOfRange {
            context: "gather".into(),
            row: 7,
            rows: 4,
        };
        assert!(e.to_string().contains("row 7"));
        assert!(e.to_string().contains("4 rows"));

        let e = RelError::MalformedQuery {
            reason: "empty body".into(),
        };
        assert!(e.to_string().contains("empty body"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&RelError::UnknownRelation {
            relation: "x".into(),
        });
    }
}
