//! Abstract syntax of XSCL queries.

use mmqjp_xpath::TreePattern;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a registered continuous query, minted by the engine that
/// registers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueryId(pub u64);

impl QueryId {
    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// The window constraint `T` of a join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Window {
    /// No constraint: any pair of events joins regardless of distance. Used
    /// by the paper's RSS experiment (`T = ∞`).
    Infinite,
    /// Time-based window: the two events' timestamps must differ by at most
    /// this many time units.
    Time(u64),
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Window::Infinite => write!(f, "INF"),
            Window::Time(t) => write!(f, "{t}"),
        }
    }
}

/// The join operator connecting the two query blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinOp {
    /// `FOLLOWED BY{pred, T}` — the left block's event must occur strictly
    /// before the right block's event, within the window.
    FollowedBy,
    /// `JOIN{pred, T}` — symmetric window join: the two events must occur
    /// within the window of each other, in either order.
    Join,
}

impl fmt::Display for JoinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinOp::FollowedBy => write!(f, "FOLLOWED BY"),
            JoinOp::Join => write!(f, "JOIN"),
        }
    }
}

/// A single value-join predicate `left_var = right_var` between a variable
/// bound in the left query block and one bound in the right query block.
/// Equality is on the XPath string values of the bound nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValueJoin {
    /// Variable from the left (earlier) query block.
    pub left_var: String,
    /// Variable from the right (later / current) query block.
    pub right_var: String,
}

impl ValueJoin {
    /// Construct a value join.
    pub fn new(left_var: impl Into<String>, right_var: impl Into<String>) -> Self {
        ValueJoin {
            left_var: left_var.into(),
            right_var: right_var.into(),
        }
    }
}

impl fmt::Display for ValueJoin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.left_var, self.right_var)
    }
}

/// An XPath query block: the structural component matched against a single
/// document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryBlock {
    /// The variable tree pattern (includes the stream name, if any).
    pub pattern: TreePattern,
}

impl QueryBlock {
    /// Construct a query block from a pattern.
    pub fn new(pattern: TreePattern) -> Self {
        QueryBlock { pattern }
    }

    /// The stream the block reads from.
    pub fn stream(&self) -> Option<&str> {
        self.pattern.stream()
    }
}

impl fmt::Display for QueryBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)
    }
}

/// The `SELECT` clause. The default (`SELECT *`) constructs an output
/// document with a new root whose children are the root bindings of the two
/// query blocks (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SelectClause {
    /// `SELECT *` / omitted — the default output construction.
    #[default]
    Star,
    /// Output only the document ids and node bindings (no XML construction).
    /// Useful for high-throughput subscriptions that post-process matches.
    Bindings,
}

impl fmt::Display for SelectClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectClause::Star => write!(f, "SELECT *"),
            SelectClause::Bindings => write!(f, "SELECT BINDINGS"),
        }
    }
}

/// The `FROM` clause: either a single query block (a plain tree-pattern
/// subscription) or two blocks connected by a join operator. Hashable so a
/// registry can key what it derives from a clause by the clause itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FromClause {
    /// A single query block with no join.
    Single(QueryBlock),
    /// Two query blocks connected by a window-join operator.
    Join {
        /// The left (earlier, for `FOLLOWED BY`) query block.
        left: QueryBlock,
        /// The join operator.
        op: JoinOp,
        /// Conjunction of value-join predicates.
        predicates: Vec<ValueJoin>,
        /// The window constraint.
        window: Window,
        /// The right (later / current) query block.
        right: QueryBlock,
    },
}

/// A complete XSCL query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XsclQuery {
    /// The `SELECT` clause.
    pub select: SelectClause,
    /// The `FROM` clause.
    pub from: FromClause,
    /// The `PUBLISH` clause: the name of the query's output stream.
    pub publish: Option<String>,
}

impl XsclQuery {
    /// Construct an inter-document join query with the default `SELECT` and
    /// no `PUBLISH` clause.
    pub fn join(
        left: QueryBlock,
        op: JoinOp,
        predicates: Vec<ValueJoin>,
        window: Window,
        right: QueryBlock,
    ) -> Self {
        XsclQuery {
            select: SelectClause::Star,
            from: FromClause::Join {
                left,
                op,
                predicates,
                window,
                right,
            },
            publish: None,
        }
    }

    /// Construct a single-block subscription.
    pub fn single(block: QueryBlock) -> Self {
        XsclQuery {
            select: SelectClause::Star,
            from: FromClause::Single(block),
            publish: None,
        }
    }

    /// Set the publish name (builder style).
    pub fn with_publish(mut self, name: impl Into<String>) -> Self {
        self.publish = Some(name.into());
        self
    }

    /// `true` when the query is an inter-document join query.
    pub fn is_join(&self) -> bool {
        matches!(self.from, FromClause::Join { .. })
    }

    /// The value-join predicates (empty for single-block queries).
    pub fn predicates(&self) -> &[ValueJoin] {
        match &self.from {
            FromClause::Single(_) => &[],
            FromClause::Join { predicates, .. } => predicates,
        }
    }

    /// The window (None for single-block queries).
    pub fn window(&self) -> Option<Window> {
        match &self.from {
            FromClause::Single(_) => None,
            FromClause::Join { window, .. } => Some(*window),
        }
    }

    /// The join operator (None for single-block queries).
    pub fn op(&self) -> Option<JoinOp> {
        match &self.from {
            FromClause::Single(_) => None,
            FromClause::Join { op, .. } => Some(*op),
        }
    }

    /// The left and right query blocks of a join query.
    pub fn blocks(&self) -> Option<(&QueryBlock, &QueryBlock)> {
        match &self.from {
            FromClause::Single(_) => None,
            FromClause::Join { left, right, .. } => Some((left, right)),
        }
    }
}

impl fmt::Display for XsclQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.from {
            FromClause::Single(b) => write!(f, "{b}")?,
            FromClause::Join {
                left,
                op,
                predicates,
                window,
                right,
            } => {
                let preds: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                write!(
                    f,
                    "{left} {op}{{{} , {window}}} {right}",
                    preds.join(" AND ")
                )?;
            }
        }
        if let Some(p) = &self.publish {
            write!(f, " PUBLISH {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xpath::parse_pattern;

    fn q1() -> XsclQuery {
        let left =
            QueryBlock::new(parse_pattern("S//book->x1[.//author->x2][.//title->x3]").unwrap());
        let right =
            QueryBlock::new(parse_pattern("S//blog->x4[.//author->x5][.//title->x6]").unwrap());
        XsclQuery::join(
            left,
            JoinOp::FollowedBy,
            vec![ValueJoin::new("x2", "x5"), ValueJoin::new("x3", "x6")],
            Window::Time(100),
            right,
        )
    }

    #[test]
    fn join_query_accessors() {
        let q = q1();
        assert!(q.is_join());
        assert_eq!(QueryId(1).to_string(), "Q1");
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.window(), Some(Window::Time(100)));
        assert_eq!(q.op(), Some(JoinOp::FollowedBy));
        let (l, r) = q.blocks().unwrap();
        assert_eq!(l.stream(), Some("S"));
        assert_eq!(r.stream(), Some("S"));
        assert_eq!(q.select, SelectClause::Star);
    }

    #[test]
    fn single_query_accessors() {
        let q = XsclQuery::single(QueryBlock::new(parse_pattern("S//blog").unwrap()));
        assert!(!q.is_join());
        assert!(q.predicates().is_empty());
        assert_eq!(q.window(), None);
        assert_eq!(q.op(), None);
        assert!(q.blocks().is_none());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Window::Infinite.to_string(), "INF");
        assert_eq!(Window::Time(5).to_string(), "5");
        // No window displays as `COUNT n`: the parser refuses that form.
        let count = "S//a->x[.//b->y] JOIN{y=z, COUNT 3} S//c->w[.//d->z]";
        assert!(matches!(
            crate::parse_query(count),
            Err(crate::XsclError::Unsupported { .. })
        ));
        assert_eq!(JoinOp::FollowedBy.to_string(), "FOLLOWED BY");
        assert_eq!(JoinOp::Join.to_string(), "JOIN");
        assert_eq!(ValueJoin::new("a", "b").to_string(), "a=b");
        assert_eq!(SelectClause::Star.to_string(), "SELECT *");
        assert_eq!(SelectClause::Bindings.to_string(), "SELECT BINDINGS");
        let s = q1().with_publish("out").to_string();
        assert!(s.contains("FOLLOWED BY"));
        assert!(s.contains("x2=x5"));
        assert!(s.contains("PUBLISH out"));
    }

    #[test]
    fn builder_style_setters() {
        let q = q1().with_publish("matched");
        assert_eq!(q.publish.as_deref(), Some("matched"));
    }
}
