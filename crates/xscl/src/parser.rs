//! Parser for the textual form of XSCL queries.
//!
//! The grammar accepted (whitespace-insensitive, keywords case-insensitive):
//!
//! ```text
//! query      := [ "SELECT" select ] [ "FROM" ] from [ "PUBLISH" name ]
//! select     := "*" | "BINDINGS"
//! from       := block [ op "{" predicates "," window "}" block ]
//! op         := "FOLLOWED BY" | "JOIN"
//! predicates := pred ( "AND" pred )*
//! pred       := var "=" var
//! window     := integer | "INF"
//! block      := <tree pattern, see mmqjp-xpath>
//! ```
//!
//! Example (Q1 from the paper's Table 2, with a concrete window):
//!
//! ```text
//! S//book->x1[.//author->x2][.//title->x3]
//!   FOLLOWED BY{x2=x5 AND x3=x6, 100}
//! S//blog->x4[.//author->x5][.//title->x6]
//! ```

use crate::ast::{FromClause, JoinOp, QueryBlock, SelectClause, ValueJoin, Window, XsclQuery};
use crate::error::{XsclError, XsclResult};
use mmqjp_xpath::parse_pattern;

/// Parse an XSCL query from its textual form.
pub fn parse_query(input: &str) -> XsclResult<XsclQuery> {
    let text = input.trim();
    if text.is_empty() {
        return Err(XsclError::Parse {
            message: "empty query".to_owned(),
        });
    }

    // Split off SELECT ... FROM prefix.
    let (select, rest) = parse_select(text)?;
    // Split off PUBLISH suffix.
    let (body, publish) = parse_publish(rest)?;

    // Locate the join operator at the top level (outside any brackets).
    let op_location = find_operator(body);
    let from = match op_location {
        None => {
            let pattern = parse_pattern(body.trim())?;
            FromClause::Single(QueryBlock::new(pattern))
        }
        Some((op, op_start, op_end)) => {
            let left_text = body[..op_start].trim();
            let after_op = &body[op_end..];
            // Expect '{ predicates , window }' then the right block.
            let brace_open = after_op.find('{').ok_or_else(|| XsclError::Parse {
                message: format!("expected '{{' after {op}"),
            })?;
            let brace_close = after_op.find('}').ok_or_else(|| XsclError::Parse {
                message: "unclosed '{' in join operator parameters".to_owned(),
            })?;
            if brace_close < brace_open {
                return Err(XsclError::Parse {
                    message: "malformed join operator parameters".to_owned(),
                });
            }
            let params = &after_op[brace_open + 1..brace_close];
            let right_text = after_op[brace_close + 1..].trim();
            let (predicates, window) = parse_params(params)?;
            let left = QueryBlock::new(parse_pattern(left_text)?);
            let right = QueryBlock::new(parse_pattern(right_text)?);
            FromClause::Join {
                left,
                op,
                predicates,
                window,
                right,
            }
        }
    };

    Ok(XsclQuery {
        select,
        from,
        publish,
    })
}

/// Parse an optional `SELECT ... FROM` prefix, returning the select clause
/// and the remainder of the input.
fn parse_select(text: &str) -> XsclResult<(SelectClause, &str)> {
    let upper = text.to_ascii_uppercase();
    if !upper.starts_with("SELECT") {
        // A bare FROM is also allowed.
        if let Some(stripped) = strip_keyword(text, "FROM") {
            return Ok((SelectClause::Star, stripped));
        }
        return Ok((SelectClause::Star, text));
    }
    let after_select = text["SELECT".len()..].trim_start();
    let upper_after = after_select.to_ascii_uppercase();
    let from_pos = upper_after.find("FROM").ok_or_else(|| XsclError::Parse {
        message: "SELECT clause without FROM".to_owned(),
    })?;
    let select_text = after_select[..from_pos].trim();
    let select = match select_text.to_ascii_uppercase().as_str() {
        "*" | "" => SelectClause::Star,
        "BINDINGS" => SelectClause::Bindings,
        other => {
            return Err(XsclError::Parse {
                message: format!("unsupported SELECT clause `{other}`"),
            })
        }
    };
    Ok((select, after_select[from_pos + "FROM".len()..].trim_start()))
}

/// Parse an optional `PUBLISH name` suffix.
fn parse_publish(text: &str) -> XsclResult<(&str, Option<String>)> {
    let upper = text.to_ascii_uppercase();
    if let Some(pos) = upper.rfind("PUBLISH") {
        // Make sure PUBLISH is a standalone keyword (preceded by whitespace).
        let is_keyword = pos == 0
            || text[..pos]
                .chars()
                .next_back()
                .map(|c| c.is_whitespace())
                .unwrap_or(false);
        if is_keyword {
            let name = text[pos + "PUBLISH".len()..].trim();
            if name.is_empty() {
                return Err(XsclError::Parse {
                    message: "PUBLISH clause without a stream name".to_owned(),
                });
            }
            return Ok((text[..pos].trim_end(), Some(name.to_owned())));
        }
    }
    Ok((text, None))
}

fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = text.to_ascii_uppercase();
    if upper.starts_with(keyword) {
        Some(text[keyword.len()..].trim_start())
    } else {
        None
    }
}

/// Find the top-level join operator keyword, returning `(op, start, end)`
/// byte offsets of the keyword itself. Operators inside brackets (pattern
/// predicates) are ignored.
fn find_operator(text: &str) -> Option<(JoinOp, usize, usize)> {
    let upper = text.to_ascii_uppercase();
    let bytes = upper.as_bytes();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            _ if depth == 0 => {
                // A keyword must start at a word boundary (start of input or
                // after a non-identifier character) so that tag names such as
                // `joint` are not mistaken for operators.
                let at_boundary = i == 0
                    || !upper[..i]
                        .chars()
                        .next_back()
                        .map(|c| c.is_ascii_alphanumeric() || c == '_')
                        .unwrap_or(false);
                if at_boundary && upper[i..].starts_with("FOLLOWED") {
                    // Allow arbitrary whitespace between FOLLOWED and BY.
                    let rest = &upper[i + "FOLLOWED".len()..];
                    let trimmed = rest.trim_start();
                    if trimmed.starts_with("BY") {
                        let ws = rest.len() - trimmed.len();
                        let end = i + "FOLLOWED".len() + ws + "BY".len();
                        if !upper[end..]
                            .chars()
                            .next()
                            .map(|c| c.is_ascii_alphanumeric() || c == '_')
                            .unwrap_or(false)
                        {
                            return Some((JoinOp::FollowedBy, i, end));
                        }
                    }
                }
                if at_boundary && upper[i..].starts_with("JOIN") {
                    let end = i + "JOIN".len();
                    if !upper[end..]
                        .chars()
                        .next()
                        .map(|c| c.is_ascii_alphanumeric() || c == '_')
                        .unwrap_or(false)
                    {
                        return Some((JoinOp::Join, i, end));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse the `{predicates, window}` parameter list (without the braces).
fn parse_params(params: &str) -> XsclResult<(Vec<ValueJoin>, Window)> {
    let last_comma = params.rfind(',').ok_or_else(|| XsclError::Parse {
        message: "join operator parameters must be `{predicates, window}`".to_owned(),
    })?;
    let pred_text = params[..last_comma].trim();
    let window_text = params[last_comma + 1..].trim();
    let window = parse_window(window_text)?;
    let mut predicates = Vec::new();
    for part in pred_text.split_terminator("AND") {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let eq = part.find('=').ok_or_else(|| XsclError::Parse {
            message: format!("value-join predicate `{part}` is not an equality"),
        })?;
        let left = part[..eq].trim();
        let right = part[eq + 1..].trim();
        if left.is_empty() || right.is_empty() {
            return Err(XsclError::Parse {
                message: format!("malformed value-join predicate `{part}`"),
            });
        }
        predicates.push(ValueJoin::new(left, right));
    }
    if predicates.is_empty() {
        return Err(XsclError::Parse {
            message: "join operator has no value-join predicates".to_owned(),
        });
    }
    Ok((predicates, window))
}

fn parse_window(text: &str) -> XsclResult<Window> {
    let upper = text.to_ascii_uppercase();
    if upper == "INF" || upper == "INFINITY" || upper == "*" {
        return Ok(Window::Infinite);
    }
    if upper.starts_with("COUNT") {
        // A tuple-count window asks for a bound nothing here counts: refused,
        // rather than evaluated as INF with unbounded state.
        return Err(XsclError::Unsupported {
            feature: format!("tuple-count window `{text}` (use a time window or INF)"),
        });
    }
    let t: u64 = upper.parse().map_err(|_| XsclError::Parse {
        message: format!("invalid window `{text}` (expected an integer or INF)"),
    })?;
    Ok(Window::Time(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";

    #[test]
    fn parse_q1() {
        let q = parse_query(Q1).unwrap();
        assert!(q.is_join());
        assert_eq!(q.op(), Some(JoinOp::FollowedBy));
        assert_eq!(q.window(), Some(Window::Time(100)));
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.predicates()[0], ValueJoin::new("x2", "x5"));
        assert_eq!(q.predicates()[1], ValueJoin::new("x3", "x6"));
        let (l, r) = q.blocks().unwrap();
        assert!(l.pattern.binds("x1"));
        assert!(r.pattern.binds("x6"));
        assert_eq!(q.select, SelectClause::Star);
        assert!(q.publish.is_none());
    }

    #[test]
    fn parse_q3_self_join_shape() {
        // Q3: a pair of blog postings by the same author and title.
        let text = "S//blog->x4[.//author->x5][.//title->x6] \
            FOLLOWED BY{x5=x5' AND x6=x6', 50} \
            S//blog->x4'[.//author->x5'][.//title->x6']";
        let q = parse_query(text).unwrap();
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.predicates()[0], ValueJoin::new("x5", "x5'"));
        let (l, r) = q.blocks().unwrap();
        assert_ne!(l.pattern.signature(), r.pattern.signature());
        // Same structural shape, different variable names.
        assert!(l.pattern.binds("x5"));
        assert!(r.pattern.binds("x5'"));
    }

    #[test]
    fn parse_with_select_and_publish() {
        let text = format!("SELECT * FROM {Q1} PUBLISH matches");
        let q = parse_query(&text).unwrap();
        assert_eq!(q.select, SelectClause::Star);
        assert_eq!(q.publish.as_deref(), Some("matches"));
        assert!(q.is_join());
    }

    #[test]
    fn parse_select_bindings() {
        let text = format!("SELECT BINDINGS FROM {Q1}");
        let q = parse_query(&text).unwrap();
        assert_eq!(q.select, SelectClause::Bindings);
    }

    #[test]
    fn parse_bare_from_keyword() {
        let text = format!("FROM {Q1}");
        assert!(parse_query(&text).unwrap().is_join());
    }

    #[test]
    fn parse_join_operator() {
        let text = "S//item->a[.//title->t1] JOIN{t1=t2, INF} S//item->b[.//title->t2]";
        let q = parse_query(text).unwrap();
        assert_eq!(q.op(), Some(JoinOp::Join));
        assert_eq!(q.window(), Some(Window::Infinite));
    }

    #[test]
    fn parse_count_window() {
        let text = "S//item->a[.//title->t1] JOIN{t1=t2, COUNT 1000} S//item->b[.//title->t2]";
        assert!(matches!(
            parse_query(text),
            Err(XsclError::Unsupported { feature }) if feature.contains("COUNT 1000")
        ));
    }

    #[test]
    fn parse_single_block_subscription() {
        let q = parse_query("S//blog[.//author]").unwrap();
        assert!(!q.is_join());
    }

    #[test]
    fn parse_single_block_with_publish() {
        let q = parse_query("S//blog PUBLISH blogs").unwrap();
        assert!(!q.is_join());
        assert_eq!(q.publish.as_deref(), Some("blogs"));
    }

    #[test]
    fn error_empty_query() {
        assert!(matches!(parse_query("  "), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_missing_brace() {
        let text = "S//a->x FOLLOWED BY x=y, 10 S//b->y";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_unclosed_brace() {
        let text = "S//a->x FOLLOWED BY{x=y, 10 S//b->y";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_no_predicates() {
        let text = "S//a->x FOLLOWED BY{ , 10} S//b->y";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_bad_window() {
        let text = "S//a->x FOLLOWED BY{x=y, soon} S//b->y";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_bad_predicate() {
        let text = "S//a->x FOLLOWED BY{x < y, 10} S//b->y";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_select_without_from() {
        assert!(matches!(
            parse_query("SELECT * S//a"),
            Err(XsclError::Parse { .. })
        ));
    }

    #[test]
    fn error_publish_without_name() {
        let text = "S//a PUBLISH ";
        assert!(matches!(parse_query(text), Err(XsclError::Parse { .. })));
    }

    #[test]
    fn error_bad_pattern_in_block() {
        let text = "S//a->x FOLLOWED BY{x=y, 10} ???";
        assert!(matches!(parse_query(text), Err(XsclError::Pattern(_))));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let text = "select * from S//a->x followed by{x=y, 10} S//b->y publish out";
        let q = parse_query(text).unwrap();
        assert_eq!(q.op(), Some(JoinOp::FollowedBy));
        assert_eq!(q.publish.as_deref(), Some("out"));
    }

    #[test]
    fn roundtrip_display_parse() {
        let q = parse_query(Q1).unwrap();
        let s = q.to_string();
        let q2 = parse_query(&s).unwrap();
        assert_eq!(q.predicates(), q2.predicates());
        assert_eq!(q.window(), q2.window());
        assert_eq!(q.op(), q2.op());
    }
}
