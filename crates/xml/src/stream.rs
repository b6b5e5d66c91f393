//! Streaming (pull) XML parsing.
//!
//! [`PullParser`] scans the input bytes once and emits
//! [`StartElement`](XmlEvent::StartElement) / [`Text`](XmlEvent::Text) /
//! [`EndElement`](XmlEvent::EndElement) events without building a tree.
//! Events borrow from the input: tags, attribute names and reference-free
//! values are slices of it, so nothing is copied until a consumer keeps it.
//! It runs the same scanning steps as [`parse_document`](crate::parse_document)
//! — same prolog/comment/PI/DOCTYPE skipping, same entity and CDATA handling,
//! same errors — so the DOM parser stays the executable specification and the
//! two are checked against each other differentially.
//!
//! Consumers that do need a tree can use [`parse_document_streaming`], which
//! folds the event stream back into a [`Document`]; it is the equivalence
//! bridge used by tests and by `retain_documents` code paths.

use crate::document::Document;
use crate::error::{XmlError, XmlResult};
use crate::node::NodeId;
use crate::parser::{Content, Parser};
use std::borrow::Cow;

/// One event of a streaming parse, borrowing from the parsed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opened. Attribute values are entity-decoded, in document
    /// order. A self-closing element emits `StartElement` immediately
    /// followed by `EndElement`.
    StartElement {
        /// The element tag (namespace prefixes kept verbatim).
        tag: &'a str,
        /// The attributes, in document order; a value is borrowed unless it
        /// held a reference.
        attributes: Vec<(&'a str, Cow<'a, str>)>,
    },
    /// A text run (entity-decoded; borrowed unless it held a reference) or
    /// CDATA section (raw, borrowed). Text runs of XML whitespace only (space,
    /// tab, CR, LF) between elements are suppressed, exactly as the DOM
    /// parser suppresses them; CDATA content is forwarded verbatim.
    Text(Cow<'a, str>),
    /// An element closed.
    EndElement {
        /// The tag of the element being closed.
        tag: &'a str,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Prolog not yet consumed.
    Init,
    /// Inside the document (or just after the root closed, with an empty
    /// open-element stack: the next call checks the epilogue).
    Content,
    /// Epilogue verified; the stream is exhausted.
    Done,
}

/// A byte-level pull parser over a complete XML document.
///
/// Call [`next_event`](PullParser::next_event) until it returns `Ok(None)`.
/// Errors are fatal: the parser stays in its error position and repeated
/// calls keep failing.
#[derive(Debug)]
pub struct PullParser<'a> {
    parser: Parser<'a>,
    state: State,
    /// Stack of currently open element tags.
    open: Vec<&'a str>,
    /// End event owed for a self-closing element.
    pending_end: Option<&'a str>,
}

impl<'a> PullParser<'a> {
    /// Create a pull parser over `input`.
    pub fn new(input: &'a str) -> Self {
        PullParser {
            parser: Parser::new(input),
            state: State::Init,
            open: Vec::new(),
            pending_end: None,
        }
    }

    /// Current element nesting depth (0 outside the root element).
    pub fn depth(&self) -> usize {
        self.open.len() + usize::from(self.pending_end.is_some())
    }

    /// The next event, `Ok(None)` at a well-formed end of input.
    pub fn next_event(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        if let Some(tag) = self.pending_end.take() {
            return Ok(Some(XmlEvent::EndElement { tag }));
        }
        match self.state {
            State::Init => {
                self.parser.open_root()?;
                self.state = State::Content;
                self.start_tag_body().map(Some)
            }
            State::Content => match self.open.last() {
                None => {
                    self.parser.close_epilogue()?;
                    self.state = State::Done;
                    Ok(None)
                }
                Some(&open) => match self.parser.next_content(open)? {
                    Content::End => {
                        self.open.pop();
                        Ok(Some(XmlEvent::EndElement { tag: open }))
                    }
                    Content::Child => self.start_tag_body().map(Some),
                    Content::Text(text) => Ok(Some(XmlEvent::Text(text))),
                },
            },
            State::Done => Ok(None),
        }
    }

    /// Parse a start tag after its `<`, pushing the element (or recording a
    /// pending end for a self-closing one).
    fn start_tag_body(&mut self) -> XmlResult<XmlEvent<'a>> {
        let tag = self.parser.parse_name()?;
        let attributes = self.parser.parse_attribute_list()?;
        if self.parser.end_start_tag()? {
            self.pending_end = Some(tag);
        } else {
            self.open.push(tag);
        }
        Ok(XmlEvent::StartElement { tag, attributes })
    }
}

/// Parse a complete XML document through the streaming event path, folding
/// the events back into a [`Document`]. Accepts exactly the inputs of
/// [`parse_document`](crate::parse_document) and produces an identical tree.
/// Each value is copied once, from the input (or its decoded run) into its
/// node.
pub fn parse_document_streaming(input: &str) -> XmlResult<Document> {
    let mut p = PullParser::new(input);
    let mut doc: Option<Document> = None;
    let mut stack: Vec<NodeId> = Vec::new();
    while let Some(ev) = p.next_event()? {
        match ev {
            XmlEvent::StartElement { tag, attributes } => match doc.as_mut() {
                None => {
                    let mut d = Document::new(tag);
                    for (name, value) in attributes {
                        d.set_attribute(NodeId::ROOT, name, value);
                    }
                    stack.push(NodeId::ROOT);
                    doc = Some(d);
                }
                Some(d) => {
                    let Some(&parent) = stack.last() else {
                        // Unreachable: the pull parser rejects content after
                        // the root closes before emitting another start.
                        return Err(XmlError::MultipleRoots { offset: 0 });
                    };
                    let child = d.append_child(parent, tag)?;
                    for (name, value) in attributes {
                        d.set_attribute(child, name, value);
                    }
                    stack.push(child);
                }
            },
            XmlEvent::Text(text) => {
                if let (Some(d), Some(&node)) = (doc.as_mut(), stack.last()) {
                    d.push_text(node, text);
                }
            }
            XmlEvent::EndElement { .. } => {
                stack.pop();
            }
        }
    }
    doc.ok_or(XmlError::EmptyDocument)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn events(input: &str) -> Vec<XmlEvent<'_>> {
        let mut p = PullParser::new(input);
        let mut out = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    fn start(tag: &str) -> XmlEvent<'_> {
        XmlEvent::StartElement {
            tag,
            attributes: Vec::new(),
        }
    }

    fn end(tag: &str) -> XmlEvent<'_> {
        XmlEvent::EndElement { tag }
    }

    #[test]
    fn simple_event_stream() {
        let evs = events("<a><b>x</b></a>");
        assert_eq!(
            evs,
            vec![
                start("a"),
                start("b"),
                XmlEvent::Text("x".into()),
                end("b"),
                end("a"),
            ]
        );
    }

    #[test]
    fn self_closing_emits_start_and_end() {
        let evs = events("<a><b/></a>");
        assert_eq!(evs, vec![start("a"), start("b"), end("b"), end("a")]);
    }

    #[test]
    fn self_closing_root() {
        let evs = events("<only/>");
        assert_eq!(evs, vec![start("only"), end("only")]);
    }

    #[test]
    fn attributes_are_decoded_in_order() {
        let evs = events(r#"<a x="1&amp;2" y='b'/>"#);
        assert_eq!(
            evs[0],
            XmlEvent::StartElement {
                tag: "a",
                attributes: vec![("x", "1&2".into()), ("y", "b".into())],
            }
        );
    }

    #[test]
    fn cdata_is_raw_and_whitespace_text_suppressed() {
        let evs = events("<a>\n  <![CDATA[ <raw>&amp; ]]>\n</a>");
        assert_eq!(
            evs,
            vec![start("a"), XmlEvent::Text(" <raw>&amp; ".into()), end("a")]
        );
    }

    #[test]
    fn comments_pis_and_prolog_are_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- c --><a><?pi data?><!-- d -->t</a>");
        assert_eq!(evs, vec![start("a"), XmlEvent::Text("t".into()), end("a")]);
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut p = PullParser::new("<a><b/></a>");
        assert_eq!(p.depth(), 0);
        p.next_event().unwrap(); // <a>
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap(); // <b/> start (end pending)
        assert_eq!(p.depth(), 2);
        p.next_event().unwrap(); // </b>
        assert_eq!(p.depth(), 1);
        p.next_event().unwrap(); // </a>
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn errors_match_dom_parser_kinds() {
        for src in [
            "<a><b></a></b>",
            "<a><b>",
            "<a/><b/>",
            "   ",
            "<a>&bogus;</a>",
            "hello <a/>",
            "<a><!-- unterminated</a>",
            "<a><![CDATA[ unterminated</a>",
        ] {
            let dom = parse_document(src).unwrap_err();
            let mut p = PullParser::new(src);
            let stream = loop {
                match p.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("stream accepted input the DOM parser rejects: {src}"),
                    Err(e) => break e,
                }
            };
            assert_eq!(
                std::mem::discriminant(&dom),
                std::mem::discriminant(&stream),
                "error kind diverged on {src:?}: dom={dom:?} stream={stream:?}"
            );
        }
    }

    #[test]
    fn streaming_document_equals_dom_document() {
        for src in [
            "<book><title>Rust</title><author>Someone</author></book>",
            r#"<?xml version="1.0"?><item><title>Hello &amp; goodbye</title><link href="http://e/a?b=1&amp;c=2"/></item>"#,
            "<a><b><c>x</c></b><d>y</d></a>",
            "<empty/>",
            r#"<n a="1" b='two' c="with 'mixed'"/>"#,
            "<x><![CDATA[<not><parsed>&amp;]]></x>",
            "<x>&#65;&#x42;</x>",
            "<!DOCTYPE html><x>ok</x>",
            "<p>one <b>bold</b> two</p>",
            "<a>\n  <b>x</b>\n</a>",
        ] {
            let dom = parse_document(src).unwrap();
            let streamed = parse_document_streaming(src).unwrap();
            assert_eq!(dom, streamed, "trees diverged on {src:?}");
        }
    }

    #[test]
    fn exhausted_parser_keeps_returning_none() {
        let mut p = PullParser::new("<a/>");
        while p.next_event().unwrap().is_some() {}
        assert!(p.next_event().unwrap().is_none());
    }
}
