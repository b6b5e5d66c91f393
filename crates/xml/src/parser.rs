//! A small, dependency-free XML parser for publish/subscribe messages.
//!
//! Supports the subset of XML actually used by feed items and event
//! messages: elements, attributes (single or double quoted), text content,
//! the five predefined entities, numeric character references, comments,
//! CDATA sections, processing instructions and an XML declaration. DTDs and
//! namespace resolution are intentionally out of scope (prefixes are kept as
//! part of the tag name).
//!
//! [`Parser`] holds the scanning steps this DOM parser and the streaming
//! [`PullParser`](crate::stream::PullParser) share. Delimiters (`<`, `&`,
//! the closing quote) are found with `str::find`, whose single-byte search
//! is core's word-at-a-time `memchr`, and reference-free runs are handed out
//! borrowed, so each value byte is scanned once and copied at most once.

use crate::document::Document;
use crate::error::{XmlError, XmlResult};
use crate::node::NodeId;
use std::borrow::Cow;

/// The bytes XML's `S` production calls whitespace. Nothing else is
/// formatting: a no-break space or an ideographic space is data.
fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// Parse a complete XML document (a single root element, optionally preceded
/// by an XML declaration, comments and processing instructions).
pub fn parse_document(input: &str) -> XmlResult<Document> {
    let mut p = Parser::new(input);
    p.open_root()?;
    let tag = p.parse_name()?;
    let mut doc = Document::new(tag);
    p.parse_attributes_into(&mut doc, NodeId::ROOT)?;
    // Open elements with their tags: an explicit stack, so nesting depth
    // cannot overflow the call stack.
    let mut open = Vec::new();
    if !p.end_start_tag()? {
        open.push((NodeId::ROOT, tag));
    }
    while let Some(&(node, tag)) = open.last() {
        match p.next_content(tag)? {
            Content::End => {
                open.pop();
            }
            Content::Child => {
                let tag = p.parse_name()?;
                let child = doc
                    .append_child(node, tag)
                    .map_err(|_| XmlError::NotAnElement { id: node.raw() })?;
                p.parse_attributes_into(&mut doc, child)?;
                if !p.end_start_tag()? {
                    open.push((child, tag));
                }
            }
            Content::Text(text) => doc.push_text(node, text),
        }
    }
    p.close_epilogue()?;
    Ok(doc)
}

/// What [`Parser::next_content`] found inside an element.
#[derive(Debug)]
pub(crate) enum Content<'a> {
    /// The element's end tag, consumed and checked against the open tag.
    End,
    /// The `<` of a child's start tag, consumed; the tag name follows.
    Child,
    /// Character data: a CDATA section verbatim, or a text run with its
    /// references decoded.
    Text(Cow<'a, str>),
}

#[derive(Debug)]
pub(crate) struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn rest(&self) -> &'a str {
        let input = self.input;
        &input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn unexpected_char(&self, expected: &'static str) -> XmlError {
        XmlError::UnexpectedChar {
            offset: self.pos,
            found: self.rest().chars().next().unwrap_or('\0'),
            expected,
        }
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(is_xml_space) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else if self.at_eof() {
            Err(XmlError::UnexpectedEof { context: "markup" })
        } else {
            Err(self.unexpected_char("markup"))
        }
    }

    /// Advance past the first `end` that starts at least `skip` bytes
    /// ahead, or fail with `UnexpectedEof` in `context` without moving.
    fn skip_past(&mut self, skip: usize, end: &str, context: &'static str) -> XmlResult<()> {
        match self.rest()[skip..].find(end) {
            Some(rel) => {
                self.pos += skip + rel + end.len();
                Ok(())
            }
            None => Err(XmlError::UnexpectedEof { context }),
        }
    }

    /// Consume the prolog and whatever may precede the root element, up to
    /// and including the `<` of the root start tag.
    pub(crate) fn open_root(&mut self) -> XmlResult<()> {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            self.skip_past(0, "?>", "XML declaration")?;
        }
        self.skip_misc();
        if self.at_eof() {
            return Err(XmlError::EmptyDocument);
        }
        if self.peek() != Some(b'<') {
            return Err(self.unexpected_char("start of root element"));
        }
        self.pos += 1;
        Ok(())
    }

    /// After the root element closed: only misc content may follow.
    pub(crate) fn close_epilogue(&mut self) -> XmlResult<()> {
        self.skip_misc();
        if self.at_eof() {
            Ok(())
        } else {
            Err(XmlError::MultipleRoots { offset: self.pos })
        }
    }

    /// Skip whitespace, comments, PIs and DOCTYPE at the top level.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            let skipped = if self.starts_with("<!--") {
                self.skip_past(4, "-->", "comment")
            } else if self.starts_with("<?") {
                self.skip_past(0, "?>", "processing instruction")
            } else if self.starts_with("<!DOCTYPE") {
                // A (non-nested) DOCTYPE declaration.
                self.skip_past(0, ">", "DOCTYPE")
            } else {
                return;
            };
            if skipped.is_err() {
                return;
            }
        }
    }

    pub(crate) fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            if self.at_eof() {
                return Err(XmlError::UnexpectedEof { context: "name" });
            }
            return Err(self.unexpected_char("name"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_attributes_into(&mut self, doc: &mut Document, node: NodeId) -> XmlResult<()> {
        for (name, value) in self.parse_attribute_list()? {
            doc.set_attribute(node, name, value);
        }
        Ok(())
    }

    /// Parse the attribute list of a start tag up to (but not including) the
    /// closing `>` or `/>`, in document order. Values are decoded, and
    /// borrowed from the input when they hold no reference.
    pub(crate) fn parse_attribute_list(&mut self) -> XmlResult<Vec<(&'a str, Cow<'a, str>)>> {
        let mut out = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(out),
                _ => {}
            }
            let name = self.parse_name()?;
            self.skip_whitespace();
            self.expect_literal("=")?;
            self.skip_whitespace();
            let quote = match self.bump() {
                Some(q @ (b'"' | b'\'')) => q,
                Some(other) => {
                    return Err(XmlError::UnexpectedChar {
                        offset: self.pos - 1,
                        found: other as char,
                        expected: "quoted attribute value",
                    })
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "attribute value",
                    })
                }
            };
            let start = self.pos;
            let Some(len) = self.rest().find(char::from(quote)) else {
                self.pos = self.bytes.len();
                return Err(XmlError::UnexpectedEof {
                    context: "attribute value",
                });
            };
            let raw = &self.input[start..start + len];
            self.pos = start + len + 1; // past the closing quote
            out.push((name, decode_entities(raw, start)?));
        }
    }

    /// Finish a start tag after its attributes: `true` when it was
    /// self-closing (`/>`), `false` after a plain `>`.
    pub(crate) fn end_start_tag(&mut self) -> XmlResult<bool> {
        self.skip_whitespace();
        if self.starts_with("/>") {
            self.pos += 2;
            Ok(true)
        } else {
            self.expect_literal(">")?;
            Ok(false)
        }
    }

    /// The next item of the content of the element `open_tag`, skipping
    /// comments, processing instructions, empty CDATA sections and
    /// formatting whitespace. The one content loop of both parsers.
    pub(crate) fn next_content(&mut self, open_tag: &str) -> XmlResult<Content<'a>> {
        loop {
            let rest = self.rest();
            if rest.is_empty() {
                return Err(XmlError::UnexpectedEof {
                    context: "element content",
                });
            }
            if !rest.starts_with('<') {
                let start = self.pos;
                let raw = &rest[..rest.find('<').unwrap_or(rest.len())];
                self.pos += raw.len();
                // A run of XML whitespace between elements is formatting,
                // not data. The test reads the raw bytes, so a character
                // reference (`&#32;`) is always data.
                if !raw.bytes().all(is_xml_space) {
                    return decode_entities(raw, start).map(Content::Text);
                }
            } else if rest.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                self.skip_whitespace();
                self.expect_literal(">")?;
                if close != open_tag {
                    return Err(XmlError::MismatchedTag {
                        open: open_tag.to_owned(),
                        close: close.to_owned(),
                        offset: self.pos,
                    });
                }
                return Ok(Content::End);
            } else if rest.starts_with("<!--") {
                self.skip_past(4, "-->", "comment")?;
            } else if let Some(body) = rest.strip_prefix("<![CDATA[") {
                let Some(len) = body.find("]]>") else {
                    return Err(XmlError::UnexpectedEof {
                        context: "CDATA section",
                    });
                };
                self.pos += "<![CDATA[".len() + len + "]]>".len();
                if len > 0 {
                    return Ok(Content::Text(Cow::Borrowed(&body[..len])));
                }
            } else if rest.starts_with("<?") {
                self.skip_past(0, "?>", "processing instruction")?;
            } else {
                self.pos += 1;
                return Ok(Content::Child);
            }
        }
    }
}

/// The longest entity name, in bytes, a reference may have before its `;`.
const MAX_REFERENCE_NAME: usize = 12;

/// Decode the predefined XML entities and character references in a text
/// or attribute-value run. Borrows `raw` when it holds no `&`; otherwise
/// copies the slices between references whole.
pub(crate) fn decode_entities(raw: &str, base_offset: usize) -> XmlResult<Cow<'_, str>> {
    let Some(mut amp) = raw.find('&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    let mut copied = 0;
    loop {
        out.push_str(&raw[copied..amp]);
        let (ch, len) =
            decode_reference(&raw[amp + 1..]).map_err(|name| XmlError::UnknownEntity {
                name: name.to_owned(),
                offset: base_offset + amp,
            })?;
        out.push(ch);
        copied = amp + 1 + len;
        match raw[copied..].find('&') {
            Some(rel) => amp = copied + rel,
            None => break,
        }
    }
    out.push_str(&raw[copied..]);
    Ok(Cow::Owned(out))
}

/// Decode the reference that follows a `&`: the character and the bytes it
/// spans through its `;`, or the name to report as unknown.
///
/// A `;` within [`MAX_REFERENCE_NAME`] bytes ends the name. Without one the
/// reference is unterminated, and the name reported is what precedes the
/// limit, extended to a whole character.
fn decode_reference(after: &str) -> Result<(char, usize), &str> {
    let limit = after.len().min(MAX_REFERENCE_NAME + 1);
    let Some(semi) = after.as_bytes()[..limit].iter().position(|&b| b == b';') else {
        let mut end = limit;
        while !after.is_char_boundary(end) {
            end += 1;
        }
        return Err(&after[..end]);
    };
    let name = &after[..semi];
    let ch = match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => name.strip_prefix('#').and_then(char_reference),
    };
    ch.map(|c| (c, semi + 1)).ok_or(name)
}

/// The character of a character reference's body (after `#`): one or more
/// decimal digits, or `x`/`X` and one or more hex digits, naming an XML
/// `Char`.
fn char_reference(body: &str) -> Option<char> {
    let (digits, radix) = match body.strip_prefix(['x', 'X']) {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    let c = char::from_u32(u32::from_str_radix(digits, radix).ok()?)?;
    is_xml_char(c).then_some(c)
}

/// XML's `Char` production: `#x9 | #xA | #xD | [#x20-#xD7FF] |
/// [#xE000-#xFFFD] | [#x10000-#x10FFFF]`. Surrogates are not `char`s, so
/// `[#x20-#xFFFD]` covers the middle two ranges.
fn is_xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | '\u{20}'..='\u{FFFD}' | '\u{10000}'..=char::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn parse_simple_document() {
        let d = parse_document("<book><title>Rust</title><author>Someone</author></book>").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.root().tag(), "book");
        assert_eq!(d.string_value(NodeId::from_raw(1)), "Rust");
        assert_eq!(d.string_value(NodeId::from_raw(2)), "Someone");
        d.check_invariants().unwrap();
    }

    #[test]
    fn parse_with_declaration_and_comments() {
        let src = r#"<?xml version="1.0" encoding="UTF-8"?>
            <!-- a feed item -->
            <item>
              <title>Hello &amp; goodbye</title>
              <!-- inner comment -->
              <link href="http://example.org/a?b=1&amp;c=2"/>
            </item>"#;
        let d = parse_document(src).unwrap();
        assert_eq!(d.root().tag(), "item");
        assert_eq!(d.string_value(NodeId::from_raw(1)), "Hello & goodbye");
        assert_eq!(
            d.node(NodeId::from_raw(2)).attribute("href"),
            Some("http://example.org/a?b=1&c=2")
        );
    }

    #[test]
    fn parse_nested_structure() {
        let d = parse_document("<a><b><c>x</c></b><d>y</d></a>").unwrap();
        // pre-order: a=0, b=1, c=2, d=3
        assert_eq!(d.node(NodeId::from_raw(1)).tag(), "b");
        assert_eq!(d.node(NodeId::from_raw(2)).tag(), "c");
        assert_eq!(d.node(NodeId::from_raw(3)).tag(), "d");
        assert!(d.is_ancestor(NodeId::from_raw(1), NodeId::from_raw(2)));
        assert_eq!(d.node(NodeId::from_raw(3)).parent(), Some(NodeId::ROOT));
    }

    #[test]
    fn parse_self_closing_root() {
        let d = parse_document("<empty/>").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.root().tag(), "empty");
    }

    #[test]
    fn parse_attributes_single_and_double_quotes() {
        let d = parse_document(r#"<n a="1" b='two' c="with 'mixed'"/>"#).unwrap();
        assert_eq!(d.root().attribute("a"), Some("1"));
        assert_eq!(d.root().attribute("b"), Some("two"));
        assert_eq!(d.root().attribute("c"), Some("with 'mixed'"));
    }

    #[test]
    fn parse_cdata() {
        let d = parse_document("<x><![CDATA[<not><parsed>&amp;]]></x>").unwrap();
        assert_eq!(d.string_value(NodeId::ROOT), "<not><parsed>&amp;");
    }

    #[test]
    fn parse_numeric_entities() {
        let d = parse_document("<x>&#65;&#x42;</x>").unwrap();
        assert_eq!(d.string_value(NodeId::ROOT), "AB");
    }

    #[test]
    fn parse_doctype_skipped() {
        let d = parse_document("<!DOCTYPE html><x>ok</x>").unwrap();
        assert_eq!(d.string_value(NodeId::ROOT), "ok");
    }

    #[test]
    fn mixed_content_concatenates_text() {
        let d = parse_document("<p>one <b>bold</b> two</p>").unwrap();
        // Text directly under <p> is "one  two" (joined), <b> holds "bold".
        assert_eq!(d.node(NodeId::ROOT).text(), Some("one  two"));
        assert_eq!(d.string_value(NodeId::from_raw(1)), "bold");
    }

    #[test]
    fn error_mismatched_tag() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn error_unexpected_eof() {
        let err = parse_document("<a><b>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn error_multiple_roots() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(err, XmlError::MultipleRoots { .. }));
    }

    #[test]
    fn error_empty_document() {
        let err = parse_document("   ").unwrap_err();
        assert!(matches!(err, XmlError::EmptyDocument));
    }

    #[test]
    fn error_unknown_entity() {
        let err = parse_document("<a>&bogus;</a>").unwrap_err();
        assert!(matches!(err, XmlError::UnknownEntity { .. }));
    }

    #[test]
    fn error_text_before_root() {
        let err = parse_document("hello <a/>").unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedChar { .. }));
    }

    #[test]
    fn whitespace_only_text_ignored() {
        let d = parse_document("<a>\n  <b>x</b>\n</a>").unwrap();
        assert_eq!(d.node(NodeId::ROOT).text(), None);
        assert_eq!(d.string_value(NodeId::ROOT), "x");
    }

    #[test]
    fn decode_entities_no_amp_fast_path() {
        assert_eq!(decode_entities("plain text", 0).unwrap(), "plain text");
    }

    #[test]
    fn decode_entities_unterminated() {
        assert!(decode_entities("bad &amp without semicolon", 0).is_err());
    }

    #[test]
    fn decode_entities_borrows_runs_without_references() {
        assert!(matches!(
            decode_entities("plain", 0),
            Ok(Cow::Borrowed("plain"))
        ));
        assert_eq!(decode_entities("a&amp;b&lt;c", 0).unwrap(), "a&b<c");
    }

    /// Satellite regression: `u32` parsing accepted a leading `+`, and NUL
    /// (or any non-`Char` code point) decoded. Rejected at the `&`, the same
    /// in both parsers, in text and in attribute values.
    #[test]
    fn malformed_and_forbidden_character_references_are_rejected() {
        for (reference, name) in [
            ("&#+65;", "#+65"),
            ("&#x+41;", "#x+41"),
            ("&#-1;", "#-1"),
            ("&#0;", "#0"),
            ("&#x0;", "#x0"),
            ("&#8;", "#8"),
            ("&#xB;", "#xB"),
            ("&#x1F;", "#x1F"),
            ("&#xD800;", "#xD800"),
            ("&#xFFFE;", "#xFFFE"),
            ("&#xFFFF;", "#xFFFF"),
            ("&#x110000;", "#x110000"),
            ("&#x 41;", "#x 41"),
            ("&#;", "#"),
            ("&#x;", "#x"),
        ] {
            let expected = XmlError::UnknownEntity {
                name: name.to_owned(),
                offset: 5,
            };
            let text = format!("<t>ab{reference}</t>");
            assert_eq!(parse_document(&text), Err(expected.clone()), "{text}");
            assert_eq!(
                crate::parse_document_streaming(&text),
                Err(expected),
                "{text}"
            );
            let attr = format!("<t k='{reference}'/>");
            let err = XmlError::UnknownEntity {
                name: name.to_owned(),
                offset: 6,
            };
            assert_eq!(parse_document(&attr), Err(err.clone()), "{attr}");
            assert_eq!(crate::parse_document_streaming(&attr), Err(err), "{attr}");
        }
        for (reference, ch) in [
            ("&#9;", "\t"),
            ("&#xA;", "\n"),
            ("&#13;", "\r"),
            ("&#x20;", " "),
            ("&#xD7FF;", "\u{D7FF}"),
            ("&#xE000;", "\u{E000}"),
            ("&#65533;", "\u{FFFD}"),
            ("&#x10000;", "\u{10000}"),
            ("&#X10FFFF;", "\u{10FFFF}"),
            ("&#0065;", "A"),
        ] {
            let d = parse_document(&format!("<t>{reference}</t>")).unwrap();
            assert_eq!(d.root().text(), Some(ch), "{reference}");
        }
    }

    /// Satellite regression: only runs of XML whitespace (space, tab, CR,
    /// LF) are formatting. Unicode whitespace, and any character reference,
    /// is data.
    #[test]
    fn only_xml_whitespace_runs_are_formatting() {
        for (src, text) in [
            ("<t>&#160;</t>", Some("\u{a0}")),
            ("<t>\u{a0}</t>", Some("\u{a0}")),
            ("<t>\u{3000}</t>", Some("\u{3000}")),
            ("<t>\u{85}\u{2028}</t>", Some("\u{85}\u{2028}")),
            ("<t>&#32;</t>", Some(" ")),
            ("<t> &#x9; </t>", Some(" \t ")),
            ("<p>a<b/>\u{a0}</p>", Some("a\u{a0}")),
            ("<t> \t\r\n </t>", None),
            ("<p>a<b/> \n</p>", Some("a")),
        ] {
            for d in [
                parse_document(src).unwrap(),
                crate::parse_document_streaming(src).unwrap(),
            ] {
                assert_eq!(d.root().text(), text, "{src:?}");
            }
        }
    }

    #[test]
    fn deeply_nested_document_parses_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let depth = 100_000;
                let xml = format!("<r>{}x{}</r>", "<n>".repeat(depth), "</n>".repeat(depth));
                let d = parse_document(&xml).unwrap();
                assert_eq!(d.len(), depth + 1);
                assert_eq!(d.string_value(NodeId::ROOT), "x");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// Seeded differential sweep: the run-wise decoder against a naive
    /// char-by-char reference, and the DOM parser against the pull parser,
    /// over generated runs and documents.
    mod differential {
        use super::*;
        use crate::parse_document_streaming;

        /// SplitMix64: a dependency-free, seedable generator.
        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }

            fn pick<'p>(&mut self, items: &[&'p str]) -> &'p str {
                items[self.below(items.len())]
            }
        }

        /// Pieces of a run: text with multibyte characters on both sides of
        /// every delimiter, named / decimal / hex references, and XML and
        /// non-XML whitespace.
        const PIECES: &[&str] = &[
            "plain",
            "é",
            "中文",
            "😀",
            ";",
            ">",
            "]]",
            "'",
            "\"",
            "=",
            "/",
            "&amp;",
            "&lt;",
            "&gt;",
            "&quot;",
            "&apos;",
            "&#65;",
            "&#0065;",
            "&#x41;",
            "&#X4a;",
            "&#x1F600;",
            "&#10;",
            "&#1114111;",
            "é&amp;é",
            "中&#x41;中",
            "&#x00000000041;",
            " ",
            "\t",
            "\r\n",
            "\n",
            "\u{a0}",
            "\u{3000}",
            "\u{85}",
            "&#32;",
            "&#160;",
        ];

        /// Malformed, forbidden, unterminated and over-long references.
        const BAD_PIECES: &[&str] = &[
            "&bogus;",
            "&AMP;",
            "&#+65;",
            "&#x+41;",
            "&#-5;",
            "&#0;",
            "&#x0;",
            "&#8;",
            "&#xFFFE;",
            "&#xD800;",
            "&#1114112;",
            "&#99999999999;",
            "&#;",
            "&#x;",
            "&;",
            "&#x1g;",
            "& ;",
            "&é;",
            "&amp",
            "&#65",
            "&",
            "&abcdefghijklmnop;",
            "&#x000000000041;",
            "&ééééééé;",
            "&éééééé;",
        ];

        /// A run of one to five pieces, each malformed with odds
        /// `1 / bad_odds`, without the `exclude`d characters.
        fn run(rng: &mut Rng, bad_odds: usize, exclude: &[char]) -> String {
            let mut out = String::new();
            for _ in 0..1 + rng.below(5) {
                let pieces = if rng.below(bad_odds) == 0 {
                    BAD_PIECES
                } else {
                    PIECES
                };
                out.push_str(rng.pick(pieces));
            }
            out.retain(|c| !exclude.contains(&c));
            out
        }

        /// The reference decoder: the parent's char-by-char algorithm, with
        /// a character reference limited to digits (no sign) naming an XML
        /// `Char`.
        fn reference_decode(raw: &str, base: usize) -> XmlResult<String> {
            let mut out = String::new();
            let mut chars = raw.char_indices();
            while let Some((i, c)) = chars.next() {
                if c != '&' {
                    out.push(c);
                    continue;
                }
                let mut name = String::new();
                let mut terminated = false;
                for (_, c2) in chars.by_ref() {
                    if c2 == ';' {
                        terminated = true;
                        break;
                    }
                    name.push(c2);
                    if name.len() > 12 {
                        break;
                    }
                }
                let decoded = match name.as_str() {
                    _ if !terminated => None,
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    _ => reference_char(&name),
                };
                match decoded {
                    Some(ch) => out.push(ch),
                    None => {
                        return Err(XmlError::UnknownEntity {
                            name,
                            offset: base + i,
                        })
                    }
                }
            }
            Ok(out)
        }

        fn reference_char(name: &str) -> Option<char> {
            let body = name.strip_prefix('#')?;
            let (digits, radix) = match body.chars().next() {
                Some('x' | 'X') => (&body[1..], 16),
                _ => (body, 10),
            };
            if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
                return None;
            }
            let v = u32::from_str_radix(digits, radix).ok()?;
            let allowed = matches!(
                v,
                0x9 | 0xA | 0xD | 0x20..=0xD7FF | 0xE000..=0xFFFD | 0x10000..=0x10FFFF
            );
            if allowed {
                char::from_u32(v)
            } else {
                None
            }
        }

        #[test]
        fn decoder_matches_the_reference_on_generated_runs() {
            let mut rng = Rng(0x5EED_0001);
            for case in 0..20_000 {
                let raw = run(&mut rng, 3, &[]);
                let base = rng.below(100);
                assert_eq!(
                    decode_entities(&raw, base).map(String::from),
                    reference_decode(&raw, base),
                    "case {case}: {raw:?}"
                );
                // In element content the run is formatting exactly when its
                // raw bytes are XML whitespace.
                let raw = raw.replace('<', "");
                let xml = format!("<t>{raw}</t>");
                let expected = if raw.bytes().all(|b| b" \t\r\n".contains(&b)) {
                    Ok(None)
                } else {
                    reference_decode(&raw, 3).map(Some)
                };
                let parsed = parse_document(&xml).map(|d| d.root().text().map(str::to_owned));
                assert_eq!(parsed, expected, "case {case}: {xml:?}");
            }
        }

        /// Odds of a malformed piece in a generated document's runs.
        const BAD_ODDS: usize = 150;

        fn element(rng: &mut Rng, depth: usize, out: &mut String) {
            let tag = rng.pick(&["a", "b", "x:y", "item_1", "A.b-c"]);
            out.push('<');
            out.push_str(tag);
            for k in 0..rng.below(3) {
                let quote = if rng.below(2) == 0 { '"' } else { '\'' };
                out.push_str(&format!(
                    " k{k}={quote}{}{quote}",
                    run(rng, BAD_ODDS, &[quote])
                ));
            }
            if rng.below(4) == 0 {
                out.push_str(" />");
                return;
            }
            out.push('>');
            for _ in 0..rng.below(5) {
                match rng.below(8) {
                    0 | 1 => out.push_str(&run(rng, BAD_ODDS, &['<'])),
                    2 if depth < 6 => element(rng, depth + 1, out),
                    3 => out.push_str(&format!("<![CDATA[{}]]>", run(rng, BAD_ODDS, &[']']))),
                    4 => out.push_str(&format!("<!--{}-->", run(rng, BAD_ODDS, &['-']))),
                    5 => out.push_str(&format!("<?pi {}?>", run(rng, BAD_ODDS, &['?']))),
                    6 => out.push_str(rng.pick(&[" ", "\n  ", "\t", "\r\n", "\u{a0}"])),
                    _ => element(rng, depth + 1, out),
                }
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }

        #[test]
        fn dom_and_pull_parsers_agree_on_generated_documents() {
            let mut rng = Rng(0x5EED_0002);
            let (mut ok, mut failed) = (0, 0);
            for case in 0..5_000 {
                let mut xml = String::new();
                xml.push_str(rng.pick(&["", "<?xml version=\"1.0\"?>", "<!-- c -->\n", " "]));
                element(&mut rng, 0, &mut xml);
                xml.push_str(rng.pick(&["", "\n", "<!-- tail -->", "<?pi?>", "<b/>"]));
                // Corrupt a third of the documents: cut them short, or drop
                // one character.
                match rng.below(6) {
                    0 => {
                        let mut cut = rng.below(xml.len() + 1);
                        while !xml.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        xml.truncate(cut);
                    }
                    1 => {
                        let mut at = rng.below(xml.len());
                        while !xml.is_char_boundary(at) {
                            at -= 1;
                        }
                        xml.remove(at);
                    }
                    _ => {}
                }
                let dom = parse_document(&xml);
                assert_eq!(dom, parse_document_streaming(&xml), "case {case}: {xml:?}");
                if dom.is_ok() {
                    ok += 1;
                } else {
                    failed += 1;
                }
            }
            // Both outcomes are well represented.
            assert!(ok > 1_000 && failed > 1_000, "ok {ok}, failed {failed}");
        }
    }
}
