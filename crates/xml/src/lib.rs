//! # mmqjp-xml
//!
//! XML document substrate for the MMQJP (Massively Multi-Query Join
//! Processing) publish/subscribe engine — a reproduction of Hong et al.,
//! *"Massively Multi-Query Join Processing in Publish/Subscribe Systems"*,
//! SIGMOD 2007.
//!
//! The crate provides the document model that the rest of the system is built
//! on:
//!
//! * [`Document`] — an arena-allocated XML tree whose element nodes are
//!   identified by their **pre-order traversal index** ([`NodeId`]), exactly
//!   as in the paper's Figures 1 and 2.
//! * [`DocumentBuilder`] — an ergonomic programmatic constructor.
//! * [`parse_document`] — a small, dependency-free parser for the XML subset
//!   needed by publish/subscribe messages (elements, attributes, text,
//!   comments, CDATA; no DTDs or namespaces resolution).
//! * [`PullParser`] — a byte-level streaming parser over the same subset,
//!   emitting [`XmlEvent`]s without building a tree; the DOM parser is its
//!   executable specification ([`parse_document_streaming`] folds the events
//!   back into a [`Document`] and is checked differentially against it).
//! * [`serialize`] — the inverse of the parser.
//! * [`rss`] — helpers for building RSS/Atom feed-item shaped documents, the
//!   workload used in the paper's Section 6.3 experiment.
//!
//! # Example
//!
//! ```
//! use mmqjp_xml::DocumentBuilder;
//!
//! // The book-announcement document d1 from Figure 1 of the paper.
//! let mut b = DocumentBuilder::new("book");
//! b.child_text("author", "Danny Ayers");
//! b.child_text("author", "Andrew Watt");
//! b.child_text("title", "Beginning RSS and Atom Programming");
//! let doc = b.finish();
//!
//! assert_eq!(doc.root().tag(), "book");
//! assert_eq!(doc.len(), 4); // book + 2 authors + title
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod document;
mod error;
mod node;
mod parser;
pub mod rss;
mod serialize;
mod stream;

pub use builder::DocumentBuilder;
pub use document::{DocId, Document, Timestamp};
pub use error::{XmlError, XmlResult};
pub use node::{Node, NodeId, NodeKind};
pub use parser::parse_document;
pub use serialize::{serialize, serialize_pretty, serialize_subtree};
pub use stream::{parse_document_streaming, PullParser, XmlEvent};
