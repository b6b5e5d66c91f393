//! Witness relations (Section 3.1 of the paper).
//!
//! The Stage-1 output for the current document (or document batch) is encoded
//! in three relations, and the accumulated join state in three more:
//!
//! | relation  | schema                                          | contents |
//! |-----------|--------------------------------------------------|----------|
//! | `RbinW`   | (docid, var1, var2, node1, node2)                | variable-pair bindings of the current document(s) |
//! | `RdocW`   | (docid, node, strVal)                            | string values of bound nodes of the current document(s) |
//! | `RdocTSW` | (docid, timestamp)                               | id + timestamp of the current document(s) |
//! | `Rbin`    | (docid, var1, var2, node1, node2)                | bindings of previous documents |
//! | `Rdoc`    | (docid, node, strVal)                            | string values from previous documents |
//! | `RdocTS`  | (docid, timestamp)                               | ids + timestamps of previous documents |
//!
//! `RdocTS` is kept as the join state's timestamp map and per-bucket
//! document lists, not as a relation: no conjunctive query reads it.
//!
//! Compared with the paper we add a `docid` column to the `*W` relations so
//! the same code path handles both single-document processing and the batched
//! processing the paper uses for its RSS throughput experiment (Section 6.3).
//!
//! Variable names and node string values are interned; node ids, document ids
//! and timestamps are integers. A node column holds a [`node_key`]: the
//! element id for an element step, and for an attribute step — which binds
//! the element carrying the attribute — the element id plus the step's
//! variable symbol in the high half, so an attribute and its element (or two
//! attributes of one element) keep their own `RdocW` values. [`node_of`]
//! strips the attribute half wherever a key becomes a document node again.
//!
//! [`WitnessBatch::ingest_document`] is the one ingest body: it turns a
//! document's integer [`WitnessRow`]s into tuples, deduplicating them in
//! pooled integer-keyed sets and interning each new node's value once —
//! borrowed straight from the document unless the element has children.

use crate::error::{CoreError, CoreResult};
use crate::front::{NodeSource, RequestedEdge, RequestedEdges, WitnessRow};
use mmqjp_relational::{FxHashSet, Relation, RowRef, StringInterner, Symbol, Value};
use mmqjp_xml::{DocId, Document, NodeId, Timestamp};
use mmqjp_xpath::PatternId;

/// Schema constructors for the witness relations. The fixed schemas are
/// built once per process; each call returns a clone, which only bumps the
/// shared column list's reference count (and lets schema equality checks
/// short-cut on pointer identity).
pub mod schemas {
    use mmqjp_relational::Schema;
    use std::sync::OnceLock;

    /// The process-wide schema behind `cell`, built from `columns` on first
    /// use.
    fn shared<const N: usize>(cell: &'static OnceLock<Schema>, columns: [&str; N]) -> Schema {
        cell.get_or_init(|| Schema::new(columns)).clone()
    }

    /// Schema of `RbinW` and `Rbin`: `(docid, var1, var2, node1, node2)`.
    pub fn bin() -> Schema {
        static BIN: OnceLock<Schema> = OnceLock::new();
        shared(&BIN, ["docid", "var1", "var2", "node1", "node2"])
    }

    /// Schema of `RdocW` and `Rdoc`: `(docid, node, strVal)`.
    pub fn doc() -> Schema {
        static DOC: OnceLock<Schema> = OnceLock::new();
        shared(&DOC, ["docid", "node", "strVal"])
    }

    /// Schema of `RdocTSW`: `(docid, timestamp)`.
    pub fn doc_ts() -> Schema {
        static DOC_TS: OnceLock<Schema> = OnceLock::new();
        shared(&DOC_TS, ["docid", "timestamp"])
    }

    /// Schema of `RL`: `(docid, var1, var2, node1, node2, strVal)`.
    pub fn rl() -> Schema {
        static RL: OnceLock<Schema> = OnceLock::new();
        shared(&RL, ["docid", "var1", "var2", "node1", "node2", "strVal"])
    }

    /// Schema of `RR`: `(docidW, var1, var2, node1, node2, strVal)`.
    pub fn rr() -> Schema {
        static RR: OnceLock<Schema> = OnceLock::new();
        shared(&RR, ["docidW", "var1", "var2", "node1", "node2", "strVal"])
    }

    /// Schema of a template's `RT` relation with `m` meta-variables:
    /// `(qid, var1, ..., varm, wl)`.
    pub fn rt(meta_vars: usize) -> Schema {
        let mut cols = vec!["qid".to_owned()];
        for i in 0..meta_vars {
            cols.push(format!("var{}", i + 1));
        }
        cols.push("wl".to_owned());
        Schema::new(cols)
    }
}

/// Build one `RL`/`RR` row: an `Rbin`-shaped row extended with the join
/// string value.
pub(crate) fn rl_row(bin_row: RowRef<'_>, strval: Symbol) -> [Value; 6] {
    let b = |i: usize| bin_row[i];
    [b(0), b(1), b(2), b(3), b(4), Value::Sym(strval)]
}

/// The Stage-1 output for the current document or batch: the three `*W`
/// relations, ready to be joined against the engine's state.
#[derive(Debug, Clone)]
pub struct WitnessBatch {
    /// `RbinW(docid, var1, var2, node1, node2)`.
    pub rbin_w: Relation,
    /// `RdocW(docid, node, strVal)`.
    pub rdoc_w: Relation,
    /// `RdocTSW(docid, timestamp)`.
    pub rdoc_ts_w: Relation,
    /// Document ids contained in this batch, in arrival order.
    pub doc_ids: Vec<DocId>,
}

impl WitnessBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WitnessBatch {
            rbin_w: Relation::new(schemas::bin()),
            rdoc_w: Relation::new(schemas::doc()),
            rdoc_ts_w: Relation::new(schemas::doc_ts()),
            doc_ids: Vec::new(),
        }
    }

    /// `true` when no document has been added.
    pub fn is_empty(&self) -> bool {
        self.doc_ids.is_empty()
    }

    /// Number of documents in the batch.
    pub fn num_documents(&self) -> usize {
        self.doc_ids.len()
    }

    /// Ingest one document: its timestamp row, then its Stage-1 witness rows.
    ///
    /// `rows` name their edges by position in `requested` (rows of one
    /// pattern arrive together). An `RbinW` tuple already emitted for this
    /// document is skipped — patterns of different queries share canonical
    /// variables, and duplicate witness tuples would multiply in the join
    /// processor — and an `RdocW` tuple is emitted the first time a node key
    /// is bound as a descendant end (value joins attach to the child
    /// position of structural edges; self edges cover single-node sides).
    /// Deduplication runs in `scratch`'s pooled sets; the only strings
    /// touched are node values, each interned once.
    pub fn ingest_document<'r>(
        &mut self,
        doc: &Document,
        rows: impl IntoIterator<Item = &'r WitnessRow>,
        requested: &RequestedEdges,
        interner: &StringInterner,
        scratch: &mut IngestScratch,
    ) -> CoreResult<()> {
        let docid = doc.id().raw() as i64;
        self.doc_ids.push(doc.id());
        self.rdoc_ts_w
            .push_array([Value::Int(docid), Value::Int(doc.timestamp().raw() as i64)])?;
        scratch.bins.clear();
        scratch.nodes.clear();
        let mut cached: Option<(PatternId, &[RequestedEdge])> = None;
        for row in rows {
            let list = match cached {
                Some((pid, list)) if pid == row.pid => list,
                _ => {
                    let list = requested.get(&row.pid).map_or(&[][..], Vec::as_slice);
                    cached = Some((row.pid, list));
                    list
                }
            };
            let edge = list
                .get(row.edge as usize)
                .ok_or(CoreError::internal("a witness row names a requested edge"))?;
            let key1 = node_key(row.node1, edge.var1, &edge.source1);
            let key2 = node_key(row.node2, edge.var2, &edge.source2);
            if !scratch
                .bins
                .insert((edge.var1.raw(), edge.var2.raw(), key1, key2))
            {
                continue;
            }
            self.rbin_w.push_array([
                Value::Int(docid),
                Value::Sym(edge.var1),
                Value::Sym(edge.var2),
                Value::Int(key1),
                Value::Int(key2),
            ])?;
            if scratch.nodes.insert(key2) {
                let value = node_value(doc, row.node2, &edge.source2, &mut scratch.text);
                self.rdoc_w.push_array([
                    Value::Int(docid),
                    Value::Int(key2),
                    Value::Sym(interner.intern(value)),
                ])?;
            }
        }
        Ok(())
    }

    /// Number of witness rows (`RbinW` + `RdocW`) in the batch. The
    /// timestamp rows (`RdocTSW`) are bookkeeping, not witnesses, so they
    /// are not counted.
    pub fn num_witness_rows(&self) -> usize {
        self.rbin_w.len() + self.rdoc_w.len()
    }

    /// `(document, timestamp)` of every document of the batch, sorted by
    /// document id. Output construction builds this once per batch and
    /// resolves each result row's current document with
    /// [`timestamp_in`] — a binary search instead of one
    /// [`timestamp_of`](Self::timestamp_of) scan per row.
    pub(crate) fn sorted_timestamps(&self) -> Vec<(DocId, Timestamp)> {
        let mut out: Vec<(DocId, Timestamp)> = self
            .rdoc_ts_w
            .iter()
            .filter_map(|t| {
                Some((
                    DocId(t[0].as_int()? as u64),
                    Timestamp(t[1].as_int()? as u64),
                ))
            })
            .collect();
        // Stable: of two rows for one document the first stays first, which
        // is the one `timestamp_of` reports.
        out.sort_by_key(|&(doc, _)| doc);
        out
    }

    /// Timestamp of a document in the batch (a scan of `RdocTSW`; the
    /// crate's repeated lookups use `sorted_timestamps`).
    pub fn timestamp_of(&self, doc: DocId) -> Option<Timestamp> {
        let key = Value::Int(doc.raw() as i64);
        self.rdoc_ts_w
            .iter()
            .find(|t| t[0] == key)
            .and_then(|t| t[1].as_int())
            .map(|v| Timestamp(v as u64))
    }
}

/// Look `doc` up in the output of [`WitnessBatch::sorted_timestamps`].
pub(crate) fn timestamp_in(sorted: &[(DocId, Timestamp)], doc: DocId) -> Option<Timestamp> {
    let first = sorted.partition_point(|&(d, _)| d < doc);
    sorted
        .get(first)
        .filter(|&&(d, _)| d == doc)
        .map(|&(_, ts)| ts)
}

/// Pooled per-document state of [`WitnessBatch::ingest_document`]: the
/// dedup sets, keyed by integers only, and a text buffer for the string
/// values of elements with children.
#[derive(Debug, Default)]
pub struct IngestScratch {
    /// `(var1, var2, node1, node2)` of the document's `RbinW` tuples so far.
    bins: FxHashSet<(u32, u32, i64, i64)>,
    /// Node keys the document's `RdocW` already holds.
    nodes: FxHashSet<i64>,
    text: String,
}

/// The value a bound node takes in a node column. An element is its id; an
/// attribute step is the id of the element carrying the attribute in the low
/// 32 bits and the step's variable symbol + 1 in the high 32 bits. The
/// variable is canonical — derived from the step's definition path, which
/// ends in the attribute name — so the key is the same in every pattern.
pub fn node_key(node: NodeId, var: Symbol, source: &NodeSource) -> i64 {
    match source {
        NodeSource::Element => i64::from(node.raw()),
        NodeSource::Attribute(_) => {
            ((u64::from(var.raw()) + 1) << 32 | u64::from(node.raw())) as i64
        }
    }
}

/// The document node behind a node-column value: the element, with any
/// attribute half of the [`node_key`] stripped.
pub(crate) fn node_of(key: i64) -> NodeId {
    NodeId::from_raw((key as u64 & u64::from(u32::MAX)) as u32)
}

/// The string value a bound node contributes to value joins, borrowed from
/// the document except for elements with children, whose text is
/// concatenated into `buf`.
fn node_value<'a>(
    doc: &'a Document,
    node: NodeId,
    source: &NodeSource,
    buf: &'a mut String,
) -> &'a str {
    let element = doc.node(node);
    match source {
        NodeSource::Attribute(name) => element.attribute(name).unwrap_or(""),
        NodeSource::Element if element.is_leaf() => element.text().unwrap_or(""),
        NodeSource::Element => {
            buf.clear();
            doc.push_string_value(node, buf);
            buf
        }
    }
}

impl Default for WitnessBatch {
    fn default() -> Self {
        WitnessBatch::new()
    }
}

/// A witness batch routed to one consumer — a query shard, or the single
/// engine's join stage — by its engine's front, together with the batch
/// metadata the consumer needs to run Stage 2 without re-parsing the
/// documents.
///
/// The witness rows in [`batch`](Self::batch) are the consumer's
/// subscription-filtered subset of the front's Stage-1 output; the
/// timestamp rows (`RdocTSW`) cover *every* document of the batch, because
/// each consumer tracks all document timestamps: every shard shares the
/// watermark the matching rule measures against.
#[derive(Debug, Clone, Default)]
pub struct RoutedBatch {
    /// The routed witness rows.
    pub batch: WitnessBatch,
    /// `(document id, timestamp)` of every document of the batch, in
    /// arrival order. Ids and timestamps were assigned by the front stage.
    pub doc_meta: Vec<(DocId, u64)>,
    /// The full documents, shipped only when the shard retains documents
    /// (`EngineConfig::retain_documents`) for `SELECT *` output
    /// construction; empty otherwise.
    pub docs: Vec<Document>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::{match_document, DocumentMatches, Edge, MatchScratch, Stage1Table};
    use mmqjp_xml::{rss, DocumentBuilder};
    use mmqjp_xpath::{parse_pattern, TreePattern};

    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
        .with_id(DocId(1))
        .with_timestamp(Timestamp(10))
    }

    /// The canonical-variable form of a pattern, as the registry holds it.
    fn canonical(text: &str) -> TreePattern {
        let mut pattern = parse_pattern(text).unwrap();
        pattern.assign_canonical_variables();
        pattern
    }

    /// Stage 1 plus ingest of `docs` against one pattern requesting `edges`
    /// (named by variable, in order).
    fn ingest(
        pattern: &TreePattern,
        edges: &[(&str, &str)],
        docs: &[Document],
    ) -> (WitnessBatch, StringInterner) {
        let interner = StringInterner::new();
        let node = |v: &str| pattern.variable_node(v).unwrap();
        let edges: Vec<Edge> = edges.iter().map(|&(a, d)| (node(a), node(d))).collect();
        let mut table = Stage1Table::new();
        table
            .subscribe(0, pattern.clone(), &edges, &interner)
            .unwrap();
        let (mut matching, mut matches) = (MatchScratch::default(), DocumentMatches::default());
        let mut scratch = IngestScratch::default();
        let mut batch = WitnessBatch::new();
        for doc in docs {
            match_document(
                &mut table.subscriptions(),
                doc,
                &mut matching,
                false,
                &mut matches,
            );
            batch
                .ingest_document(
                    doc,
                    &matches.rows,
                    table.requested(),
                    &interner,
                    &mut scratch,
                )
                .unwrap();
        }
        (batch, interner)
    }

    #[test]
    fn schemas_have_expected_arity() {
        assert_eq!(schemas::bin().arity(), 5);
        assert_eq!(schemas::doc().arity(), 3);
        assert_eq!(schemas::doc_ts().arity(), 2);
        assert_eq!(schemas::rl().arity(), 6);
        assert_eq!(schemas::rr().arity(), 6);
        assert_eq!(schemas::rt(6).arity(), 8);
        assert!(schemas::rt(3).contains("var3"));
        assert!(schemas::rt(3).contains("wl"));
        // The fixed schemas are built once and shared, not rebuilt per call.
        for schema in [
            schemas::bin,
            schemas::doc,
            schemas::doc_ts,
            schemas::rl,
            schemas::rr,
        ] {
            assert!(std::ptr::eq(schema().columns(), schema().columns()));
        }
    }

    #[test]
    fn batch_from_book_document_matches_table4() {
        // Using Q1's left block (plus category for Q2), the batch built from
        // d1 should mirror Table 4(b)/(c) of the paper: five bound leaves
        // with their string values and five variable-pair bindings.
        let pattern = canonical("S//book->x1[.//author->x2][.//title->x3][.//category->x7]");
        let edges = [("x1", "x2"), ("x1", "x3"), ("x1", "x7")];
        let (batch, interner) = ingest(&pattern, &edges, &[d1()]);

        assert_eq!(batch.num_documents(), 1);
        assert!(!batch.is_empty());
        assert_eq!(batch.rbin_w.len(), 5);
        assert_eq!(batch.rdoc_w.len(), 5);
        assert_eq!(batch.rdoc_ts_w.len(), 1);
        assert_eq!(batch.timestamp_of(DocId(1)), Some(Timestamp(10)));
        assert_eq!(batch.timestamp_of(DocId(9)), None);
        let sorted = batch.sorted_timestamps();
        assert_eq!(timestamp_in(&sorted, DocId(1)), Some(Timestamp(10)));
        assert_eq!(timestamp_in(&sorted, DocId(9)), None);

        // All string values were interned; Danny Ayers appears among them.
        assert!(interner.get("Danny Ayers").is_some());
        assert!(interner.get("Wrox").is_none()); // publisher is not bound

        // Every RbinW tuple has the book root (node 0) as ancestor.
        for t in batch.rbin_w.iter() {
            assert_eq!(t[3], Value::Int(0));
        }
    }

    #[test]
    fn duplicate_string_values_are_not_repeated_per_node() {
        let pattern = canonical("S//book->b[.//author->a]");
        // Request the same edge twice: Stage 1 emits every pair twice, yet
        // RdocW must still contain one row per bound node.
        let (batch, _) = ingest(&pattern, &[("b", "a"), ("b", "a")], &[d1()]);
        assert_eq!(batch.rdoc_w.len(), 2); // one row per author node

        // The duplicated edge request collapses to one RbinW row per author.
        assert_eq!(batch.rbin_w.len(), 2);
    }

    #[test]
    fn multi_document_batch() {
        let pattern = canonical("S//book->b[.//title->t]");
        let docs: Vec<Document> = (0..3u64)
            .map(|i| d1().with_id(DocId(i)).with_timestamp(Timestamp(i * 10)))
            .collect();
        let (batch, _) = ingest(&pattern, &[("b", "t")], &docs);
        assert_eq!(batch.num_documents(), 3);
        assert_eq!(batch.rdoc_ts_w.len(), 3);
        assert_eq!(batch.rbin_w.len(), 3);
        assert_eq!(batch.doc_ids, vec![DocId(0), DocId(1), DocId(2)]);
    }

    #[test]
    fn attribute_binding_keeps_its_own_node_key_and_value() {
        // The element binding (self edge on b) and the attribute binding
        // (b -> i) of one element are two RdocW rows with two values; the
        // attribute's key maps back to the element.
        let pattern = canonical("S//book->b[./@isbn->i][./@lang->l]");
        let mut builder = DocumentBuilder::new("book");
        builder.attribute("isbn", "123");
        builder.attribute("lang", "en");
        builder.child_text("t", "Foo");
        let doc = builder.finish().with_id(DocId(1));
        let edges = [("b", "b"), ("b", "i"), ("b", "l")];
        let (batch, interner) = ingest(&pattern, &edges, &[doc]);
        let values: Vec<(i64, String)> = batch
            .rdoc_w
            .iter()
            .map(|t| {
                let sym = t[2].as_sym().unwrap();
                (
                    t[1].as_int().unwrap(),
                    interner.resolve(sym).unwrap().to_string(),
                )
            })
            .collect();
        let key = |var: &str, attribute: &str| {
            let sym = interner.get(var).unwrap();
            node_key(NodeId::ROOT, sym, &NodeSource::Attribute(attribute.into()))
        };
        assert_ne!(key("i", "isbn"), key("l", "lang"));
        assert_eq!(
            values,
            vec![
                (0, "Foo".to_owned()),
                (key("i", "isbn"), "123".to_owned()),
                (key("l", "lang"), "en".to_owned()),
            ]
        );
        for (k, _) in &values {
            assert_eq!(node_of(*k), NodeId::ROOT);
        }
    }

    #[test]
    fn empty_batch_defaults() {
        let batch = WitnessBatch::default();
        assert!(batch.is_empty());
        assert_eq!(batch.num_documents(), 0);
        assert_eq!(batch.rbin_w.len(), 0);
    }
}
