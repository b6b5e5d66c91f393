//! The route stage of the `front → route → join → merge` pipeline:
//! [`route_document`] hands each Stage-1 witness row to exactly the
//! consumers — the query shards, or the single engine's join stage — whose
//! subscriptions requested it. The front routes every document it matches
//! through it, on either engine.

use crate::error::CoreResult;
use crate::front::{EdgeConsumers, Stage1Table, WitnessRow};
use crate::relations::{IngestScratch, WitnessBatch};
use mmqjp_relational::StringInterner;
use mmqjp_xml::Document;
use mmqjp_xpath::PatternId;

/// Route one document's Stage-1 rows into one witness batch per consumer
/// (`batches[c]` is consumer `c`'s), reading each edge's consumers off
/// `table`, whose requested-edge lists the rows' edge numbers index.
///
/// Every batch receives the document's timestamp row (each consumer tracks
/// every timestamp, so all share one watermark), while a witness row goes
/// only to its edge's consumers, deduplicated per consumer — so a shard's
/// batch holds the same witness rows it would have derived by re-running
/// Stage 1 over its own requested edges. Returns the number of witness rows
/// appended across all batches (the routing fan-out of this document).
/// Exported so property tests can exercise that routing invariant directly.
pub fn route_document(
    table: &Stage1Table,
    doc: &Document,
    rows: &[WitnessRow],
    interner: &StringInterner,
    scratch: &mut IngestScratch,
    batches: &mut [WitnessBatch],
) -> CoreResult<usize> {
    let before: usize = batches.iter().map(WitnessBatch::num_witness_rows).sum();
    for (consumer, batch) in batches.iter_mut().enumerate() {
        route_to(table, doc, rows, consumer, interner, scratch, batch)?;
    }
    let after: usize = batches.iter().map(WitnessBatch::num_witness_rows).sum();
    Ok(after - before)
}

/// Route one document's Stage-1 rows to `consumer` alone: its timestamp row,
/// and the rows of the edges `consumer` consumes, deduplicated.
pub(crate) fn route_to(
    table: &Stage1Table,
    doc: &Document,
    rows: &[WitnessRow],
    consumer: usize,
    interner: &StringInterner,
    scratch: &mut IngestScratch,
    batch: &mut WitnessBatch,
) -> CoreResult<()> {
    let requested = table.requested();
    // Rows of one pattern arrive together: look its consumers up once per
    // run of rows.
    let mut cached: Option<(PatternId, &[EdgeConsumers])> = None;
    let routed = rows.iter().filter(|row| {
        let consumers = match cached {
            Some((pid, consumers)) if pid == row.pid => consumers,
            _ => cached.insert((row.pid, requested.consumers(row.pid))).1,
        };
        consumers.get(row.edge as usize).map_or(
            // An unknown edge number is ingest's error to report.
            true,
            |refs| refs.iter().any(|&(c, _)| c == consumer),
        )
    });
    batch.ingest_document(doc, routed, requested, interner, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::{self, DocumentMatches, Edge, MatchScratch};
    use mmqjp_xml::{rss, DocId, Timestamp};
    use mmqjp_xpath::parse_pattern;

    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
        .with_timestamp(Timestamp(10))
    }

    #[test]
    fn witness_router_routes_only_to_subscribers() {
        let mut p1 = parse_pattern("S//book->b[.//author->a]").unwrap();
        p1.assign_canonical_variables();
        let mut p2 = parse_pattern("S//book->b[.//title->t]").unwrap();
        p2.assign_canonical_variables();
        let edges1: Vec<Edge> = p1.edges();
        let edges2: Vec<Edge> = p2.edges();
        let interner = StringInterner::new();
        let mut table = Stage1Table::new();
        let pid1 = table.subscribe(0, p1, &edges1, &interner).unwrap();
        let pid2 = table.subscribe(2, p2, &edges2, &interner).unwrap();
        let consumers = |pid| table.requested().consumers(pid).to_vec();
        assert_eq!(consumers(pid1), vec![vec![(0, 1)]; edges1.len()]);
        assert_eq!(consumers(pid2), vec![vec![(2, 1)]; edges2.len()]);

        let doc = d1().with_id(DocId(1));
        let mut matches = DocumentMatches::default();
        front::match_document(
            &mut table.subscriptions(),
            &doc,
            &mut MatchScratch::default(),
            false,
            &mut matches,
        );
        assert!(!matches.rows.is_empty());

        let mut batches = vec![
            WitnessBatch::new(),
            WitnessBatch::new(),
            WitnessBatch::new(),
        ];
        let routed = route_document(
            &table,
            &doc,
            &matches.rows,
            &interner,
            &mut IngestScratch::default(),
            &mut batches,
        )
        .unwrap();
        assert!(routed > 0);
        // Shard 1 subscribed to nothing: timestamp row only.
        assert_eq!(batches[1].num_witness_rows(), 0);
        assert_eq!(batches[1].rdoc_ts_w.len(), 1);
        // Shards 0 and 2 got exactly their subscribed patterns' rows.
        assert!(batches[0].num_witness_rows() > 0);
        assert!(batches[2].num_witness_rows() > 0);
        assert_eq!(
            routed,
            batches[0].num_witness_rows() + batches[2].num_witness_rows()
        );
        // Unsubscribing shard 0 drops its pattern from the table.
        assert!(table.unsubscribe(0, pid1, &edges1).unwrap());
        assert!(table.requested().consumers(pid1).is_empty());
        assert!(!table.is_empty());
        assert!(table.unsubscribe(2, pid2, &edges2).unwrap());
        assert!(table.is_empty());
        // An unbalanced release is a bookkeeping error, not a panic.
        assert!(table.unsubscribe(2, pid2, &edges2).is_err());
    }
}
