//! The route stage of the `front → route → join → merge` pipeline: the
//! [`WitnessRouter`] hands each Stage-1 witness row to exactly the query
//! shards whose subscriptions requested it.

use crate::error::{CoreError, CoreResult};
use crate::front::{Edge, RequestedEdge, RequestedEdges, WitnessRow};
use crate::relations::{IngestScratch, WitnessBatch};
use mmqjp_relational::StringInterner;
use mmqjp_xml::Document;
use mmqjp_xpath::PatternId;
use std::collections::{BTreeMap, HashMap};

/// Routes Stage-1 witness rows to the query shards whose subscriptions
/// requested them.
///
/// Subscriptions are tracked per `(pattern, shard)` as refcounted edge sets
/// (the edge list preserves first-subscription order, mirroring the order
/// `Registry::requested_edges` builds on the shard itself). Routing
/// one document appends to every shard's [`WitnessBatch`]: all shards get
/// the document's retention-ledger row (each shard tracks every timestamp
/// for temporal filtering), while the pattern bindings are filtered per
/// shard to exactly the edges it subscribed to — so a shard's batch holds
/// the same witness rows it would have derived by re-running Stage 1 over
/// its own requested-edge set.
///
/// The router is exported so the routing invariant can be exercised
/// directly by property tests: rows of a pattern edge travel to precisely
/// its subscribing shards (no broadcast), an edge with a single subscriber
/// lands on exactly one shard, and the union across shards restricted to
/// the subscribed edge sets reproduces the single-engine witness multiset.
#[derive(Debug, Clone, Default)]
pub struct WitnessRouter {
    pub(crate) subs: HashMap<PatternId, BTreeMap<usize, EdgeSubs>>,
}

/// One shard's refcounted edge subscriptions for one pattern.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeSubs {
    /// Subscribed edges in first-subscription order.
    pub(crate) list: Vec<Edge>,
    pub(crate) refs: HashMap<Edge, usize>,
}

impl WitnessRouter {
    /// An empty router: no shard subscribes to anything.
    pub fn new() -> Self {
        WitnessRouter::default()
    }

    /// `true` when no shard subscribes to any pattern.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Subscribe `shard` to the given structural edges of `pattern`.
    /// Subscriptions are refcounted per `(shard, pattern, edge)`, so
    /// several queries of one shard can request overlapping edge sets.
    pub fn subscribe(&mut self, shard: usize, pattern: PatternId, edges: &[Edge]) {
        let subs = self
            .subs
            .entry(pattern)
            .or_default()
            .entry(shard)
            .or_default();
        for &edge in edges {
            let count = subs.refs.entry(edge).or_insert(0);
            if *count == 0 {
                subs.list.push(edge);
            }
            *count += 1;
        }
    }

    /// Release one subscription previously made with
    /// [`subscribe`](Self::subscribe). Edges whose last reference departs
    /// stop being routed; a pattern with no subscribing shard left is
    /// dropped from the routing table entirely.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Internal`] when the `(shard, pattern, edge)`
    /// subscription does not exist — unbalanced release calls are a
    /// bookkeeping bug, not a runtime condition.
    pub fn unsubscribe(
        &mut self,
        shard: usize,
        pattern: PatternId,
        edges: &[Edge],
    ) -> CoreResult<()> {
        let shards = self.subs.get_mut(&pattern).ok_or(CoreError::internal(
            "unsubscribe of a pattern with no subscriptions",
        ))?;
        let subs = shards.get_mut(&shard).ok_or(CoreError::internal(
            "unsubscribe of a shard that never subscribed",
        ))?;
        for edge in edges {
            let count = subs.refs.get_mut(edge).ok_or(CoreError::internal(
                "unsubscribe of an edge that was never subscribed",
            ))?;
            *count -= 1;
            if *count == 0 {
                subs.refs.remove(edge);
                subs.list.retain(|e| e != edge);
            }
        }
        if subs.refs.is_empty() {
            shards.remove(&shard);
        }
        if shards.is_empty() {
            self.subs.remove(&pattern);
        }
        Ok(())
    }

    /// The shards subscribed to a pattern, in ascending shard order.
    pub fn subscribers(&self, pattern: PatternId) -> Vec<usize> {
        self.subs
            .get(&pattern)
            .map(|shards| shards.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Route one document's Stage-1 rows into per-shard witness batches
    /// (one batch slot per shard, `batches.len()` == shard count). Every
    /// batch receives the document's ledger row; a row goes only to the
    /// shards subscribed to its `(pattern, edge)` — `requested` is the
    /// front's list the rows' edge numbers index — and each shard's batch
    /// deduplicates its own rows, exactly as the shard would ingesting them
    /// itself. Returns the number of witness rows appended across all
    /// batches (the routing fan-out of this document).
    pub fn route_document(
        &self,
        doc: &Document,
        rows: &[WitnessRow],
        requested: &RequestedEdges,
        interner: &StringInterner,
        scratch: &mut IngestScratch,
        batches: &mut [WitnessBatch],
    ) -> CoreResult<usize> {
        let before: usize = batches.iter().map(WitnessBatch::num_witness_rows).sum();
        for (shard, batch) in batches.iter_mut().enumerate() {
            // Rows of one pattern arrive together: resolve the pattern's
            // subscription and edge list once per run of rows.
            let mut cached: Option<(PatternId, Option<&EdgeSubs>, &[RequestedEdge])> = None;
            let routed = rows.iter().filter(|row| {
                if cached.map_or(true, |(pid, ..)| pid != row.pid) {
                    let subs = self
                        .subs
                        .get(&row.pid)
                        .and_then(|shards| shards.get(&shard));
                    let edges = requested.get(&row.pid).map_or(&[][..], Vec::as_slice);
                    cached = Some((row.pid, subs, edges));
                }
                match cached {
                    Some((_, Some(subs), edges)) => edges
                        .get(row.edge as usize)
                        // An unknown edge number is ingest's error to report.
                        .map_or(true, |e| subs.refs.contains_key(&e.edge)),
                    _ => false,
                }
            });
            batch.ingest_document(doc, routed, requested, interner, scratch)?;
        }
        let after: usize = batches.iter().map(WitnessBatch::num_witness_rows).sum();
        Ok(after - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::{self, DocumentMatches, Subscriptions};
    use mmqjp_xml::{rss, DocId, Timestamp};
    use mmqjp_xpath::{PatternIndex, SharedPass, TreePattern};

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
        use mmqjp_xpath::parse_pattern;
        let mut index = PatternIndex::default();
        let mut p1 = parse_pattern("S//book->b[.//author->a]").unwrap();
        p1.assign_canonical_variables();
        let mut p2 = parse_pattern("S//book->b[.//title->t]").unwrap();
        p2.assign_canonical_variables();
        let edges1: Vec<Edge> = p1.edges();
        let edges2: Vec<Edge> = p2.edges();
        let pid1 = index.register(p1.clone());
        let pid2 = index.register(p2.clone());

        let mut router = WitnessRouter::new();
        router.subscribe(0, pid1, &edges1);
        router.subscribe(2, pid2, &edges2);
        assert_eq!(router.subscribers(pid1), vec![0]);
        assert_eq!(router.subscribers(pid2), vec![2]);

        let interner = StringInterner::new();
        let doc = d1().with_id(DocId(1));
        let resolve = |p: &TreePattern, edges: &[Edge]| -> Vec<RequestedEdge> {
            let resolved = edges
                .iter()
                .map(|&e| RequestedEdge::resolve(p, e, &interner));
            resolved.collect::<Option<_>>().unwrap()
        };
        let requested =
            RequestedEdges::from([(pid1, resolve(&p1, &edges1)), (pid2, resolve(&p2, &edges2))]);
        let mut subs = Subscriptions {
            index: &mut index,
            requested: &requested,
            singles: Vec::new(),
        };
        let mut matches = DocumentMatches::default();
        front::match_document(
            &mut subs,
            &doc,
            &mut SharedPass::default(),
            false,
            &mut matches,
        );
        assert!(!matches.rows.is_empty());

        let mut batches = vec![
            WitnessBatch::new(),
            WitnessBatch::new(),
            WitnessBatch::new(),
        ];
        let routed = router
            .route_document(
                &doc,
                &matches.rows,
                &requested,
                &interner,
                &mut IngestScratch::default(),
                &mut batches,
            )
            .unwrap();
        assert!(routed > 0);
        // Shard 1 subscribed to nothing: ledger row only.
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
        router.unsubscribe(0, pid1, &edges1).unwrap();
        assert_eq!(router.subscribers(pid1), Vec::<usize>::new());
        assert!(!router.is_empty());
        router.unsubscribe(2, pid2, &edges2).unwrap();
        assert!(router.is_empty());
    }
}
