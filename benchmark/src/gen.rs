//! Seeded input generator: XML document texts and XSCL query strings.
//!
//! Everything here is the benchmark's own — its own PRNG, its own Zipf
//! sampler, its own renderers — and depends on no crate of the repository,
//! so a later change to `mmqjp-workload` or `vendor/rand` cannot shift the
//! inputs a commit is measured on.

use crate::workloads::{Schema, Workload};
use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and good enough for
/// workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n >= 1`). The modulo bias is below 2^-40 for every
    /// `n` the generator uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer; also the hash the match digest is built on.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf sampler over ranks `0..n` with `P(rank i) ∝ 1 / (i + 1)^theta`,
/// by binary search in a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The five leaf fields of a feed item, in document order.
pub const FEED_FIELDS: [&str; 5] = [
    "item_url",
    "channel_url",
    "title",
    "timestamp",
    "description",
];

/// Zipf parameter of the per-query number of value joins (paper, Section 6.1).
const JOIN_COUNT_SKEW: f64 = 0.8;

/// Seed of the frozen subscription shapes of the tree schema.
const DECK_SEED: u64 = 0x5EED_DEC4;

/// Text the feed descriptions are padded with. It carries an entity so the
/// parser has to decode, not just slice.
const FILLER: &str = "lorem ipsum dolor sit amet &amp; consectetur adipiscing elit ";

/// One workload's input stream: documents and queries are drawn from two
/// independent PRNG streams of the same seed, so the number of queries drawn
/// never shifts the documents.
///
/// Subscriptions are dealt from a shuffled deck, not sampled: of every
/// `queries` consecutive subscriptions exactly the Zipf-expected number has
/// each join count, on the feed schema each field subset of that size in
/// turn, on the tree schema leaves drawn once from a fixed seed. The run's
/// seed decides which subscription is which and the order they arrive in,
/// but not their shapes: the number of templates and patterns follows the
/// shapes, the cost of a run follows that number, and it would otherwise
/// differ by 10 % and more from seed to seed.
#[derive(Debug)]
pub struct Generator {
    schema: Schema,
    windows: &'static [u64],
    doc_rng: Rng,
    query_rng: Rng,
    /// Per value field (feed: channel, title, description; tree: one shared).
    values: Vec<Zipf>,
    /// Per subscription of a round: the fields (feed) or leaves (tree) its
    /// left and right block bind, predicate `i` pairing the `i`-th of each.
    deck: Vec<[Vec<usize>; 2]>,
    /// Subscriptions dealt from the current round.
    dealt: usize,
    filler: String,
    next_doc: u64,
    next_query: u64,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let (values, max_joins, filler) = match w.schema {
            Schema::Feed {
                channels,
                titles,
                descriptions,
                value_skew,
                description_bytes,
            } => (
                vec![
                    Zipf::new(channels, value_skew),
                    Zipf::new(titles, value_skew),
                    Zipf::new(descriptions, value_skew),
                ],
                FEED_FIELDS.len(),
                // Whole repetitions only, so no entity is cut in half.
                FILLER.repeat(description_bytes / FILLER.len()),
            ),
            Schema::Tree {
                values,
                max_value_joins,
                ..
            } => (vec![Zipf::new(values, 0.0)], max_value_joins, String::new()),
        };
        let mut deck = Vec::with_capacity(w.queries);
        let mut shape_rng = Rng::new(DECK_SEED);
        for (k, count) in (1..).zip(apportion(w.queries, max_joins)) {
            match w.schema {
                // The same fields on both sides, in schema order: every
                // predicate equates a field with itself across two items, and
                // the 31 non-empty subsets are the only patterns.
                Schema::Feed { .. } => {
                    let fields_of = |mask: usize| -> Vec<usize> {
                        (0..FEED_FIELDS.len())
                            .filter(|f| mask >> f & 1 == 1)
                            .collect()
                    };
                    let subsets = (1usize..1 << FEED_FIELDS.len())
                        .filter(|mask| mask.count_ones() as usize == k)
                        .map(fields_of);
                    deck.extend(subsets.cycle().take(count).map(|s| [s.clone(), s]));
                }
                // Independently chosen leaves per side (paper, Section 6.1).
                Schema::Tree { branching, .. } => {
                    let leaves = branching * branching;
                    deck.extend((0..count).map(|_| {
                        [
                            pick_distinct(leaves, k, &mut shape_rng),
                            pick_distinct(leaves, k, &mut shape_rng),
                        ]
                    }));
                }
            }
        }
        Generator {
            schema: w.schema,
            windows: w.windows,
            doc_rng: Rng::new(mix64(seed ^ 0xD0C5)),
            query_rng: Rng::new(mix64(seed ^ 0x9E2D)),
            values,
            dealt: deck.len(),
            deck,
            filler,
            next_doc: 0,
            next_query: 0,
        }
    }

    /// Render the next document of the stream into `out` (cleared first).
    pub fn next_document(&mut self, out: &mut String) {
        out.clear();
        let idx = self.next_doc;
        self.next_doc += 1;
        let rng = &mut self.doc_rng;
        // Writing to a String cannot fail.
        match self.schema {
            Schema::Feed { .. } => {
                let channel = self.values[0].sample(rng);
                let title = self.values[1].sample(rng);
                let description = self.values[2].sample(rng);
                let _ = write!(
                    out,
                    "<item><item_url>http://channel{channel}.example.org/post/{idx}</item_url>\
                     <channel_url>http://channel{channel}.example.org/feed</channel_url>\
                     <title>Title {title}</title><timestamp>{idx}</timestamp>\
                     <description>Description text {description} {}</description></item>",
                    self.filler
                );
            }
            Schema::Tree { branching, .. } => {
                out.push_str("<doc>");
                for m in 0..branching {
                    let _ = write!(out, "<mid{m}>");
                    for l in 0..branching {
                        let v = self.values[0].sample(rng);
                        let _ = write!(out, "<leaf{m}_{l}>value-{v}</leaf{m}_{l}>");
                    }
                    let _ = write!(out, "</mid{m}>");
                }
                out.push_str("</doc>");
            }
        }
    }

    /// Render the next subscription as XSCL text.
    pub fn next_query(&mut self) -> String {
        let window = self.windows[(self.next_query % self.windows.len() as u64) as usize];
        self.next_query += 1;
        if self.dealt == self.deck.len() {
            // A new round: shuffle (Fisher–Yates).
            self.dealt = 0;
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.query_rng.below(i + 1));
            }
        }
        let [left, right] = &self.deck[self.dealt];
        self.dealt += 1;
        let k = left.len();
        let (left, right) = match self.schema {
            Schema::Feed { .. } => (feed_block(left, 'l'), feed_block(right, 'r')),
            Schema::Tree { branching, .. } => (
                tree_block(left, branching, 'l'),
                tree_block(right, branching, 'r'),
            ),
        };
        let predicates: Vec<String> = (0..k).map(|i| format!("l{i}=r{i}")).collect();
        format!(
            "{left} FOLLOWED BY{{{}, {window}}} {right}",
            predicates.join(" AND ")
        )
    }
}

/// How many of `n` subscriptions have 1, 2, … `max_joins` value joins:
/// `P(k) ∝ 1 / k^JOIN_COUNT_SKEW`, rounded by largest remainder.
fn apportion(n: usize, max_joins: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=max_joins)
        .map(|k| 1.0 / (k as f64).powf(JOIN_COUNT_SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| *q as usize).collect();
    let mut by_remainder: Vec<usize> = (0..max_joins).collect();
    by_remainder.sort_by(|&a, &b| quotas[b].fract().total_cmp(&quotas[a].fract()));
    let missing = n - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(missing) {
        counts[k] += 1;
    }
    counts
}

/// `k` distinct values of `0..n` in pick order (partial Fisher–Yates).
fn pick_distinct(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

fn feed_block(fields: &[usize], side: char) -> String {
    let mut s = format!("S//item->{side}_root");
    for (i, &f) in fields.iter().enumerate() {
        let _ = write!(s, "[.//{}->{side}{i}]", FEED_FIELDS[f]);
    }
    s
}

/// A block binding the root, the chosen leaves (variable `i` = the `i`-th
/// pick) and the intermediates on their paths, grouped by intermediate.
fn tree_block(leaves: &[usize], branching: usize, side: char) -> String {
    let mut s = format!("S//doc->{side}_root");
    for m in 0..branching {
        let mut group = String::new();
        for (i, &leaf) in leaves.iter().enumerate() {
            if leaf / branching == m {
                let _ = write!(group, "[.//leaf{m}_{}->{side}{i}]", leaf % branching);
            }
        }
        if !group.is_empty() {
            let _ = write!(s, "[.//mid{m}->{side}_mid{m}{group}]");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn texts(w: &Workload, seed: u64) -> (Vec<String>, Vec<String>) {
        let mut g = Generator::new(w, seed);
        let mut doc = String::new();
        let docs = (0..40)
            .map(|_| {
                g.next_document(&mut doc);
                doc.clone()
            })
            .collect();
        let queries = (0..40).map(|_| g.next_query()).collect();
        (docs, queries)
    }

    #[test]
    fn same_seed_same_texts_other_seed_other_texts() {
        for w in WORKLOADS {
            assert_eq!(texts(w, 7), texts(w, 7), "{}", w.name);
            let (docs_a, queries_a) = texts(w, 7);
            let (docs_b, queries_b) = texts(w, 8);
            assert_ne!(docs_a, docs_b, "{}", w.name);
            assert_ne!(queries_a, queries_b, "{}", w.name);
        }
    }

    #[test]
    fn every_rendered_text_is_accepted_by_the_parsers() {
        for w in WORKLOADS {
            let (docs, queries) = texts(w, 3);
            for d in &docs {
                mmqjp_xml::parse_document_streaming(d).unwrap_or_else(|e| panic!("{d}: {e}"));
            }
            for q in &queries {
                let parsed = mmqjp_xscl::parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                assert!(parsed.blocks().is_some(), "{q} is a join");
            }
        }
    }

    #[test]
    fn pipelined_job_is_byte_identical_to_its_baseline() {
        let by_name = |n: &str| WORKLOADS.iter().find(|w| w.name == n).unwrap();
        assert_eq!(
            texts(by_name("feed_selective"), 11),
            texts(by_name("feed_pipelined"), 11)
        );
    }

    #[test]
    fn document_sizes_are_as_documented() {
        let size = |name: &str| {
            let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
            let (docs, _) = texts(w, 1);
            docs.iter().map(String::len).sum::<usize>() / docs.len()
        };
        assert!((900..1200).contains(&size("feed_selective")));
        assert!((11_500..12_800).contains(&size("feed_bigdoc")));
        assert!((200..280).contains(&size("feed_churn")));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        let uniform = Zipf::new(4, 0.0);
        for _ in 0..100 {
            assert!(uniform.sample(&mut rng) < 4);
        }
    }

    #[test]
    fn every_round_of_subscriptions_has_the_same_mix() {
        assert_eq!(apportion(1000, 5).iter().sum::<usize>(), 1000);
        assert_eq!(apportion(7, 4).iter().sum::<usize>(), 7);
        let counts = apportion(1000, 5);
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        for w in WORKLOADS {
            let joins_of_round = |seed: u64, round: usize| {
                let mut g = Generator::new(w, seed);
                let mut joins: Vec<usize> = (0..w.queries * (round + 1))
                    .map(|_| g.next_query().matches('=').count())
                    .skip(w.queries * round)
                    .collect();
                joins.sort_unstable();
                joins
            };
            assert_eq!(joins_of_round(1, 0), joins_of_round(2, 0), "{}", w.name);
            assert_eq!(joins_of_round(1, 0), joins_of_round(1, 1), "{}", w.name);
        }
    }

    #[test]
    fn pick_distinct_is_distinct() {
        let mut rng = Rng::new(5);
        for k in 1..=16 {
            let mut p = pick_distinct(16, k, &mut rng);
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), k);
        }
    }
}
