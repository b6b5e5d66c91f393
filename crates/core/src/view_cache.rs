//! The view cache of `RL` slices (Section 5 / Algorithm 5 of the paper).
//!
//! The materialized view `RL̂` (the join of `Rdoc` and `Rbin` on the
//! value-join node) is broken into *slices*, one per distinct string value.
//! The cache stores slices keyed by the interned string value; when an
//! incoming document shares a string value with the join state, the slice is
//! either fetched (hit) or computed and inserted (miss). A capacity bound
//! with LRU replacement models the paper's remark that "the size of the view
//! cache can be set according to the memory constraint of the system".

use crate::error::{CoreError, CoreResult};
use mmqjp_relational::{FxHashMap, Relation, Symbol};
use serde::{Deserialize, Serialize};

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewCacheStats {
    /// Lookups that found a cached slice.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Total tuples across all resident slices.
    pub resident_tuples: usize,
}

/// A string-keyed LRU cache of `RL` slices (keyed with the Fx hasher — the
/// keys are interned symbols probed once per distinct batch string value).
#[derive(Debug, Clone)]
pub struct ViewCache {
    capacity: Option<usize>,
    slices: FxHashMap<Symbol, CacheEntry>,
    clock: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    relation: Relation,
    last_used: u64,
}

impl ViewCache {
    /// Create a cache with an optional entry-count capacity (`None` =
    /// unbounded, the paper's default experimental setting).
    pub fn new(capacity: Option<usize>) -> Self {
        ViewCache {
            capacity,
            slices: FxHashMap::default(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of resident slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// `true` when no slice is cached.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Look up the slice for a string value, updating recency and counters.
    pub fn get(&mut self, key: Symbol) -> Option<&Relation> {
        self.clock += 1;
        let clock = self.clock;
        match self.slices.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits += 1;
                Some(&entry.relation)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Check residency without touching counters or recency (used by the
    /// maintenance pass, which must not distort hit statistics).
    pub fn contains(&self, key: Symbol) -> bool {
        self.slices.contains_key(&key)
    }

    /// Insert (or replace) the slice for a string value, evicting the least
    /// recently used entries if the capacity would be exceeded.
    pub fn insert(&mut self, key: Symbol, relation: Relation) {
        self.clock += 1;
        self.slices.insert(
            key,
            CacheEntry {
                relation,
                last_used: self.clock,
            },
        );
        if let Some(cap) = self.capacity {
            while self.slices.len() > cap {
                if let Some((&lru_key, _)) = self.slices.iter().min_by_key(|(_, e)| e.last_used) {
                    self.slices.remove(&lru_key);
                    self.evictions += 1;
                } else {
                    break;
                }
            }
        }
    }

    /// Append tuples to an existing slice (Algorithm 5's `RL,s ∪= RR,s`),
    /// creating the slice if absent.
    pub fn append(&mut self, key: Symbol, tuples: &Relation) -> CoreResult<()> {
        self.clock += 1;
        let clock = self.clock;
        match self.slices.get_mut(&key) {
            Some(entry) => {
                entry
                    .relation
                    .extend_from(tuples)
                    .map_err(|_| CoreError::internal("cached slices share the RL schema"))?;
                entry.last_used = clock;
            }
            None => {
                self.insert(key, tuples.clone());
            }
        }
        Ok(())
    }

    /// Invalidate slices for which the predicate returns `true` (used when
    /// eviction removes documents from the join state).
    pub fn invalidate_if(&mut self, mut pred: impl FnMut(Symbol) -> bool) {
        self.slices.retain(|k, _| !pred(*k));
    }

    /// Drop every slice that still carries a row whose `var1`/`var2` symbol
    /// is in `dead` — canonical variables no live pattern binds anymore,
    /// because their last subscribing query unregistered. Returns the number
    /// of slices reclaimed. Dropping a slice never changes results: slices
    /// are pure caches and are recomputed from the join state on demand.
    pub fn purge_dead_vars(&mut self, dead: &std::collections::HashSet<Symbol>) -> usize {
        if dead.is_empty() {
            return 0;
        }
        let before = self.slices.len();
        self.slices.retain(|_, entry| {
            !entry.relation.iter().any(|row| {
                [&row[1], &row[2]]
                    .iter()
                    .any(|v| v.as_sym().is_some_and(|s| dead.contains(&s)))
            })
        });
        before - self.slices.len()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ViewCacheStats {
        ViewCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.slices.len(),
            resident_tuples: self.slices.values().map(|e| e.relation.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::schemas;
    use mmqjp_relational::{StringInterner, Value};

    fn slice(rows: usize) -> Relation {
        let mut r = Relation::new(schemas::rl());
        for i in 0..rows {
            r.push_values(vec![
                Value::Int(1),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(i as i64),
                Value::Int(42),
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn hit_miss_accounting() {
        let interner = StringInterner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        let mut cache = ViewCache::new(None);
        assert!(cache.is_empty());
        assert!(cache.get(a).is_none());
        cache.insert(a, slice(3));
        assert!(cache.get(a).is_some());
        assert!(cache.get(b).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_tuples, 3);
        assert!(cache.contains(a));
        assert!(!cache.contains(b));
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let interner = StringInterner::new();
        let keys: Vec<Symbol> = (0..4).map(|i| interner.intern(&format!("k{i}"))).collect();
        let mut cache = ViewCache::new(Some(2));
        cache.insert(keys[0], slice(1));
        cache.insert(keys[1], slice(1));
        // Touch k0 so k1 becomes the LRU.
        assert!(cache.get(keys[0]).is_some());
        cache.insert(keys[2], slice(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(keys[0]));
        assert!(!cache.contains(keys[1]));
        assert!(cache.contains(keys[2]));
        assert_eq!(cache.stats().evictions, 1);
        cache.insert(keys[3], slice(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn append_extends_existing_slice() {
        let interner = StringInterner::new();
        let k = interner.intern("title");
        let mut cache = ViewCache::new(None);
        cache.append(k, &slice(2)).unwrap();
        cache.append(k, &slice(3)).unwrap();
        assert_eq!(cache.stats().resident_tuples, 5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_drops_only_the_matching_slices() {
        let interner = StringInterner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let mut cache = ViewCache::new(None);
        cache.insert(a, slice(1));
        cache.insert(b, slice(1));
        cache.invalidate_if(|k| k == a);
        assert!(!cache.contains(a));
        assert!(cache.contains(b));
        cache.invalidate_if(|_| true);
        assert!(cache.is_empty());
    }

    #[test]
    fn purge_dead_vars_reclaims_only_touched_slices() {
        let interner = StringInterner::new();
        let dead_var = interner.intern("S//gone//leaf");
        let live_var = interner.intern("S//blog//title");
        let mk = |var: Symbol| {
            let mut r = Relation::new(schemas::rl());
            r.push_values(vec![
                Value::Int(1),
                Value::Sym(var),
                Value::Sym(var),
                Value::Int(0),
                Value::Int(1),
                Value::Int(42),
            ])
            .unwrap();
            r
        };
        let a = interner.intern("value-a");
        let b = interner.intern("value-b");
        let mut cache = ViewCache::new(None);
        cache.insert(a, mk(dead_var));
        cache.insert(b, mk(live_var));
        let dead: std::collections::HashSet<Symbol> = [dead_var].into_iter().collect();
        assert_eq!(cache.purge_dead_vars(&dead), 1);
        assert!(!cache.contains(a));
        assert!(cache.contains(b));
        // An empty dead set is a no-op.
        assert_eq!(cache.purge_dead_vars(&Default::default()), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let interner = StringInterner::new();
        let mut cache = ViewCache::new(None);
        for i in 0..100 {
            cache.insert(interner.intern(&format!("v{i}")), slice(1));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
    }
}
