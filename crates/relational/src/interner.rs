//! String interning.
//!
//! The Join Processor compares string values of XML nodes millions of times
//! (every value-join probe). Interning turns those comparisons into `u32`
//! equality and makes hash keys fixed width. The interner is also used for
//! variable names stored in the `RT`, `Rbin` and `RbinW` relations.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
/// An interned string handle. Cheap to copy, hash and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw interner index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstruct a symbol from a raw index. Only meaningful together with
    /// the interner that produced it.
    pub fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// A thread-safe string interner.
///
/// Interning is idempotent: interning the same text twice returns the same
/// [`Symbol`]. Resolution ([`resolve`](Self::resolve)) returns the original
/// text. The interner only grows; publish/subscribe engines typically bound
/// the distinct-value universe by the workload, and the MMQJP engine shares a
/// single interner across all witness relations.
///
/// Each lookup hashes its text once, before taking the lock, with std's
/// randomly keyed SipHash; the index is keyed by that 64-bit hash and every
/// hit is confirmed against the stored string. Interned text is untrusted
/// document content, and the key keeps it from choosing colliding hashes.
#[derive(Debug, Default)]
pub struct StringInterner {
    hash: TextHash,
    inner: RwLock<InternerInner>,
}

/// How the interner hashes text. Tests can make every hash collide.
#[derive(Debug, Clone)]
enum TextHash {
    Keyed(RandomState),
    #[cfg(test)]
    Constant,
}

impl Default for TextHash {
    fn default() -> Self {
        TextHash::Keyed(RandomState::new())
    }
}

impl TextHash {
    fn of<T: Hash + ?Sized>(&self, value: &T) -> u64 {
        match self {
            TextHash::Keyed(state) => state.hash_one(value),
            #[cfg(test)]
            TextHash::Constant => 0,
        }
    }
}

/// Hashes a `u64` key to itself: the interner's keys are already keyed
/// SipHash outputs.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type HashIndex<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

#[derive(Debug, Default, Clone)]
struct InternerInner {
    /// Text hash → the first symbol interned with that hash.
    map: HashIndex<Symbol>,
    /// Text hash → later symbols whose distinct text has the same hash.
    overflow: HashIndex<Vec<Symbol>>,
    strings: Vec<Arc<str>>,
}

impl InternerInner {
    fn text_is(&self, sym: Symbol, text: &str) -> bool {
        self.strings
            .get(sym.0 as usize)
            .is_some_and(|s| **s == *text)
    }

    fn find(&self, hash: u64, text: &str) -> Option<Symbol> {
        let &first = self.map.get(&hash)?;
        if self.text_is(first, text) {
            return Some(first);
        }
        self.overflow
            .get(&hash)?
            .iter()
            .copied()
            .find(|&sym| self.text_is(sym, text))
    }

    fn insert(&mut self, hash: u64, text: &str) -> Symbol {
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(Arc::from(text));
        match self.map.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(sym);
            }
            Entry::Occupied(_) => self.overflow.entry(hash).or_default().push(sym),
        }
        sym
    }
}

/// The interner's hash index disagrees with its string table (see
/// [`StringInterner::check_index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternerIndexError {
    /// Symbols filed in the index, first entries and overflow together.
    pub indexed: usize,
    /// Interned strings.
    pub strings: usize,
    /// The first symbol that looking up its own string does not find.
    pub unreachable: Option<Symbol>,
}

impl StringInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        StringInterner::default()
    }

    /// Intern `text`, returning its symbol. Re-interning returns the same
    /// symbol.
    pub fn intern(&self, text: &str) -> Symbol {
        let hash = self.hash.of(text);
        // Fast path: read lock only.
        if let Some(sym) = self.inner.read().find(hash, text) {
            return sym;
        }
        let mut inner = self.inner.write();
        match inner.find(hash, text) {
            Some(sym) => sym,
            None => inner.insert(hash, text),
        }
    }

    /// Hash `value` with the interner's random key: equal for equal values
    /// through one interner, and not predictable from outside the process,
    /// so values from outside the program cannot be chosen to collide.
    pub fn hash_one<T: Hash + ?Sized>(&self, value: &T) -> u64 {
        self.hash.of(value)
    }

    /// Look up a symbol without interning. Returns `None` if the text has
    /// never been interned.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        let hash = self.hash.of(text);
        self.inner.read().find(hash, text)
    }

    /// Resolve a symbol back to its text. Returns `None` for symbols from a
    /// different interner (out-of-range indices).
    pub fn resolve(&self, sym: Symbol) -> Option<Arc<str>> {
        self.inner.read().strings.get(sym.0 as usize).cloned()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.read().strings.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-check the hash index against the string table: every symbol
    /// must be found by looking up its own string, and the index must file
    /// exactly one entry per string. Read-only; for engine audits.
    pub fn check_index(&self) -> Result<(), InternerIndexError> {
        let inner = self.inner.read();
        let indexed = inner.map.len() + inner.overflow.values().map(Vec::len).sum::<usize>();
        let unreachable = inner.strings.iter().enumerate().find_map(|(i, text)| {
            let sym = Symbol(i as u32);
            (inner.find(self.hash.of(text), text) != Some(sym)).then_some(sym)
        });
        if indexed == inner.strings.len() && unreachable.is_none() {
            Ok(())
        } else {
            Err(InternerIndexError {
                indexed,
                strings: inner.strings.len(),
                unreachable,
            })
        }
    }
}

impl Clone for StringInterner {
    /// The clone keeps the hash key, so its index stays valid.
    fn clone(&self) -> Self {
        StringInterner {
            hash: self.hash.clone(),
            inner: RwLock::new(self.inner.read().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use std::thread;

    #[test]
    fn intern_is_idempotent() {
        let i = StringInterner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        let c = i.intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn resolve_roundtrip() {
        let i = StringInterner::new();
        let s = i.intern("Danny Ayers");
        assert_eq!(i.resolve(s).as_deref(), Some("Danny Ayers"));
        assert_eq!(i.get("Danny Ayers"), Some(s));
        assert_eq!(i.get("nobody"), None);
        assert!(i.resolve(Symbol::from_raw(999)).is_none());
    }

    #[test]
    fn empty_interner() {
        let i = StringInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn symbols_are_dense_indices() {
        let i = StringInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(Symbol::from_raw(1), b);
        assert_eq!(b.to_string(), "sym1");
    }

    #[test]
    fn clone_preserves_contents() {
        let i = StringInterner::new();
        let a = i.intern("x");
        let j = i.clone();
        assert_eq!(j.get("x"), Some(a));
        // Interning new strings in the clone does not affect the original.
        j.intern("y");
        assert_eq!(i.get("y"), None);
    }

    /// An interner whose every string hashes to 0: all strings but the
    /// first are filed in `overflow`.
    fn colliding() -> StringInterner {
        StringInterner {
            hash: TextHash::Constant,
            inner: RwLock::default(),
        }
    }

    #[test]
    fn colliding_hashes_resolve_through_overflow() {
        let i = colliding();
        let words = ["alpha", "beta", "", "gamma", "beta2", "alpha "];
        for (k, w) in words.iter().enumerate() {
            assert_eq!(i.intern(w), Symbol::from_raw(k as u32), "dense, in order");
        }
        for (k, w) in words.iter().enumerate() {
            let sym = Symbol::from_raw(k as u32);
            assert_eq!(i.intern(w), sym);
            assert_eq!(i.get(w), Some(sym));
            assert_eq!(i.resolve(sym).as_deref(), Some(*w));
        }
        assert_eq!(i.get("delta"), None);
        assert_eq!(i.len(), words.len());
        {
            let inner = i.inner.read();
            assert_eq!(inner.map.len(), 1);
            assert_eq!(inner.overflow[&0].len(), words.len() - 1);
        }
        assert_eq!(i.check_index(), Ok(()));
        // A clone keeps the hash function, so it finds every string too.
        let j = i.clone();
        for (k, w) in words.iter().enumerate() {
            assert_eq!(j.get(w), Some(Symbol::from_raw(k as u32)));
        }
    }

    #[test]
    fn clone_finds_every_string_of_the_original() {
        let i = StringInterner::new();
        let syms: Vec<Symbol> = (0..500).map(|k| i.intern(&format!("v{k}"))).collect();
        let j = i.clone();
        for (k, &sym) in syms.iter().enumerate() {
            assert_eq!(j.get(&format!("v{k}")), Some(sym));
            assert_eq!(j.intern(&format!("v{k}")), sym);
        }
        assert_eq!(j.len(), i.len());
        assert_eq!(j.check_index(), Ok(()));
    }

    #[test]
    fn check_index_detects_seeded_violations() {
        for i in [StringInterner::new(), colliding()] {
            for w in ["a", "b", "c"] {
                i.intern(w);
            }
            assert_eq!(i.check_index(), Ok(()));
            // A string whose symbol the index no longer files.
            i.inner.write().strings.push(Arc::from("orphan"));
            assert_eq!(
                i.check_index(),
                Err(InternerIndexError {
                    indexed: 3,
                    strings: 4,
                    unreachable: Some(Symbol::from_raw(3)),
                })
            );
        }
        // An entry filed under the wrong symbol: counts agree, lookup fails.
        let i = StringInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        {
            let mut inner = i.inner.write();
            let hash = i.hash.of("a");
            inner.map.insert(hash, b);
        }
        let err = i.check_index().unwrap_err();
        assert_eq!((err.indexed, err.strings), (2, 2));
        assert_eq!(err.unreachable, Some(a));
    }

    #[test]
    fn pass_through_hasher_folds_bytes() {
        let mut h = PassThrough::default();
        h.write_u64(42);
        assert_eq!(h.finish(), 42);
        let mut h = PassThrough::default();
        h.write(b"ab");
        assert_ne!(h.finish(), 0);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let i = StdArc::new(StringInterner::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let i = StdArc::clone(&i);
                thread::spawn(move || {
                    let mut syms = Vec::new();
                    for k in 0..100 {
                        syms.push((k, i.intern(&format!("value-{}", k % 25))));
                    }
                    let _ = t;
                    syms
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The same text interned from different threads yields the same symbol.
        for window in results.windows(2) {
            for (a, b) in window[0].iter().zip(window[1].iter()) {
                assert_eq!(a.1, b.1);
            }
        }
        assert_eq!(i.len(), 25);
    }
}
