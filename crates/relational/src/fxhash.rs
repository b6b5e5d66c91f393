//! A small Fx-style hasher for the join-processing hot paths.
//!
//! The standard library's default SipHash is DoS-resistant but costs tens of
//! cycles per key — far more than the multiply-and-rotate mix used by
//! compiler-grade hash maps. The MMQJP engine hashes *interned* symbols and
//! small integers (never attacker-controlled raw strings) on every join
//! build/probe and every per-bucket index insert, so the Fx construction is
//! the right trade-off. Vendored (no crates.io dependency): the algorithm is
//! the well-known `FxHasher` used by rustc — fold each 8-byte word into the
//! state with a rotate, xor and multiply by a sparse odd constant.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier used by the Fx construction (a sparse odd 64-bit constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for fixed-width keys (symbols, node ids,
/// document ids and small composite join keys).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher that continues from the state an earlier [`finish`] returned,
    /// so a composite key can be hashed one column at a time.
    ///
    /// [`finish`]: Hasher::finish
    #[inline]
    pub(crate) fn resume(state: u64) -> Self {
        FxHasher { hash: state }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (chunk, rest) = bytes.split_at(8);
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))); // lint:allow split_at(8) yields 8 bytes
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (chunk, rest) = bytes.split_at(4);
            self.add_to_hash(u64::from(u32::from_le_bytes(
                chunk.try_into().expect("4-byte chunk"), // lint:allow split_at(4) yields 4 bytes
            )));
            bytes = rest;
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`std::collections::HashMap`] keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A [`std::collections::HashSet`] keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"witness"), hash_of(&"witness"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn byte_paths_cover_all_widths() {
        // 8-byte, 4-byte and trailing-byte paths all mix into the state.
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let first = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(first, h2.finish());
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(7, "seven");
        assert_eq!(map.get(&7), Some(&"seven"));
        let mut set: FxHashSet<&str> = FxHashSet::default();
        assert!(set.insert("a"));
        assert!(!set.insert("a"));
    }
}
