//! A fixed-key multiply-rotate hasher for tables keyed on small integers.
//!
//! The analysis looks up its tables (the encoder's gates, the session's
//! images, pairs and instantiations) far more often than it fills them,
//! by keys that are short runs of integers it made itself. `std`'s
//! SipHash with a random key defends against keys chosen by an adversary
//! and costs a dozen rounds per word; these keys need neither. The
//! hasher folds each word in with one rotate, one xor and one multiply
//! (the constant is FxHash's). It has no random state, so a table hashes
//! the same way in every run. None of the tables using it is iterated,
//! so the order its buckets fall in reaches no output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// See the [module documentation](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_a_slice_hashes_as_its_vec() {
        let v: Vec<i64> = vec![3, -1, 7];
        assert_eq!(hash(&v), hash(&v.clone()));
        assert_eq!(hash(&v), hash(v.as_slice()));
        assert_ne!(hash(&v), hash(&vec![3i64, -1, 8]));
        assert_ne!(hash(&(1u32, 2u32)), hash(&(2u32, 1u32)));
    }

    #[test]
    fn a_map_finds_a_vec_key_by_slice() {
        let mut m: IdMap<Vec<u32>, usize> = IdMap::default();
        for i in 0..100u32 {
            m.insert(vec![i, i * 7, 1], i as usize);
        }
        let mut key = Vec::new();
        for i in 0..100u32 {
            key.clear();
            key.extend([i, i * 7, 1]);
            assert_eq!(m.get(key.as_slice()), Some(&(i as usize)));
        }
        assert_eq!(m.get([1u32, 2, 3].as_slice()), None);
    }
}
