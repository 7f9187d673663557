//! The store's one word-mixing step, and the hasher its tables use.
//!
//! [`mix`] folds one 64-bit word into a running hash: rotate the hash,
//! xor the word in, multiply by an odd constant (FxHash's step). For a
//! fixed hash it is a bijection of the word, and for a fixed word a
//! bijection of the hash, so two word sequences of one length that
//! differ in a single word always fold to different hashes. Bytes are
//! folded eight at a time as little-endian words, the last one
//! zero-padded, and then their length ([`mix_bytes`]).
//!
//! Two users, one step:
//!
//! * the batch seal ([`UpdateBatch::envelope_check`](crate::UpdateBatch::envelope_check)),
//!   one multiply per word where a byte-wise FNV took eight;
//! * [`FastHash`], the `BuildHasher` of the tables a replica looks up on
//!   every op or delivery: the shard tables' objects, a transaction's
//!   overlay, the causal buffer's slots and the quarantine ledger. It is
//!   unseeded, so a table's iteration order is fixed by its contents;
//!   nothing reads these tables in iteration order. Their keys are
//!   object names the applications chose and `(origin, seq)` pairs the
//!   store numbers itself, never a client's input, so an unseeded hash
//!   gives up no protection they need. A key's shard is decided apart
//!   from this, by `replica::shard_of`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier: odd, so multiplying by it is a bijection.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fold one word into `h`.
#[inline]
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(K)
}

/// Fold `bytes` into `h`: whole little-endian words, the zero-padded
/// tail, then the length, so that bytes differing only in trailing zeros
/// still differ.
#[inline]
pub(crate) fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(word));
    }
    mix(h, bytes.len() as u64)
}

/// A [`Hasher`] folding everything it is fed through [`mix`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0, bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0 = mix(self.0, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.0 = mix(self.0, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = mix(self.0, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = mix(self.0, i as u64);
    }
}

/// The store tables' `BuildHasher`: unseeded, one [`mix`] per word.
pub(crate) type FastHash = BuildHasherDefault<FastHasher>;

pub(crate) type FastMap<K, V> = HashMap<K, V, FastHash>;

pub(crate) type FastSet<T> = HashSet<T, FastHash>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn mix_is_a_bijection_of_the_word_and_of_the_hash() {
        // Injective on a sample: no two words (or two hashes) collide.
        let sample: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 61))
            .collect();
        let mut by_word: Vec<u64> = sample.iter().map(|&w| mix(12345, w)).collect();
        let mut by_hash: Vec<u64> = sample.iter().map(|&h| mix(h, 678)).collect();
        for folded in [&mut by_word, &mut by_hash] {
            folded.sort_unstable();
            folded.dedup();
            assert_eq!(folded.len(), sample.len());
        }
    }

    #[test]
    fn bytes_differing_in_length_or_any_bit_fold_apart() {
        let base = b"tournament/enrolled".to_vec();
        let h = mix_bytes(7, &base);
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(mix_bytes(7, &padded), h);
        assert_ne!(mix_bytes(7, &base[..base.len() - 1]), h);
        assert_ne!(mix_bytes(7, b""), mix_bytes(7, b"\0"));
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(mix_bytes(7, &flipped), h, "bit {i}");
        }
    }

    #[test]
    fn the_hasher_is_unseeded_and_spreads_table_keys() {
        let (a, b) = (FastHash::default(), FastHash::default());
        let keys: Vec<String> = (0..1000).map(|i| format!("ticket/sold/e{i}")).collect();
        for k in &keys {
            assert_eq!(a.hash_one(k.as_str()), b.hash_one(k.as_str()));
        }
        // The bucket bits a table uses, low and high, take many values.
        let mut low: Vec<u64> = keys.iter().map(|k| a.hash_one(k) & 0x3ff).collect();
        let mut high: Vec<u64> = keys.iter().map(|k| a.hash_one(k) >> 57).collect();
        low.sort_unstable();
        low.dedup();
        high.sort_unstable();
        high.dedup();
        assert!(low.len() > 500, "{} distinct low bucket bits", low.len());
        assert_eq!(high.len(), 128, "every top-seven-bit tag");
        let mut pairs = FastSet::default();
        for origin in 0..8u16 {
            for seq in 0..64u64 {
                let mut h = FastHasher::default();
                (origin, seq).hash(&mut h);
                pairs.insert(h.finish());
            }
        }
        assert_eq!(pairs.len(), 8 * 64);
    }
}
