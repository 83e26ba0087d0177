//! The 128-bit content-key hasher behind every trace-cache key and, through
//! `mesh-bench`'s `ScenarioFp`, every result-memo key.
//!
//! Keys are content hashes, not identities: equal inputs must give equal
//! keys in every process and on every host, so std's randomly keyed default
//! hasher cannot serve. [`KeyHasher`] folds one 64-bit **word** per step:
//! each integer the derived `Hash` impls write (a `u64` field, an enum
//! discriminant, a length prefix) is one word, and a byte slice is read
//! 8 bytes at a time, its tail packed into one last word together with the
//! tail's length. A PHM workload's 443–465 segments are about 5,900 words.
//!
//! The state is two 64-bit lanes. Every word updates both, each as
//! `lane = lo ^ hi` of the 128-bit product `(lane ^ word) · K`, with an odd
//! multiplier `K` of its own. A dense `K` spreads every bit of the word over
//! the product's high half, so a difference anywhere in a word moves the
//! whole lane; a sparse multiplier such as FNV's prime leaves a difference
//! in the middle bits to reach the high half only through a carry, where
//! the next word can often cancel it. The two lanes differ in seed and
//! multiplier, so a collision needs two independent 64-bit collisions at
//! once. [`finish128`](KeyHasher::finish128) mixes the lanes into each
//! other once more.

use std::hash::Hasher;

/// Odd multipliers of the two lanes (the 64-bit golden ratio and xxHash's
/// second 64-bit prime).
const K_A: u64 = 0x9e37_79b9_7f4a_7c15;
const K_B: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// The lanes' seeds (the first fractional digits of π in hex).
const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
const SEED_B: u64 = 0x1319_8a2e_0370_7344;

/// The high and low halves of `x · k`, folded together by xor.
fn mix(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A stable, process-portable 128-bit content hasher that folds one 64-bit
/// word per step (see the [module docs](self)). It implements [`Hasher`],
/// so any value with a derived `Hash` folds in; [`finish128`] reads the
/// 128-bit key.
///
/// [`finish128`]: KeyHasher::finish128
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher {
            a: SEED_A,
            b: SEED_B,
        }
    }
}

impl KeyHasher {
    /// Folds in one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.a = mix(self.a ^ w, K_A);
        self.b = mix(self.b ^ w, K_B);
    }

    /// The 128-bit key of everything folded in so far.
    pub fn finish128(&self) -> u128 {
        let hi = mix(self.a ^ self.b, K_B);
        let lo = mix(self.b ^ hi, K_A);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

impl Hasher for KeyHasher {
    /// Folds `bytes` 8 at a time (little-endian), then one last word
    /// holding the 0–7 tail bytes and, in its top byte, their count.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = chunks.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.word(u64::from_le_bytes(last) | (tail.len() as u64) << 56);
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    /// Two words: the low half, then the high half.
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// The low 64 bits of [`finish128`](KeyHasher::finish128).
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn key_of(words: &[u64]) -> u128 {
        let mut h = KeyHasher::default();
        for &w in words {
            h.word(w);
        }
        h.finish128()
    }

    #[test]
    fn the_order_of_words_matters() {
        assert_ne!(key_of(&[1, 2]), key_of(&[2, 1]));
        assert_ne!(key_of(&[0, 1, 0]), key_of(&[1, 0, 0]));
        assert_ne!(key_of(&[7, 7, 9]), key_of(&[7, 9, 7]));
    }

    #[test]
    fn runs_of_zero_words_all_hash_differently() {
        let keys: HashSet<u128> = (0..=64).map(|n| key_of(&vec![0; n])).collect();
        assert_eq!(keys.len(), 65);
    }

    #[test]
    fn every_bit_of_a_word_moves_both_halves() {
        let base = key_of(&[0x0123_4567_89ab_cdef, 5]);
        for bit in 0..64 {
            let key = key_of(&[0x0123_4567_89ab_cdef ^ (1 << bit), 5]);
            assert_ne!(key >> 64, base >> 64, "bit {bit}: high half");
            assert_ne!(key as u64, base as u64, "bit {bit}: low half");
        }
    }

    #[test]
    fn integers_fold_as_one_word_each() {
        let mut ints = KeyHasher::default();
        ints.write_u8(3);
        ints.write_u32(4);
        ints.write_usize(5);
        ints.write_u128(u128::from(6u64) << 64 | 7);
        assert_eq!(ints.finish128(), key_of(&[3, 4, 5, 7, 6]));
        // So does a derived impl's enum discriminant.
        let mut opt = KeyHasher::default();
        Some(9usize).hash(&mut opt);
        assert_eq!(opt.finish128(), key_of(&[1, 9]));
    }

    #[test]
    fn byte_slices_fold_their_tail_length() {
        let mut seen = HashSet::new();
        for len in 0..=17 {
            let mut h = KeyHasher::default();
            h.write(&vec![0u8; len]);
            assert!(seen.insert(h.finish128()), "{len} zero bytes");
        }
        let mut h = KeyHasher::default();
        h.write(b"abcdefghij");
        assert_eq!(
            h.finish128(),
            key_of(&[
                u64::from_le_bytes(*b"abcdefgh"),
                u64::from(u16::from_le_bytes(*b"ij")) | 2 << 56
            ])
        );
    }
}
