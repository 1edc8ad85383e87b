//! Deterministic fast hashing for simulator-internal hot maps.
//!
//! `std::collections::HashMap`'s default `RandomState` both seeds
//! itself from the OS (different table layout every process — harmless
//! for value lookups but a needless source of nondeterminism) and runs
//! SipHash-1-3, which costs tens of nanoseconds per small key. Maps on
//! the per-request fast path — the switch's lock directory and the
//! server's lock table are hit on every lock request — want a fixed,
//! cheap mix instead. [`FastHasher`]
//! is the Fx-style multiply-xor hash: word-at-a-time, one multiply per
//! word, fully deterministic. It is *not* DoS-resistant, which is fine
//! for keys the simulation itself generates.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (golden-ratio derived, same constant rustc
/// uses for its interner tables).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher: `state = (state.rotl(5) ^ word) * SEED` per
/// input word. Deterministic across processes and platforms.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One xor-shift-multiply finalizer: the raw Fx state leaves
        // sequential keys clustered in the top bits, and hashbrown
        // steers on exactly those (control-byte h2 = top 7 bits).
        (self.state ^ (self.state >> 32)).wrapping_mul(SEED)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Deterministic builder for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` with the deterministic Fx-style hasher. Drop-in for hot
/// simulator maps; construct with `FastHashMap::default()`.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` with the deterministic Fx-style hasher.
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        let mut a = FastHashMap::default();
        let mut b = FastHashMap::default();
        for i in 0u64..1000 {
            a.insert((i, i * 3), i);
            b.insert((i, i * 3), i);
        }
        assert_eq!(a, b);
        // Same iteration order too: identical hasher state, identical
        // insert order, identical table layout.
        let va: Vec<_> = a.iter().collect();
        let vb: Vec<_> = b.iter().collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn distributes_sequential_keys() {
        // Sequential u64 keys must not collapse onto a few buckets:
        // count distinct top-7-bit prefixes of the hash.
        use std::hash::BuildHasher;
        let bh = FastBuildHasher::default();
        let mut buckets = FastHashSet::default();
        for i in 0u64..128 {
            buckets.insert(bh.hash_one((0u32, i)) >> 57);
        }
        assert!(
            buckets.len() > 70,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn odd_length_byte_tails_differ() {
        use std::hash::Hasher;
        let mut a = FastHasher::default();
        a.write(b"abcdefghi");
        let mut b = FastHasher::default();
        b.write(b"abcdefghj");
        assert_ne!(a.finish(), b.finish());
    }
}
