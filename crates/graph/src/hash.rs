//! A fast, deterministic Fx-style hasher.
//!
//! The per-vertex pair-count maps are the hottest data structure in the
//! whole system and their keys are packed integers, for which the standard
//! library's SipHash is needlessly slow (see the Rust Performance Book's
//! "Hashing" chapter). The offline dependency allow-list does not include
//! `rustc-hash`, so we implement the same multiply-rotate scheme here: it
//! is a handful of lines and deterministic (no per-process random state,
//! which also makes experiment runs reproducible). The word step is
//! rustc-hash 1.x's, which rustc used for years; but rustc's keys are
//! mostly small indices and pointers, so that record does not cover two
//! ids packed into one word. The finalizer is rustc-hash 2.x's (2.x also
//! changed the constant and the word step; those are not adopted here).
//!
//! **Why `finish` rotates.** The std `HashMap` (a SwissTable) takes the
//! bucket index from the *low* bits of the hash and the 7-bit control tag
//! from the *top* bits. The low bits of a product `key × SEED` depend only
//! on the low bits of `key`, and the low 32 bits of
//! [`pack_pair`](crate::pack_pair)`(lo, hi)` are just `hi`: without a
//! finalizer every `S_u` entry sharing its larger endpoint starts probing
//! at the same bucket (on the `static-skewed` benchmark graph, the
//! 337-degree hub's 25,912 entries share 313 of 32,768 start buckets
//! unrotated, 18,473 rotated).
//! Rotating left by 26 moves the well-mixed high bits of the product into
//! the bucket-index bits at the cost of one instruction.
//!
//! Not DoS-resistant — do not expose these maps to untrusted keys.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (64-bit variant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Streaming hasher state. One `u64` word; each input word is folded in
/// with a rotate-xor-multiply step.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // See the module doc: spread the product's high bits into the low
        // bits SwissTable indexes buckets with.
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold 8 bytes at a time, then the tail. Called rarely in this
        // workspace (keys are integers), but kept correct for generality.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (i, &b) in rem.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            self.add_word(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized and `Default`, so hash maps
/// built with it have no per-instance state and deterministic iteration
/// for a fixed insertion sequence.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` alias using the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` alias using the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of((1u32, 2u32)), hash_of((1u32, 2u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that low bits move.
        let a = hash_of(1u64);
        let b = hash_of(2u64);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff);
    }

    /// Keys per start bucket (`hash & 1023`) of a 1024-slot SwissTable.
    fn bucket_loads(keys: impl Iterator<Item = u64>) -> FxHashMap<u64, usize> {
        let mut loads = FxHashMap::default();
        for k in keys {
            *loads.entry(hash_of(k) & 1023).or_insert(0) += 1;
        }
        loads
    }

    #[test]
    fn packed_pairs_spread_over_low_bits() {
        // The two shapes an `S_u` map holds around a hub: many pairs
        // sharing their larger endpoint (low 32 key bits fixed), and many
        // sharing their smaller one (high 32 key bits fixed). The other
        // endpoints are neighbour ids, drawn here as 1024 distinct random
        // ids. The raw product maps the whole first set to one bucket.
        use crate::pack_pair;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut ids: Vec<u32> = (0..1 << 20).collect();
        ids.shuffle(&mut rand::rngs::StdRng::seed_from_u64(7));
        let (ids, hub) = (&ids[..1024], 1u32 << 21);
        let larger = bucket_loads(ids.iter().map(|&x| pack_pair(x, hub))).len();
        let smaller = bucket_loads(ids.iter().map(|&x| pack_pair(hub, hub + 1 + x))).len();
        assert!(larger >= 512, "shared larger endpoint: {larger} buckets");
        assert!(smaller >= 512, "shared smaller endpoint: {smaller} buckets");

        // Consecutive ids (a relabeled hub's neighbourhood) step through
        // the buckets evenly: with the smaller endpoint shared they hit
        // about half the buckets two or three times each, never a pile-up.
        for loads in [
            bucket_loads((0..1024u32).map(|x| pack_pair(x, 5_000))),
            bucket_loads((0..1024u32).map(|x| pack_pair(3, 10 + x))),
        ] {
            let worst = loads.values().copied().max().unwrap();
            assert!(worst <= 4, "{worst} consecutive keys share a start bucket");
        }
    }

    #[test]
    fn byte_stream_matches_tail_handling() {
        // 9 bytes exercises both the 8-byte chunk and the remainder path.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(7, 1);
        assert_eq!(m.get(&7), Some(&1));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(3);
        assert!(s.contains(&3));
    }
}
