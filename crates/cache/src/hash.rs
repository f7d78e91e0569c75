//! A fast, non-cryptographic hasher for integer cache keys.
//!
//! The simulator performs hundreds of millions of cache-map probes; the
//! default SipHash is noticeably slower than necessary for trusted `u64`
//! keys. This is a Fibonacci/wymix-style multiply-xor hasher, adequate for
//! well-distributed object ids and deterministic across runs (which keeps
//! the experiments reproducible).

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher specialized for small integer keys.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

/// `BuildHasher` for [`FastHasher`], usable with `HashMap`/`HashSet`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast integer hasher.
#[expect(clippy::disallowed_types, reason = "fixed seed: identical every run")]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with the fast integer hasher.
#[expect(clippy::disallowed_types, reason = "fixed seed: identical every run")]
pub type FastSet<K> = std::collections::HashSet<K, FastBuildHasher>;

const K: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / golden ratio

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 tail) so sequential ids spread out.
        let mut z = self.state;
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(K);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(K);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "counts buckets; never iterated")]
    fn sequential_keys_spread() {
        // Check that low bits differ for sequential keys (HashMap uses the
        // low bits for bucket selection).
        let mut buckets = std::collections::HashSet::new();
        for i in 0u64..1024 {
            buckets.insert(hash_one(i) & 0x3ff);
        }
        assert!(
            buckets.len() > 600,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn works_in_hashmap() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&1234), Some(&1234));
    }
}
