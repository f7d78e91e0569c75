//! The common interface implemented by every replacement policy.

use serde::{Deserialize, Serialize};

/// Object identifier stored in simulator caches.
pub type Key = u64;

/// A fixed-capacity cache of object ids under some replacement policy.
///
/// The simulator drives caches with exactly three operations: membership
/// tests on the request path, hit bookkeeping ([`CachePolicy::touch`]), and
/// insertion on the response path ([`CachePolicy::insert`], which reports
/// the evicted key so the nearest-replica directory can be kept in sync).
pub trait CachePolicy {
    /// Maximum number of objects the cache can hold.
    fn capacity(&self) -> usize;

    /// Current number of cached objects.
    fn len(&self) -> usize;

    /// True when no objects are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` is cached. Does not update replacement state.
    fn contains(&self, key: Key) -> bool;

    /// Records a hit on `key` (e.g. moves it to the LRU front). No-op when
    /// `key` is absent.
    fn touch(&mut self, key: Key);

    /// Inserts `key`, evicting per policy if at capacity. Returns the
    /// evicted key, if any. Inserting a present key refreshes it (like a
    /// hit) and evicts nothing. A zero-capacity cache stores nothing and
    /// returns `None`.
    fn insert(&mut self, key: Key) -> Option<Key>;

    /// Removes every object.
    fn clear(&mut self);
}

/// Replacement policy selector used by experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's default, near-optimal in practice).
    Lru,
    /// Least-frequently-used with LRU tie-breaking.
    Lfu,
    /// First-in-first-out.
    Fifo,
    /// LRU with probabilistic admission: new keys enter with probability
    /// `admit_pct`/100 (a deterministic per-attempt hash coin).
    Prob {
        /// Admission probability in percent, 0–100.
        admit_pct: u8,
    },
    /// Leased entries expiring `ttl` logical ticks after insertion.
    Ttl {
        /// Lease length in logical ticks (request indices).
        ttl: u32,
    },
    /// LRU with TinyLFU admission (4-bit count–min sketch with aging).
    TinyLfu,
}
