//! Enum-dispatched cache slots for hot loops.
//!
//! The simulator probes a cache on every hop of every request; routing
//! those probes through `Box<dyn CachePolicy + Send>` costs a pointer
//! chase plus a virtual call per probe and a heap allocation per node.
//! [`CacheSlot`] is a closed enum over the concrete policies (plus an
//! explicit [`CacheSlot::None`] for cache-less routers), so every probe
//! is a direct — and inlinable — match dispatch, and a network's worth of
//! slots lives in one flat `Vec<CacheSlot>`.
//!
//! The [`CachePolicy`](crate::CachePolicy) trait remains the public
//! extension point (property tests and external policies keep using it);
//! the enum is the hot-path mirror of the same behaviour, pinned by the
//! equivalence test below.

use crate::fifo::Fifo;
use crate::lfu::Lfu;
use crate::lru::CompactLru;
use crate::policy::{CachePolicy, Key, PolicyKind};
use crate::prob::ProbCache;
use crate::tinylfu::TinyLfu;
use crate::ttl::Ttl;

/// What one [`CacheSlot::store`] did: the answers of `contains` before and
/// after the insert, and the key the insert displaced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stored {
    /// The key was resident before the store.
    pub had: bool,
    /// The key is resident after the store (an admission filter, a
    /// zero-capacity cache or [`CacheSlot::None`] may refuse it).
    pub resident: bool,
    /// The key evicted to make room, if any.
    pub evicted: Option<Key>,
}

/// A cache slot for one router: either a concrete policy or nothing.
///
/// All methods on the `None` variant behave like an always-empty,
/// zero-capacity cache, so callers can probe unconditionally.
#[derive(Debug)]
pub enum CacheSlot {
    /// No cache equipped at this router.
    None,
    /// Compact index-based LRU (the default LRU implementation).
    Lru(CompactLru),
    /// First-in / first-out eviction.
    Fifo(Fifo),
    /// Least-frequently-used eviction.
    Lfu(Lfu),
    /// Probabilistic-admission LRU (ProbCache-style).
    Prob(ProbCache),
    /// Logical-time TTL leases.
    Ttl(Ttl),
    /// TinyLFU admission filter over LRU.
    TinyLfu(TinyLfu),
}

impl CacheSlot {
    /// Builds a slot holding a concrete policy of `kind` with `capacity`
    /// entries.
    #[must_use]
    pub fn build(kind: PolicyKind, capacity: usize) -> Self {
        match kind {
            PolicyKind::Lru => CacheSlot::Lru(CompactLru::new(capacity)),
            PolicyKind::Fifo => CacheSlot::Fifo(Fifo::new(capacity)),
            PolicyKind::Lfu => CacheSlot::Lfu(Lfu::new(capacity)),
            PolicyKind::Prob { admit_pct } => CacheSlot::Prob(ProbCache::new(capacity, admit_pct)),
            PolicyKind::Ttl { ttl } => CacheSlot::Ttl(Ttl::new(capacity, ttl as u64)),
            PolicyKind::TinyLfu => CacheSlot::TinyLfu(TinyLfu::new(capacity)),
        }
    }

    /// True when a concrete policy is equipped (the router has a cache).
    #[inline]
    #[must_use]
    pub fn is_equipped(&self) -> bool {
        !matches!(self, CacheSlot::None)
    }

    /// Maximum number of entries; 0 for [`CacheSlot::None`].
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self {
            CacheSlot::None => 0,
            CacheSlot::Lru(c) => c.capacity(),
            CacheSlot::Fifo(c) => c.capacity(),
            CacheSlot::Lfu(c) => c.capacity(),
            CacheSlot::Prob(c) => c.capacity(),
            CacheSlot::Ttl(c) => c.capacity(),
            CacheSlot::TinyLfu(c) => c.capacity(),
        }
    }

    /// Current number of entries; 0 for [`CacheSlot::None`].
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CacheSlot::None => 0,
            CacheSlot::Lru(c) => c.len(),
            CacheSlot::Fifo(c) => c.len(),
            CacheSlot::Lfu(c) => c.len(),
            CacheSlot::Prob(c) => c.len(),
            CacheSlot::Ttl(c) => c.len(),
            CacheSlot::TinyLfu(c) => c.len(),
        }
    }

    /// True when no entries are cached (always true for `None`).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership probe without touching recency/frequency state.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: Key) -> bool {
        match self {
            CacheSlot::None => false,
            CacheSlot::Lru(c) => c.contains(key),
            CacheSlot::Fifo(c) => c.contains(key),
            CacheSlot::Lfu(c) => c.contains(key),
            CacheSlot::Prob(c) => c.contains(key),
            CacheSlot::Ttl(c) => c.contains(key),
            CacheSlot::TinyLfu(c) => c.contains(key),
        }
    }

    /// Records a hit on `key` (no-op when absent or on `None`).
    #[inline]
    pub fn touch(&mut self, key: Key) {
        match self {
            CacheSlot::None => {}
            CacheSlot::Lru(c) => c.touch(key),
            CacheSlot::Fifo(c) => c.touch(key),
            CacheSlot::Lfu(c) => c.touch(key),
            CacheSlot::Prob(c) => c.touch(key),
            CacheSlot::Ttl(c) => c.touch(key),
            CacheSlot::TinyLfu(c) => c.touch(key),
        }
    }

    /// Inserts `key`, returning the evicted key if one was displaced.
    /// A no-op returning `None` on the [`CacheSlot::None`] variant.
    #[inline]
    pub fn insert(&mut self, key: Key) -> Option<Key> {
        match self {
            CacheSlot::None => None,
            CacheSlot::Lru(c) => c.insert(key),
            CacheSlot::Fifo(c) => c.insert(key),
            CacheSlot::Lfu(c) => c.insert(key),
            CacheSlot::Prob(c) => c.insert(key),
            CacheSlot::Ttl(c) => c.insert(key),
            CacheSlot::TinyLfu(c) => c.insert(key),
        }
    }

    /// Inserts `key` at logical time `now` (the request index). Only the
    /// TTL variant consumes the clock — every other variant behaves
    /// exactly like [`CacheSlot::insert`] — so the simulator can call
    /// this unconditionally on its response path.
    #[inline]
    pub fn insert_at(&mut self, key: Key, now: u64) -> Option<Key> {
        match self {
            CacheSlot::Ttl(c) => c.insert_at(key, now),
            other => other.insert(key),
        }
    }

    /// Stores `key` at logical time `now` and reports what changed — the
    /// simulator's response-path insert, which must keep the replica
    /// directory in step with the cache. Equivalent to `contains`, then
    /// [`CacheSlot::insert_at`], then `contains` again; the LRU variant
    /// answers all three with one map probe for a present key.
    #[inline]
    pub fn store(&mut self, key: Key, now: u64) -> Stored {
        match self {
            CacheSlot::Lru(c) => c.store(key),
            other => {
                let had = other.contains(key);
                let evicted = other.insert_at(key, now);
                Stored {
                    had,
                    resident: other.contains(key),
                    evicted,
                }
            }
        }
    }

    /// Removes `key` outright if present, returning whether it was
    /// cached; `false` — and a no-op — on [`CacheSlot::None`]. Unlike
    /// [`CacheSlot::expire`] this works on every policy and ignores
    /// leases: it is the fault path's "this copy is poisoned, drop it"
    /// primitive, so admission/recency bookkeeping (TinyLFU sketch, Prob
    /// nonce) is deliberately left untouched.
    #[inline]
    pub fn remove(&mut self, key: Key) -> bool {
        match self {
            CacheSlot::None => false,
            CacheSlot::Lru(c) => c.remove(key),
            CacheSlot::Fifo(c) => c.remove(key),
            CacheSlot::Lfu(c) => c.remove(key),
            CacheSlot::Prob(c) => c.remove(key),
            CacheSlot::Ttl(c) => c.remove(key),
            CacheSlot::TinyLfu(c) => c.remove(key),
        }
    }

    /// Retires `key` from a TTL slot if its live lease ends exactly at
    /// `stamp` (see [`Ttl::expire`]); `false` — and a no-op — on every
    /// other variant or on a stale stamp.
    #[inline]
    pub fn expire(&mut self, key: Key, stamp: u64) -> bool {
        match self {
            CacheSlot::Ttl(c) => c.expire(key, stamp),
            _ => false,
        }
    }

    /// The lease length when this slot expires entries on logical time
    /// (`None` for every non-TTL variant). The simulator uses this to
    /// decide whether to maintain an expiry queue at all.
    #[inline]
    #[must_use]
    pub fn ttl(&self) -> Option<u64> {
        match self {
            CacheSlot::Ttl(c) => Some(c.ttl()),
            _ => None,
        }
    }

    /// Drops every entry (no-op on `None`).
    #[inline]
    pub fn clear(&mut self) {
        match self {
            CacheSlot::None => {}
            CacheSlot::Lru(c) => c.clear(),
            CacheSlot::Fifo(c) => c.clear(),
            CacheSlot::Lfu(c) => c.clear(),
            CacheSlot::Prob(c) => c.clear(),
            CacheSlot::Ttl(c) => c.clear(),
            CacheSlot::TinyLfu(c) => c.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic op mix driving a slot of `kind` and `boxed`, the
    /// same concrete policy behind the trait, in lockstep: the enum must
    /// mirror the trait behaviour exactly (same hits, same evictions,
    /// same lengths).
    fn drive_equivalence(kind: PolicyKind, mut boxed: Box<dyn CachePolicy>) {
        let mut slot = CacheSlot::build(kind, boxed.capacity());
        assert_eq!(slot.capacity(), 8);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000u64 {
            // SplitMix64 step: deterministic, no external RNG needed.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let key = z % 24;
            match z >> 61 {
                0..=2 => {
                    slot.touch(key);
                    boxed.touch(key);
                    assert_eq!(
                        slot.contains(key),
                        boxed.contains(key),
                        "touch {key} @ {step}"
                    );
                }
                3..=5 => {
                    assert_eq!(slot.insert(key), boxed.insert(key), "insert {key} @ {step}");
                }
                6 => {
                    assert_eq!(
                        slot.contains(key),
                        boxed.contains(key),
                        "contains {key} @ {step}"
                    );
                }
                _ => {
                    assert_eq!(slot.len(), boxed.len(), "len @ {step}");
                    assert_eq!(slot.is_empty(), boxed.is_empty());
                }
            }
        }
        slot.clear();
        boxed.clear();
        assert!(slot.is_empty() && boxed.is_empty());
    }

    #[test]
    fn lru_slot_mirrors_boxed_policy() {
        drive_equivalence(PolicyKind::Lru, Box::new(CompactLru::new(8)));
    }

    #[test]
    fn fifo_slot_mirrors_boxed_policy() {
        drive_equivalence(PolicyKind::Fifo, Box::new(Fifo::new(8)));
    }

    #[test]
    fn lfu_slot_mirrors_boxed_policy() {
        drive_equivalence(PolicyKind::Lfu, Box::new(Lfu::new(8)));
    }

    #[test]
    fn prob_slot_mirrors_boxed_policy() {
        let kind = PolicyKind::Prob { admit_pct: 70 };
        drive_equivalence(kind, Box::new(ProbCache::new(8, 70)));
    }

    #[test]
    fn ttl_slot_mirrors_boxed_policy() {
        let kind = PolicyKind::Ttl { ttl: 24 };
        drive_equivalence(kind, Box::new(Ttl::new(8, 24)));
    }

    #[test]
    fn tinylfu_slot_mirrors_boxed_policy() {
        drive_equivalence(PolicyKind::TinyLfu, Box::new(TinyLfu::new(8)));
    }

    #[test]
    fn insert_at_matches_insert_for_clockless_policies() {
        // Only the TTL variant reads the logical clock; all others must
        // behave identically through insert_at and insert.
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::Prob { admit_pct: 55 },
            PolicyKind::TinyLfu,
        ] {
            let mut timed = CacheSlot::build(kind, 4);
            let mut plain = CacheSlot::build(kind, 4);
            assert_eq!(timed.ttl(), None);
            for i in 0..500u64 {
                let key = i % 11;
                assert_eq!(timed.insert_at(key, i * 1_000), plain.insert(key));
                assert!(!timed.expire(key, i * 1_000 + 1));
            }
        }
    }

    #[test]
    fn ttl_slot_exposes_lease_plumbing() {
        let mut slot = CacheSlot::build(PolicyKind::Ttl { ttl: 10 }, 4);
        assert_eq!(slot.ttl(), Some(10));
        assert_eq!(slot.insert_at(1, 5), None); // lease ends at 15
        assert!(!slot.expire(1, 14), "stale stamp ignored");
        assert!(slot.contains(1));
        assert!(slot.expire(1, 15));
        assert!(!slot.contains(1));
    }

    #[test]
    fn remove_works_on_every_policy_and_keeps_capacity_sound() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::Prob { admit_pct: 100 },
            PolicyKind::Ttl { ttl: 1_000 },
            PolicyKind::TinyLfu,
        ] {
            let mut slot = CacheSlot::build(kind, 4);
            for k in 0..4u64 {
                slot.insert(k);
            }
            assert!(slot.remove(2), "{kind:?}");
            assert!(!slot.remove(2), "double remove reports absent");
            assert!(!slot.contains(2));
            assert_eq!(slot.len(), 3, "{kind:?}");
            // Refill past the removal: the cache never exceeds capacity.
            for k in 10..30u64 {
                slot.insert(k);
                assert!(slot.len() <= 4, "{kind:?} grew past capacity");
            }
        }
        assert!(!CacheSlot::None.remove(1));
    }

    #[test]
    fn none_slot_is_an_inert_empty_cache() {
        let mut slot = CacheSlot::None;
        assert!(!slot.is_equipped());
        assert_eq!(slot.capacity(), 0);
        assert_eq!(slot.len(), 0);
        assert!(slot.is_empty());
        assert!(!slot.contains(7));
        slot.touch(7);
        assert_eq!(slot.insert(7), None);
        assert!(!slot.contains(7));
        slot.clear();
    }

    #[test]
    fn equipped_variants_report_equipped() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Lfu,
            PolicyKind::Prob { admit_pct: 50 },
            PolicyKind::Ttl { ttl: 8 },
            PolicyKind::TinyLfu,
        ] {
            assert!(CacheSlot::build(kind, 4).is_equipped());
        }
    }
}
