//! Least-recently-used caches.
//!
//! [`Lru`] is a straightforward generic implementation (hash map plus an
//! intrusive doubly-linked list over a slab). [`CompactLru`] specializes it
//! for object ids stored as `u32`, with `u32` slab links and a fast integer
//! hasher — the simulator allocates one per router, so per-entry footprint
//! matters. The
//! two are property-tested against each other for exact behavioural
//! equivalence (see `tests/` at the crate root).

use crate::hash::FastMap;
use crate::policy::{CachePolicy, Key};
use crate::slot::Stored;
#[expect(clippy::disallowed_types, reason = "keyed lookup only; never iterated")]
use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

/// A slot in the intrusive recency list.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// Generic fixed-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct Lru<K: Hash + Eq + Copy> {
    #[expect(clippy::disallowed_types, reason = "keyed only; recency is the list")]
    map: HashMap<K, u32>,
    slots: Vec<Slot<K>>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity: usize,
}

impl<K: Hash + Eq + Copy> Lru<K> {
    /// Creates an empty cache holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self {
            #[expect(clippy::disallowed_types, reason = "keyed lookup only; never iterated")]
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when `key` is cached (no recency update).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Marks `key` as most recently used, if present.
    pub fn touch(&mut self, key: &K) {
        if let Some(&idx) = self.map.get(key) {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Inserts `key`; returns the evicted key when capacity is exceeded.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if self.map.contains_key(&key) {
            self.touch(&key);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = self.slots[victim as usize].key;
            self.map.remove(&old);
            self.free.push(victim);
            Some(old)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].key = key;
                i
            }
            None => {
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes `key` if present; returns whether it was cached.
    pub fn remove(&mut self, key: &K) -> bool {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    /// Keys from most- to least-recently used.
    pub fn iter_mru(&self) -> impl Iterator<Item = K> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[cur as usize];
            cur = slot.next;
            Some(slot.key)
        })
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Capacity in keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// LRU over object ids with a fast hasher; the simulator's per-router cache.
///
/// The [`Key`] API is `u64`, but ids are stored as `u32`: every simulated
/// object id fits, and the narrower map entry (8 B instead of 16 B) and slab
/// slot (12 B instead of 16 B) are what keep a network of these caches in
/// cache. A key of 2³² or more is never resident: [`CachePolicy::contains`],
/// [`CachePolicy::touch`] and [`CompactLru::remove`] answer "absent", and
/// inserting one panics.
///
/// # Examples
/// ```
/// use icn_cache::{CompactLru, CachePolicy};
///
/// let mut cache = CompactLru::new(2);
/// cache.insert(1);
/// cache.insert(2);
/// cache.touch(1);                       // 2 becomes least recently used
/// assert_eq!(cache.insert(3), Some(2)); // ... and is evicted
/// assert!(cache.contains(1) && cache.contains(3));
/// ```
#[derive(Debug, Clone)]
pub struct CompactLru {
    map: FastMap<u32, u32>,
    slots: Vec<Slot<u32>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

/// The stored form of `key`, or `None` when it does not fit in 32 bits
/// (such a key is never resident).
#[inline]
fn narrow(key: Key) -> Option<u32> {
    u32::try_from(key).ok()
}

/// The stored form of a key being inserted.
#[inline]
#[expect(clippy::panic, reason = "a key past u32 is a caller bug")]
fn narrow_insert(key: Key) -> u32 {
    match narrow(key) {
        Some(k) => k,
        None => panic!("CompactLru key {key} does not fit in 32 bits"),
    }
}

impl CompactLru {
    /// Creates an empty cache holding at most `capacity` keys. Storage grows
    /// lazily — an unfilled cache costs no memory.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: FastMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Removes `key` if present; returns whether it was cached.
    pub fn remove(&mut self, key: Key) -> bool {
        let Some(idx) = narrow(key).and_then(|k| self.map.remove(&k)) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Inserts `key` like [`CachePolicy::insert`] and reports what happened
    /// in one call: a present key costs one map probe, an absent one a probe
    /// plus the insert (and the victim's removal at capacity, whose slab slot
    /// the new key takes over).
    pub fn store(&mut self, key: Key) -> Stored {
        let key = narrow_insert(key);
        if self.capacity == 0 {
            return Stored::default();
        }
        if let Some(&idx) = self.map.get(&key) {
            self.promote(idx);
            return Stored {
                had: true,
                resident: true,
                evicted: None,
            };
        }
        let (idx, evicted) = if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = std::mem::replace(&mut self.slots[victim as usize].key, key);
            self.map.remove(&old);
            (victim, Some(Key::from(old)))
        } else if let Some(i) = self.free.pop() {
            self.slots[i as usize].key = key;
            (i, None)
        } else {
            self.slots.push(Slot {
                key,
                prev: NIL,
                next: NIL,
            });
            ((self.slots.len() - 1) as u32, None)
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        Stored {
            had: false,
            resident: true,
            evicted,
        }
    }

    /// The key the next capacity eviction would displace (the
    /// least-recently-used one), without evicting it. Admission filters
    /// (TinyLFU) compare a candidate against this victim.
    pub fn lru_victim(&self) -> Option<Key> {
        (self.tail != NIL).then(|| Key::from(self.slots[self.tail as usize].key))
    }

    /// Keys from most- to least-recently used.
    pub fn iter_mru(&self) -> impl Iterator<Item = Key> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[cur as usize];
            cur = slot.next;
            Some(Key::from(slot.key))
        })
    }

    /// Makes slab slot `idx` the most recent; a no-op when it already is.
    #[inline]
    fn promote(&mut self, idx: u32) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl CachePolicy for CompactLru {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: Key) -> bool {
        narrow(key).is_some_and(|k| self.map.contains_key(&k))
    }

    fn touch(&mut self, key: Key) {
        if let Some(&idx) = narrow(key).and_then(|k| self.map.get(&k)) {
            self.promote(idx);
        }
    }

    fn insert(&mut self, key: Key) -> Option<Key> {
        self.store(key).evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_eviction_order() {
        let mut c = CompactLru::new(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.insert(3), Some(1)); // 1 is LRU
        assert!(c.contains(2) && c.contains(3) && !c.contains(1));
    }

    #[test]
    fn touch_changes_victim() {
        let mut c = CompactLru::new(2);
        c.insert(1);
        c.insert(2);
        c.touch(1); // now 2 is LRU
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(1));
    }

    #[test]
    fn reinsert_refreshes() {
        let mut c = CompactLru::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None); // refresh, no eviction
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = CompactLru::new(0);
        assert_eq!(c.insert(1), None);
        assert!(!c.contains(1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = CompactLru::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        assert_eq!(c.insert(3), None); // room after removal
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn mru_iteration_order() {
        let mut c = CompactLru::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1);
        let order: Vec<u64> = c.iter_mru().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn generic_lru_matches_compact_on_script() {
        let mut g: Lru<u64> = Lru::new(3);
        let mut c = CompactLru::new(3);
        let script = [5u64, 1, 5, 2, 3, 4, 1, 5, 5, 2, 9, 9, 1];
        for &k in &script {
            assert_eq!(g.insert(k), c.insert(k));
            assert_eq!(g.len(), c.len());
        }
        let go: Vec<u64> = g.iter_mru().collect();
        let co: Vec<u64> = c.iter_mru().collect();
        assert_eq!(go, co);
    }

    #[test]
    fn clear_resets() {
        let mut c = CompactLru::new(2);
        c.insert(1);
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(c.insert(2), None);
        assert!(c.contains(2));
    }

    const WIDE: u64 = 5 | 1 << 32;

    #[test]
    fn wide_keys_are_never_contained() {
        let mut c = CompactLru::new(2);
        c.insert(5);
        assert!(c.contains(5));
        assert!(!c.contains(WIDE), "the high bits are not dropped");
        assert!(!c.contains(u64::MAX));
    }

    #[test]
    fn touching_a_wide_key_is_a_no_op() {
        let mut c = CompactLru::new(2);
        c.insert(5);
        c.insert(6);
        c.touch(WIDE); // would make 6 the victim if it touched 5
        assert_eq!(c.insert(7), Some(5));
    }

    #[test]
    fn removing_a_wide_key_reports_absent() {
        let mut c = CompactLru::new(2);
        c.insert(5);
        assert!(!c.remove(WIDE));
        assert!(c.contains(5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit in 32 bits")]
    fn inserting_a_wide_key_panics() {
        CompactLru::new(2).insert(WIDE);
    }

    #[test]
    fn store_reports_presence_and_eviction() {
        let mut c = CompactLru::new(2);
        let fresh = Stored {
            had: false,
            resident: true,
            evicted: None,
        };
        assert_eq!(c.store(1), fresh);
        assert_eq!(c.store(2), fresh);
        assert_eq!(
            c.store(1),
            Stored {
                had: true,
                resident: true,
                evicted: None
            }
        );
        assert_eq!(
            c.store(3),
            Stored {
                evicted: Some(2),
                ..fresh
            }
        );
        assert_eq!(c.iter_mru().collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(CompactLru::new(0).store(1), Stored::default());
    }

    #[test]
    fn single_capacity_churn() {
        let mut c = CompactLru::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert_eq!(c.len(), 1);
    }
}
