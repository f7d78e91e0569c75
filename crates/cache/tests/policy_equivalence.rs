//! Property tests: `CompactLru` behaves exactly like the generic `Lru` and
//! like a naive reference model, and `CacheSlot::store` like the three
//! calls it replaces, under arbitrary operation scripts.

use icn_cache::policy::{CachePolicy, PolicyKind};
use icn_cache::{CacheSlot, CompactLru, Fifo, Lfu, Lru, Stored};
use proptest::prelude::*;

/// A naive, obviously-correct LRU: a Vec ordered most-recent-first.
struct NaiveLru {
    order: Vec<u64>,
    capacity: usize,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        Self {
            order: Vec::new(),
            capacity,
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            let k = self.order.remove(pos);
            self.order.insert(0, k);
        }
    }

    fn insert(&mut self, key: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        if self.order.contains(&key) {
            self.touch(key);
            return None;
        }
        let evicted = if self.order.len() == self.capacity {
            self.order.pop()
        } else {
            None
        };
        self.order.insert(0, key);
        evicted
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Touch(u64),
    Contains(u64),
    Remove(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..30).prop_map(Op::Insert),
            (0u64..30).prop_map(Op::Touch),
            (0u64..30).prop_map(Op::Contains),
            (0u64..30).prop_map(Op::Remove),
        ],
        0..200,
    )
}

/// Every policy a simulator slot can hold, with a lease and an admission
/// rate that expire and refuse keys within a 200-op script.
fn slot_kind(i: u8) -> PolicyKind {
    match i {
        0 => PolicyKind::Lru,
        1 => PolicyKind::Lfu,
        2 => PolicyKind::Fifo,
        3 => PolicyKind::Prob { admit_pct: 60 },
        4 => PolicyKind::Ttl { ttl: 40 },
        _ => PolicyKind::TinyLfu,
    }
}

proptest! {
    #[test]
    fn compact_lru_matches_naive(capacity in 0usize..8, script in ops()) {
        let mut naive = NaiveLru::new(capacity);
        let mut compact = CompactLru::new(capacity);
        for op in script {
            match op {
                Op::Insert(k) => {
                    prop_assert_eq!(naive.insert(k), compact.insert(k));
                }
                Op::Touch(k) => {
                    naive.touch(k);
                    compact.touch(k);
                }
                Op::Contains(k) => {
                    prop_assert_eq!(naive.order.contains(&k), compact.contains(k));
                }
                Op::Remove(k) => {
                    let npos = naive.order.iter().position(|&x| x == k);
                    if let Some(p) = npos {
                        naive.order.remove(p);
                    }
                    prop_assert_eq!(npos.is_some(), compact.remove(k));
                }
            }
            prop_assert_eq!(naive.order.len(), compact.len());
            let co: Vec<u64> = compact.iter_mru().collect();
            prop_assert_eq!(&naive.order, &co, "MRU order diverged");
        }
    }

    #[test]
    fn generic_lru_matches_compact(capacity in 0usize..8, script in ops()) {
        let mut g: Lru<u64> = Lru::new(capacity);
        let mut c = CompactLru::new(capacity);
        for op in script {
            match op {
                Op::Insert(k) => {
                    prop_assert_eq!(g.insert(k), c.insert(k));
                }
                Op::Touch(k) => {
                    g.touch(&k);
                    c.touch(k);
                }
                Op::Contains(k) => {
                    prop_assert_eq!(g.contains(&k), c.contains(k));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(g.remove(&k), c.remove(k));
                }
            }
            let go: Vec<u64> = g.iter_mru().collect();
            let co: Vec<u64> = c.iter_mru().collect();
            prop_assert_eq!(go, co);
        }
    }

    /// Invariants that hold for every policy: size never exceeds capacity,
    /// an eviction only happens at capacity, an inserted key is present
    /// (capacity permitting), and the evicted key is no longer present.
    #[test]
    fn policy_invariants(capacity in 0usize..8, script in ops(), kind in 0u8..3) {
        let mut cache: Box<dyn CachePolicy> = match kind {
            0 => Box::new(CompactLru::new(capacity)),
            1 => Box::new(Lfu::new(capacity)),
            _ => Box::new(Fifo::new(capacity)),
        };
        for op in script {
            match op {
                Op::Insert(k) => {
                    let was_present = cache.contains(k);
                    let len_before = cache.len();
                    let evicted = cache.insert(k);
                    if capacity > 0 {
                        prop_assert!(cache.contains(k));
                    }
                    if let Some(e) = evicted {
                        prop_assert!(!was_present);
                        prop_assert_eq!(len_before, capacity);
                        if e != k {
                            prop_assert!(!cache.contains(e));
                        }
                    }
                }
                Op::Touch(k) => cache.touch(k),
                Op::Contains(_) | Op::Remove(_) => {}
            }
            prop_assert!(cache.len() <= capacity);
        }
    }

    /// `store` answers exactly what `contains`, `insert_at`, `contains`
    /// answered, and leaves the slot in the same state, for all six
    /// policies (TTL leases are also expired on the way).
    #[test]
    fn slot_store_matches_the_three_call_sequence(
        capacity in 0usize..8,
        script in ops(),
        kind in 0u8..6,
    ) {
        let kind = slot_kind(kind);
        let mut one = CacheSlot::build(kind, capacity);
        let mut three = CacheSlot::build(kind, capacity);
        for (now, op) in script.into_iter().enumerate() {
            let now = now as u64;
            match op {
                Op::Insert(k) => {
                    let had = three.contains(k);
                    let evicted = three.insert_at(k, now);
                    let want = Stored { had, resident: three.contains(k), evicted };
                    prop_assert_eq!(one.store(k, now), want, "{:?} store {}", kind, k);
                }
                Op::Touch(k) => {
                    one.touch(k);
                    three.touch(k);
                }
                Op::Contains(k) => {
                    // Retires a lease opened 40 ticks ago (TTL only).
                    prop_assert_eq!(one.expire(k, now), three.expire(k, now));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(one.remove(k), three.remove(k));
                }
            }
            prop_assert_eq!(one.len(), three.len());
            for k in 0..30 {
                prop_assert_eq!(one.contains(k), three.contains(k), "{:?} key {}", kind, k);
            }
        }
    }
}
