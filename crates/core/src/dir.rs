//! Bitmask-compressed nearest-replica directory.
//!
//! Under nearest-replica routing a popular object ends up cached on
//! thousands of routers, and the naive directory — one `Vec<NodeId>` per
//! object — makes every selection an O(replicas) scan and every eviction
//! an O(replicas) `position` search. [`ReplicaMasks`] stores the same set
//! as one `(pop, u128)` pair per PoP that holds the object, with presence
//! bits indexed by the *climb rank* of the replica's tree index (see
//! [`CostTable::rank_of`](crate::costs::CostTable::rank_of)).
//!
//! The rank ordering is what makes the compression useful rather than
//! merely compact: within any foreign PoP, candidate cost is
//! `climb_root[t]` plus a PoP-wide constant, so ascending rank is exactly
//! ascending `(cost, NodeId)` — the best replica a foreign PoP can offer
//! is `mask.trailing_zeros()`, one instruction instead of a scan. Only
//! the requester's own PoP (at most one group, at most `tree_nodes`
//! bits) still needs per-candidate cost lookups, because same-PoP costs
//! go through the LCA and are not monotone in climb rank.
//!
//! Groups are kept sorted by PoP index and dropped when their mask
//! empties, so iteration order is canonical: the structure is a pure set,
//! and the selection built on it is *structurally* independent of
//! insertion order (the `Vec` directory only achieves that through its
//! `(cost, NodeId)` tie-break).
//!
//! `u128` masks cap the tree at 128 nodes per PoP; the simulator falls
//! back to the `Vec` directory beyond that.

/// Maximum tree size (nodes per PoP) the mask directory can index.
pub const MAX_MASK_TREE: u32 = 128;

/// The climb ranks present in `mask`, ascending.
pub(crate) fn ranks(mut mask: u128) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let r = mask.trailing_zeros();
            mask &= mask - 1;
            r
        })
    })
}

/// Per-object replica sets, bit-packed per PoP. See the module docs.
pub struct ReplicaMasks {
    /// `per_object[o]` = `(pop, mask)` groups sorted by `pop`, empty
    /// groups removed. Bit `r` of a mask marks the replica whose tree
    /// index has climb rank `r`.
    per_object: Vec<Vec<(u32, u128)>>,
}

impl ReplicaMasks {
    /// An empty directory over `objects` object ids.
    pub fn new(objects: usize) -> Self {
        Self {
            per_object: vec![Vec::new(); objects],
        }
    }

    /// The `(pop, mask)` groups currently holding `object`, ascending by
    /// PoP index; every mask is non-zero.
    #[inline]
    pub fn entries(&self, object: u32) -> &[(u32, u128)] {
        &self.per_object[object as usize]
    }

    /// Marks the replica `(pop, rank)` present. Idempotent.
    pub fn insert(&mut self, object: u32, pop: u32, rank: u32) {
        debug_assert!(rank < MAX_MASK_TREE);
        let groups = &mut self.per_object[object as usize];
        match groups.binary_search_by_key(&pop, |&(p, _)| p) {
            Ok(i) => groups[i].1 |= 1u128 << rank,
            Err(i) => groups.insert(i, (pop, 1u128 << rank)),
        }
    }

    /// Clears the replica `(pop, rank)`; a no-op when absent. Drops the
    /// PoP group once its last bit clears.
    pub fn remove(&mut self, object: u32, pop: u32, rank: u32) {
        debug_assert!(rank < MAX_MASK_TREE);
        let groups = &mut self.per_object[object as usize];
        if let Ok(i) = groups.binary_search_by_key(&pop, |&(p, _)| p) {
            groups[i].1 &= !(1u128 << rank);
            if groups[i].1 == 0 {
                groups.remove(i);
            }
        }
    }

    /// Replaces the whole `pop` group of `object` with `mask`, dropping
    /// the group when `mask == 0`. This is the epoch-sharded engine's
    /// bulk resync primitive (`crate::shard`): at reconcile time each
    /// lane rewrites its own PoP's group from its live directory in one
    /// call per dirty object, instead of replaying per-bit insert and
    /// remove churn.
    pub fn set_group(&mut self, object: u32, pop: u32, mask: u128) {
        let groups = &mut self.per_object[object as usize];
        match groups.binary_search_by_key(&pop, |&(p, _)| p) {
            Ok(i) => {
                if mask == 0 {
                    groups.remove(i);
                } else {
                    groups[i].1 = mask;
                }
            }
            Err(i) => {
                if mask != 0 {
                    groups.insert(i, (pop, mask));
                }
            }
        }
    }

    /// The presence mask of `object` within `pop` (0 when the PoP holds
    /// no replica).
    #[inline]
    pub fn group(&self, object: u32, pop: u32) -> u128 {
        let groups = &self.per_object[object as usize];
        match groups.binary_search_by_key(&pop, |&(p, _)| p) {
            Ok(i) => groups[i].1,
            Err(_) => 0,
        }
    }

    /// Number of object slots (not replicas).
    pub fn len(&self) -> usize {
        self.per_object.len()
    }

    /// True when the directory has no object slots at all.
    pub fn is_empty(&self) -> bool {
        self.per_object.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(m: &ReplicaMasks, object: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for &(p, mask) in m.entries(object) {
            out.extend(ranks(mask).map(|r| (p, r)));
        }
        out
    }

    #[test]
    fn insert_is_idempotent_and_sorted_by_pop() {
        let mut m = ReplicaMasks::new(2);
        m.insert(0, 5, 3);
        m.insert(0, 1, 7);
        m.insert(0, 5, 3);
        m.insert(0, 5, 0);
        assert_eq!(m.entries(0), &[(1, 1 << 7), (5, (1 << 3) | 1)]);
        assert_eq!(replicas(&m, 0), vec![(1, 7), (5, 0), (5, 3)]);
        assert!(m.entries(1).is_empty());
    }

    #[test]
    fn remove_clears_bits_and_drops_empty_groups() {
        let mut m = ReplicaMasks::new(1);
        m.insert(0, 2, 1);
        m.insert(0, 2, 4);
        m.insert(0, 9, 127);
        m.remove(0, 2, 1);
        assert_eq!(m.entries(0), &[(2, 1 << 4), (9, 1 << 127)]);
        m.remove(0, 2, 4);
        assert_eq!(m.entries(0), &[(9, 1 << 127)]);
        // Absent removals are no-ops.
        m.remove(0, 2, 4);
        m.remove(0, 3, 0);
        assert_eq!(m.entries(0), &[(9, 1 << 127)]);
        m.remove(0, 9, 127);
        assert!(m.entries(0).is_empty());
    }

    #[test]
    fn set_group_matches_per_bit_edits() {
        let mut m = ReplicaMasks::new(1);
        let mut per_bit = ReplicaMasks::new(1);
        for (p, r) in [(3, 1), (0, 0), (3, 2), (1, 9)] {
            per_bit.insert(0, p, r);
        }
        m.set_group(0, 3, (1 << 1) | (1 << 2));
        m.set_group(0, 0, 1);
        m.set_group(0, 1, 1 << 9);
        assert_eq!(m.entries(0), per_bit.entries(0));
        assert_eq!(m.group(0, 3), (1 << 1) | (1 << 2));
        assert_eq!(m.group(0, 7), 0);
        // Overwrite replaces rather than ORs; zero drops the group.
        m.set_group(0, 3, 1 << 5);
        assert_eq!(m.group(0, 3), 1 << 5);
        m.set_group(0, 3, 0);
        assert_eq!(m.group(0, 3), 0);
        assert_eq!(m.entries(0), &[(0, 1), (1, 1 << 9)]);
        // Setting an absent group to zero is a no-op.
        m.set_group(0, 9, 0);
        assert_eq!(m.entries(0), &[(0, 1), (1, 1 << 9)]);
    }

    #[test]
    fn groups_stay_canonical_under_interleaving() {
        let mut m = ReplicaMasks::new(1);
        // Two interleavings of the same set produce identical storage.
        let mut a = ReplicaMasks::new(1);
        for (p, r) in [(3, 1), (0, 0), (3, 2), (1, 9)] {
            m.insert(0, p, r);
        }
        for (p, r) in [(1, 9), (3, 2), (0, 0), (3, 1)] {
            a.insert(0, p, r);
        }
        assert_eq!(m.entries(0), a.entries(0));
    }
}
