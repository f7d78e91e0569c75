//! Nearest-replica directories, bit-packed by climb rank.
//!
//! Under nearest-replica routing a popular object ends up cached on
//! thousands of routers, and the naive directory — one `Vec<NodeId>` per
//! object — makes every selection an O(replicas) scan and every eviction
//! an O(replicas) `position` search. Both directories here store the same
//! set as presence bits per `(object, PoP)` group, indexed by the *climb
//! rank* of the replica's tree index (see
//! [`CostTable::rank_of`](crate::costs::CostTable::rank_of)).
//!
//! The rank ordering is what makes the compression useful rather than
//! merely compact: within any foreign PoP, candidate cost is
//! `climb_root[t]` plus a PoP-wide constant, so ascending rank is exactly
//! ascending `(cost, NodeId)` — the best replica a foreign PoP can offer
//! is its first set bit, one `trailing_zeros` instead of a scan. Only
//! the requester's own PoP still needs per-candidate cost lookups, because
//! same-PoP costs go through the LCA and are not monotone in climb rank.
//! Either directory is a pure set, so the selection built on it is
//! *structurally* independent of insertion order.
//!
//! - [`ReplicaDir`], the sequential simulator's directory, is dense: one
//!   flat array of `objects × pops × W` words, with `W = ⌈tree_nodes /
//!   64⌉` fixed at construction, so any tree width takes the same code.
//!   Bit `r % 64` of word `r / 64` of a group is climb rank `r`. Insert and
//!   remove are one indexed bit operation; an object's groups are adjacent,
//!   so a selection reads one contiguous row. Selection looks in the
//!   requester's own PoP first and stops there when that candidate is
//!   strictly cheaper than [`CostFrom::foreign_floor`], a lower bound on
//!   every foreign replica.
//! - [`ReplicaMasks`] is sparse: one sorted `(pop, u128)` list per object.
//!   The epoch-shard engine ([`crate::shard`]) publishes its snapshot in
//!   it, so it is capped at [`MAX_MASK_TREE`] nodes per PoP and
//!   `shard::supported` refuses wider trees.

use crate::costs::CostFrom;
use icn_topology::NodeId;

/// Maximum tree size (nodes per PoP) a [`ReplicaMasks`] group can index.
pub const MAX_MASK_TREE: u32 = 128;

/// The climb ranks present in `group` (bit `r % 64` of word `r / 64`),
/// ascending.
pub(crate) fn ranks(group: &[u64]) -> impl Iterator<Item = u32> + '_ {
    group.iter().enumerate().flat_map(|(i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                i as u32 * 64 + b
            })
        })
    })
}

/// The lowest climb rank present in `group`; `None` when it is empty.
#[inline]
pub(crate) fn first_rank(group: &[u64]) -> Option<u32> {
    group
        .iter()
        .position(|&word| word != 0)
        .map(|i| i as u32 * 64 + group[i].trailing_zeros())
}

/// A `u128` mask as the two-word group the rank walks take.
#[inline]
pub(crate) fn mask_words(mask: u128) -> [u64; 2] {
    [mask as u64, (mask >> 64) as u64]
}

/// The dense replica directory of the sequential simulator. See the
/// module docs.
pub(crate) struct ReplicaDir {
    /// `words[((object * pops + pop) * w + r / 64)]` bit `r % 64`: the
    /// replica of `object` at climb rank `r` of `pop` is present.
    words: Vec<u64>,
    pops: usize,
    /// Words per `(object, pop)` group: `⌈tree_nodes / 64⌉`.
    w: usize,
}

impl ReplicaDir {
    /// An empty directory over `objects` object ids on `pops` PoPs of
    /// `tree_nodes` routers each.
    pub(crate) fn new(objects: usize, pops: u32, tree_nodes: u32) -> Self {
        let w = tree_nodes.div_ceil(64) as usize;
        Self {
            words: vec![0; objects * pops as usize * w],
            pops: pops as usize,
            w,
        }
    }

    /// Words per `(object, pop)` group.
    #[cfg(test)]
    pub(crate) fn words_per_group(&self) -> usize {
        self.w
    }

    /// Word index and bit of the replica `(object, pop, rank)`.
    #[inline]
    fn locate(&self, object: u32, pop: u32, rank: u32) -> (usize, u64) {
        let group = object as usize * self.pops + pop as usize;
        (group * self.w + rank as usize / 64, 1 << (rank % 64))
    }

    /// Every group of `object`, PoP by PoP.
    #[inline]
    fn row(&self, object: u32) -> &[u64] {
        let len = self.pops * self.w;
        let start = object as usize * len;
        &self.words[start..start + len]
    }

    /// Marks the replica `(pop, rank)` of `object` present. Idempotent.
    #[inline]
    pub(crate) fn insert(&mut self, object: u32, pop: u32, rank: u32) {
        let (i, bit) = self.locate(object, pop, rank);
        self.words[i] |= bit;
    }

    /// Clears the replica `(pop, rank)` of `object`; a no-op when absent.
    #[inline]
    pub(crate) fn remove(&mut self, object: u32, pop: u32, rank: u32) {
        let (i, bit) = self.locate(object, pop, rank);
        self.words[i] &= !bit;
    }

    /// Clears the router `(pop, rank)` from every object's group — a crash
    /// flush of its cache.
    pub(crate) fn clear_holder(&mut self, pop: u32, rank: u32) {
        let (first, bit) = self.locate(0, pop, rank);
        let stride = self.pops * self.w;
        for word in self.words.iter_mut().skip(first).step_by(stride) {
            *word &= !bit;
        }
    }

    /// The `(cost, NodeId)`-minimal replica of `object` seen from the
    /// source of `from`, the source itself excluded.
    ///
    /// The source's own PoP is walked first. When its best candidate is
    /// strictly below [`CostFrom::foreign_floor`], no foreign replica can
    /// beat it, not even on the `NodeId` tie-break, so the foreign groups
    /// are never read. A tie with the floor falls through to the full scan.
    #[inline]
    pub(crate) fn nearest(&self, from: &CostFrom, object: u32) -> Option<(f64, NodeId)> {
        let row = self.row(object);
        let own = from.pop() as usize;
        let mut best = None;
        from.min_in_own_mask(&row[own * self.w..(own + 1) * self.w], &mut best);
        if best.is_some_and(|(c, _)| c < from.foreign_floor()) {
            return best;
        }
        for (p, group) in row.chunks_exact(self.w).enumerate() {
            if p != own {
                from.min_in_group(p as u32, group, &mut best);
            }
        }
        best
    }

    /// Appends every replica of `object` cheaper than `max_cost` from the
    /// source of `from` (itself excluded) to the parallel cost/node arrays.
    pub(crate) fn extend_cands(
        &self,
        from: &CostFrom,
        object: u32,
        max_cost: f64,
        costs_out: &mut Vec<f64>,
        nodes_out: &mut Vec<NodeId>,
    ) {
        for (p, group) in self.row(object).chunks_exact(self.w).enumerate() {
            from.extend_from_group(p as u32, group, max_cost, costs_out, nodes_out);
        }
    }

    /// Visits every replica of `object` as `(pop, rank)`.
    #[cfg(test)]
    pub(crate) fn for_each(&self, object: u32, mut f: impl FnMut(u32, u32)) {
        for (p, group) in self.row(object).chunks_exact(self.w).enumerate() {
            ranks(group).for_each(|r| f(p as u32, r));
        }
    }
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
    use crate::costs::CostTable;
    use crate::latency::LatencyModel;
    use icn_topology::{AccessTree, Network, PopGraph};

    /// `pops` PoPs on a line core (0–1–2–…), so core legs differ by PoP
    /// pair, under binary access trees of `depth` levels.
    fn line_net(pops: u32, depth: u32) -> Network {
        let labels = (0..pops).map(|p| format!("P{p}")).collect();
        let edges = (1..pops).map(|p| (p - 1, p)).collect();
        let core = PopGraph::new("line", labels, vec![1_000; pops as usize], edges);
        Network::new(core, AccessTree::new(2, depth))
    }

    /// Candidates as comparable keys: `(cost bits, node)`.
    fn keys(cands: impl IntoIterator<Item = (f64, NodeId)>) -> Vec<(u64, NodeId)> {
        let mut k: Vec<_> = cands.into_iter().map(|(c, n)| (c.to_bits(), n)).collect();
        k.sort_unstable();
        k
    }

    /// Every holder but `src`, with its `path_cost` from `src`.
    fn brute(table: &CostTable, src: NodeId, holders: &[NodeId]) -> Vec<(f64, NodeId)> {
        let mut v: Vec<(f64, NodeId)> = holders
            .iter()
            .filter(|&&n| n != src)
            .map(|&n| (table.path_cost(src, n), n))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v
    }

    #[test]
    fn dense_directory_matches_brute_force_at_every_width() {
        let models = [
            LatencyModel::Unit,
            LatencyModel::Progression,
            LatencyModel::CoreMultiplier { d: 4 },
        ];
        let mut state = 0x5eed_d1c7_0000_0001u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut queries = 0;
        let mut pruned = 0;
        for (depth, words) in [(5, 1), (6, 2), (7, 4)] {
            for pops in 1..=4 {
                let net = line_net(pops, depth);
                let tn = net.tree.nodes();
                for model in models {
                    let table = CostTable::new(&net, model);
                    for case in 0..6 {
                        // Three objects; the middle one is the probe, its
                        // neighbours hold noise that must not leak in.
                        let mut dir = ReplicaDir::new(3, pops, tn);
                        assert_eq!(dir.words_per_group(), words);
                        let mut holders = Vec::new();
                        let fill = [1, 4, 30, 200][case % 4];
                        // Holders at a uniform level, then a uniform node
                        // of it: shallow routers, whose costs sit near the
                        // foreign floor, hold copies as often as leaves.
                        let mut holder = || {
                            let level = next(u64::from(depth) + 1) as u32;
                            let t = (1 << level) - 1 + next(1 << level) as u32;
                            (next(u64::from(pops)) as u32, t)
                        };
                        for _ in 0..fill {
                            let (p, t) = holder();
                            dir.insert(1, p, table.rank_of(t));
                            holders.push(net.node(p, t));
                            let (q, u) = holder();
                            dir.insert(2 * (case as u32 % 2), q, table.rank_of(u));
                        }
                        holders.sort_unstable();
                        holders.dedup();
                        // Remove about a third again.
                        holders.retain(|&n| {
                            let keep = next(3) != 0;
                            if !keep {
                                let (p, t) = (net.pop_of(n), net.tree_index(n));
                                dir.remove(1, p, table.rank_of(t));
                            }
                            keep
                        });
                        for _ in 0..8 {
                            let src = next(net.node_count() as u64) as NodeId;
                            let from = table.from(src);
                            let want = brute(&table, src, &holders);
                            let got = dir.nearest(&from, 1);
                            assert_eq!(
                                keys(got),
                                keys(want.first().copied()),
                                "{model:?}, {pops} PoPs, {tn} nodes: nearest from {src}"
                            );
                            queries += 1;
                            if got.is_some_and(|(c, n)| {
                                net.pop_of(n) == from.pop() && c < from.foreign_floor()
                            }) {
                                pruned += 1;
                            }
                            for max_cost in
                                [f64::INFINITY, want.get(want.len() / 2).map_or(0.0, |c| c.0)]
                            {
                                let (mut costs, mut nodes) = (Vec::new(), Vec::new());
                                dir.extend_cands(&from, 1, max_cost, &mut costs, &mut nodes);
                                let below = want.iter().copied().filter(|&(c, _)| c < max_cost);
                                assert_eq!(
                                    keys(costs.into_iter().zip(nodes)),
                                    keys(below),
                                    "{model:?}, {pops} PoPs, {tn} nodes: candidates from {src} below {max_cost}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Both branches of the own-PoP-first selection were taken.
        assert!(
            pruned > 0 && pruned < queries,
            "{pruned} of {queries} pruned"
        );
    }

    #[test]
    fn a_tie_with_the_foreign_floor_still_scans_foreign_pops() {
        // Unit costs, two PoPs, 7-node trees. From leaf 3 of PoP 1, its own
        // PoP's router 2 costs 3 (up 2, down 1); PoP 0's root costs 2 + 0
        // + 1 = 3 as well, which is the floor, and has the smaller NodeId.
        let net = line_net(2, 2);
        let table = CostTable::new(&net, LatencyModel::Unit);
        let src = net.node(1, 3);
        let from = table.from(src);
        let (own, foreign) = (net.node(1, 2), net.pop_root(0));
        assert_eq!(table.path_cost(src, own), 3.0);
        assert_eq!(table.path_cost(src, foreign), 3.0);
        assert_eq!(from.foreign_floor(), 3.0);
        assert!(foreign < own);
        let mut dir = ReplicaDir::new(1, 2, net.tree.nodes());
        dir.insert(0, 1, table.rank_of(2));
        dir.insert(0, 0, table.rank_of(0));
        assert_eq!(dir.nearest(&from, 0), Some((3.0, foreign)));
        // One hop cheaper at home, and the foreign groups are not needed.
        dir.insert(0, 1, table.rank_of(1));
        assert!(table.path_cost(src, net.node(1, 1)) < from.foreign_floor());
        assert_eq!(dir.nearest(&from, 0), Some((1.0, net.node(1, 1))));
    }

    #[test]
    fn clear_holder_empties_one_router_everywhere() {
        let mut dir = ReplicaDir::new(3, 2, 100);
        for o in 0..3 {
            dir.insert(o, 1, 70);
            dir.insert(o, 1, 3);
            dir.insert(o, 0, 70);
        }
        dir.clear_holder(1, 70);
        for o in 0..3 {
            let mut seen = Vec::new();
            dir.for_each(o, |p, r| seen.push((p, r)));
            assert_eq!(seen, vec![(0, 70), (1, 3)]);
        }
    }

    #[test]
    fn ranks_and_first_rank_span_words() {
        let group = [0, 1 << 5 | 1 << 63, 0, 1];
        assert_eq!(ranks(&group).collect::<Vec<_>>(), vec![69, 127, 192]);
        assert_eq!(first_rank(&group), Some(69));
        assert_eq!(first_rank(&[0, 0]), None);
        assert_eq!(mask_words(1 << 100 | 1), [1, 1 << 36]);
    }

    fn replicas(m: &ReplicaMasks, object: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for &(p, mask) in m.entries(object) {
            out.extend(ranks(&mask_words(mask)).map(|r| (p, r)));
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
