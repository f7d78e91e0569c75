//! Precomputed O(1) path costs for the simulator hot path.
//!
//! [`LatencyModel::path_cost`] decomposes every router-to-router shortest
//! path using the PoP-root + k-ary-tree structure of the network: within a
//! PoP the cost is the climb from both endpoints to their LCA, and across
//! PoPs it is the climb from both endpoints to their pop roots plus the
//! core shortest-path distance times the core link cost. Every input to
//! that decomposition ranges over a small finite domain — tree indices
//! within one access tree (the same tree shape is shared by every PoP) and
//! PoP pairs — so [`CostTable`] evaluates the model once per domain point
//! at [`Simulator`](crate::sim::Simulator) construction and turns each
//! per-request `path_cost` call into one or two array loads and an add.
//!
//! **Bit-for-bit contract.** Every cost the paper's models produce is an
//! integer-valued `f64` (unit hops, arithmetic progressions, integer core
//! multipliers), and integers of this magnitude are exact in `f64`, so the
//! precomputed sums reproduce the reference expression *bitwise*. The
//! table evaluates exactly the same sub-expressions in exactly the same
//! association as [`LatencyModel::path_cost`]; the equivalence is pinned
//! by an exhaustive property test over all three latency models ×
//! randomized topologies (`crates/core/tests/cost_table.rs`).
//!
//! **Determinism.** Construction iterates dense index ranges only (tree
//! indices `0..T`, PoP pairs `0..P×P`). Core's `clippy.toml` bans the
//! hash maps and sets whose iteration order could leak into the table
//! (`disallowed-types`), and `tests/cost_table.rs` pins the table bitwise
//! against the model.

use crate::dir::{first_rank, ranks};
use crate::latency::LatencyModel;
use icn_topology::{Network, NodeId};

/// Above this many tree nodes per PoP the dense T×T intra-tree matrix is
/// skipped (it would cost T² × 8 bytes) and same-PoP costs fall back to an
/// O(depth) LCA walk over the precomputed climb prefixes — still exact,
/// still allocation-free. Every paper topology is far below this bound
/// (the deepest configured tree has 127 nodes).
const MAX_DENSE_TREE: u32 = 1024;

/// Precomputed path costs over one network under one latency model.
///
/// Built once per simulator; see the module docs for the decomposition
/// and the bit-identity contract with [`LatencyModel::path_cost`].
pub struct CostTable {
    tree_nodes: u32,
    pops: u32,
    arity: u32,
    /// `pop_idx[n]` / `tree_idx[n]`: node decomposition as flat loads —
    /// the scan over nearest-replica candidates calls `path_cost` once
    /// per candidate, and two divisions per call would dominate it.
    pop_idx: Vec<u32>,
    tree_idx: Vec<u32>,
    /// `intra[ta * tree_nodes + tb]`: same-PoP cost between tree indices
    /// (`None` when the tree exceeds [`MAX_DENSE_TREE`]).
    intra: Option<Vec<f64>>,
    /// `climb_root[t]`: cost of climbing tree index `t` to its pop root.
    climb_root: Vec<f64>,
    /// `core[pa * pops + pb]`: core distance × per-link core cost.
    core: Vec<f64>,
    /// `core_min[pa]`: the cheapest `core[pa * pops + pb]` over `pb != pa`
    /// (`+∞` on a one-PoP network) — the core term of
    /// [`CostFrom::foreign_floor`].
    core_min: Vec<f64>,
    /// `uplink[t]`: cost of the tree link above tree index `t`
    /// (`uplink[0]` is 0 — the root has no uplink).
    uplink: Vec<f64>,
    /// The model's zero-length climb summed with itself — `-0.0` for
    /// `Progression` (Rust's `Sum<f64>` folds from `-0.0`, so its empty
    /// climb range is negative zero), `+0.0` for the hop-count models. The
    /// sparse fallback returns this for `ta == tb` to stay bit-exact;
    /// prefix differences would yield `+0.0` there.
    zero_zero: f64,
    /// `rank_of[t]`: position of tree index `t` in the ascending
    /// `(climb_root[t], t)` order. Within a *foreign* PoP every candidate's
    /// cost is `climb_root[t]` plus a constant shared by the whole PoP, so
    /// the rank-minimal resident replica is exactly the PoP's
    /// `(cost, NodeId)`-minimal candidate — the replica directory stores
    /// presence bits by rank and selection reads one `trailing_zeros` per
    /// foreign PoP instead of scanning every replica.
    rank_of: Vec<u32>,
    /// Inverse permutation: `t_of_rank[rank_of[t]] == t`.
    t_of_rank: Vec<u32>,
    /// `climb_by_rank[r] == climb_root[t_of_rank[r]]` — lets the rank-based
    /// scan skip the double indirection.
    climb_by_rank: Vec<f64>,
}

impl CostTable {
    /// Evaluates `model` over every tree index and PoP pair of `net`.
    pub fn new(net: &Network, model: LatencyModel) -> Self {
        let depth = net.tree.depth;
        let tree_nodes = net.tree.nodes();
        let pops = net.pops();

        let climb_root: Vec<f64> = (0..tree_nodes)
            .map(|t| model.climb_cost(net.tree.level_of(t), 0, depth))
            .collect();
        let uplink: Vec<f64> = (0..tree_nodes)
            .map(|t| {
                if t == 0 {
                    0.0
                } else {
                    model.tree_link_cost(net.tree.level_of(t), depth)
                }
            })
            .collect();
        let core: Vec<f64> = (0..pops)
            .flat_map(|pa| {
                (0..pops)
                    .map(move |pb| net.core_distance(pa, pb) as f64 * model.core_link_cost(depth))
            })
            .collect();
        let core_min: Vec<f64> = (0..pops)
            .map(|pa| {
                (0..pops)
                    .filter(|&pb| pb != pa)
                    .map(|pb| core[(pa * pops + pb) as usize])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let intra = (tree_nodes <= MAX_DENSE_TREE).then(|| {
            let mut m = Vec::with_capacity((tree_nodes * tree_nodes) as usize);
            for ta in 0..tree_nodes {
                for tb in 0..tree_nodes {
                    let lca_level = net.tree.level_of(net.tree.lca(ta, tb));
                    m.push(
                        model.climb_cost(net.tree.level_of(ta), lca_level, depth)
                            + model.climb_cost(net.tree.level_of(tb), lca_level, depth),
                    );
                }
            }
            m
        });
        let mut pop_idx = Vec::with_capacity((pops * tree_nodes) as usize);
        let mut tree_idx = Vec::with_capacity((pops * tree_nodes) as usize);
        for p in 0..pops {
            for t in 0..tree_nodes {
                pop_idx.push(p);
                tree_idx.push(t);
            }
        }
        let zero = model.climb_cost(0, 0, depth);
        // Rank tree indices by (climb-to-root, index): `total_cmp` is a
        // total order (so the sort cannot panic) and the index tie-break
        // makes the permutation deterministic. Equal climbs sort by index,
        // which is exactly the `NodeId` tie-break within one PoP.
        let mut t_of_rank: Vec<u32> = (0..tree_nodes).collect();
        t_of_rank.sort_by(|&a, &b| {
            climb_root[a as usize]
                .total_cmp(&climb_root[b as usize])
                .then(a.cmp(&b))
        });
        let mut rank_of = vec![0u32; tree_nodes as usize];
        for (r, &t) in t_of_rank.iter().enumerate() {
            rank_of[t as usize] = r as u32;
        }
        let climb_by_rank: Vec<f64> = t_of_rank.iter().map(|&t| climb_root[t as usize]).collect();
        Self {
            tree_nodes,
            pops,
            arity: net.tree.arity,
            pop_idx,
            tree_idx,
            intra,
            climb_root,
            core,
            core_min,
            uplink,
            zero_zero: zero + zero,
            rank_of,
            t_of_rank,
            climb_by_rank,
        }
    }

    /// Total link cost of the shortest path between routers `a` and `b` —
    /// bitwise equal to `model.path_cost(net, a, b)` for the network and
    /// model this table was built from.
    #[inline]
    pub fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        let (pa, ta) = (self.pop_idx[a as usize], self.tree_idx[a as usize]);
        let (pb, tb) = (self.pop_idx[b as usize], self.tree_idx[b as usize]);
        if pa == pb {
            self.intra_cost(ta, tb)
        } else {
            self.climb_root[ta as usize]
                + self.climb_root[tb as usize]
                + self.core[(pa * self.pops + pb) as usize]
        }
    }

    /// A cursor fixing the source endpoint: the nearest-replica scan
    /// evaluates `path_cost(leaf, candidate)` once per directory entry,
    /// and hoisting the leaf's decomposition (and its row offsets) out of
    /// that loop is worth more than the optimizer reliably recovers.
    #[inline]
    pub fn from(&self, a: NodeId) -> CostFrom<'_> {
        CostFrom {
            table: self,
            pa: self.pop_idx[a as usize],
            ta: self.tree_idx[a as usize],
        }
    }

    /// Same-PoP cost between two tree indices: a dense-matrix load, or the
    /// exact prefix-difference fallback for oversized trees.
    #[inline]
    fn intra_cost(&self, ta: u32, tb: u32) -> f64 {
        if let Some(m) = &self.intra {
            return m[(ta * self.tree_nodes + tb) as usize];
        }
        if ta == tb {
            return self.zero_zero;
        }
        // LCA by heap-index parent walks: larger index is never shallower.
        let (mut x, mut y) = (ta, tb);
        while x != y {
            if x > y {
                x = (x - 1) / self.arity;
            } else {
                y = (y - 1) / self.arity;
            }
        }
        // Climb prefixes are integer-valued, so the differences reproduce
        // the per-segment climb costs exactly: at least one segment is
        // non-empty (ta != tb), and a positive term absorbs the other
        // side's signed zero the same way the reference sum does.
        (self.climb_root[ta as usize] - self.climb_root[x as usize])
            + (self.climb_root[tb as usize] - self.climb_root[x as usize])
    }

    /// Cost of the tree link directly above tree index `t` (0 for the pop
    /// root) — bitwise equal to `model.tree_link_cost(level_of(t), depth)`
    /// for `t >= 1`.
    #[inline]
    pub fn uplink_cost(&self, t: u32) -> f64 {
        self.uplink[t as usize]
    }

    /// Position of tree index `t` in the ascending `(climb_root, t)` order;
    /// see the `rank_of` field for why this ranks same-PoP candidates.
    #[inline]
    pub fn rank_of(&self, t: u32) -> u32 {
        self.rank_of[t as usize]
    }

    /// Inverse of [`CostTable::rank_of`].
    #[inline]
    pub fn t_of_rank(&self, r: u32) -> u32 {
        self.t_of_rank[r as usize]
    }
}

/// See [`CostTable::from`]: a source-pinned view whose [`CostFrom::to`]
/// is bit-identical to `path_cost(a, b)` with `a` fixed.
pub struct CostFrom<'a> {
    table: &'a CostTable,
    pa: u32,
    ta: u32,
}

impl CostFrom<'_> {
    /// `path_cost(a, b)` for the pinned source `a`.
    #[inline]
    pub fn to(&self, b: NodeId) -> f64 {
        let t = self.table;
        let (pb, tb) = (t.pop_idx[b as usize], t.tree_idx[b as usize]);
        if self.pa == pb {
            t.intra_cost(self.ta, tb)
        } else {
            t.climb_root[self.ta as usize]
                + t.climb_root[tb as usize]
                + t.core[(self.pa * t.pops + pb) as usize]
        }
    }

    /// PoP index of the pinned source.
    #[inline]
    pub fn pop(&self) -> u32 {
        self.pa
    }

    /// Tree index of the pinned source.
    #[inline]
    pub fn tree(&self) -> u32 {
        self.ta
    }

    /// Same-PoP cost to tree index `tb` — bit-identical to [`CostFrom::to`]
    /// for a destination inside the source's own PoP.
    #[inline]
    pub fn to_tree(&self, tb: u32) -> f64 {
        self.table.intra_cost(self.ta, tb)
    }

    /// Folds the same-PoP candidates of `group` — presence bits indexed by
    /// climb rank (bit `r % 64` of word `r / 64`), for the *source's own*
    /// PoP — into `best` under the `(cost, NodeId)` order, skipping the
    /// source itself.
    ///
    /// Own-PoP costs go through the LCA and are not monotone in rank, so
    /// this walk cannot take one `trailing_zeros` representative the way
    /// foreign PoPs do — but it can stop early. For any same-PoP target
    /// `t` with LCA `L`:
    ///
    /// ```text
    /// cost(a, t) = (climb(a) − climb(L)) + (climb(t) − climb(L))
    ///            ≥  climb(a) − climb(t)        (L is an ancestor of t)
    /// ```
    ///
    /// Walking ranks *descending* (deepest replica first) makes that
    /// lower bound non-decreasing, so once it strictly exceeds the
    /// running best cost no remaining candidate can win — not even on
    /// the `NodeId` tie-break — and the scan stops. Climb values are
    /// integer-valued `f64`s, so the bound arithmetic is exact. The fold
    /// is a pure minimum under a total order; the result is bit-identical
    /// to the exhaustive walk it replaces.
    #[inline]
    pub fn min_in_own_mask(&self, group: &[u64], best: &mut Option<(f64, NodeId)>) {
        let t = self.table;
        let climb_a = t.climb_root[self.ta as usize];
        for (i, &word) in group.iter().enumerate().rev() {
            let mut bits = word;
            while bits != 0 {
                let hi = 63 - bits.leading_zeros();
                bits &= !(1u64 << hi);
                let r = i as u32 * 64 + hi;
                if let Some((bc, _)) = *best {
                    if climb_a - t.climb_by_rank[r as usize] > bc {
                        return;
                    }
                }
                let tb = t.t_of_rank[r as usize];
                if tb == self.ta {
                    continue;
                }
                fold_min(best, t.intra_cost(self.ta, tb), self.pa * t.tree_nodes + tb);
            }
        }
    }

    /// Folds the replicas PoP `p` holds (`group`, presence bits by climb
    /// rank) into `best`. A foreign PoP's first set bit is provably its
    /// `(cost, NodeId)`-minimal replica, so it contributes one candidate
    /// (none when the group is empty); the source's own PoP takes the
    /// [`CostFrom::min_in_own_mask`] walk. Runs once per PoP group of
    /// every nearest-replica selection; the inliner keeps it out of line
    /// there unless forced (measured).
    #[inline(always)]
    pub(crate) fn min_in_group(&self, p: u32, group: &[u64], best: &mut Option<(f64, NodeId)>) {
        if p == self.pa {
            self.min_in_own_mask(group, best);
        } else if let Some(r) = first_rank(group) {
            let n = p * self.table.tree_nodes + self.table.t_of_rank[r as usize];
            fold_min(best, self.to_pop_rank(p, r), n);
        }
    }

    /// A lower bound on the cost of every replica outside the source's own
    /// PoP: the shallowest climb (rank 0) plus the cheapest core leg,
    /// summed in the association [`CostFrom::to_pop_rank`] uses. Rounding
    /// is monotone, so no term being larger can make the sum smaller: an
    /// own-PoP candidate *strictly* below this floor beats every foreign
    /// one, even on the `NodeId` tie-break. `+∞` on a one-PoP network.
    #[inline]
    pub fn foreign_floor(&self) -> f64 {
        let t = self.table;
        t.climb_root[self.ta as usize] + t.climb_by_rank[0] + t.core_min[self.pa as usize]
    }

    /// Appends every replica PoP `p` holds (`group`) that is cheaper than
    /// `max_cost` to the parallel cost/node arrays, skipping the source
    /// itself — for selections that may need to probe past the minimum.
    pub(crate) fn extend_from_group(
        &self,
        p: u32,
        group: &[u64],
        max_cost: f64,
        costs_out: &mut Vec<f64>,
        nodes_out: &mut Vec<NodeId>,
    ) {
        let t = self.table;
        for r in ranks(group) {
            let tb = t.t_of_rank[r as usize];
            let c = if p != self.pa {
                self.to_pop_rank(p, r)
            } else if tb == self.ta {
                continue; // the source itself
            } else {
                t.intra_cost(self.ta, tb)
            };
            if c < max_cost {
                costs_out.push(c);
                nodes_out.push(p * t.tree_nodes + tb);
            }
        }
    }

    /// Cross-PoP cost to the replica of climb-rank `r` in PoP `pb`
    /// (`pb != self.pop()`) — bit-identical to [`CostFrom::to`] for that
    /// node, since `climb_by_rank[r]` is a bitwise copy of its
    /// `climb_root` entry and the addition associates identically.
    #[inline]
    pub fn to_pop_rank(&self, pb: u32, r: u32) -> f64 {
        let t = self.table;
        t.climb_root[self.ta as usize]
            + t.climb_by_rank[r as usize]
            + t.core[(self.pa * t.pops + pb) as usize]
    }
}

/// Replaces `best` with `(c, n)` when that is smaller under the
/// `(cost, NodeId)` order every replica selection shares.
#[inline]
fn fold_min(best: &mut Option<(f64, NodeId)>, c: f64, n: NodeId) {
    if best.is_none_or(|(bc, bn)| c < bc || (c == bc && n < bn)) {
        *best = Some((c, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::{pop, AccessTree, Network};

    fn models() -> [LatencyModel; 4] {
        [
            LatencyModel::Unit,
            LatencyModel::Progression,
            LatencyModel::CoreMultiplier { d: 1 },
            LatencyModel::CoreMultiplier { d: 7 },
        ]
    }

    #[test]
    fn matches_reference_on_abilene_bitwise() {
        let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
        for model in models() {
            let table = CostTable::new(&net, model);
            for a in 0..net.node_count() {
                for b in 0..net.node_count() {
                    let want = model.path_cost(&net, a, b);
                    let got = table.path_cost(a, b);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{model:?}: path_cost({a}, {b}) = {got} want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_fallback_is_also_bitwise_exact() {
        // Force the fallback by building the table as if the tree were
        // oversized: replicate construction with `intra` stripped.
        let net = Network::new(pop::abilene(), AccessTree::new(3, 3));
        for model in models() {
            let mut table = CostTable::new(&net, model);
            table.intra = None;
            for a in 0..net.node_count() {
                for b in 0..net.node_count() {
                    assert_eq!(
                        table.path_cost(a, b).to_bits(),
                        model.path_cost(&net, a, b).to_bits(),
                        "{model:?}: fallback path_cost({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn uplink_costs_match_tree_link_cost() {
        let net = Network::new(pop::abilene(), AccessTree::new(2, 4));
        for model in models() {
            let table = CostTable::new(&net, model);
            assert_eq!(table.uplink_cost(0), 0.0);
            for t in 1..net.tree.nodes() {
                assert_eq!(
                    table.uplink_cost(t).to_bits(),
                    model
                        .tree_link_cost(net.tree.level_of(t), net.tree.depth)
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn rank_order_is_the_cross_pop_cost_order() {
        // For any source and any *foreign* PoP, walking that PoP's tree
        // indices in rank order must visit them in ascending
        // (cost, NodeId) order — the invariant the bitmask replica
        // directory's per-PoP representative relies on.
        let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
        for model in models() {
            let table = CostTable::new(&net, model);
            let tn = net.tree.nodes();
            // Permutation sanity.
            for t in 0..tn {
                assert_eq!(table.t_of_rank(table.rank_of(t)), t);
            }
            let from = table.from(net.leaf(0, 2));
            for pb in 1..net.pops() {
                let mut prev: Option<(f64, NodeId)> = None;
                for r in 0..tn {
                    let t = table.t_of_rank(r);
                    let node = pb * tn + t;
                    let cost = table.path_cost(net.leaf(0, 2), node);
                    assert_eq!(cost.to_bits(), from.to_pop_rank(pb, r).to_bits());
                    if let Some((pc, pn)) = prev {
                        assert!(
                            pc < cost || (pc == cost && pn < node),
                            "{model:?}: rank {r} out of (cost, id) order"
                        );
                    }
                    prev = Some((cost, node));
                }
            }
        }
    }

    #[test]
    fn min_in_own_mask_matches_exhaustive_scan() {
        let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
        let tn = net.tree.nodes();
        for model in models() {
            let table = CostTable::new(&net, model);
            // Deterministic LCG over dense, sparse, and single-bit masks.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut masks: Vec<u128> = vec![0, 1, (1u128 << tn) - 1];
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lo = state as u128;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let hi = (state as u128) << 64;
                masks.push((hi | lo) & ((1u128 << tn) - 1));
                masks.push(1u128 << (state % tn as u64));
            }
            for src_t in 0..tn {
                let src = net.node(2, src_t);
                let from = table.from(src);
                for &mask in &masks {
                    let group = crate::dir::mask_words(mask);
                    let mut got: Option<(f64, NodeId)> = None;
                    from.min_in_own_mask(&group, &mut got);
                    // Reference: ascending full walk, same tie-break.
                    let mut want: Option<(f64, NodeId)> = None;
                    let mut bits = mask;
                    while bits != 0 {
                        let r = bits.trailing_zeros();
                        bits &= bits - 1;
                        let t = table.t_of_rank(r);
                        if t == src_t {
                            continue;
                        }
                        let c = from.to_tree(t);
                        let n = 2 * tn + t;
                        if want.is_none_or(|(bc, bn)| c < bc || (c == bc && n < bn)) {
                            want = Some((c, n));
                        }
                    }
                    let key = |o: Option<(f64, NodeId)>| o.map(|(c, n)| (c.to_bits(), n));
                    assert_eq!(key(got), key(want), "{model:?}: mask {mask:#x}");
                    // Folding into a pre-seeded best must behave like a
                    // running minimum, too.
                    let seed = Some((1.0, 0));
                    let mut got2 = seed;
                    from.min_in_own_mask(&group, &mut got2);
                    let want2 = match (seed, want) {
                        (Some((sc, sn)), Some((wc, wn))) if wc < sc || (wc == sc && wn < sn) => {
                            want
                        }
                        _ => seed,
                    };
                    assert_eq!(key(got2), key(want2), "{model:?}: seeded mask {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn single_pop_network_has_no_core_terms() {
        let core = pop::PopGraph::new("solo", vec!["A".into()], vec![1_000], vec![]);
        let net = Network::new(core, AccessTree::new(2, 2));
        let table = CostTable::new(&net, LatencyModel::Unit);
        assert_eq!(table.path_cost(net.leaf(0, 0), net.leaf(0, 3)), 4.0);
        assert_eq!(table.path_cost(net.pop_root(0), net.pop_root(0)), 0.0);
    }
}
