//! Complete k-ary access trees addressed by heap index.
//!
//! Each PoP is the root of a complete k-ary tree of routers (§4.1 of the
//! paper; the baseline uses arity `k = 2` and depth 5). Nodes are addressed
//! by their index in level order: node 0 is the root (the PoP itself), and
//! the children of node `i` are `k*i + 1 ..= k*i + k`.
//!
//! Levels are counted from the root: the root is level 0 and the leaves are
//! level `depth`. "Depth" is the number of edges on a root→leaf path, so a
//! binary tree of depth 5 has 32 leaves and 63 nodes.

use serde::{Deserialize, Serialize};

/// Shape of a complete k-ary access tree.
///
/// # Examples
/// ```
/// use icn_topology::AccessTree;
///
/// let tree = AccessTree::baseline(); // binary, depth 5 (the paper's §4.1)
/// assert_eq!(tree.nodes(), 63);
/// assert_eq!(tree.leaves(), 32);
/// assert_eq!(tree.level_of(0), 0);          // the PoP root
/// assert_eq!(tree.distance(31, 32), 2);     // sibling leaves via parent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessTree {
    /// Arity (children per interior node); ≥ 1.
    pub arity: u32,
    /// Edges on a root→leaf path; ≥ 1 (so there is at least one edge level).
    pub depth: u32,
}

impl AccessTree {
    /// Creates a tree shape, validating the parameters.
    ///
    /// # Panics
    /// Panics if `arity == 0` or `depth == 0`, or if the node count would
    /// overflow `u32`.
    pub fn new(arity: u32, depth: u32) -> Self {
        assert!(arity >= 1, "arity must be >= 1");
        assert!(depth >= 1, "depth must be >= 1");
        let t = Self { arity, depth };
        assert!(
            t.checked_nodes().is_some(),
            "tree too large for u32 indexing"
        );
        t
    }

    /// The paper's baseline access tree: binary, depth 5 (32 leaves).
    pub fn baseline() -> Self {
        Self::new(2, 5)
    }

    /// A tree of the given arity with exactly `leaves` leaves, as used by
    /// the arity sensitivity analysis (Table 4: leaves fixed at 64 while
    /// arity ranges over 2, 4, 8, 64).
    ///
    /// # Panics
    /// Panics unless `leaves` is an exact power of `arity`.
    pub fn with_fixed_leaves(arity: u32, leaves: u32) -> Self {
        let mut depth = 0u32;
        let mut n = 1u64;
        while n < leaves as u64 {
            n *= arity as u64;
            depth += 1;
        }
        assert_eq!(n, leaves as u64, "{leaves} is not a power of arity {arity}");
        Self::new(arity, depth)
    }

    fn checked_nodes(&self) -> Option<u32> {
        // nodes = (k^(d+1) - 1) / (k - 1) for k > 1, d+1 for k == 1.
        let k = self.arity as u64;
        let mut total: u64 = 0;
        let mut level = 1u64;
        for _ in 0..=self.depth {
            total = total.checked_add(level)?;
            level = level.checked_mul(k)?;
        }
        u32::try_from(total).ok()
    }

    /// Total number of nodes, including the root.
    #[expect(clippy::expect_used, reason = "shape validated in `new`")]
    pub fn nodes(&self) -> u32 {
        self.checked_nodes().expect("validated at construction")
    }

    /// Number of leaves (`arity^depth`).
    pub fn leaves(&self) -> u32 {
        (self.arity as u64).pow(self.depth) as u32
    }

    /// Index of the first leaf; leaves occupy `first_leaf()..nodes()`.
    pub fn first_leaf(&self) -> u32 {
        self.nodes() - self.leaves()
    }

    /// Level of node `i` (root = 0, leaves = `depth`).
    pub fn level_of(&self, i: u32) -> u32 {
        debug_assert!(i < self.nodes());
        if self.arity == 1 {
            return i;
        }
        // Smallest l such that i < (k^(l+1) - 1)/(k - 1).
        let k = self.arity as u64;
        let mut bound = 1u64; // number of nodes in levels 0..=l
        let mut level_size = 1u64;
        let mut l = 0u32;
        while (i as u64) >= bound {
            level_size *= k;
            bound += level_size;
            l += 1;
        }
        l
    }

    /// Parent of node `i` (the root has no parent).
    pub fn parent(&self, i: u32) -> Option<u32> {
        if i == 0 {
            None
        } else {
            Some((i - 1) / self.arity)
        }
    }

    /// Panic-free parent step: the parent of `i`, or the root for the root.
    /// Level-guarded walks (`distance`, `lca`) never take the root branch,
    /// so this is equivalent to `parent(i).unwrap()` there without the
    /// panic path.
    pub(crate) fn up(&self, i: u32) -> u32 {
        i.saturating_sub(1) / self.arity
    }

    /// Children of node `i` (empty for leaves).
    pub fn children(&self, i: u32) -> std::ops::Range<u32> {
        let first = i * self.arity + 1;
        if first >= self.nodes() {
            0..0
        } else {
            first..(first + self.arity).min(self.nodes())
        }
    }

    /// True when `i` is a leaf.
    pub fn is_leaf(&self, i: u32) -> bool {
        i >= self.first_leaf()
    }

    /// Siblings of `i`: the other children of its parent.
    pub fn siblings(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let range = match self.parent(i) {
            Some(p) => self.children(p),
            None => 0..0,
        };
        range.filter(move |&s| s != i)
    }

    /// Hop distance between two nodes of the same tree (via their LCA).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        let (mut a, mut b) = (a, b);
        let (mut la, mut lb) = (self.level_of(a), self.level_of(b));
        let mut hops = 0;
        while la > lb {
            a = self.up(a);
            la -= 1;
            hops += 1;
        }
        while lb > la {
            b = self.up(b);
            lb -= 1;
            hops += 1;
        }
        while a != b {
            a = self.up(a);
            b = self.up(b);
            hops += 2;
        }
        hops
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: u32, b: u32) -> u32 {
        let (mut a, mut b) = (a, b);
        let (mut la, mut lb) = (self.level_of(a), self.level_of(b));
        while la > lb {
            a = self.up(a);
            la -= 1;
        }
        while lb > la {
            b = self.up(b);
            lb -= 1;
        }
        while a != b {
            a = self.up(a);
            b = self.up(b);
        }
        a
    }

    /// The ancestors of `i` from `i` itself up to and including the root.
    pub fn path_to_root(&self, i: u32) -> PathToRoot<'_> {
        PathToRoot {
            tree: self,
            cur: Some(i),
        }
    }
}

/// Iterator over a node's ancestor chain (inclusive of both endpoints).
pub struct PathToRoot<'a> {
    tree: &'a AccessTree,
    cur: Option<u32>,
}

impl Iterator for PathToRoot<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        let i = self.cur?;
        self.cur = self.tree.parent(i);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn baseline_counts() {
        let t = AccessTree::baseline();
        assert_eq!(t.nodes(), 63);
        assert_eq!(t.leaves(), 32);
        assert_eq!(t.first_leaf(), 31);
    }

    #[test]
    fn fixed_leaves_shapes() {
        // Table 4: arities 2/4/8/64 with 64 leaves.
        assert_eq!(AccessTree::with_fixed_leaves(2, 64).depth, 6);
        assert_eq!(AccessTree::with_fixed_leaves(4, 64).depth, 3);
        assert_eq!(AccessTree::with_fixed_leaves(8, 64).depth, 2);
        assert_eq!(AccessTree::with_fixed_leaves(64, 64).depth, 1);
        for k in [2u32, 4, 8, 64] {
            assert_eq!(AccessTree::with_fixed_leaves(k, 64).leaves(), 64);
        }
    }

    #[test]
    #[should_panic(expected = "not a power")]
    fn fixed_leaves_rejects_non_power() {
        AccessTree::with_fixed_leaves(3, 64);
    }

    #[test]
    fn levels_and_parents_binary() {
        let t = AccessTree::new(2, 3);
        assert_eq!(t.nodes(), 15);
        assert_eq!(t.level_of(0), 0);
        assert_eq!(t.level_of(1), 1);
        assert_eq!(t.level_of(2), 1);
        assert_eq!(t.level_of(3), 2);
        assert_eq!(t.level_of(7), 3);
        assert_eq!(t.level_of(14), 3);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(6), Some(2));
        assert_eq!(t.children(0), 1..3);
        assert_eq!(t.children(7), 0..0);
        assert!(t.is_leaf(7) && t.is_leaf(14) && !t.is_leaf(6));
    }

    #[test]
    fn sibling_enumeration() {
        let t = AccessTree::new(2, 2);
        let sibs: Vec<u32> = t.siblings(3).collect();
        assert_eq!(sibs, vec![4]);
        let t4 = AccessTree::new(4, 1);
        let sibs: Vec<u32> = t4.siblings(2).collect();
        assert_eq!(sibs, vec![1, 3, 4]);
        assert_eq!(t.siblings(0).count(), 0);
    }

    #[test]
    fn lca_examples() {
        let t = AccessTree::new(2, 3);
        assert_eq!(t.lca(7, 8), 3);
        assert_eq!(t.lca(7, 14), 0);
        assert_eq!(t.lca(7, 3), 3);
        assert_eq!(t.lca(5, 5), 5);
        // Distance decomposes through the LCA.
        for (a, b) in [(7u32, 8u32), (7, 14), (9, 10), (3, 12)] {
            let l = t.lca(a, b);
            assert_eq!(
                t.distance(a, b),
                (t.level_of(a) - t.level_of(l)) + (t.level_of(b) - t.level_of(l))
            );
        }
    }

    #[test]
    fn distance_examples() {
        let t = AccessTree::new(2, 3);
        assert_eq!(t.distance(7, 7), 0);
        assert_eq!(t.distance(7, 3), 1);
        assert_eq!(t.distance(7, 8), 2); // siblings via parent
        assert_eq!(t.distance(7, 14), 6); // across the root
        assert_eq!(t.distance(0, 7), 3);
    }

    #[test]
    fn unary_tree() {
        let t = AccessTree::new(1, 4);
        assert_eq!(t.nodes(), 5);
        assert_eq!(t.leaves(), 1);
        assert_eq!(t.level_of(3), 3);
        assert_eq!(t.distance(0, 4), 4);
    }

    proptest! {
        #[test]
        fn prop_parent_child_inverse(arity in 1u32..6, depth in 1u32..5, seed in 0u32..10_000) {
            let t = AccessTree::new(arity, depth);
            let i = seed % t.nodes();
            for c in t.children(i) {
                prop_assert_eq!(t.parent(c), Some(i));
                prop_assert_eq!(t.level_of(c), t.level_of(i) + 1);
            }
        }

        #[test]
        fn prop_distance_metric(arity in 1u32..5, depth in 1u32..5, sa in 0u32..10_000, sb in 0u32..10_000) {
            let t = AccessTree::new(arity, depth);
            let a = sa % t.nodes();
            let b = sb % t.nodes();
            prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            prop_assert_eq!(t.distance(a, a), 0);
            // Distance bounded by going through the root.
            prop_assert!(t.distance(a, b) <= t.level_of(a) + t.level_of(b));
        }

        #[test]
        fn prop_path_to_root_length(arity in 1u32..5, depth in 1u32..5, s in 0u32..10_000) {
            let t = AccessTree::new(arity, depth);
            let i = s % t.nodes();
            let path: Vec<u32> = t.path_to_root(i).collect();
            prop_assert_eq!(path.len() as u32, t.level_of(i) + 1);
            prop_assert_eq!(path[0], i);
            prop_assert_eq!(*path.last().unwrap(), 0);
        }

        #[test]
        fn prop_level_counts(arity in 2u32..5, depth in 1u32..5) {
            let t = AccessTree::new(arity, depth);
            let mut per_level = vec![0u32; depth as usize + 1];
            for i in 0..t.nodes() {
                per_level[t.level_of(i) as usize] += 1;
            }
            for (l, &count) in per_level.iter().enumerate() {
                prop_assert_eq!(count as u64, (arity as u64).pow(l as u32));
            }
        }
    }
}
