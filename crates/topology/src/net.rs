//! The combined router-level network: a core PoP graph with one complete
//! k-ary access tree hanging off every PoP.
//!
//! This is the structure the simulator routes requests over. Every router in
//! the network (tree nodes and PoP roots alike) has a global [`NodeId`];
//! every physical link (tree edges and core edges) has a global [`LinkId`]
//! used for congestion accounting. The PoP itself is the *root* (tree index
//! 0) of its access tree, and doubles as the origin server for the objects
//! it owns (§4.1).

use crate::pop::{PopGraph, PopId};
use crate::tree::AccessTree;

/// Global router identifier: `pop * tree.nodes() + tree_index`.
pub type NodeId = u32;

/// Global link identifier; see [`Network::link_count`] for the id space.
pub type LinkId = u32;

/// A core PoP graph combined with identical access trees at every PoP.
///
/// Construction precomputes flat lookup tables for every per-node and
/// per-PoP-pair query the simulator's request loop makes — node → (pop,
/// tree index, level, uplink id) and PoP pair → (link id, shortest core
/// path) — so the accessors below are array loads, not div/mod chains,
/// BFS-parent walks, or map probes. Total table memory is O(nodes +
/// pops² × core diameter): a few hundred KB for the largest paper
/// topology.
#[derive(Debug, Clone)]
pub struct Network {
    /// The PoP-level core graph.
    pub core: PopGraph,
    /// The shape of the access tree rooted at every PoP.
    pub tree: AccessTree,
    core_dist: Vec<Vec<u32>>,
    tree_nodes: u32,
    tree_links_total: u32,
    first_leaf: u32,
    /// `node_pop[n]` = owning PoP of router `n`.
    node_pop: Vec<PopId>,
    /// `node_tree[n]` = within-tree index of router `n`.
    node_tree: Vec<u32>,
    /// `tree_level[t]` = level of tree index `t` (0 = root).
    tree_level: Vec<u32>,
    /// `node_tree_link[n]` = link id of `n`'s uplink tree edge
    /// (`LinkId::MAX` for PoP roots, which have none).
    node_tree_link: Vec<LinkId>,
    /// Dense `pops × pops` core link ids (`LinkId::MAX` when the PoPs are
    /// not adjacent); replaces a per-hop map probe.
    core_link_mat: Vec<LinkId>,
    /// CSR of all-pairs shortest core paths: the path from `a` to `b`
    /// (both endpoints included, in forward order) lives at
    /// `core_path_data[core_path_off[a*P+b]..core_path_off[a*P+b+1]]`.
    core_path_off: Vec<u32>,
    core_path_data: Vec<PopId>,
    /// CSR of tree climb paths: tree index `t` → `[t, parent(t), …, 0]`.
    root_path_off: Vec<u32>,
    root_path_data: Vec<u32>,
}

impl Network {
    /// Builds the combined network and precomputes core all-pairs shortest
    /// paths plus the flat per-node / per-PoP-pair lookup tables.
    pub fn new(core: PopGraph, tree: AccessTree) -> Self {
        let core_dist = core.apsp();
        let core_parents = core.apsp_parents();
        let tree_nodes = tree.nodes();
        let pops = core.len() as u32;
        let tree_links_total = (tree_nodes - 1) * pops;

        let tree_level: Vec<u32> = (0..tree_nodes).map(|t| tree.level_of(t)).collect();
        let n_nodes = (pops * tree_nodes) as usize;
        let mut node_pop = Vec::with_capacity(n_nodes);
        let mut node_tree = Vec::with_capacity(n_nodes);
        let mut node_tree_link = Vec::with_capacity(n_nodes);
        for p in 0..pops {
            for t in 0..tree_nodes {
                node_pop.push(p);
                node_tree.push(t);
                node_tree_link.push(if t == 0 {
                    LinkId::MAX
                } else {
                    p * (tree_nodes - 1) + (t - 1)
                });
            }
        }

        let mut core_link_mat = vec![LinkId::MAX; (pops * pops) as usize];
        for (i, &(a, b)) in core.edges().iter().enumerate() {
            let id = tree_links_total + i as LinkId;
            core_link_mat[(a * pops + b) as usize] = id;
            core_link_mat[(b * pops + a) as usize] = id;
        }

        // All-pairs core paths, emitted forward (a → b) by reversing the
        // BFS-parent walk from b back toward a.
        let mut core_path_off = Vec::with_capacity((pops * pops) as usize + 1);
        let mut core_path_data = Vec::new();
        core_path_off.push(0u32);
        let mut rev: Vec<PopId> = Vec::new();
        for a in 0..pops {
            let parents = &core_parents[a as usize];
            for b in 0..pops {
                rev.clear();
                let mut cur = b;
                loop {
                    rev.push(cur);
                    if cur == a {
                        break;
                    }
                    cur = parents[cur as usize];
                }
                core_path_data.extend(rev.iter().rev());
                core_path_off.push(core_path_data.len() as u32);
            }
        }

        let mut root_path_off = Vec::with_capacity(tree_nodes as usize + 1);
        let mut root_path_data = Vec::new();
        root_path_off.push(0u32);
        for t in 0..tree_nodes {
            root_path_data.extend(tree.path_to_root(t));
            root_path_off.push(root_path_data.len() as u32);
        }

        Self {
            core,
            first_leaf: tree.first_leaf(),
            tree,
            core_dist,
            tree_nodes,
            tree_links_total,
            node_pop,
            node_tree,
            tree_level,
            node_tree_link,
            core_link_mat,
            core_path_off,
            core_path_data,
            root_path_off,
            root_path_data,
        }
    }

    /// The shortest core path from `a` to `b`, both endpoints included, in
    /// forward order.
    #[inline]
    fn core_path(&self, a: PopId, b: PopId) -> &[PopId] {
        let i = (a * self.pops() + b) as usize;
        &self.core_path_data[self.core_path_off[i] as usize..self.core_path_off[i + 1] as usize]
    }

    /// The climb path of tree index `t`: `[t, parent(t), …, 0]`.
    #[inline]
    fn root_path(&self, t: u32) -> &[u32] {
        &self.root_path_data
            [self.root_path_off[t as usize] as usize..self.root_path_off[t as usize + 1] as usize]
    }

    /// Number of PoPs.
    pub fn pops(&self) -> u32 {
        self.core.len() as u32
    }

    /// Number of routers per access tree (including the PoP root).
    pub fn nodes_per_pop(&self) -> u32 {
        self.tree_nodes
    }

    /// Total number of routers in the network.
    pub fn node_count(&self) -> u32 {
        self.pops() * self.tree_nodes
    }

    /// Total number of links: all tree edges followed by all core edges.
    pub fn link_count(&self) -> u32 {
        self.tree_links_total + self.core.edges().len() as u32
    }

    /// Leaves per access tree.
    pub fn leaves_per_pop(&self) -> u32 {
        self.tree.leaves()
    }

    /// The PoP that router `n` belongs to.
    #[inline]
    pub fn pop_of(&self, n: NodeId) -> PopId {
        self.node_pop[n as usize]
    }

    /// The within-tree index of router `n` (0 = the PoP root).
    #[inline]
    pub fn tree_index(&self, n: NodeId) -> u32 {
        self.node_tree[n as usize]
    }

    /// Global id of a router given its PoP and within-tree index.
    #[inline]
    pub fn node(&self, pop: PopId, tree_index: u32) -> NodeId {
        debug_assert!(tree_index < self.tree_nodes);
        pop * self.tree_nodes + tree_index
    }

    /// Global id of the root router (the PoP itself).
    #[inline]
    pub fn pop_root(&self, pop: PopId) -> NodeId {
        self.node(pop, 0)
    }

    /// Global id of the `i`-th leaf (0-based) of `pop`'s access tree.
    #[inline]
    pub fn leaf(&self, pop: PopId, i: u32) -> NodeId {
        debug_assert!(i < self.tree.leaves());
        self.node(pop, self.first_leaf + i)
    }

    /// True when router `n` is a leaf of its access tree.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.tree_index(n) >= self.first_leaf
    }

    /// Tree level of router `n` (0 = PoP root, `depth` = leaf).
    #[inline]
    pub fn level_of(&self, n: NodeId) -> u32 {
        self.tree_level[self.tree_index(n) as usize]
    }

    /// Core hop distance between two PoPs.
    #[inline]
    pub fn core_distance(&self, a: PopId, b: PopId) -> u32 {
        self.core_dist[a as usize][b as usize]
    }

    /// Hop distance between two arbitrary routers.
    ///
    /// Within a PoP the tree path is used; across PoPs the path climbs to
    /// the local root, crosses the core on a shortest path, and descends.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (pa, pb) = (self.pop_of(a), self.pop_of(b));
        let (ta, tb) = (self.tree_index(a), self.tree_index(b));
        if pa == pb {
            self.tree.distance(ta, tb)
        } else {
            self.tree.level_of(ta) + self.core_distance(pa, pb) + self.tree.level_of(tb)
        }
    }

    /// Link id of the tree edge between router `n` (tree index ≥ 1) and its
    /// parent.
    #[inline]
    pub fn tree_link(&self, n: NodeId) -> LinkId {
        let id = self.node_tree_link[n as usize];
        debug_assert!(id != LinkId::MAX, "root has no parent link");
        id
    }

    /// Link id of the core edge between adjacent PoPs `a` and `b`.
    #[inline]
    #[expect(clippy::panic, reason = "non-adjacent PoPs are a caller bug")]
    pub fn core_link(&self, a: PopId, b: PopId) -> LinkId {
        match self.core_link_mat[(a * self.pops() + b) as usize] {
            LinkId::MAX => {
                panic!("PoPs {a} and {b} are not adjacent")
            }
            id => id,
        }
    }

    /// Invokes `f` for every PoP on the shortest core path from `a` to `b`,
    /// in order, including both endpoints.
    pub fn for_each_core_hop(&self, a: PopId, b: PopId, mut f: impl FnMut(PopId)) {
        for &p in self.core_path(a, b) {
            f(p);
        }
    }

    /// Appends to `out` the routers on the shortest path from `from`
    /// (typically a leaf) to the root of `origin_pop`, in order, including
    /// both endpoints. This is the request path for shortest-path-to-origin
    /// routing: the climb to the local root, then the core PoP roots.
    pub fn sp_path_nodes_into(&self, from: NodeId, origin_pop: PopId, out: &mut Vec<NodeId>) {
        out.clear();
        let pop = self.pop_of(from);
        let base = pop * self.tree_nodes;
        for &t in self.root_path(self.tree_index(from)) {
            out.push(base + t);
        }
        if pop != origin_pop {
            // Skip the first hop: the local root is already pushed.
            for &p in &self.core_path(pop, origin_pop)[1..] {
                out.push(p * self.tree_nodes);
            }
        }
    }

    /// Appends to `out` the routers on the shortest path from `a` to `b`,
    /// in order, including both endpoints. This is the response path the
    /// simulator caches objects along ("each node on the response path ...
    /// stores the object", §4.1).
    pub fn path_nodes_into(&self, a: NodeId, b: NodeId, out: &mut Vec<NodeId>) {
        let (pa, pb) = (self.pop_of(a), self.pop_of(b));
        if pa == pb {
            let (ta, tb) = (self.tree_index(a), self.tree_index(b));
            let lca = self.tree.lca(ta, tb);
            // Climb a -> lca, then descend lca -> b (collected in reverse).
            let mut t = ta;
            loop {
                out.push(self.node(pa, t));
                if t == lca {
                    break;
                }
                t = self.tree.up(t);
            }
            let start = out.len();
            let mut t = tb;
            while t != lca {
                out.push(self.node(pa, t));
                t = self.tree.up(t);
            }
            out[start..].reverse();
        } else {
            // a up to its root, across the core, down from b's root to b.
            let base_a = pa * self.tree_nodes;
            for &t in self.root_path(self.tree_index(a)) {
                out.push(base_a + t);
            }
            for &p in &self.core_path(pa, pb)[1..] {
                out.push(p * self.tree_nodes);
            }
            // b's climb path is [tb, …, 0]; emit it root-first without the
            // root (just pushed as the last core hop).
            let base_b = pb * self.tree_nodes;
            let climb = self.root_path(self.tree_index(b));
            for &t in climb[..climb.len() - 1].iter().rev() {
                out.push(base_b + t);
            }
        }
    }

    /// Appends to `out` the link ids on the (unique shortest) path between
    /// routers `a` and `b`. The order is unspecified; congestion accounting
    /// only needs the multiset of links.
    pub fn path_links_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        let (pa, pb) = (self.pop_of(a), self.pop_of(b));
        if pa == pb {
            self.tree_path_links(pa, self.tree_index(a), self.tree_index(b), out);
        } else {
            // a up to its root, core crossing, b up to its root.
            self.tree_path_links(pa, self.tree_index(a), 0, out);
            self.tree_path_links(pb, self.tree_index(b), 0, out);
            let path = self.core_path(pa, pb);
            let pops = self.pops();
            for w in path.windows(2) {
                out.push(self.core_link_mat[(w[0] * pops + w[1]) as usize]);
            }
        }
    }

    /// Appends the tree links on the path between tree indices `x` and `y`
    /// within `pop`'s access tree (via their LCA).
    fn tree_path_links(&self, pop: PopId, x: u32, y: u32, out: &mut Vec<LinkId>) {
        let link_base = pop * (self.tree_nodes - 1);
        let (mut x, mut y) = (x, y);
        let (mut lx, mut ly) = (self.tree_level[x as usize], self.tree_level[y as usize]);
        while lx > ly {
            out.push(link_base + x - 1);
            x = self.tree.up(x);
            lx -= 1;
        }
        while ly > lx {
            out.push(link_base + y - 1);
            y = self.tree.up(y);
            ly -= 1;
        }
        while x != y {
            out.push(link_base + x - 1);
            out.push(link_base + y - 1);
            x = self.tree.up(x);
            y = self.tree.up(y);
        }
    }

    /// Global sibling routers of `n` within its access tree.
    pub fn siblings(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let pop = self.pop_of(n);
        self.tree
            .siblings(self.tree_index(n))
            .map(move |t| self.node(pop, t))
    }

    /// Global parent router of `n`, if any.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let pop = self.pop_of(n);
        self.tree
            .parent(self.tree_index(n))
            .map(|t| self.node(pop, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop;

    fn tiny() -> Network {
        // Abilene core with tiny binary trees: 11 pops x 7 nodes.
        Network::new(pop::abilene(), AccessTree::new(2, 2))
    }

    #[test]
    fn id_roundtrip() {
        let net = tiny();
        for p in 0..net.pops() {
            for t in 0..net.nodes_per_pop() {
                let n = net.node(p, t);
                assert_eq!(net.pop_of(n), p);
                assert_eq!(net.tree_index(n), t);
            }
        }
        assert_eq!(net.node_count(), 11 * 7);
    }

    #[test]
    fn leaves_and_levels() {
        let net = tiny();
        let l = net.leaf(3, 0);
        assert!(net.is_leaf(l));
        assert_eq!(net.level_of(l), 2);
        assert_eq!(net.level_of(net.pop_root(3)), 0);
        assert_eq!(net.leaves_per_pop(), 4);
    }

    #[test]
    fn distances_within_and_across_pops() {
        let net = tiny();
        let a = net.leaf(0, 0);
        // Leaf to own root: 2 hops.
        assert_eq!(net.distance(a, net.pop_root(0)), 2);
        // Leaf to sibling leaf: 2 hops via parent.
        assert_eq!(net.distance(a, net.leaf(0, 1)), 2);
        // Across pops: Seattle(0)-Sunnyvale(1) adjacent -> 2 + 1 + 2.
        assert_eq!(net.distance(a, net.leaf(1, 0)), 5);
        // Symmetry.
        assert_eq!(
            net.distance(net.leaf(1, 0), a),
            net.distance(a, net.leaf(1, 0))
        );
    }

    #[test]
    fn sp_path_nodes_structure() {
        let net = tiny();
        let leaf = net.leaf(0, 2);
        let mut path = Vec::new();
        // Seattle(0) -> New York(10): core distance is > 1.
        net.sp_path_nodes_into(leaf, 10, &mut path);
        assert_eq!(path[0], leaf);
        assert_eq!(path[1], net.parent(leaf).unwrap());
        assert_eq!(path[2], net.pop_root(0));
        assert_eq!(*path.last().unwrap(), net.pop_root(10));
        // Path length = leaf level + core distance + 1 nodes.
        assert_eq!(
            path.len() as u32,
            net.level_of(leaf) + net.core_distance(0, 10) + 1
        );
        // Same-pop origin: just the climb.
        net.sp_path_nodes_into(leaf, 0, &mut path);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn path_links_count_matches_distance() {
        let net = tiny();
        let mut links = Vec::new();
        let cases = [
            (net.leaf(0, 0), net.leaf(0, 3)),
            (net.leaf(0, 0), net.pop_root(0)),
            (net.leaf(2, 1), net.leaf(9, 2)),
            (net.pop_root(4), net.pop_root(5)),
            (net.leaf(7, 0), net.node(7, 2)),
        ];
        for (a, b) in cases {
            net.path_links_into(a, b, &mut links);
            assert_eq!(
                links.len() as u32,
                net.distance(a, b),
                "link path length != distance for {a}->{b}"
            );
            // No duplicate links on a simple path.
            let mut sorted = links.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), links.len());
            links.clear();
        }
    }

    #[test]
    fn path_nodes_consistent_with_distance() {
        let net = tiny();
        let mut nodes = Vec::new();
        let cases = [
            (net.leaf(0, 0), net.leaf(0, 3)),  // same pop, across root
            (net.leaf(0, 0), net.leaf(0, 1)),  // siblings
            (net.leaf(0, 0), net.node(0, 1)),  // ancestor
            (net.node(0, 1), net.leaf(0, 0)),  // descendant
            (net.leaf(2, 1), net.leaf(9, 2)),  // cross pop
            (net.pop_root(4), net.leaf(5, 0)), // root to remote leaf
            (net.leaf(3, 2), net.leaf(3, 2)),  // self
        ];
        for (a, b) in cases {
            nodes.clear();
            net.path_nodes_into(a, b, &mut nodes);
            assert_eq!(*nodes.first().unwrap(), a);
            assert_eq!(*nodes.last().unwrap(), b);
            assert_eq!(
                nodes.len() as u32,
                net.distance(a, b) + 1,
                "node path {a}->{b}: {nodes:?}"
            );
            // Consecutive nodes are exactly one hop apart.
            for w in nodes.windows(2) {
                assert_eq!(
                    net.distance(w[0], w[1]),
                    1,
                    "non-adjacent step in {nodes:?}"
                );
            }
        }
    }

    #[test]
    fn zero_length_path() {
        let net = tiny();
        let mut links = vec![99];
        net.path_links_into(net.leaf(0, 0), net.leaf(0, 0), &mut links);
        assert_eq!(links, vec![99], "appends nothing for a==b");
    }

    #[test]
    fn link_ids_are_unique_and_dense() {
        let net = tiny();
        let mut seen = vec![false; net.link_count() as usize];
        for p in 0..net.pops() {
            for t in 1..net.nodes_per_pop() {
                let id = net.tree_link(net.node(p, t)) as usize;
                assert!(!seen[id]);
                seen[id] = true;
            }
        }
        for &(a, b) in net.core.edges() {
            let id = net.core_link(a, b) as usize;
            assert!(!seen[id]);
            seen[id] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn core_hop_enumeration_endpoints() {
        let net = tiny();
        let mut hops = Vec::new();
        net.for_each_core_hop(0, 10, |p| hops.push(p));
        assert_eq!(*hops.first().unwrap(), 0);
        assert_eq!(*hops.last().unwrap(), 10);
        assert_eq!(hops.len() as u32, net.core_distance(0, 10) + 1);
        // Consecutive hops are adjacent in the core.
        for w in hops.windows(2) {
            assert!(net.core.neighbors(w[0]).contains(&w[1]));
        }
        // Degenerate path.
        hops.clear();
        net.for_each_core_hop(4, 4, |p| hops.push(p));
        assert_eq!(hops, vec![4]);
    }
}
