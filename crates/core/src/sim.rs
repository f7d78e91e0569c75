//! The sequential simulator: the request kernel ([`crate::kernel`]) over
//! a world where every router's cache and the whole replica directory are
//! live, so request `i + 1` observes everything request `i` wrote.
//!
//! Its directory is the dense [`ReplicaDir`] at any tree width, and its
//! response-path insert is one [`CacheSlot::store`] call, which answers
//! "was it here, is it here now, what left" together, so the directory
//! follows the cache without re-probing it.

use crate::config::ExperimentConfig;
use crate::design::DesignSpec;
use crate::dir::ReplicaDir;
use crate::instrument::SimObs;
use crate::kernel::{Env, Kernel, World, RNG_SEED};
use crate::metrics::RunMetrics;
use icn_cache::budget::per_node_budgets;
use icn_cache::CacheSlot;
use icn_topology::{Network, NodeId};
use icn_workload::trace::Request;
use std::ops::Range;

/// The sequential engine's [`World`]: it owns every router, indexes
/// caches by global `NodeId`, and applies every effect in place.
pub(crate) struct LiveWorld {
    caches: Vec<CacheSlot>,
    /// The dense replica directory ([`crate::dir`]): which routers hold
    /// each object. `None` under shortest-path routing, which never
    /// consults one.
    dir: Option<ReplicaDir>,
}

impl LiveWorld {
    fn dir_insert(&mut self, env: &Env, node: NodeId, object: u32) {
        if let Some(dir) = &mut self.dir {
            let (p, r) = env.pop_rank(node);
            dir.insert(object, p, r);
        }
    }

    fn dir_remove(&mut self, env: &Env, node: NodeId, object: u32) {
        if let Some(dir) = &mut self.dir {
            let (p, r) = env.pop_rank(node);
            dir.remove(object, p, r);
        }
    }
}

impl World for LiveWorld {
    #[inline]
    fn owned(&self, env: &Env) -> Range<NodeId> {
        0..env.net.node_count()
    }

    #[inline]
    fn contains(&self, _env: &Env, node: NodeId, object: u32) -> bool {
        self.caches[node as usize].contains(object as u64)
    }

    #[inline]
    fn touch(&mut self, node: NodeId, object: u32) {
        self.caches[node as usize].touch(object as u64);
    }

    #[inline]
    fn remove(&mut self, env: &Env, node: NodeId, object: u32) {
        if self.caches[node as usize].remove(object as u64) {
            self.dir_remove(env, node, object);
        }
    }

    #[inline]
    fn store(&mut self, env: &Env, idx: u64, node: NodeId, object: u32) -> bool {
        let s = self.caches[node as usize].store(object as u64, idx);
        if let Some(e) = s.evicted {
            self.dir_remove(env, node, e as u32);
        }
        if !s.had && s.resident {
            self.dir_insert(env, node, object);
        }
        s.resident
    }

    #[inline]
    fn expire(&mut self, env: &Env, node: NodeId, object: u32, stamp: u64) {
        if self.caches[node as usize].expire(object as u64, stamp) {
            self.dir_remove(env, node, object);
        }
    }

    fn flush(&mut self, env: &Env, node: NodeId) {
        let cache = &mut self.caches[node as usize];
        if let Some(dir) = &mut self.dir {
            if !cache.is_empty() {
                let (p, r) = env.pop_rank(node);
                dir.clear_holder(p, r);
            }
        }
        cache.clear();
    }

    #[inline]
    fn nearest(&self, env: &Env, leaf: NodeId, object: u32) -> Option<(f64, NodeId)> {
        let dir = self.dir.as_ref()?;
        dir.nearest(&env.costs.from(leaf), object)
    }

    fn extend_cands(
        &self,
        env: &Env,
        object: u32,
        leaf: NodeId,
        max_cost: f64,
        costs_out: &mut Vec<f64>,
        nodes_out: &mut Vec<NodeId>,
    ) {
        if let Some(dir) = &self.dir {
            dir.extend_cands(
                &env.costs.from(leaf),
                object,
                max_cost,
                costs_out,
                nodes_out,
            );
        }
    }

    #[cfg(test)]
    fn for_each_replica(&self, env: &Env, object: u32, mut f: impl FnMut(NodeId)) {
        if let Some(dir) = &self.dir {
            dir.for_each(object, |p, r| f(env.node_at(p, r)));
        }
    }
}

/// A configured simulator bound to a network, an origin map, and object
/// sizes. Feed it a request stream with [`Simulator::run`].
pub struct Simulator<'a> {
    env: Env<'a>,
    kernel: Kernel<LiveWorld>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator. `origins[object]` is the owning PoP;
    /// `object_sizes[object]` is used when `cfg.weight_by_size` is set.
    pub fn new(
        net: &'a Network,
        cfg: ExperimentConfig,
        origins: &'a [u16],
        object_sizes: &'a [u32],
    ) -> Self {
        let env = Env::new(net, cfg, origins, object_sizes);
        let budgets = per_node_budgets(
            env.cfg.budget_policy,
            env.cfg.f_fraction,
            origins.len() as u64,
            &net.core.populations,
            net.nodes_per_pop(),
        );
        let caches = env.build_slots(&budgets, 0..net.node_count());
        let ttl_len = caches.iter().find_map(CacheSlot::ttl);
        let world = LiveWorld {
            caches,
            dir: env
                .tracks_replicas()
                .then(|| ReplicaDir::new(origins.len(), net.pops(), net.tree.nodes())),
        };
        Self {
            kernel: Kernel::new(&env, world, ttl_len, RNG_SEED),
            env,
        }
    }

    /// The routers currently holding `object` per the nearest-replica
    /// directory, ascending by `NodeId`.
    #[cfg(test)]
    fn replicas_of(&self, object: u32) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        self.kernel
            .world
            .for_each_replica(&self.env, object, |n| nodes.push(n));
        nodes.sort_unstable();
        nodes
    }

    /// Attaches instrumentation; subsequent [`Simulator::run`] calls report
    /// through it. See [`crate::instrument::SimObs`].
    pub fn attach_obs(&mut self, obs: SimObs) {
        self.kernel.obs = Some(obs);
    }

    /// Processes a request stream and returns the accumulated metrics.
    pub fn run(&mut self, requests: &[Request]) -> &RunMetrics {
        self.run_streamed(requests.iter().copied())
    }

    /// Processes requests straight off an iterator — the whole trace never
    /// needs to exist in memory. Driving this with
    /// [`TraceIter`](icn_workload::trace::TraceIter) runs a synthesized
    /// workload in O(locality-window) memory instead of O(trace), and is
    /// bit-identical to materializing the same iterator into a `Vec` and
    /// calling [`Simulator::run`] (asserted in `tests/determinism.rs`).
    pub fn run_streamed<I>(&mut self, requests: I) -> &RunMetrics
    where
        I: IntoIterator<Item = Request>,
    {
        for (idx, req) in (0u64..).zip(requests) {
            self.kernel.process(&self.env, idx, &req);
        }
        &self.kernel.metrics
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.kernel.metrics
    }

    /// The resolved design knobs.
    pub fn spec(&self) -> &DesignSpec {
        &self.env.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;
    use crate::kernel::invariant;
    use icn_topology::{pop::PopGraph, AccessTree};
    use icn_workload::trace::Request;

    /// Two PoPs joined by one core link, binary trees of depth 2:
    /// 7 routers per pop, leaves at tree indices 3..=6.
    fn two_pop_net() -> Network {
        let core = PopGraph::new(
            "pair",
            vec!["A".into(), "B".into()],
            vec![1_000, 1_000],
            vec![(0, 1)],
        );
        Network::new(core, AccessTree::new(2, 2))
    }

    fn req(pop: u16, leaf: u16, object: u32) -> Request {
        Request { pop, leaf, object }
    }

    /// All objects owned by pop 1 ("B"), unit sizes.
    fn sim_with<'a>(
        net: &'a Network,
        design: DesignKind,
        origins: &'a [u16],
        sizes: &'a [u32],
    ) -> Simulator<'a> {
        let mut cfg = ExperimentConfig::baseline(design);
        // Plenty of budget so tests control hits explicitly.
        cfg.f_fraction = 0.5;
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        Simulator::new(net, cfg, origins, sizes)
    }

    #[test]
    fn nocache_latency_is_distance_plus_one() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::NoCache, &origins, &sizes);
        // Leaf 0 of pop 0 to origin root of pop 1: 2 (climb) + 1 (core) = 3
        // links, latency 4.
        let m = sim.run(&[req(0, 0, 0)]);
        assert_eq!(m.total_latency, 4.0);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.origin_served[1], 1);
        // Congestion: exactly the three links on the path carry 1 transfer.
        assert_eq!(m.link_transfers.iter().sum::<u64>(), 3);
        assert_eq!(m.max_congestion(), 1);
    }

    #[test]
    fn edge_caches_at_leaf_after_first_request() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::Edge, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        // First: miss -> origin (latency 4); second: leaf hit (latency 1).
        assert_eq!(m.total_latency, 5.0);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.hits_by_level[2], 1);
    }

    #[test]
    fn edge_does_not_use_interior_caches() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::Edge, &origins, &sizes);
        // Same object from two different leaves of pop 0: both go to
        // origin (no interior caching, no cooperation).
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.origin_hits, 2);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn edge_coop_serves_from_sibling() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::EdgeCoop, &origins, &sizes);
        // Leaf 0 warms its cache; leaf 1 is its sibling (same parent).
        let m = sim.run(&[req(0, 0, 0), req(0, 1, 0)]);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.coop_hits, 1);
        // Sibling serve: 2 links + serving hop = 3; total 4 + 3.
        assert_eq!(m.total_latency, 7.0);
        // Non-sibling leaf 2 cannot cooperate with leaf 0.
        let mut sim2 = sim_with(&net, DesignKind::EdgeCoop, &origins, &sizes);
        let m2 = sim2.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m2.coop_hits, 0);
        assert_eq!(m2.origin_hits, 2);
    }

    #[test]
    fn icn_sp_hits_on_path_interior_cache() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnSp, &origins, &sizes);
        // Leaf 0 (tree index 3) warms every router on its path.
        // Leaf 2 (tree index 5) shares only the pop root with that path:
        // expect a hit at the root, latency 2 + 1.
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
        assert_eq!(m.hits_by_level[0], 1);
    }

    #[test]
    fn icn_nr_finds_cross_tree_replica() {
        let net = two_pop_net();
        // Object 0 owned by pop 1; both requests from pop 0.
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        // First request from leaf 0 warms the whole path including pop 0's
        // root and the leaf. Second request from leaf 2 (different subtree):
        // nearest replica is pop 0's root at distance 2 (vs origin at 3).
        let m = sim.run(&[req(0, 0, 0), req(0, 2, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
    }

    #[test]
    fn icn_nr_prefers_closer_replica_over_origin() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        // Warm leaf 0's sibling subtree: request from leaf 1 (tree index 4,
        // sibling of leaf 0). NR then serves leaf 0's request from the
        // shared parent at distance 1 (latency 2).
        let m = sim.run(&[req(0, 1, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 2.0);
    }

    #[test]
    fn origin_pop_requests_are_cheap() {
        let net = two_pop_net();
        let origins = vec![0u16; 4]; // owned by pop 0
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::NoCache, &origins, &sizes);
        // Leaf 0 of pop 0 to its own root: 2 links, latency 3.
        let m = sim.run(&[req(0, 0, 0)]);
        assert_eq!(m.total_latency, 3.0);
        assert_eq!(m.origin_served[0], 1);
    }

    #[test]
    fn origin_root_does_not_cache_own_objects() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut sim = sim_with(&net, DesignKind::IcnNr, &origins, &sizes);
        sim.run(&[req(1, 0, 0)]);
        // The origin root (pop 1, tree index 0) must not appear in the
        // replica directory for its own object.
        let root = net.pop_root(1);
        assert!(!sim.replicas_of(0).contains(&root));
        // But the leaf of pop 1 does cache it.
        assert!(sim.replicas_of(0).contains(&net.leaf(1, 0)));
    }

    #[test]
    fn replica_directory_tracks_evictions() {
        let net = two_pop_net();
        let origins = vec![1u16; 10];
        let sizes = vec![1u32; 10];
        let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.1; // capacity 1 per cache
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        sim.run(&[req(0, 0, 0), req(0, 0, 1)]);
        let leaf = net.leaf(0, 0);
        // Object 0 was evicted from the leaf by object 1.
        assert!(!sim.replicas_of(0).contains(&leaf));
        assert!(sim.replicas_of(1).contains(&leaf));
    }

    #[test]
    fn infinite_budget_never_evicts() {
        let net = two_pop_net();
        let origins: Vec<u16> = vec![1; 50];
        let sizes = vec![1u32; 50];
        let mut sim = sim_with(&net, DesignKind::InfiniteEdge, &origins, &sizes);
        let reqs: Vec<Request> = (0..50).map(|o| req(0, 0, o)).collect();
        sim.run(&reqs);
        let repeat: Vec<Request> = (0..50).map(|o| req(0, 0, o)).collect();
        let before = sim.metrics().cache_hits;
        sim.run(&repeat);
        assert_eq!(sim.metrics().cache_hits - before, 50, "all repeats hit");
    }

    #[test]
    fn capacity_overload_redirects_to_origin() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        cfg.capacity = Some(crate::capacity::ServingCapacity {
            per_node: 1,
            window: 1000,
        });
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        // Warm the leaf (origin serve), then two hits: only one allowed.
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.origin_hits, 2);
    }

    #[test]
    fn size_weighted_congestion() {
        let net = two_pop_net();
        let origins = vec![1u16; 2];
        let sizes = vec![100u32, 1];
        let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
        cfg.weight_by_size = true;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 1)]);
        // Both requests traverse the same 3 links; weights 100 + 1.
        assert_eq!(m.max_congestion(), 101);
    }

    #[test]
    fn leave_copy_down_inserts_only_below_server() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::IcnSp);
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        cfg.insertion = crate::config::InsertionPolicy::LeaveCopyDown;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        // First request from pop-0 leaf 0: origin (pop 1 root) serves; LCD
        // stores only at the router one hop below the origin — pop 0's
        // root (the core neighbor on the response path).
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        // Second identical request: the leaf still has no copy, so it must
        // climb to pop 0's root (distance 2, latency 3) instead of hitting
        // at the leaf (latency 1 under Everywhere).
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.total_latency, 4.0 + 3.0);
    }

    #[test]
    fn probabilistic_insertion_extremes() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        for (p, expect_hits) in [(0.0, 0u64), (1.0, 1u64)] {
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.insertion = crate::config::InsertionPolicy::Probabilistic { p };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
            assert_eq!(m.cache_hits, expect_hits, "p = {p}");
        }
    }

    /// Every cached object must appear in the nearest-replica directory
    /// at exactly its holders — the invariant lease expiry and crash
    /// flushes both have to preserve.
    fn assert_directory_matches_caches(sim: &Simulator, objects: u32) {
        invariant::assert_directory_matches_caches(&sim.env, &sim.kernel.world, objects);
    }

    #[test]
    fn live_directory_survives_ttl_crashes_and_corruption() {
        // The directory must stay exact under every way a replica can
        // disappear, on a one-word (15-node) and a four-word (255-node)
        // tree.
        for (words, (net, trace, origins)) in [
            (1, invariant::fixture()),
            (4, invariant::wide_tree_fixture()),
        ] {
            for (label, cfg) in invariant::stress_configs(DesignKind::IcnNr) {
                let mut sim = Simulator::new(&net, cfg, &origins, &trace.object_sizes);
                let dir = sim.kernel.world.dir.as_ref();
                assert_eq!(
                    dir.map(ReplicaDir::words_per_group),
                    Some(words),
                    "{label}: words per directory group"
                );
                let m = sim.run(&trace.requests);
                assert!(m.cache_hits > 0, "{label}: fixture never hit a cache");
                assert_directory_matches_caches(&sim, origins.len() as u32);
            }
        }
    }

    mod ttl {
        use super::*;
        use icn_cache::PolicyKind;

        #[test]
        fn leases_expire_and_misses_return() {
            // Edge + 2-tick leases: warm (origin), hit inside the lease,
            // expired miss (origin again, re-warm), hit again.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 2 };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let r = req(0, 0, 0);
            let m = sim.run(&[r, r, r, r]);
            assert_eq!(m.origin_hits, 2, "lease [0, 2) is up at idx 2");
            assert_eq!(m.cache_hits, 2);
        }

        #[test]
        fn expiry_drops_directory_entries() {
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 3 };
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // idx 0 replicates object 0 along the response path (leases
            // end at 3); idx 1–3 keep time moving with another object.
            let m = sim
                .run(&[req(0, 0, 0), req(0, 1, 1), req(0, 1, 1), req(0, 1, 1)])
                .clone();
            assert!(
                sim.replicas_of(0).is_empty(),
                "object 0's leases were due at idx 3"
            );
            assert_directory_matches_caches(&sim, 8);
            // Requests 2 and 3 hit object 1's still-live lease at its leaf.
            assert_eq!(m.cache_hits, 2);
        }

        #[test]
        fn renewal_outlives_the_original_stamp() {
            // Regression for the expiry queue's stamp check: a renewed
            // lease leaves its old queue entry behind, and that stale
            // entry must not expire the renewal when it drains.
            //
            // Capacity gating forces the renewal: with 1 serve per node
            // per window, the leaf's copy is unusable at idx 2, a farther
            // replica serves, and the response re-inserts at the leaf —
            // renewing its lease to [2, 12) while (10, leaf, 0) is still
            // queued.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.f_fraction = 0.5;
            cfg.policy = PolicyKind::Ttl { ttl: 10 };
            cfg.capacity = Some(crate::capacity::ServingCapacity {
                per_node: 1,
                window: 1_000,
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let mut reqs = vec![req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)];
            // Filler requests push logical time to idx 10, draining the
            // stamp-10 entries (object 0's original leases).
            reqs.extend((3..=10).map(|_| req(0, 3, 1)));
            sim.run(&reqs);
            let leaf = net.leaf(0, 0);
            assert_eq!(
                sim.replicas_of(0),
                vec![leaf],
                "only the renewed leaf lease survives the stamp-10 drain"
            );
            assert_directory_matches_caches(&sim, 4);
        }
    }

    mod faults {
        use super::*;
        use crate::capacity::ServingCapacity;
        use crate::fault::{FaultConfig, FaultSchedule};

        fn link_only(seed: u64, rate: f64, window: u32) -> FaultConfig {
            FaultConfig {
                window,
                link_failure_rate: rate,
                ..FaultConfig::zero(seed)
            }
        }

        /// Deterministic seed search: the first seed whose schedule keeps
        /// every link up in windows `healthy` and cuts exactly the
        /// pop0–pop1 core link in windows `cut`. Purely a function of the
        /// schedule hash, so the found seed is stable across runs,
        /// processes, and worker counts.
        fn seed_with_core_cut(
            net: &Network,
            cfg_of: impl Fn(u64) -> FaultConfig,
            healthy: &[u64],
            cut: &[u64],
        ) -> u64 {
            let core = net.core_link(0, 1);
            (0..1_000_000u64)
                .find(|&seed| {
                    let s = FaultSchedule::new(cfg_of(seed));
                    healthy
                        .iter()
                        .all(|&w| (0..net.link_count()).all(|l| !s.link_down(l, w)))
                        && cut.iter().all(|&w| {
                            (0..net.link_count()).all(|l| s.link_down(l, w) == (l == core))
                        })
                })
                .expect("no seed with the wanted core-cut pattern in 1M tries")
        }

        #[test]
        fn zero_schedule_is_bit_identical_to_no_fault_run() {
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let reqs: Vec<Request> = (0..200).map(|i| req(0, (i % 4) as u16, i % 8)).collect();
            for design in [
                DesignKind::Edge,
                DesignKind::EdgeCoop,
                DesignKind::IcnSp,
                DesignKind::IcnNr,
            ] {
                let mut plain = sim_with(&net, design, &origins, &sizes);
                let base = plain.run(&reqs).clone();
                let mut cfg = ExperimentConfig::baseline(design);
                cfg.f_fraction = 0.5;
                cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
                cfg.fault = Some(FaultConfig::zero(0xdead_beef));
                let mut faulted = Simulator::new(&net, cfg, &origins, &sizes);
                let m = faulted.run(&reqs).clone();
                assert_eq!(base, m, "{design:?}: zero schedule perturbed the run");
                assert_eq!(m.failed_requests, 0);
                assert_eq!(m.availability_pct(), 100.0);
                assert_eq!(m.fault_latency_hist.count(), 0);
            }
        }

        #[test]
        fn total_link_failure_fails_every_cross_pop_request() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(link_only(7, 1.0, 1_000));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 1, 1), req(1, 0, 2)]);
            assert_eq!(m.requests, 3);
            assert_eq!(m.failed_requests, 3, "origin unreachable behind dead links");
            assert_eq!(m.availability_pct(), 0.0);
            assert_eq!(m.total_latency, 0.0, "failed requests add no latency");
            assert_eq!(m.link_transfers.iter().sum::<u64>(), 0);
            assert_eq!(m.served(), 0);
        }

        #[test]
        fn edge_cache_masks_an_origin_partition() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            // Requests 0 / 1 / 2 land in windows 0 / 1 / 2 (window = 1).
            let seed = seed_with_core_cut(&net, |s| link_only(s, 0.1, 1), &[0], &[1, 2]);
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(link_only(seed, 0.1, 1));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // Window 0 (healthy): origin serve warms the leaf. Windows 1–2
            // (core cut): the cached object still serves locally, while an
            // uncached object fails — graceful degradation, not collapse.
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 1)]);
            assert_eq!(m.cache_hits, 1, "cached object survives the partition");
            assert_eq!(m.origin_hits, 1);
            assert_eq!(m.failed_requests, 1, "uncached object cannot reach origin");
            assert_eq!(
                m.fault_latency_hist.count(),
                1,
                "the window-1 leaf hit lands in the under-failure histogram"
            );
        }

        #[test]
        fn nr_falls_back_to_a_farther_live_replica_when_origin_is_cut() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            // Window length 4: warm-up requests 0..4 share healthy window
            // 0; the probe request (index 4) lands in window 1 with the
            // core link cut.
            let seed = seed_with_core_cut(&net, |s| link_only(s, 0.1, 4), &[0], &[1]);
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5; // Uniform budget: 2 objects per cache
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(link_only(seed, 0.1, 4));
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            // Warm-up engineers a world where the ONLY replica of object 0
            // is leaf (0,2): leaf (0,2) fetches it, then leaf (0,3)'s
            // fetches of objects 1..=3 evict object 0 from the shared
            // interior caches (capacity 2, LRU) but not from leaf (0,2).
            // From leaf (0,0), that replica costs 4 — farther than the
            // origin at cost 3, so fault-free ICN-NR would pick the
            // origin. With the core cut, it must fall back to the farther
            // live replica instead of failing.
            let m = sim
                .run(&[
                    req(0, 2, 0),
                    req(0, 3, 1),
                    req(0, 3, 2),
                    req(0, 3, 3),
                    req(0, 0, 0),
                ])
                .clone();
            assert_eq!(m.requests, 5);
            assert_eq!(m.failed_requests, 0, "a live replica exists");
            assert_eq!(m.origin_hits, 4, "the probe must not reach the origin");
            assert_eq!(m.cache_hits, 1, "served by the leaf (0,2) replica");
            // 4 warm serves at latency 4 + the detour serve at cost 4 + 1.
            assert_eq!(m.total_latency, 4.0 * 4.0 + 5.0);

            // Control: the identical request sequence without faults picks
            // the origin for the probe (cost 3 beats the replica's 4).
            let mut plain_cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            plain_cfg.f_fraction = 0.5;
            plain_cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            let mut plain = Simulator::new(&net, plain_cfg, &origins, &sizes);
            let p = plain
                .run(&[
                    req(0, 2, 0),
                    req(0, 3, 1),
                    req(0, 3, 2),
                    req(0, 3, 3),
                    req(0, 0, 0),
                ])
                .clone();
            assert_eq!(p.origin_hits, 5, "fault-free NR prefers the origin");
            assert_eq!(p.total_latency, 4.0 * 4.0 + 4.0);
        }

        #[test]
        fn permanently_crashed_caches_never_serve_or_store() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 1.0,
                ..FaultConfig::zero(3)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)]);
            assert_eq!(m.cache_hits, 0, "a crashed cache cannot serve");
            assert_eq!(m.origin_hits, 3, "links are healthy: origin still serves");
            assert_eq!(m.failed_requests, 0);
        }

        #[test]
        fn crashed_nodes_leave_the_replica_directory() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 1.0,
                ..FaultConfig::zero(3)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
            assert!(
                sim.replicas_of(0).is_empty(),
                "crashed nodes must not advertise replicas: {:?}",
                sim.replicas_of(0)
            );
        }

        #[test]
        fn crash_flushes_are_safe_under_ttl_leases() {
            // A crash flush empties caches while the expiry queue still
            // holds their lease stamps; those entries must drain as
            // no-ops, and post-crash re-insertions (new stamps) must not
            // be expired by them. The directory stays exact throughout.
            let net = two_pop_net();
            let origins = vec![1u16; 8];
            let sizes = vec![1u32; 8];
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.policy = icn_cache::PolicyKind::Ttl { ttl: 9 };
            cfg.fault = Some(FaultConfig {
                node_crash_rate: 0.3,
                window: 40,
                ..FaultConfig::zero(5)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let reqs: Vec<Request> = (0..400u64)
                .map(|i| req((i % 2) as u16, (i % 4) as u16, (i * 3 % 8) as u32))
                .collect();
            let m = sim.run(&reqs).clone();
            assert_eq!(m.requests, 400);
            assert_directory_matches_caches(&sim, 8);
        }

        #[test]
        fn corruption_is_served_by_edge_but_detected_by_icn() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let corrupt = FaultConfig {
                corruption_rate: 1.0,
                ..FaultConfig::zero(23)
            };
            // EDGE cannot verify: the poisoned leaf copy is delivered.
            let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut edge = Simulator::new(&net, cfg, &origins, &sizes);
            let e = edge.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(e.cache_hits, 1, "EDGE still counts the (poisoned) hit");
            assert_eq!(e.corrupt_served, 1);
            assert_eq!(e.corrupt_detected, 0);
            assert_eq!(e.availability_pct(), 100.0, "reachability is unharmed");
            assert_eq!(
                e.correct_availability_pct(),
                50.0,
                "but one serve was poison"
            );

            // ICN-NR self-certifies: every poisoned replica on the path is
            // caught, evicted, and charged as a wasted round trip; the
            // origin delivers the authentic copy.
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut icn = Simulator::new(&net, cfg, &origins, &sizes);
            let m = icn.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(
                m.corrupt_served, 0,
                "self-certification never serves poison"
            );
            assert_eq!(
                m.corrupt_detected, 3,
                "leaf, interior, and pop-root replicas all caught"
            );
            assert_eq!(m.origin_hits, 2, "the clean copy comes from the origin");
            assert_eq!(m.correct_availability_pct(), 100.0);
            // Warm serve at 4; retry serve = origin (3 + 1) + wasted
            // fetches at the leaf (0 + 1), interior (1 + 1), root (2 + 1).
            assert_eq!(m.total_latency, 4.0 + 10.0);
            assert_directory_matches_caches(&icn, 4);
        }

        #[test]
        fn detected_corruption_in_sp_walk_retries_upstream() {
            // ICN-SP with a poisoned leaf copy: the walk discards it and
            // the next on-path copy (or origin) serves, charged the wasted
            // fetch.
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let corrupt = FaultConfig {
                corruption_rate: 1.0,
                ..FaultConfig::zero(29)
            };
            let mut cfg = ExperimentConfig::baseline(DesignKind::IcnSp);
            cfg.f_fraction = 0.5;
            cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
            cfg.fault = Some(corrupt);
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]).clone();
            assert_eq!(m.corrupt_served, 0);
            assert_eq!(m.corrupt_detected, 3, "all three on-path copies caught");
            assert_eq!(m.origin_hits, 2);
            // Warm 4; retry = origin 4 + wasted fetches at costs 0/1/2 + 1.
            assert_eq!(m.total_latency, 4.0 + 10.0);
        }

        #[test]
        fn degraded_origin_saturates_and_fails_overflow() {
            let net = two_pop_net();
            let origins = vec![1u16; 4];
            let sizes = vec![1u32; 4];
            let mut cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            cfg.fault = Some(FaultConfig {
                origin_degraded_rate: 1.0,
                degraded_origin: ServingCapacity {
                    per_node: 1,
                    window: 1_000,
                },
                ..FaultConfig::zero(11)
            });
            let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
            let m = sim.run(&[req(0, 0, 0), req(0, 1, 0), req(0, 2, 0)]);
            assert_eq!(m.origin_hits, 1, "degraded origin serves one per window");
            assert_eq!(m.failed_requests, 2);
            assert!((m.availability_pct() - 100.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lfu_policy_also_works() {
        let net = two_pop_net();
        let origins = vec![1u16; 4];
        let sizes = vec![1u32; 4];
        let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
        cfg.policy = icn_cache::policy::PolicyKind::Lfu;
        cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
        cfg.f_fraction = 0.5;
        let mut sim = Simulator::new(&net, cfg, &origins, &sizes);
        let m = sim.run(&[req(0, 0, 0), req(0, 0, 0)]);
        assert_eq!(m.cache_hits, 1);
    }
}
