//! The external oracle: a second, deliberately naive implementation of the
//! §4.1 request rules, which the real kernel must equal in every
//! [`RunMetrics`] field (latency bits and both histograms included).
//!
//! It shares nothing with the engine it judges — no `CostTable`, replica
//! directory, `CacheSlot`, `FaultState` or scratch buffer. A cache is a
//! `Vec` in eviction order; "who holds this object" is a scan over every
//! cache; a path cost is a [`LatencyModel::path_cost`] climb; candidates
//! are gathered, sorted by `(cost, NodeId)` and probed in order; fault
//! state is asked of the pure [`FaultSchedule`] at every use; capacity is a
//! `HashMap` keyed by `(window, node)`. Readable before fast.
//!
//! Probabilistic insertion draws the kernel's coins in the kernel's order:
//! one `StdRng` seeded with the simulator's fixed seed, one draw per
//! cache-equipped router on the response path.
//!
//! Not modelled (the oracle panics): the Prob-admission and TinyLFU cache
//! policies.
//! `tests/shard_determinism.rs` includes this file as a module, to judge
//! the lane world by the same implementation.

#![expect(
    clippy::disallowed_types,
    reason = "the capacity map is keyed lookup only; readable before fast"
)]

use icn_cache::budget::{per_node_budgets, BudgetPolicy};
use icn_cache::PolicyKind;
use icn_core::capacity::ServingCapacity;
use icn_core::config::{ExperimentConfig, InsertionPolicy};
use icn_core::design::{DesignKind, DesignSpec, Routing};
use icn_core::fault::{FaultConfig, FaultSchedule};
use icn_core::latency::LatencyModel;
use icn_core::metrics::RunMetrics;
use icn_core::Simulator;
use icn_topology::{pop, AccessTree, Network, NodeId, PopGraph};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::sizes::SizeModel;
use icn_workload::trace::{Locality, Region, Request, Trace, TraceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The seed of the simulator's insertion coins.
const COIN_SEED: u64 = 0xd1ce_cafe;

/// The replacement policies the oracle models.
#[derive(Clone, Copy, PartialEq)]
enum Policy {
    Lru,
    /// Least-frequently used; among equal counts, least recently used.
    Lfu,
    /// Insertion order; hits and re-inserts change nothing.
    Fifo,
    /// Fixed-term leases of this many requests.
    Ttl(u64),
}

/// One router's cache: a plain `Vec` in eviction order, next victim first.
struct Cache {
    cap: usize,
    policy: Policy,
    /// `(object, tag)`: the tag is the lease end under TTL and the use
    /// count under LFU, unused otherwise.
    held: Vec<(u32, u64)>,
}

impl Cache {
    fn position(&self, object: u32) -> Option<usize> {
        self.held.iter().position(|&(o, _)| o == object)
    }

    fn contains(&self, object: u32) -> bool {
        self.position(object).is_some()
    }

    fn remove(&mut self, object: u32) {
        self.held.retain(|&(o, _)| o != object);
    }

    /// Places `object` with use count `uses` behind every entry used as
    /// often or less: it is the most recent of its count.
    fn place_lfu(&mut self, object: u32, uses: u64) {
        let at = self.held.iter().position(|&(_, u)| u > uses);
        self.held
            .insert(at.unwrap_or(self.held.len()), (object, uses));
    }

    /// A hit: LRU moves the object to the young end, LFU counts a use;
    /// FIFO order and TTL leases are fixed, so a hit changes nothing.
    fn touch(&mut self, object: u32) {
        let Some(i) = self.position(object) else {
            return;
        };
        match self.policy {
            Policy::Lru => {
                let entry = self.held.remove(i);
                self.held.push(entry);
            }
            Policy::Lfu => {
                let (_, uses) = self.held.remove(i);
                self.place_lfu(object, uses + 1);
            }
            Policy::Fifo | Policy::Ttl(_) => {}
        }
    }

    /// Stores `object` at time `now`. A present object counts as a hit,
    /// except that a TTL lease is renewed; a full cache evicts its next
    /// victim.
    fn insert(&mut self, object: u32, now: u64) {
        if self.cap == 0 {
            return;
        }
        if self.contains(object) {
            match self.policy {
                Policy::Ttl(ttl) => {
                    self.remove(object);
                    self.held.push((object, now + ttl));
                }
                _ => self.touch(object),
            }
            return;
        }
        if self.held.len() == self.cap {
            self.held.remove(0);
        }
        match self.policy {
            Policy::Lfu => self.place_lfu(object, 1),
            Policy::Ttl(ttl) => self.held.push((object, now + ttl)),
            Policy::Lru | Policy::Fifo => self.held.push((object, 0)),
        }
    }
}

/// How one request was answered.
struct Served {
    /// The serving cache; `None` is the origin.
    cache: Option<NodeId>,
    /// Reached by a sibling lookup rather than on the request path.
    coop: bool,
    /// Corrupted bytes were delivered (the design cannot tell).
    poisoned: bool,
    latency: f64,
    /// Links the object crosses on its way back.
    links: Vec<u32>,
    /// Routers the response passes after leaving the server, in order.
    response: Vec<NodeId>,
}

struct Oracle<'a> {
    net: &'a Network,
    cfg: ExperimentConfig,
    spec: DesignSpec,
    origins: &'a [u16],
    sizes: &'a [u32],
    /// One per router; capacity 0 where the design equips none.
    caches: Vec<Cache>,
    equipped: Vec<bool>,
    schedule: Option<FaultSchedule>,
    /// The request being processed: its index, its fault window, and the
    /// latency it has wasted so far on copies discarded as corrupt.
    now: u64,
    window: u64,
    penalty: f64,
    /// Serves so far per `(capacity window, cache)`, and per `(capacity
    /// window, degraded origin PoP)`.
    served: HashMap<(u64, u32), u32>,
    origin_served: HashMap<(u64, u32), u32>,
    /// Probabilistic insertion's coins.
    coins: StdRng,
    metrics: RunMetrics,
}

/// Counts one serve by `who` against `cap`; false when its window is full.
fn admit(served: &mut HashMap<(u64, u32), u32>, cap: ServingCapacity, who: u32, idx: u64) -> bool {
    let count = served.entry((idx / cap.window as u64, who)).or_insert(0);
    let free = *count < cap.per_node;
    *count += free as u32;
    free
}

fn links(net: &Network, a: NodeId, b: NodeId) -> Vec<u32> {
    let mut out = Vec::new();
    net.path_links_into(a, b, &mut out);
    out
}

impl<'a> Oracle<'a> {
    fn new(net: &'a Network, cfg: ExperimentConfig, origins: &'a [u16], sizes: &'a [u32]) -> Self {
        let spec = cfg.design.spec(net);
        let policy = match cfg.policy {
            PolicyKind::Lru => Policy::Lru,
            PolicyKind::Lfu => Policy::Lfu,
            PolicyKind::Fifo => Policy::Fifo,
            PolicyKind::Ttl { ttl } => Policy::Ttl(ttl as u64),
            other => panic!("the oracle does not model {other:?} caches"),
        };
        let budgets = per_node_budgets(
            cfg.budget_policy,
            cfg.f_fraction,
            origins.len() as u64,
            &net.core.populations,
            net.nodes_per_pop(),
        );
        let equipped: Vec<bool> = (0..net.node_count())
            .map(|n| spec.cache_set.has_cache(net, n))
            .collect();
        let capacity = |n: usize| match (equipped[n], spec.infinite_budget) {
            (false, _) => 0,
            (true, true) => origins.len(),
            (true, false) => (budgets[n] as f64 * spec.budget_multiplier).round() as usize,
        };
        let caches = (0..equipped.len())
            .map(|n| Cache {
                cap: capacity(n),
                policy,
                held: Vec::new(),
            })
            .collect();
        let (links, pops) = (net.link_count() as usize, net.pops() as usize);
        Self {
            net,
            spec,
            origins,
            sizes,
            caches,
            equipped,
            schedule: cfg.fault.map(FaultSchedule::new),
            now: 0,
            window: 0,
            penalty: 0.0,
            served: HashMap::new(),
            origin_served: HashMap::new(),
            coins: StdRng::seed_from_u64(COIN_SEED),
            metrics: RunMetrics::new(links, pops, net.tree.depth),
            cfg,
        }
    }

    fn cost(&self, a: NodeId, b: NodeId) -> f64 {
        self.cfg.latency.path_cost(self.net, a, b)
    }

    /// Asks the fault schedule, if any, about the current window.
    fn fault(&self, ask: impl Fn(&FaultSchedule, u64) -> bool) -> bool {
        self.schedule.as_ref().is_some_and(|s| ask(s, self.window))
    }

    fn node_up(&self, n: NodeId) -> bool {
        !self.fault(|s, w| s.node_down(n, w))
    }

    fn link_up(&self, l: u32) -> bool {
        !self.fault(|s, w| s.link_down(l, w))
    }

    fn origin_degraded(&self, p: u32) -> bool {
        self.fault(|s, w| s.origin_degraded(p as u16, w))
    }

    fn path_live(&self, a: NodeId, b: NodeId) -> bool {
        links(self.net, a, b).iter().all(|&l| self.link_up(l))
    }

    /// Any node, link or origin is faulted in the current window.
    fn fault_active(&self) -> bool {
        let net = self.net;
        (0..net.node_count()).any(|n| !self.node_up(n))
            || (0..net.link_count()).any(|l| !self.link_up(l))
            || (0..net.pops()).any(|p| self.origin_degraded(p))
    }

    /// Reserves a serving slot at cache `n` (always free without a model).
    fn admit(&mut self, n: NodeId) -> bool {
        let cap = self.cfg.capacity;
        cap.is_none_or(|cap| admit(&mut self.served, cap, n, self.now))
    }

    /// A healthy origin always serves; a degraded one only within its
    /// reduced capacity.
    fn origin_admits(&mut self, p: u32) -> bool {
        let degraded = self.schedule.as_ref().filter(|_| self.origin_degraded(p));
        let cap = degraded.map(|s| s.config().degraded_origin);
        cap.is_none_or(|cap| admit(&mut self.origin_served, cap, p, self.now))
    }

    /// Asks the copy of `object` at `n` to serve: `Some(poisoned)` when it
    /// does, `None` when `n` is down, holds nothing or is out of capacity —
    /// or when self-certification catches a poisoned copy, which is dropped
    /// and its wasted round trip (`fetch_cost` + the serving hop) charged.
    fn try_copy(&mut self, n: NodeId, object: u32, fetch_cost: f64) -> Option<bool> {
        let holds = self.node_up(n) && self.caches[n as usize].contains(object);
        if !(holds && self.admit(n)) {
            return None;
        }
        let poisoned = self.fault(|s, w| s.replica_corrupted(n, object, w));
        if poisoned && self.spec.self_certifying {
            self.metrics.corrupt_detected += 1;
            self.caches[n as usize].remove(object);
            self.penalty += fetch_cost + 1.0;
            return None;
        }
        Some(poisoned)
    }

    fn request(&mut self, idx: u64, req: &Request) {
        self.metrics.requests += 1;
        (self.now, self.penalty) = (idx, 0.0);
        // A lease [t, t + ttl) is dead once the clock reaches its end.
        for c in self
            .caches
            .iter_mut()
            .filter(|c| matches!(c.policy, Policy::Ttl(_)))
        {
            c.held.retain(|&(_, end)| end > idx);
        }
        // A crash is a cold restart in the first request of its window.
        if let Some(s) = &self.schedule {
            self.window = s.window_of(idx);
            if idx.is_multiple_of(s.config().window as u64) {
                for (n, c) in self.caches.iter_mut().enumerate() {
                    if s.node_crashes(n as u32, self.window) {
                        c.held.clear();
                    }
                }
            }
        }
        let leaf = self.net.leaf(req.pop as u32, req.leaf as u32);
        let origin_pop = self.origins[req.object as usize] as u32;
        let served = match self.spec.routing {
            Routing::ShortestPathToOrigin => self.route_sp(leaf, req.object, origin_pop),
            Routing::NearestReplica => self.route_nr(leaf, req.object, origin_pop),
        };
        match served {
            // Nothing delivered: no latency, no transfers, no copies.
            None => self.metrics.failed_requests += 1,
            Some(s) => self.account(req.object, origin_pop, s),
        }
    }

    /// Walk toward the origin; the first willing cache on the way (or a
    /// sibling of a cooperating one) answers, else the origin.
    fn route_sp(&mut self, leaf: NodeId, object: u32, origin_pop: u32) -> Option<Served> {
        let net = self.net;
        let mut path = Vec::new();
        net.sp_path_nodes_into(leaf, origin_pop, &mut path);
        let last = path.len() - 1;
        let hop = |j: usize| links(net, path[j - 1], path[j])[0];
        // The walk stops in front of the first dead link.
        let reach = (1..=last)
            .find(|&j| !self.link_up(hop(j)))
            .map_or(last, |j| j - 1);
        // `at` = how far the request climbed; a sibling serve detours there.
        let served = |o: &Self, at: usize, sibling: Option<NodeId>, poisoned| {
            let mut links: Vec<u32> = (1..=at).map(hop).collect();
            let mut latency = o.cost(leaf, path[at]) + 1.0 + o.penalty;
            let mut below = at;
            if let Some(sib) = sibling {
                links.extend([net.tree_link(sib), net.tree_link(path[at])]);
                latency += o.cost(path[at], sib);
                below = at + 2; // back through the shared parent
            }
            Served {
                cache: sibling.or((at < last).then_some(path[at])),
                coop: sibling.is_some(),
                poisoned,
                latency,
                links,
                response: path[..below].iter().rev().copied().collect(),
            }
        };
        for (i, &node) in path.iter().enumerate().take(last.min(reach + 1)) {
            if let Some(poisoned) = self.try_copy(node, object, self.cost(leaf, node)) {
                return Some(served(self, i, None, poisoned));
            }
            let cooperates = self.spec.sibling_coop
                && self.equipped[node as usize]
                && self.node_up(node)
                && net.tree_index(node) != 0;
            for sib in net.siblings(node).filter(|_| cooperates) {
                // The detour climbs `node`'s uplink and descends `sib`'s.
                if !(self.link_up(net.tree_link(node)) && self.link_up(net.tree_link(sib))) {
                    continue;
                }
                if let Some(poisoned) = self.try_copy(sib, object, self.cost(leaf, sib)) {
                    return Some(served(self, i, Some(sib), poisoned));
                }
            }
        }
        (reach == last && self.origin_admits(origin_pop)).then(|| served(self, last, None, false))
    }

    /// Serve at the nearest willing holder, or at the origin when it is
    /// reachable and at least as close.
    fn route_nr(&mut self, leaf: NodeId, object: u32, origin_pop: u32) -> Option<Served> {
        let net = self.net;
        if let Some(poisoned) = self.try_copy(leaf, object, 0.0) {
            return Some(Served {
                cache: Some(leaf),
                coop: false,
                poisoned,
                latency: 1.0,
                links: vec![],
                response: vec![],
            });
        }
        let origin_root = net.pop_root(origin_pop);
        let origin_cost = self.cost(leaf, origin_root);
        let origin_reachable = self.path_live(leaf, origin_root);
        // Every other holder, nearest first, ties to the lower NodeId.
        let mut holders: Vec<(f64, NodeId)> = (0..net.node_count())
            .filter(|&n| n != leaf && self.caches[n as usize].contains(object))
            .map(|n| (self.cost(leaf, n), n))
            .collect();
        holders.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut server = None;
        for (cost, node) in holders {
            if origin_reachable && cost >= origin_cost {
                break;
            }
            if !self.path_live(leaf, node) {
                continue;
            }
            if let Some(poisoned) = self.try_copy(node, object, cost) {
                server = Some((cost, node, poisoned));
                break;
            }
        }
        let (cost, node, poisoned) = match server {
            Some(found) => found,
            None if origin_reachable && self.origin_admits(origin_pop) => {
                (origin_cost, origin_root, false)
            }
            None => return None,
        };
        let mut response = Vec::new();
        net.path_nodes_into(node, leaf, &mut response);
        Some(Served {
            cache: server.map(|_| node),
            coop: false,
            poisoned,
            latency: cost + 1.0 + self.penalty,
            links: links(net, leaf, node),
            response: response.split_off(1),
        })
    }

    fn account(&mut self, object: u32, origin_pop: u32, s: Served) {
        let fault_active = self.fault_active();
        let m = &mut self.metrics;
        m.total_latency += s.latency;
        m.record_latency(s.latency);
        if fault_active {
            m.record_fault_latency(s.latency);
        }
        m.corrupt_served += s.poisoned as u64;
        match s.cache {
            Some(n) => {
                m.cache_hits += 1;
                m.coop_hits += s.coop as u64;
                m.hits_by_level[self.net.level_of(n) as usize] += 1;
                self.caches[n as usize].touch(object);
            }
            None => {
                m.origin_hits += 1;
                m.origin_served[origin_pop as usize] += 1;
            }
        }
        let by_size = self.cfg.weight_by_size;
        let weight = if by_size {
            self.sizes[object as usize]
        } else {
            1
        };
        for l in s.links {
            m.link_transfers[l as usize] += weight as u64;
        }
        // Leave-copy-down keeps one copy, at the first cache below the server.
        let mut lcd_free = true;
        for n in s.response {
            let wanted = match self.cfg.insertion {
                InsertionPolicy::Everywhere => true,
                InsertionPolicy::LeaveCopyDown => {
                    self.equipped[n as usize] && std::mem::take(&mut lcd_free)
                }
                InsertionPolicy::Probabilistic { p } => {
                    self.equipped[n as usize] && self.coins.gen::<f64>() < p
                }
            };
            // An origin root never caches what it hosts; a crashed router
            // stores nothing.
            if wanted && n != self.net.pop_root(origin_pop) && self.node_up(n) {
                self.caches[n as usize].insert(object, self.now);
            }
        }
    }
}

/// Runs `requests` through the oracle.
pub fn run(
    net: &Network,
    cfg: &ExperimentConfig,
    origins: &[u16],
    sizes: &[u32],
    requests: &[Request],
) -> RunMetrics {
    let mut oracle = Oracle::new(net, cfg.clone(), origins, sizes);
    for (idx, req) in requests.iter().enumerate() {
        oracle.request(idx as u64, req);
    }
    oracle.metrics
}

/// One named adjustment of a design's baseline configuration.
type Knob = (&'static str, fn(&mut ExperimentConfig));

/// Asserts `Simulator::run == oracle` for every design × knob on a small
/// US trace with heavy-tailed object sizes (so size weighting bites).
fn check(net: &Network, designs: &[DesignKind], knobs: &[Knob]) {
    let mut tc = Region::Us.config(0.005);
    tc.sizes = SizeModel::web_default();
    let trace = Trace::synthesize(tc, &net.core.populations, net.leaves_per_pop());
    let origins = assign_origins(
        OriginPolicy::PopulationProportional,
        trace.config.objects,
        &net.core.populations,
        42,
    );
    for &design in designs {
        for (knob, adjust) in knobs {
            let label = format!("{}/{knob}", design.name());
            let mut cfg = ExperimentConfig::baseline(design);
            adjust(&mut cfg);
            let want = run(net, &cfg, &origins, &trace.object_sizes, &trace.requests);
            let mut sim = Simulator::new(net, cfg, &origins, &trace.object_sizes);
            let got = sim.run(&trace.requests);
            assert!(
                want.cache_hits > 0 || design == DesignKind::NoCache,
                "{label}: the fixture never hit a cache"
            );
            assert_eq!(
                want.total_latency.to_bits(),
                got.total_latency.to_bits(),
                "{label}: latency bits"
            );
            assert_eq!(&want, got, "{label}: RunMetrics");
        }
    }
}

const BASELINE: Knob = ("baseline", |_| {});
const CAPACITY: Knob = ("capacity", |c| {
    c.capacity = Some(ServingCapacity {
        per_node: 3,
        window: 100,
    })
});
const TTL: Knob = ("ttl", |c| c.policy = PolicyKind::Ttl { ttl: 700 });
const FAULTED: Knob = ("faulted+corrupt", |c| {
    let mut fc = FaultConfig::uniform(0xfa17, 0.02);
    fc.corruption_rate = 0.01;
    c.fault = Some(fc);
});

fn abilene() -> Network {
    Network::new(pop::abilene(), AccessTree::new(2, 3))
}

const ALL_DESIGNS: [DesignKind; 12] = [
    DesignKind::NoCache,
    DesignKind::IcnSp,
    DesignKind::IcnNr,
    DesignKind::Edge,
    DesignKind::EdgeCoop,
    DesignKind::EdgeNorm,
    DesignKind::TwoLevels,
    DesignKind::TwoLevelsCoop,
    DesignKind::NormCoop,
    DesignKind::DoubleBudgetCoop,
    DesignKind::InfiniteEdge,
    DesignKind::InfiniteIcnNr,
];

#[test]
fn every_design_matches_fault_free() {
    check(&abilene(), &ALL_DESIGNS, &[BASELINE]);
}

#[test]
fn knobs_match_on_nr_and_edge_coop() {
    let knobs: [Knob; 9] = [
        ("progression", |c| c.latency = LatencyModel::Progression),
        ("core x4", |c| {
            c.latency = LatencyModel::CoreMultiplier { d: 4 }
        }),
        ("by size", |c| c.weight_by_size = true),
        ("lcd", |c| c.insertion = InsertionPolicy::LeaveCopyDown),
        ("prob p=0.3", |c| {
            c.insertion = InsertionPolicy::Probabilistic { p: 0.3 }
        }),
        ("lfu", |c| c.policy = PolicyKind::Lfu),
        ("fifo", |c| c.policy = PolicyKind::Fifo),
        CAPACITY,
        TTL,
    ];
    check(
        &abilene(),
        &[DesignKind::IcnNr, DesignKind::EdgeCoop],
        &knobs,
    );
}

#[test]
fn faults_and_corruption_match() {
    let designs = [DesignKind::IcnNr, DesignKind::IcnSp, DesignKind::Edge];
    check(&abilene(), &designs, &[FAULTED]);
}

#[test]
fn wide_trees_match_at_two_and_four_directory_words() {
    // 127 and 255 routers per PoP: two and four 64-bit words per PoP group
    // of the simulator's replica directory (asserted next to the directory
    // itself, in `sim.rs`), where the default tree takes one.
    let pair = PopGraph::new(
        "pair",
        vec!["A".into(), "B".into()],
        vec![2_000, 1_000],
        vec![(0, 1)],
    );
    for (depth, nodes) in [(6, 127), (7, 255)] {
        let net = Network::new(pair.clone(), AccessTree::new(2, depth));
        assert_eq!(net.nodes_per_pop(), nodes);
        let knobs = [BASELINE, CAPACITY, TTL, FAULTED];
        check(&net, &[DesignKind::IcnNr], &knobs);
    }
}

/// A random small world: 1–4 PoPs joined by a random spanning tree plus
/// at most one extra core link, under access trees of arity 2–4 and
/// depth 1–4.
fn worlds() -> impl Strategy<Value = Network> {
    (1u32..5, 2u32..5, 1u32..5, 0u64..u64::MAX).prop_map(|(pops, arity, depth, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = (1..pops).map(|p| (rng.gen_range(0..p), p)).collect();
        if pops > 2 {
            let (a, b) = (rng.gen_range(0..pops - 1), pops - 1);
            edges.push((a, b)); // PopGraph::new drops a duplicate
        }
        let core = PopGraph::new(
            "random",
            (0..pops).map(|p| format!("P{p}")).collect(),
            (0..pops).map(|_| rng.gen_range(100..10_000)).collect(),
            edges,
        );
        Network::new(core, AccessTree::new(arity, depth))
    })
}

/// Random knobs on a random design: replacement and insertion policy,
/// cache and serving capacity, latency model, size weighting, and an
/// optional uniform fault schedule with replica corruption.
fn configs() -> impl Strategy<Value = ExperimentConfig> {
    (
        (0usize..12, 0u32..4, 0u32..3, 0.01f64..0.4),
        (0u32..2, 0u32..3, 0u32..2, 0u32..2),
        (0u32..2, 0u64..u64::MAX, 0.0f64..0.08, 0.0f64..0.1),
    )
        .prop_map(|(knobs, more, faults)| {
            let (design, policy, insertion, f_fraction) = knobs;
            let (budget, latency, by_size, capped) = more;
            let (faulted, seed, rate, corruption) = faults;
            // Short fault windows, so one trace crosses many of them.
            let fault = (faulted == 1).then(|| FaultConfig {
                window: 50,
                corruption_rate: corruption,
                ..FaultConfig::uniform(seed, rate)
            });
            ExperimentConfig {
                design: ALL_DESIGNS[design],
                budget_policy: [BudgetPolicy::PopulationProportional, BudgetPolicy::Uniform]
                    [budget as usize],
                f_fraction,
                policy: [
                    PolicyKind::Lru,
                    PolicyKind::Lfu,
                    PolicyKind::Fifo,
                    PolicyKind::Ttl { ttl: 150 },
                ][policy as usize],
                latency: [
                    LatencyModel::Unit,
                    LatencyModel::Progression,
                    LatencyModel::CoreMultiplier { d: 4 },
                ][latency as usize],
                capacity: (capped == 1).then_some(ServingCapacity {
                    per_node: 2,
                    window: 40,
                }),
                weight_by_size: by_size == 1,
                insertion: [
                    InsertionPolicy::Everywhere,
                    InsertionPolicy::LeaveCopyDown,
                    InsertionPolicy::Probabilistic { p: 0.4 },
                ][insertion as usize],
                fault,
            }
        })
}

/// A short random trace: 3,000 requests over 20–400 objects, with or
/// without temporal locality and heavy-tailed sizes.
fn traces() -> impl Strategy<Value = TraceConfig> {
    (0u64..u64::MAX, 20u32..400, 0.6f64..1.2, (0u32..2, 0u32..2)).prop_map(
        |(seed, objects, alpha, (local, sized))| TraceConfig {
            requests: 3_000,
            objects,
            alpha,
            locality: (local == 1).then_some(Locality { q: 0.5, window: 32 }),
            sizes: [SizeModel::Unit, SizeModel::web_default()][sized as usize],
            seed,
            ..TraceConfig::small()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine equals the oracle on random worlds, knobs and traces.
    /// The hand-picked matrix above stays as the named regression cases.
    #[test]
    fn random_small_worlds_match(net in worlds(), cfg in configs(), tc in traces()) {
        let trace = Trace::synthesize(tc, &net.core.populations, net.leaves_per_pop());
        let origins = assign_origins(
            OriginPolicy::PopulationProportional,
            trace.config.objects,
            &net.core.populations,
            trace.config.seed,
        );
        let label = format!(
            "{} PoPs, arity {}, depth {}, trace seed {:#x}, {cfg:?}",
            net.pops(),
            net.tree.arity,
            net.tree.depth,
            trace.config.seed
        );
        let want = run(&net, &cfg, &origins, &trace.object_sizes, &trace.requests);
        let mut sim = Simulator::new(&net, cfg, &origins, &trace.object_sizes);
        let got = sim.run(&trace.requests);
        prop_assert_eq!(
            want.total_latency.to_bits(),
            got.total_latency.to_bits(),
            "latency bits: {}",
            label
        );
        prop_assert_eq!(&want, got, "RunMetrics: {}", label);
    }
}
