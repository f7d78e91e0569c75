//! The request kernel (§4.1): the rules every design is judged under,
//! written once.
//!
//! For every request the kernel:
//!
//! 1. routes it per the design — along the shortest path toward the origin
//!    (any on-path cache may answer, with an optional scoped sibling lookup
//!    at cache-equipped tree routers), or directly to the nearest replica
//!    (zero lookup cost, the ICN ideal);
//! 2. serves it at the first eligible cache, or at the origin;
//! 3. transfers the object back along the response path, counting one
//!    transfer (or the object's bytes) on every traversed link, and
//!    **stores the object in every cache-equipped router on that path**;
//! 4. accounts latency = sum of traversed link costs + 1 (the serving hop,
//!    so a hit in the requesting leaf's own cache costs 1).
//!
//! The kernel is request-granular by design: no packets, TCP, or queueing
//! ("we use a request-level simulator and thus we do not model packet-level,
//! TCP, or router queueing effects", §4.1).
//!
//! [`Kernel`] owns everything both engines hold identically — capacity and
//! fault state, the TTL queue, the insertion RNG, metrics, instrumentation
//! and scratch — and reads one shared [`Env`]. It is generic over a
//! [`World`]: where cache contents and the replica directory live, and
//! what happens to an effect on a router this instance does not own. The
//! sequential [`Simulator`](crate::sim::Simulator) is `Kernel<LiveWorld>`
//! (global state, every effect applied in place); an epoch-shard lane is
//! `Kernel<LaneWorld>` (own-PoP state plus a frozen snapshot, foreign
//! effects logged as deltas — see [`crate::shard`]). Dispatch is static:
//! each engine gets its own monomorphized copy of the same source.

use crate::capacity::CapacityTracker;
use crate::config::{ExperimentConfig, InsertionPolicy};
use crate::costs::CostTable;
use crate::design::{DesignSpec, Routing};
use crate::fault::FaultSchedule;
use crate::instrument::SimObs;
use crate::metrics::{RunMetrics, LATENCY_HIST_SCALE};
use crate::shard::Frozen;
use icn_cache::CacheSlot;
use icn_obs::TraceRecord;
use icn_topology::{Network, NodeId};
use icn_workload::trace::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;

/// Seed of the insertion RNG (probabilistic insertion decisions); fixed
/// so runs are reproducible. Lanes derive theirs from it per PoP.
pub(crate) const RNG_SEED: u64 = 0xd1ce_cafe;

/// Read-only inputs of a run, shared by every kernel instance working on
/// it: one per [`Simulator`](crate::sim::Simulator), one per
/// [`run_sharded`](crate::shard::run_sharded) call (all lanes borrow it).
pub(crate) struct Env<'a> {
    pub(crate) net: &'a Network,
    pub(crate) spec: DesignSpec,
    pub(crate) cfg: ExperimentConfig,
    /// Path costs precomputed over `net` × `cfg.latency`; every hot-path
    /// cost query is a table load instead of an `O(depth)` climb.
    pub(crate) costs: CostTable,
    pub(crate) origins: &'a [u16],
    pub(crate) sizes: &'a [u32],
    /// `equipped[n]` = the router carries a cache — the pure
    /// `CacheSet::has_cache` answer as a flat array. The hot gates
    /// (sibling coop, response-path insertion, crash flushing) test
    /// equipment far more often than they touch cache contents, and must
    /// answer for routers whose slots another lane owns.
    pub(crate) equipped: Vec<bool>,
    /// Cross-PoP snapshot the lane world reads foreign state from,
    /// rewritten between epochs by the shard reconcile. Always empty under
    /// the live world, which has no foreign state.
    pub(crate) frozen: Frozen,
}

impl<'a> Env<'a> {
    /// Resolves the design and precomputes the cost table. `origins[object]`
    /// is the owning PoP; `sizes[object]` weighs transfers when
    /// `cfg.weight_by_size` is set.
    pub(crate) fn new(
        net: &'a Network,
        cfg: ExperimentConfig,
        origins: &'a [u16],
        sizes: &'a [u32],
    ) -> Self {
        assert_eq!(origins.len(), sizes.len(), "origins/sizes mismatch");
        let spec = cfg.design.spec(net);
        let equipped = (0..net.node_count())
            .map(|n| spec.cache_set.has_cache(net, n))
            .collect();
        Self {
            net,
            costs: CostTable::new(net, cfg.latency),
            spec,
            cfg,
            origins,
            sizes,
            equipped,
            frozen: Frozen::default(),
        }
    }

    /// One enum-dispatched slot per router in `nodes` (cache probes inline
    /// instead of chasing a `Box<dyn CachePolicy>` vtable per hop), sized
    /// from the per-node `budgets`.
    pub(crate) fn build_slots(&self, budgets: &[usize], nodes: Range<NodeId>) -> Vec<CacheSlot> {
        nodes
            .map(|n| {
                if !self.equipped[n as usize] {
                    return CacheSlot::None;
                }
                let cap = if self.spec.infinite_budget {
                    self.origins.len()
                } else {
                    (budgets[n as usize] as f64 * self.spec.budget_multiplier).round() as usize
                };
                CacheSlot::build(self.cfg.policy, cap)
            })
            .collect()
    }

    /// True when the replica directory is maintained at all.
    #[inline]
    pub(crate) fn tracks_replicas(&self) -> bool {
        self.spec.routing == Routing::NearestReplica
    }

    /// `(pop, climb rank)` of a router — its coordinates in either replica
    /// directory of [`crate::dir`]: the PoP picks the group, the rank the
    /// bit within it.
    #[inline]
    pub(crate) fn pop_rank(&self, node: NodeId) -> (u32, u32) {
        (
            self.net.pop_of(node),
            self.costs.rank_of(self.net.tree_index(node)),
        )
    }

    /// The router at climb rank `r` of PoP `p` (inverse of
    /// [`Env::pop_rank`]).
    #[cfg(test)]
    pub(crate) fn node_at(&self, p: u32, r: u32) -> NodeId {
        p * self.net.tree.nodes() + self.costs.t_of_rank(r)
    }

    #[inline]
    fn transfer_weight(&self, object: u32) -> u64 {
        if self.cfg.weight_by_size {
            self.sizes[object as usize] as u64
        } else {
            1
        }
    }

    /// The link id between two *adjacent* routers on a shortest path that
    /// only climbs (`a` is the deeper endpoint, or both are PoP roots).
    /// Runs once per climbed hop of every request; left to its own
    /// judgment the inliner keeps it out of line there (measured).
    #[inline(always)]
    fn link_between(&self, a: NodeId, b: NodeId) -> u32 {
        let (pa, pb) = (self.net.pop_of(a), self.net.pop_of(b));
        if pa == pb {
            self.net.tree_link(a)
        } else {
            self.net.core_link(pa, pb)
        }
    }
}

/// Where cache contents and the replica directory live — the only thing
/// the two engines disagree on. Every op names a router by global
/// [`NodeId`]; an op on a router outside [`World::owned`] is the world's
/// to redirect (the lane world reads a frozen snapshot and defers writes).
pub(crate) trait World {
    /// The routers whose caches this instance stores: crash flushes and
    /// lease expiry only ever apply to these.
    fn owned(&self, env: &Env) -> Range<NodeId>;

    /// True when `node` holds `object` (liveness is the kernel's concern).
    fn contains(&self, env: &Env, node: NodeId, object: u32) -> bool;

    /// Recency/frequency credit for a serve at `node`.
    fn touch(&mut self, node: NodeId, object: u32);

    /// Drops a detected-poisoned replica, directory included.
    fn remove(&mut self, env: &Env, node: NodeId, object: u32);

    /// Stores `object` at `node` at logical time `idx`, syncing the
    /// directory for the insert and any eviction it caused. True when the
    /// object is resident *here and now* afterwards — the caller then
    /// opens its TTL lease.
    fn store(&mut self, env: &Env, idx: u64, node: NodeId, object: u32) -> bool;

    /// Retires the lease of `object` at owned `node` if `stamp` is still
    /// its current one (see [`CacheSlot::expire`]).
    fn expire(&mut self, env: &Env, node: NodeId, object: u32, stamp: u64);

    /// Empties the cache at owned `node` (crash semantics).
    fn flush(&mut self, env: &Env, node: NodeId);

    /// The `(cost, NodeId)`-minimal replica of `object` as seen from
    /// `leaf`, `leaf` itself excluded — the flat, allocation-free
    /// selection.
    fn nearest(&self, env: &Env, leaf: NodeId, object: u32) -> Option<(f64, NodeId)>;

    /// Appends every replica of `object` cheaper than `max_cost` from
    /// `leaf` (itself excluded) to the parallel cost/node arrays, for
    /// selections that may need to probe past the minimum.
    fn extend_cands(
        &self,
        env: &Env,
        object: u32,
        leaf: NodeId,
        max_cost: f64,
        costs_out: &mut Vec<f64>,
        nodes_out: &mut Vec<NodeId>,
    );

    /// Visits every replica of `object` in the directory, in no particular
    /// order — what the directory-invariant tests read.
    #[cfg(test)]
    fn for_each_replica(&self, env: &Env, object: u32, f: impl FnMut(NodeId));
}

/// Where a shortest-path request was ultimately served.
#[derive(Clone, Copy)]
enum Server {
    /// A cache at this router, reached at this index on the request path.
    Cache { node: NodeId, path_idx: usize },
    /// A sibling cache reached by a scoped cooperative lookup from the
    /// router at this path index.
    Sibling { sibling: NodeId, via_idx: usize },
    /// The origin PoP root (the last node of the path).
    Origin,
}

/// Where a nearest-replica request is served once faults and serving
/// capacity are considered.
enum NrChoice {
    /// A live replica at this cost.
    Replica {
        /// Path cost from the requesting leaf to the replica.
        cost: f64,
        /// The serving router.
        node: NodeId,
        /// The replica is corrupted and the design cannot detect it: the
        /// poisoned bytes are delivered and counted as an integrity
        /// failure (`corrupt_served`).
        poisoned: bool,
    },
    /// No eligible replica; the (reachable) origin serves.
    Origin,
    /// Origin unreachable and no live replica: the request fails.
    Failed,
}

/// Materialized fault state for the current request window.
///
/// The [`FaultSchedule`] itself is stateless; this caches its answers for
/// one window as flat `Vec<bool>`s so the per-request cost under faults is
/// an index, not a hash. Rebuilt at every window transition by
/// [`Kernel::advance_faults`] — the run loop visits request indices in
/// order, so windows advance gap-free and crash events (which flush cache
/// contents) are never skipped.
///
/// Every kernel keeps its own: the schedule is a pure function of `(seed,
/// entity, window)`, so shard lanes materialize the same per-window
/// answers independently.
pub(crate) struct FaultState {
    schedule: FaultSchedule,
    /// Window the vectors below describe; `u64::MAX` forces the first
    /// rebuild at request 0.
    window: u64,
    node_down: Vec<bool>,
    link_down: Vec<bool>,
    origin_degraded: Vec<bool>,
    /// Fast skip for path-liveness checks when no link is down.
    any_link_down: bool,
    /// True when any fault (node, link, or origin) is active this window;
    /// drives the latency-under-failure histogram.
    fault_active: bool,
    /// Serving-capacity gate applied to *degraded* origin PoPs, reusing
    /// the §5.1 capacity model (indexed by PoP, not router).
    origin_capacity: CapacityTracker,
}

impl FaultState {
    fn new(schedule: FaultSchedule, net: &Network) -> Self {
        let origin_capacity =
            CapacityTracker::new(schedule.config().degraded_origin, net.pops() as usize);
        Self {
            schedule,
            window: u64::MAX,
            node_down: vec![false; net.node_count() as usize],
            link_down: vec![false; net.link_count() as usize],
            origin_degraded: vec![false; net.pops() as usize],
            any_link_down: false,
            fault_active: false,
            origin_capacity,
        }
    }

    /// Re-evaluates every entity's fault state for window `w`.
    fn rebuild(&mut self, w: u64) {
        self.window = w;
        let mut any_node = false;
        for (n, down) in self.node_down.iter_mut().enumerate() {
            *down = self.schedule.node_down(n as u32, w);
            any_node |= *down;
        }
        let mut any_link = false;
        for (l, down) in self.link_down.iter_mut().enumerate() {
            *down = self.schedule.link_down(l as u32, w);
            any_link |= *down;
        }
        let mut any_origin = false;
        for (p, deg) in self.origin_degraded.iter_mut().enumerate() {
            *deg = self.schedule.origin_degraded(p as u16, w);
            any_origin |= *deg;
        }
        self.any_link_down = any_link;
        self.fault_active = any_node || any_link || any_origin;
    }
}

/// One request-processing engine over a [`World`]; see the module docs.
pub(crate) struct Kernel<W: World> {
    pub(crate) world: W,
    /// Serving-capacity counters over the whole network (a lane's are its
    /// private view — a documented deviation of the epoch engine).
    capacity: Option<CapacityTracker>,
    /// Deterministic fault injection; `None` (the default) keeps the
    /// fault-free hot path — every fault check starts with one
    /// `Option::is_none` branch.
    fault: Option<FaultState>,
    /// Pending lease expiries under a TTL policy: `(lease end, node,
    /// object)` in insertion order. Stamps are `insert time + ttl` with a
    /// monotone insert clock, so the front is always the next lease due —
    /// a plain queue, no heap needed. Entries for renewed or flushed
    /// leases go stale; [`CacheSlot::expire`] rejects them by stamp.
    pub(crate) ttl_queue: VecDeque<(u64, NodeId, u32)>,
    /// Lease length when the configured policy is TTL (all equipped slots
    /// share one policy); `None` keeps the expiry drain off the hot path.
    pub(crate) ttl_len: Option<u64>,
    /// Drives probabilistic insertion decisions.
    rng: StdRng,
    pub(crate) metrics: RunMetrics,
    /// Optional instrumentation (the cooperative-probe counter, trace
    /// records, profiler spans); `None` when nothing is attached.
    pub(crate) obs: Option<SimObs>,
    path_buf: Vec<NodeId>,
    nodes_buf: Vec<NodeId>,
    links_buf: Vec<u32>,
    /// Scratch for sibling tree indices in the cooperative lookup — the
    /// lookup runs on every cache-equipped router a miss climbs past, so
    /// allocating a fresh `Vec` per probe would be a per-miss heap hit.
    siblings_buf: Vec<u32>,
    /// Scratch for the probing selection's candidate list — same
    /// rationale as `siblings_buf`. Split into parallel cost/node arrays
    /// so the select-min scan is two contiguous slice walks
    /// (struct-of-arrays: no `(f64, u32)` padding, and the cost lane
    /// vectorizes) instead of striding through 16-byte tuples.
    cand_cost: Vec<f64>,
    /// Candidate node ids, parallel to `cand_cost`.
    cand_node: Vec<NodeId>,
}

impl<W: World> Kernel<W> {
    /// A kernel over `world` with empty metrics. `ttl_len` is the world's
    /// lease length (from its slots); `seed` feeds the insertion RNG.
    pub(crate) fn new(env: &Env, world: W, ttl_len: Option<u64>, seed: u64) -> Self {
        let net = env.net;
        Self {
            world,
            capacity: env
                .cfg
                .capacity
                .map(|c| CapacityTracker::new(c, net.node_count() as usize)),
            fault: env
                .cfg
                .fault
                .map(|fc| FaultState::new(FaultSchedule::new(fc), net)),
            ttl_queue: VecDeque::new(),
            ttl_len,
            rng: StdRng::seed_from_u64(seed),
            metrics: RunMetrics::new(
                net.link_count() as usize,
                net.pops() as usize,
                net.tree.depth,
            ),
            obs: None,
            path_buf: Vec::new(),
            nodes_buf: Vec::new(),
            links_buf: Vec::new(),
            siblings_buf: Vec::new(),
            cand_cost: Vec::new(),
            cand_node: Vec::new(),
        }
    }

    /// Processes request number `idx` of the stream.
    pub(crate) fn process(&mut self, env: &Env, idx: u64, req: &Request) {
        // Sampled profiler span covering the whole request — the parent of
        // every other phase span. Pure measurement: no branch below
        // depends on it, so figures are byte-identical with it on or off.
        let _request_span = self.obs.as_ref().and_then(|o| o.request_span(idx));
        let leaf = env.net.leaf(req.pop as u32, req.leaf as u32);
        let origin_pop = env.origins[req.object as usize] as u32;
        self.metrics.requests += 1;
        if self.ttl_len.is_some() {
            self.expire_due(env, idx);
        }
        if self.fault.is_some() {
            let fault_span = self.obs.as_ref().and_then(|o| o.fault_span(idx));
            self.advance_faults(env, idx);
            drop(fault_span);
        }
        match env.spec.routing {
            Routing::ShortestPathToOrigin => {
                self.process_sp(env, idx, leaf, req.object, origin_pop)
            }
            Routing::NearestReplica => self.process_nr(env, idx, leaf, req.object, origin_pop),
        }
    }

    /// Retires every lease due at or before `now`: an entry inserted at
    /// `t` serves hits strictly before `t + ttl`, so a stamp of `now` is
    /// already dead when request `now` is processed. Stale queue entries
    /// — the lease was renewed (new stamp) or the cache flushed by a
    /// crash — fail [`CacheSlot::expire`]'s stamp check and are dropped
    /// without touching the directory.
    pub(crate) fn expire_due(&mut self, env: &Env, now: u64) {
        while let Some(&(stamp, node, object)) = self.ttl_queue.front() {
            if stamp > now {
                break;
            }
            self.ttl_queue.pop_front();
            self.world.expire(env, node, object, stamp);
        }
    }

    /// Rolls the fault state forward to the window containing `idx`,
    /// flushing the contents of every owned cache whose crash event fires
    /// in a newly entered window (a crash is a cold restart, not a pause).
    pub(crate) fn advance_faults(&mut self, env: &Env, idx: u64) {
        let Some(mut fault) = self.fault.take() else {
            return;
        };
        let w = fault.schedule.window_of(idx);
        if w != fault.window {
            // The run loop processes indices in order, so at most one new
            // window opens per call — but iterate defensively in case a
            // caller feeds a sparse index sequence, so no crash (and its
            // flush) is ever skipped.
            let first = if fault.window == u64::MAX {
                0
            } else {
                fault.window + 1
            };
            for step in first..=w {
                for n in self.world.owned(env) {
                    if !env.equipped[n as usize] {
                        continue;
                    }
                    if fault.schedule.node_crashes(n, step) {
                        self.world.flush(env, n);
                    }
                }
            }
            fault.rebuild(w);
        }
        self.fault = Some(fault);
    }

    /// True when the cached copy of `object` at `node` is corrupted in the
    /// current fault window (always false without a fault schedule). A
    /// pure schedule read, so valid for any router.
    #[inline]
    fn replica_corrupted(&self, node: NodeId, object: u32) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.schedule.replica_corrupted(node, object, f.window))
    }

    /// Self-certification caught a poisoned copy at `node`: count it and
    /// drop the replica.
    fn discard_corrupt(&mut self, env: &Env, node: NodeId, object: u32) {
        self.metrics.corrupt_detected += 1;
        self.world.remove(env, node, object);
    }

    /// True when the cache node is not crashed (vacuously true without a
    /// fault schedule).
    #[inline]
    fn node_up(&self, node: NodeId) -> bool {
        self.fault
            .as_ref()
            .is_none_or(|f| !f.node_down[node as usize])
    }

    /// True when every link on the unique path between `a` and `b` is up.
    fn path_live(&mut self, env: &Env, a: NodeId, b: NodeId) -> bool {
        let Some(f) = &self.fault else {
            return true;
        };
        if !f.any_link_down {
            return true;
        }
        self.links_buf.clear();
        env.net.path_links_into(a, b, &mut self.links_buf);
        self.links_buf.iter().all(|&l| !f.link_down[l as usize])
    }

    /// Index of the last node on `path` still reachable from `path[0]`
    /// under the current link faults (the whole path when fault-free).
    fn reachable_prefix(&self, env: &Env, path: &[NodeId]) -> usize {
        let last = path.len() - 1;
        let Some(f) = &self.fault else {
            return last;
        };
        if !f.any_link_down {
            return last;
        }
        for j in 1..path.len() {
            if f.link_down[env.link_between(path[j - 1], path[j]) as usize] {
                return j - 1;
            }
        }
        last
    }

    /// Gate for an origin serve: a degraded origin PoP serves through the
    /// reduced-capacity tracker; a saturated one fails the request.
    /// Healthy origins (and fault-free runs) always serve.
    #[inline]
    fn try_origin(&mut self, origin_pop: u32, idx: u64) -> bool {
        match &mut self.fault {
            None => true,
            Some(f) => {
                !f.origin_degraded[origin_pop as usize]
                    || f.origin_capacity.try_serve(origin_pop, idx)
            }
        }
    }

    /// Accounts one served request's latency (and, during fault-active
    /// windows, the under-failure distribution).
    #[inline]
    fn record_served(&mut self, latency: f64) {
        self.metrics.total_latency += latency;
        self.metrics.record_latency(latency);
        if self.fault.as_ref().is_some_and(|f| f.fault_active) {
            self.metrics.record_fault_latency(latency);
        }
    }

    /// Accounts one failed request: counted, but no latency and no
    /// transfers (nothing was delivered).
    fn record_failed(&mut self, idx: u64, object: u32) {
        self.metrics.failed_requests += 1;
        if let Some(o) = &self.obs {
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: 0,
                hops: 0,
                hit: false,
                coop: false,
                cost_milli: 0,
            });
        }
    }

    /// Accounts a cache serve at `node`: hit counters plus the recency
    /// credit. Returns the serving tree level.
    #[inline]
    fn record_cache_hit(&mut self, env: &Env, node: NodeId, object: u32) -> u32 {
        self.metrics.cache_hits += 1;
        let level = env.net.level_of(node);
        self.metrics.hits_by_level[level as usize] += 1;
        self.world.touch(node, object);
        level
    }

    /// Accounts an origin serve. Returns the serving tree level (0).
    #[inline]
    fn record_origin_hit(&mut self, origin_pop: u32) -> u32 {
        self.metrics.origin_hits += 1;
        self.metrics.origin_served[origin_pop as usize] += 1;
        0
    }

    /// Shortest-path-to-origin routing: walk the unique path from the leaf
    /// to the origin PoP root; the first cache containing the object
    /// answers; cache-equipped tree routers optionally do a scoped sibling
    /// lookup on miss.
    fn process_sp(&mut self, env: &Env, idx: u64, leaf: NodeId, object: u32, origin_pop: u32) {
        let mut path = std::mem::take(&mut self.path_buf);
        env.net.sp_path_nodes_into(leaf, origin_pop, &mut path);
        let last = path.len() - 1;

        // Under link faults the walk stops at the last reachable node; the
        // origin only serves when the whole path is live — EDGE designs
        // "fall through to origin", so a severed origin path with no
        // on-path copy is a failed request.
        let reach = self.reachable_prefix(env, &path);

        let mut server = (reach == last).then_some(Server::Origin);
        // Latency charged for detected-corrupt fetches discarded along the
        // way (the wasted round trip to the poisoned copy and back).
        let mut penalty = 0.0;
        // The eventual serve delivers corrupted bytes the design cannot
        // detect.
        let mut poisoned = false;
        let probe_span = self.obs.as_ref().and_then(|o| o.probe_span(idx));
        'walk: for (i, &node) in path.iter().enumerate() {
            if i == last || i > reach {
                break; // the origin always serves what it owns
            }
            if self.cache_contains(env, node, object) && self.try_capacity(node, idx) {
                let corrupted = self.replica_corrupted(node, object);
                if corrupted && env.spec.self_certifying {
                    // Self-certified names: the poisoned copy is caught
                    // on receipt, discarded, and the walk continues —
                    // at the cost of the wasted fetch.
                    self.discard_corrupt(env, node, object);
                    penalty += env.costs.path_cost(path[0], node) + 1.0;
                } else {
                    poisoned = corrupted;
                    server = Some(Server::Cache { node, path_idx: i });
                    break;
                }
            }
            if env.spec.sibling_coop
                && env.equipped[node as usize]
                && self.node_up(node)
                && env.net.tree_index(node) != 0
            {
                // Scoped cooperative lookup in the access-tree siblings.
                let coop_span = self.obs.as_ref().and_then(|o| o.coop_span(idx));
                let pop = env.net.pop_of(node);
                let t = env.net.tree_index(node);
                let mut sibs = std::mem::take(&mut self.siblings_buf);
                sibs.clear();
                sibs.extend(env.net.tree.siblings(t));
                let mut found = None;
                for &st in &sibs {
                    let sib = env.net.node(pop, st);
                    if self.detour_live(env, node, sib)
                        && self.cache_contains(env, sib, object)
                        && self.try_capacity(sib, idx)
                    {
                        if self.replica_corrupted(sib, object) {
                            if env.spec.self_certifying {
                                self.discard_corrupt(env, sib, object);
                                penalty += env.costs.path_cost(path[0], sib) + 1.0;
                                continue; // next sibling may hold a clean copy
                            }
                            poisoned = true;
                        }
                        found = Some(sib);
                        break;
                    }
                }
                self.siblings_buf = sibs;
                drop(coop_span);
                if let Some(sib) = found {
                    server = Some(Server::Sibling {
                        sibling: sib,
                        via_idx: i,
                    });
                    break 'walk;
                }
            }
        }
        drop(probe_span);

        // A degraded, saturated origin fails the request like an
        // unreachable one.
        if matches!(server, Some(Server::Origin)) && !self.try_origin(origin_pop, idx) {
            server = None;
        }
        match server {
            Some(server) => self.account_sp(
                env, idx, &path, server, object, origin_pop, penalty, poisoned,
            ),
            // Failed requests deliver nothing: detection penalties are
            // dropped with the request (no latency is recorded at all).
            None => self.record_failed(idx, object),
        }
        self.path_buf = path;
    }

    /// True when both links of the sibling detour (`via` → parent →
    /// `sibling`) are up.
    #[inline]
    fn detour_live(&self, env: &Env, via: NodeId, sibling: NodeId) -> bool {
        match &self.fault {
            None => true,
            Some(f) => {
                !f.any_link_down
                    || (!f.link_down[env.net.tree_link(via) as usize]
                        && !f.link_down[env.net.tree_link(sibling) as usize])
            }
        }
    }

    /// Accounts latency, congestion, response-path caching, and server load
    /// for a shortest-path serve. `penalty` is extra latency from detected
    /// corrupt fetches discarded before this serve; `poisoned` marks a
    /// serve that delivered corrupted bytes undetected.
    #[expect(clippy::too_many_arguments, reason = "hot path; no per-request struct")]
    fn account_sp(
        &mut self,
        env: &Env,
        idx: u64,
        path: &[NodeId],
        server: Server,
        object: u32,
        origin_pop: u32,
        penalty: f64,
        poisoned: bool,
    ) {
        // Held to the end of the function: the span covers latency and
        // congestion accounting plus response-path insertion.
        let _transfer_span = self.obs.as_ref().and_then(|o| o.transfer_span(idx));
        let depth = env.net.tree.depth;
        let weight = env.transfer_weight(object);
        let (serve_idx, detour_cost, detour_links) = match server {
            Server::Cache { path_idx, .. } => (path_idx, 0.0, 0),
            Server::Origin => (path.len() - 1, 0.0, 0),
            Server::Sibling { sibling, via_idx } => {
                // Detour: node -> parent -> sibling, two tree links at the
                // node's level.
                let level = env.net.level_of(path[via_idx]);
                let link_cost = env.cfg.latency.tree_link_cost(level, depth);
                // Congestion: the sibling's uplink and the via node's
                // uplink both carry the transfer.
                self.add_transfer(env.net.tree_link(sibling), weight);
                self.add_transfer(env.net.tree_link(path[via_idx]), weight);
                (via_idx, 2.0 * link_cost, 2)
            }
        };

        // Congestion on every climbed link.
        for j in 1..=serve_idx {
            self.add_transfer(env.link_between(path[j - 1], path[j]), weight);
        }
        // Latency: cost of the climbed prefix plus any detour plus the
        // serving hop. The climbed prefix of a shortest path is itself a
        // shortest path, so its cost is one [`CostTable`] lookup.
        let cost = env.costs.path_cost(path[0], path[serve_idx]);
        let latency = cost + detour_cost + 1.0 + penalty;
        self.record_served(latency);
        if poisoned {
            self.metrics.corrupt_served += 1;
        }

        // Server-side bookkeeping.
        let serving_level = match server {
            Server::Cache { node, .. } => self.record_cache_hit(env, node, object),
            Server::Sibling { sibling, .. } => {
                self.metrics.coop_hits += 1;
                self.record_cache_hit(env, sibling, object)
            }
            Server::Origin => self.record_origin_hit(origin_pop),
        };

        if let Some(o) = &self.obs {
            let hit = !matches!(server, Server::Origin);
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: serving_level,
                hops: (serve_idx + detour_links) as u32,
                hit,
                coop: matches!(server, Server::Sibling { .. }),
                cost_milli: (latency * LATENCY_HIST_SCALE).round() as u64,
            });
        }

        // Response-path caching per the insertion policy. Under the
        // paper's default every cache-equipped router between the server
        // and the leaf stores the object; for a sibling serve the response
        // additionally descends through the via node's parent.
        // "First below the server" for leave-copy-down means the first
        // *cache-equipped* router downstream of the server (standard LCD
        // semantics in cache hierarchies — copies descend one cache level
        // per request).
        let _evict_span = self.obs.as_ref().and_then(|o| o.evict_span(idx));
        let mut lcd_available = true;
        // Response: [sibling -> parent ->] serving node -> ... -> leaf.
        // The server itself already has the object; a sibling's response
        // re-enters the path at the via node's parent.
        let below = match server {
            Server::Sibling { via_idx, .. } => (via_idx + 2).min(path.len()),
            _ => serve_idx,
        };
        for j in (0..below).rev() {
            self.insert_on_response(env, idx, path[j], object, &mut lcd_available);
        }
    }

    /// Nearest-replica routing: serve at the replica (or origin) with the
    /// minimum path cost from the leaf, with zero lookup overhead.
    fn process_nr(&mut self, env: &Env, idx: u64, leaf: NodeId, object: u32, origin_pop: u32) {
        let origin_root = env.net.pop_root(origin_pop);

        // Fast path: the requesting leaf's own cache. The block form keeps
        // the profiler span scoped to the probe while preserving the
        // short-circuit.
        let leaf_hit = {
            let _probe_span = self.obs.as_ref().and_then(|o| o.probe_span(idx));
            self.cache_contains(env, leaf, object) && self.try_capacity(leaf, idx)
        };
        // Latency charged for detected-corrupt fetches discarded before
        // the eventual serve.
        let mut penalty = 0.0;
        if leaf_hit {
            let leaf_poisoned = self.replica_corrupted(leaf, object);
            if leaf_poisoned && env.spec.self_certifying {
                // The local copy fails verification: discard it, charge
                // the wasted local fetch, and fall through to the full
                // replica selection below.
                self.discard_corrupt(env, leaf, object);
                penalty = 1.0;
            } else {
                if leaf_poisoned {
                    self.metrics.corrupt_served += 1;
                }
                self.record_served(1.0);
                let level = self.record_cache_hit(env, leaf, object);
                if let Some(o) = &self.obs {
                    o.trace_with(|design| TraceRecord {
                        seq: idx,
                        object: object as u64,
                        design,
                        level,
                        hops: 0,
                        hit: true,
                        coop: false,
                        cost_milli: LATENCY_HIST_SCALE as u64,
                    });
                }
                return;
            }
        }

        let origin_cost = env.costs.path_cost(leaf, origin_root);
        // Replica-directory lookup + candidate gathering; the cost-based
        // selection inside nests as a child phase.
        let dir_span = self.obs.as_ref().and_then(|o| o.dir_span(idx));
        let choice = if self.fault.is_some() || self.capacity.is_some() {
            self.select_nr_probing(
                env,
                leaf,
                object,
                origin_root,
                origin_cost,
                idx,
                &mut penalty,
            )
        } else {
            // Nothing can turn a replica down: the directory's pruned
            // nearest lookup, with no candidate list.
            let _select_span = self.obs.as_ref().and_then(|o| o.select_span(idx));
            match (self.world.nearest(env, leaf, object)).filter(|&(c, _)| c < origin_cost) {
                Some((cost, node)) => NrChoice::Replica {
                    cost,
                    node,
                    poisoned: false,
                },
                None => NrChoice::Origin,
            }
        };
        drop(dir_span);

        let (cost, server_node, is_origin, poisoned) = match choice {
            NrChoice::Replica {
                cost,
                node,
                poisoned,
            } => (cost, node, false, poisoned),
            NrChoice::Origin => {
                // A degraded, saturated origin fails the request.
                if !self.try_origin(origin_pop, idx) {
                    self.record_failed(idx, object);
                    return;
                }
                (origin_cost, origin_root, true, false)
            }
            NrChoice::Failed => {
                self.record_failed(idx, object);
                return;
            }
        };
        // Covers latency/congestion accounting and response-path insertion.
        let _transfer_span = self.obs.as_ref().and_then(|o| o.transfer_span(idx));

        let latency = cost + 1.0 + penalty;
        self.record_served(latency);
        if poisoned {
            self.metrics.corrupt_served += 1;
        }
        let serving_level = if is_origin {
            self.record_origin_hit(origin_pop)
        } else {
            self.record_cache_hit(env, server_node, object)
        };

        // Congestion along the response path.
        let weight = env.transfer_weight(object);
        let mut links = std::mem::take(&mut self.links_buf);
        links.clear();
        env.net.path_links_into(leaf, server_node, &mut links);
        for &l in &links {
            self.add_transfer(l, weight);
        }
        if let Some(o) = &self.obs {
            let hops = links.len() as u32;
            o.trace_with(|design| TraceRecord {
                seq: idx,
                object: object as u64,
                design,
                level: serving_level,
                hops,
                hit: !is_origin,
                coop: false,
                cost_milli: (latency * LATENCY_HIST_SCALE).round() as u64,
            });
        }
        self.links_buf = links;

        // Response-path caching per the insertion policy (the server
        // itself is skipped; it already has the object).
        let _evict_span = self.obs.as_ref().and_then(|o| o.evict_span(idx));
        let mut nodes = std::mem::take(&mut self.nodes_buf);
        nodes.clear();
        env.net.path_nodes_into(server_node, leaf, &mut nodes);
        let mut lcd_available = true;
        for &n in nodes.iter().skip(1) {
            self.insert_on_response(env, idx, n, object, &mut lcd_available);
        }
        self.nodes_buf = nodes;
    }

    /// The next candidate of [`Kernel::select_nr_probing`]'s scratch in
    /// ascending `(cost, NodeId)` order.
    /// Allocation-free: the common case (first candidate is eligible) is
    /// a single select-min pass with no sort, and a rejected minimum is
    /// discarded and the rest rescanned.
    fn pop_candidate(&mut self) -> Option<(f64, NodeId)> {
        let i = min_candidate(&self.cand_cost, &self.cand_node)?;
        Some((self.cand_cost.swap_remove(i), self.cand_node.swap_remove(i)))
    }

    /// Nearest-replica selection when a capacity model or a fault schedule
    /// can turn a replica down: probe candidates in ascending `(cost,
    /// NodeId)` order until one is up, on a live path and has serving
    /// capacity left. While the origin is reachable only candidates
    /// cheaper than it are gathered, and the origin serves when none of
    /// them can; with the origin unreachable, any live replica serves at
    /// any cost, and with none the request fails.
    ///
    /// The order is the fault-free one, so with every check passing the
    /// selection is exactly the directory's `nearest`. A failed
    /// `try_capacity` probe does not mutate the tracker. `penalty`
    /// accumulates the wasted round-trip latency of replicas whose
    /// corruption was caught by self-certification (the copy is evicted
    /// and the scan continues).
    #[expect(clippy::too_many_arguments, reason = "hot path; no per-request struct")]
    fn select_nr_probing(
        &mut self,
        env: &Env,
        leaf: NodeId,
        object: u32,
        origin_root: NodeId,
        origin_cost: f64,
        idx: u64,
        penalty: &mut f64,
    ) -> NrChoice {
        let _select_span = self.obs.as_ref().and_then(|o| o.select_span(idx));
        let origin_reachable = self.path_live(env, leaf, origin_root);
        let max_cost = if origin_reachable {
            origin_cost
        } else {
            f64::INFINITY
        };
        self.cand_cost.clear();
        self.cand_node.clear();
        self.world.extend_cands(
            env,
            object,
            leaf,
            max_cost,
            &mut self.cand_cost,
            &mut self.cand_node,
        );
        while let Some((cost, node)) = self.pop_candidate() {
            if !self.node_up(node) || !self.path_live(env, leaf, node) {
                continue;
            }
            if self.try_capacity(node, idx) {
                let corrupted = self.replica_corrupted(node, object);
                if corrupted && env.spec.self_certifying {
                    self.discard_corrupt(env, node, object);
                    *penalty += cost + 1.0;
                    continue; // scan on for a clean copy
                }
                return NrChoice::Replica {
                    cost,
                    node,
                    poisoned: corrupted,
                };
            }
        }
        if origin_reachable {
            NrChoice::Origin
        } else {
            NrChoice::Failed
        }
    }

    #[inline]
    fn add_transfer(&mut self, link: u32, weight: u64) {
        self.metrics.link_transfers[link as usize] += weight;
    }

    #[inline]
    fn cache_contains(&self, env: &Env, node: NodeId, object: u32) -> bool {
        self.node_up(node) && self.world.contains(env, node, object)
    }

    /// Inserts `object` into the cache at `node` (if any) at logical time
    /// `idx`. The origin PoP root never caches its own objects — it
    /// already hosts them in its (infinite) origin store.
    fn cache_insert(&mut self, env: &Env, idx: u64, node: NodeId, object: u32) {
        if env.origins[object as usize] as u32 == env.net.pop_of(node)
            && env.net.tree_index(node) == 0
        {
            return;
        }
        // A crashed node stores nothing until its outage ends.
        if !self.node_up(node) || !env.equipped[node as usize] {
            return;
        }
        // Under a TTL policy every successful insert — fresh or renewal —
        // opens a lease ending at `idx + ttl`; queue it for the drain in
        // [`Kernel::expire_due`]. Renewals leave the old queue entry
        // behind as a stale stamp.
        if self.world.store(env, idx, node, object) {
            if let Some(ttl) = self.ttl_len {
                self.ttl_queue.push_back((idx + ttl, node, object));
            }
        }
    }

    /// Applies the insertion policy to one router on the response path,
    /// walked from the server toward the client. `lcd_available` tracks
    /// whether the leave-copy-down slot (the first cache-equipped router
    /// below the server) is still unclaimed.
    #[inline]
    fn insert_on_response(
        &mut self,
        env: &Env,
        idx: u64,
        node: NodeId,
        object: u32,
        lcd_available: &mut bool,
    ) {
        let equipped = env.equipped[node as usize];
        let insert = match env.cfg.insertion {
            InsertionPolicy::Everywhere => true,
            InsertionPolicy::LeaveCopyDown => {
                let take = equipped && *lcd_available;
                if take {
                    *lcd_available = false;
                }
                take
            }
            InsertionPolicy::Probabilistic { p } => equipped && self.rng.gen::<f64>() < p,
        };
        if insert {
            self.cache_insert(env, idx, node, object);
        }
    }

    /// Capacity gate: true when the node may serve this request (and
    /// reserves a slot). Unlimited when no capacity model is configured.
    #[inline]
    fn try_capacity(&mut self, node: NodeId, idx: u64) -> bool {
        match &mut self.capacity {
            None => true,
            Some(t) => t.try_serve(node, idx),
        }
    }
}

/// Index of the `(cost, NodeId)`-minimal candidate in the parallel
/// `costs`/`nodes` arrays, `None` when empty. The composite key is a total
/// order over candidates (node ids are unique within a directory), so the
/// minimum — and therefore every selection built on it — is independent of
/// candidate order. Takes struct-of-arrays slices so the scan is two
/// contiguous walks.
#[inline]
fn min_candidate(costs: &[f64], nodes: &[NodeId]) -> Option<usize> {
    debug_assert_eq!(costs.len(), nodes.len());
    let mut best: Option<(usize, f64, NodeId)> = None;
    for (i, (&c, &n)) in costs.iter().zip(nodes).enumerate() {
        if best.is_none_or(|(_, bc, bn)| c < bc || (c == bc && n < bn)) {
            best = Some((i, c, n));
        }
    }
    best.map(|(i, _, _)| i)
}

/// The directory invariant, stated once against [`World`] and run for
/// both worlds (`sim.rs` and `shard.rs` tests).
#[cfg(test)]
pub(crate) mod invariant {
    use super::{Env, World};
    use crate::config::ExperimentConfig;
    use crate::design::DesignKind;
    use crate::fault::FaultConfig;
    use icn_topology::{pop, AccessTree, Network, PopGraph};
    use icn_workload::origin::{assign_origins, OriginPolicy};
    use icn_workload::trace::{Region, Trace};

    /// Every cached object must appear in the replica directory at exactly
    /// its holders — the invariant lease expiry, crash flushes and
    /// corruption evictions all have to preserve. Checked over the routers
    /// `world` owns (foreign entries are a snapshot of another world).
    pub(crate) fn assert_directory_matches_caches<W: World>(env: &Env, world: &W, objects: u32) {
        for o in 0..objects {
            let mut dir = Vec::new();
            world.for_each_replica(env, o, |n| dir.push(n));
            for n in world.owned(env) {
                assert_eq!(
                    world.contains(env, n, o),
                    dir.contains(&n),
                    "object {o} at node {n}: directory out of sync"
                );
            }
        }
    }

    /// Abilene with depth-3 binary access trees and a small US trace (the
    /// fixture of `tests/shard_determinism.rs`).
    pub(crate) fn fixture() -> (Network, Trace, Vec<u16>) {
        fixture_on(Network::new(pop::abilene(), AccessTree::new(2, 3)))
    }

    /// Two PoPs under 255-node access trees: four 64-bit words per PoP
    /// group of the simulator's replica directory, and past the
    /// [`MAX_MASK_TREE`](crate::dir::MAX_MASK_TREE) nodes the epoch
    /// engine's masks can index.
    pub(crate) fn wide_tree_net() -> Network {
        let pair = PopGraph::new(
            "pair",
            vec!["A".into(), "B".into()],
            vec![2_000, 1_000],
            vec![(0, 1)],
        );
        Network::new(pair, AccessTree::new(2, 7))
    }

    /// [`wide_tree_net`] with the same small US trace as [`fixture`].
    pub(crate) fn wide_tree_fixture() -> (Network, Trace, Vec<u16>) {
        fixture_on(wide_tree_net())
    }

    fn fixture_on(net: Network) -> (Network, Trace, Vec<u16>) {
        let trace = Trace::synthesize(
            Region::Us.config(0.005),
            &net.core.populations,
            net.leaves_per_pop(),
        );
        let origins = assign_origins(
            OriginPolicy::PopulationProportional,
            trace.config.objects,
            &net.core.populations,
            42,
        );
        (net, trace, origins)
    }

    /// The configs of `tests/shard_determinism.rs::variants` that remove
    /// replicas behind the request path's back: TTL expiry, and crash
    /// flushes with corruption evictions.
    pub(crate) fn stress_configs(design: DesignKind) -> Vec<(&'static str, ExperimentConfig)> {
        let base = ExperimentConfig::baseline(design);
        let mut ttl = base.clone();
        ttl.policy = icn_cache::PolicyKind::Ttl { ttl: 700 };
        let mut faulted = base;
        let mut fc = FaultConfig::uniform(0xfa17, 0.02);
        fc.corruption_rate = 0.01;
        faulted.fault = Some(fc);
        vec![("ttl", ttl), ("faulted+corrupt", faulted)]
    }
}
