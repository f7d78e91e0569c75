//! Intra-cell parallelism: epoch-sharded simulation with a deterministic
//! merge (see DESIGN.md §13).
//!
//! The sequential simulator ([`crate::sim::Simulator`]) is a strict
//! request-at-a-time loop: request `i+1` may observe cache state written
//! by request `i`, so the loop cannot be parallelized without changing
//! *some* observable ordering. This module trades a bounded, *fully
//! deterministic* amount of cross-PoP staleness for parallelism:
//!
//! 1. The request stream is cut into fixed-size **epochs** (`epoch_len`
//!    requests, [`DEFAULT_EPOCH_LEN`] by default).
//! 2. Within an epoch, every PoP is an independent **lane**: a worker
//!    thread runs the lane's own requests through the same request kernel
//!    as the sequential engine ([`crate::kernel`]), over a [`LaneWorld`] —
//!    the lane's *live* own-PoP state plus a **frozen snapshot** of
//!    cross-PoP state (the replica directory under nearest-replica
//!    routing; PoP-root residency bits under shortest-path routing).
//!    Effects on foreign PoPs are not applied in place — they are
//!    recorded as [`Delta`]s.
//! 3. At the epoch boundary a sequential **reconcile** applies every
//!    delta in canonical `(source pop, emission seq)` order, retires TTL
//!    leases and crash flushes up to the boundary, and resyncs each
//!    lane's dirty directory entries into the shared snapshot.
//!
//! The **virtual shard is the PoP**, not the worker: lane state and lane
//! schedules never depend on how lanes are packed onto threads, so the
//! output is bit-identical for any [`ShardOpts::shards`] worker count
//! (asserted by `tests/shard_determinism.rs`). The epoch length *is*
//! semantic — it bounds how stale the frozen snapshot may get — so
//! [`ShardOpts::epoch_len`] is a modeling knob, while the shard count is
//! pure mechanics. [`run_sharded`] is the only way in: no environment
//! variable or sweep path selects this engine.
//!
//! Documented deviations from the sequential engine (each deterministic,
//! each bounded by one epoch): foreign replica sets are one epoch stale;
//! serving-capacity and degraded-origin counters are per-lane views;
//! cross-PoP inserts, touches, and evictions land at the epoch boundary
//! (before that boundary's crash flushes); and probabilistic insertion
//! draws from per-lane RNG streams. A single-PoP network has no foreign
//! state at all, so there the epoch engine reproduces the sequential
//! simulator bit-for-bit.

use crate::config::ExperimentConfig;
use crate::design::Routing;
use crate::dir::{mask_words, ReplicaMasks, MAX_MASK_TREE};
use crate::instrument::CellClock;
use crate::kernel::{Env, Kernel, World, RNG_SEED};
use crate::metrics::RunMetrics;
use icn_cache::budget::per_node_budgets;
use icn_cache::CacheSlot;
use icn_topology::{Network, NodeId};
use icn_workload::trace::Request;
#[expect(clippy::disallowed_types, reason = "keyed; dirty is sorted at resync")]
use std::collections::HashMap;
use std::ops::Range;

/// Default epoch length in requests. Small enough that cross-PoP replica
/// knowledge lags by well under a fault window at realistic scales, large
/// enough that the sequential reconcile is a rounding error per request.
pub const DEFAULT_EPOCH_LEN: u64 = 4096;

/// Tuning knobs for [`run_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ShardOpts {
    /// Worker threads simulating lanes within an epoch. Output bytes are
    /// independent of this value; only wall-clock changes.
    pub shards: usize,
    /// Requests per epoch (semantic — see the module docs); clamped to a
    /// minimum of 1.
    pub epoch_len: u64,
}

impl Default for ShardOpts {
    fn default() -> Self {
        Self {
            shards: 1,
            epoch_len: DEFAULT_EPOCH_LEN,
        }
    }
}

/// What [`run_sharded`] produced.
#[derive(Debug)]
pub struct ShardRun {
    /// Accumulated metrics, merged from the lanes in PoP order.
    pub metrics: RunMetrics,
    /// Number of epochs processed.
    pub epochs: u64,
    /// Nanoseconds spent in the sequential reconcile across all epochs.
    pub reconcile_ns: u64,
    /// Worker threads actually used (`min(shards, PoPs)`).
    pub workers: usize,
}

/// True when the epoch-sharded engine can represent this network/design
/// pair: nearest-replica routing needs the `u128` rank masks (trees up to
/// [`MAX_MASK_TREE`] nodes), and shortest-path routing with cache-equipped
/// PoP roots needs one residency bit per PoP (at most 128 PoPs). Callers
/// run the sequential simulator otherwise.
pub fn supported(net: &Network, cfg: &ExperimentConfig) -> bool {
    let spec = cfg.design.spec(net);
    match spec.routing {
        Routing::NearestReplica => net.tree.nodes() <= MAX_MASK_TREE,
        Routing::ShortestPathToOrigin => {
            net.pops() <= 128 || !spec.cache_set.has_cache(net, net.pop_root(0))
        }
    }
}

/// Cross-PoP state as of the last reconcile — everything a lane may
/// consult about a PoP it does not own. Frozen while an epoch runs (lanes
/// share it read-only through [`Env::frozen`]) and rewritten by
/// [`LaneWorld::resync`] at the boundary.
#[derive(Default)]
pub(crate) struct Frozen {
    /// Replica directory (nearest-replica routing): lanes read foreign
    /// PoP groups from here and their own PoP from the live lane
    /// directory.
    pub(crate) masks: Option<ReplicaMasks>,
    /// PoP-root residency (shortest-path routing with equipped roots):
    /// bit `p` of `roots[o]` marks object `o` cached at PoP `p`'s root.
    pub(crate) roots: Option<Vec<u128>>,
}

/// One cross-PoP effect, recorded during an epoch and applied at the
/// boundary in `(source pop, emission seq)` order.
#[derive(Debug, Clone, Copy)]
enum Delta {
    /// A serve from a foreign replica: recency/frequency credit.
    Touch { node: NodeId, object: u32 },
    /// A detected-poisoned foreign replica: drop it.
    Evict { node: NodeId, object: u32 },
    /// Response-path insertion at a foreign router, stamped with the
    /// requesting index (recency + TTL lease clock).
    Insert { idx: u64, node: NodeId, object: u32 },
}

/// A lane's [`World`]: the caches and directory of one PoP, live; every
/// other PoP through the [`Frozen`] snapshot. Reads of a foreign router
/// see the snapshot; writes to one are logged as [`Delta`]s for the
/// reconcile. A lane only ever touches its own fields plus the shared
/// read-only [`Env`], which is what makes epochs embarrassingly parallel.
pub(crate) struct LaneWorld {
    pop: u32,
    node_base: NodeId,
    tn: u32,
    /// Own-PoP cache slots, indexed by tree index.
    caches: Vec<CacheSlot>,
    /// Live own-PoP replica directory (nearest-replica routing): object →
    /// climb-rank mask, exactly mirroring `caches` contents. Only value
    /// lookups and a commuting crash-flush retain touch it; publication
    /// order is canonicalized by sorting `dirty` at resync.
    #[expect(clippy::disallowed_types, reason = "keyed; dirty is sorted at resync")]
    dir: HashMap<u32, u128>,
    /// Objects whose own-PoP directory entry (or root residency) changed
    /// this epoch; sorted + deduped at resync.
    dirty: Vec<u32>,
    /// The own root cache was crash-flushed this epoch (shortest-path
    /// residency tracking needs a full sweep, not a dirty list).
    root_flush: bool,
    /// Cross-PoP effects recorded this epoch, in emission order.
    deltas: Vec<Delta>,
}

impl LaneWorld {
    /// Tree index of `node` when this lane owns it.
    #[inline]
    fn own(&self, node: NodeId) -> Option<u32> {
        let t = node.wrapping_sub(self.node_base);
        (t < self.tn).then_some(t)
    }

    #[inline]
    fn own_mask(&self, object: u32) -> u128 {
        self.dir.get(&object).copied().unwrap_or(0)
    }

    /// The frozen groups of `object` in every PoP but this lane's (whose
    /// live directory supersedes its published group).
    #[inline]
    fn foreign_groups<'e>(
        &self,
        env: &'e Env,
        object: u32,
    ) -> impl Iterator<Item = (u32, u128)> + 'e {
        let pop = self.pop;
        let groups = env.frozen.masks.as_ref().map(|m| m.entries(object));
        groups
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&(p, _)| p != pop)
    }

    /// Marks `object` present at own tree index `t` in the lane directory
    /// (or root-residency dirty list).
    fn dir_note_insert(&mut self, env: &Env, t: u32, object: u32) {
        if env.frozen.masks.is_some() {
            *self.dir.entry(object).or_insert(0) |= 1u128 << env.costs.rank_of(t);
            self.dirty.push(object);
        } else if env.frozen.roots.is_some() && t == 0 {
            self.dirty.push(object);
        }
    }

    /// Clears `object` at own tree index `t` from the lane directory (or
    /// marks root residency dirty).
    fn dir_note_remove(&mut self, env: &Env, t: u32, object: u32) {
        if env.frozen.masks.is_some() {
            if let Some(mask) = self.dir.get_mut(&object) {
                *mask &= !(1u128 << env.costs.rank_of(t));
                if *mask == 0 {
                    self.dir.remove(&object);
                }
                self.dirty.push(object);
            }
        } else if env.frozen.roots.is_some() && t == 0 {
            self.dirty.push(object);
        }
    }

    /// Publishes this lane's dirty directory entries into the shared
    /// snapshot. Dirty lists are sorted + deduped first, so the writes —
    /// and therefore the snapshot — are independent of the (unordered)
    /// discovery order within the epoch.
    fn resync(&mut self, frozen: &mut Frozen) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        if let Some(masks) = &mut frozen.masks {
            for &o in &self.dirty {
                masks.set_group(o, self.pop, self.own_mask(o));
            }
        } else if let Some(roots) = &mut frozen.roots {
            let bit = 1u128 << self.pop;
            let root = &self.caches[0];
            if self.root_flush {
                self.root_flush = false;
                for (o, m) in roots.iter_mut().enumerate() {
                    if *m & bit != 0 && !root.contains(o as u64) {
                        *m &= !bit;
                    }
                }
            }
            for &o in &self.dirty {
                if root.contains(o as u64) {
                    roots[o as usize] |= bit;
                } else {
                    roots[o as usize] &= !bit;
                }
            }
        }
        self.dirty.clear();
    }
}

impl World for LaneWorld {
    #[inline]
    fn owned(&self, _env: &Env) -> Range<NodeId> {
        self.node_base..self.node_base + self.tn
    }

    /// Live own caches; frozen root residency for foreign routers
    /// (shortest-path walks only ever cross foreign *PoP roots* — the core
    /// path is root-to-root).
    #[inline]
    fn contains(&self, env: &Env, node: NodeId, object: u32) -> bool {
        match self.own(node) {
            Some(t) => self.caches[t as usize].contains(object as u64),
            None => env
                .frozen
                .roots
                .as_ref()
                .is_some_and(|roots| roots[object as usize] & (1u128 << (node / self.tn)) != 0),
        }
    }

    #[inline]
    fn touch(&mut self, node: NodeId, object: u32) {
        match self.own(node) {
            Some(t) => self.caches[t as usize].touch(object as u64),
            None => self.deltas.push(Delta::Touch { node, object }),
        }
    }

    fn remove(&mut self, env: &Env, node: NodeId, object: u32) {
        match self.own(node) {
            Some(t) => {
                if self.caches[t as usize].remove(object as u64) {
                    self.dir_note_remove(env, t, object);
                }
            }
            None => self.deltas.push(Delta::Evict { node, object }),
        }
    }

    /// A foreign insert is deferred: the kernel already ran the origin,
    /// crash and equipment gates at emission time, against the same window
    /// the sequential engine would consult; the owning lane stores it (and
    /// opens its lease) at the boundary.
    #[inline]
    fn store(&mut self, env: &Env, idx: u64, node: NodeId, object: u32) -> bool {
        let Some(t) = self.own(node) else {
            self.deltas.push(Delta::Insert { idx, node, object });
            return false;
        };
        let s = self.caches[t as usize].store(object as u64, idx);
        if let Some(e) = s.evicted {
            self.dir_note_remove(env, t, e as u32);
        }
        if !s.had && s.resident {
            self.dir_note_insert(env, t, object);
        }
        s.resident
    }

    fn expire(&mut self, env: &Env, node: NodeId, object: u32, stamp: u64) {
        let t = node - self.node_base;
        if self.caches[t as usize].expire(object as u64, stamp) {
            self.dir_note_remove(env, t, object);
        }
    }

    fn flush(&mut self, env: &Env, node: NodeId) {
        let t = node - self.node_base;
        if !self.caches[t as usize].is_empty() {
            if env.frozen.masks.is_some() {
                let bit = 1u128 << env.costs.rank_of(t);
                let LaneWorld { dir, dirty, .. } = self;
                // Commuting per-entry bit clear; dirty order is
                // canonicalized by the sort at resync.
                dir.retain(|&o, mask| {
                    if *mask & bit != 0 {
                        *mask &= !bit;
                        dirty.push(o);
                    }
                    *mask != 0
                });
            } else if env.frozen.roots.is_some() && t == 0 {
                self.root_flush = true;
            }
        }
        self.caches[t as usize].clear();
    }

    #[inline]
    fn nearest(&self, env: &Env, leaf: NodeId, object: u32) -> Option<(f64, NodeId)> {
        let from = env.costs.from(leaf);
        let mut best = None;
        let own = mask_words(self.own_mask(object));
        from.min_in_group(self.pop, &own, &mut best);
        for (p, mask) in self.foreign_groups(env, object) {
            from.min_in_group(p, &mask_words(mask), &mut best);
        }
        best
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
        let from = env.costs.from(leaf);
        let own = mask_words(self.own_mask(object));
        from.extend_from_group(self.pop, &own, max_cost, costs_out, nodes_out);
        for (p, mask) in self.foreign_groups(env, object) {
            from.extend_from_group(p, &mask_words(mask), max_cost, costs_out, nodes_out);
        }
    }

    #[cfg(test)]
    fn for_each_replica(&self, env: &Env, object: u32, mut f: impl FnMut(NodeId)) {
        use crate::dir::ranks;
        ranks(&mask_words(self.own_mask(object))).for_each(|r| f(env.node_at(self.pop, r)));
        for (p, mask) in self.foreign_groups(env, object) {
            ranks(&mask_words(mask)).for_each(|r| f(env.node_at(p, r)));
        }
    }
}

/// One PoP's kernel plus the epoch plumbing around it. The capacity and
/// fault models inside the kernel are the lane's private views (a
/// documented deviation: per-lane counters); the fault schedule itself is
/// pure, so every lane materializes identical node/link/origin state.
struct Lane {
    kernel: Kernel<LaneWorld>,
    /// This lane's slice of the epoch: `(global request idx, request)`.
    bucket: Vec<(u64, Request)>,
    /// Leases opened by foreign-sourced inserts during reconcile, merged
    /// into the kernel's TTL queue (sorted, stable w.r.t. existing
    /// entries) at `close_epoch`.
    ttl_pending: Vec<(u64, NodeId, u32)>,
}

impl Lane {
    fn new(env: &Env, budgets: &[usize], pop: u32) -> Self {
        let tn = env.net.tree.nodes();
        let node_base = pop * tn;
        let caches = env.build_slots(budgets, node_base..node_base + tn);
        let ttl_len = caches.iter().find_map(CacheSlot::ttl);
        let world = LaneWorld {
            pop,
            node_base,
            tn,
            caches,
            dir: Default::default(),
            dirty: Vec::new(),
            root_flush: false,
            deltas: Vec::new(),
        };
        // Golden-ratio-stride seeds: distinct per lane, the sequential
        // seed at lane 0 (single-PoP equivalence includes the RNG stream).
        let seed = RNG_SEED ^ (pop as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self {
            kernel: Kernel::new(env, world, ttl_len, seed),
            bucket: Vec::new(),
            ttl_pending: Vec::new(),
        }
    }

    /// Drains this lane's epoch bucket through the request kernel.
    fn run_bucket(&mut self, env: &Env) {
        for (idx, req) in &self.bucket {
            self.kernel.process(env, *idx, req);
        }
        self.bucket.clear();
    }

    /// Applies one foreign-sourced insert to this (owning) lane at
    /// reconcile time. Its lease joins the queue at `close_epoch`, not
    /// now: its stamp may precede entries the lane queued this epoch.
    fn apply_foreign_insert(&mut self, env: &Env, idx: u64, node: NodeId, object: u32) {
        if self.kernel.world.store(env, idx, node, object) {
            if let Some(ttl) = self.kernel.ttl_len {
                self.ttl_pending.push((idx + ttl, node, object));
            }
        }
    }

    /// Boundary catch-up: merge foreign-opened TTL leases (sorted; stable
    /// w.r.t. equal-stamp own entries), retire leases due by the
    /// boundary, and roll faults — crash flushes included — up to the
    /// first index of the next epoch.
    fn close_epoch(&mut self, env: &Env, epoch_end: u64) {
        let kernel = &mut self.kernel;
        if kernel.ttl_len.is_some() {
            if !self.ttl_pending.is_empty() {
                self.ttl_pending.sort_unstable();
                kernel.ttl_queue.extend(self.ttl_pending.drain(..));
                // Stable by stamp: pre-existing (own) entries keep
                // priority over equal-stamp foreign arrivals.
                kernel
                    .ttl_queue
                    .make_contiguous()
                    .sort_by_key(|&(stamp, _, _)| stamp);
            }
            kernel.expire_due(env, epoch_end);
        }
        kernel.advance_faults(env, epoch_end);
    }
}

/// Simulates one epoch: lanes are packed onto at most `workers` threads
/// in contiguous chunks balanced by bucket size. Lanes are mutually
/// independent within an epoch (own state + the shared read-only [`Env`]
/// only), so the packing — and the worker count — cannot affect any
/// output byte.
fn run_epoch(lanes: &mut [Lane], env: &Env, workers: usize) {
    let total: usize = lanes.iter().map(|l| l.bucket.len()).sum();
    if total == 0 {
        return;
    }
    if workers <= 1 || lanes.len() <= 1 {
        for lane in lanes.iter_mut() {
            lane.run_bucket(env);
        }
        return;
    }
    let target = total.div_ceil(workers);
    // Scoped fork-join over disjoint lanes: worker count never reaches an output byte.
    std::thread::scope(|s| {
        let mut rest = lanes;
        while !rest.is_empty() {
            let mut acc = 0usize;
            let mut cut = rest.len();
            for (i, lane) in rest.iter().enumerate() {
                acc += lane.bucket.len();
                if acc >= target {
                    cut = i + 1;
                    break;
                }
            }
            let (chunk, tail) = rest.split_at_mut(cut);
            rest = tail;
            s.spawn(move || {
                for lane in chunk {
                    lane.run_bucket(env);
                }
            });
        }
    });
}

/// The sequential epoch-boundary merge. Phase A applies cross-PoP deltas
/// in canonical `(source pop, emission seq)` order, each through the
/// owning lane's world (where the router is own, so the effect lands in
/// place); phase B runs each lane's boundary catch-up (TTL merge/expiry,
/// crash flushes) and publishes dirty directory entries into the shared
/// snapshot, in PoP order. Both phases are single-threaded and
/// order-fixed — this is the determinism anchor of the whole engine.
fn reconcile(lanes: &mut [Lane], env: &mut Env, epoch_end: u64, delta_buf: &mut Vec<Delta>) {
    let tn = env.net.tree.nodes();
    for p in 0..lanes.len() {
        // Swap the lane's delta log into the shared scratch (and back)
        // so owner lanes can be borrowed mutably while we iterate, and
        // no epoch re-allocates the log.
        std::mem::swap(&mut lanes[p].kernel.world.deltas, delta_buf);
        for &delta in delta_buf.iter() {
            match delta {
                Delta::Touch { node, object } => {
                    lanes[(node / tn) as usize].kernel.world.touch(node, object);
                }
                Delta::Evict { node, object } => {
                    lanes[(node / tn) as usize]
                        .kernel
                        .world
                        .remove(env, node, object);
                }
                Delta::Insert { idx, node, object } => {
                    lanes[(node / tn) as usize].apply_foreign_insert(env, idx, node, object);
                }
            }
        }
        delta_buf.clear();
        std::mem::swap(&mut lanes[p].kernel.world.deltas, delta_buf);
    }
    for lane in lanes.iter_mut() {
        lane.close_epoch(env, epoch_end);
        lane.kernel.world.resync(&mut env.frozen);
    }
}

/// Runs a request stream through the epoch-sharded engine and returns
/// the merged metrics plus engine counters. Requests are consumed
/// straight off the iterator (O(epoch) memory); `opts.shards` sets the
/// worker count (output-invariant), `opts.epoch_len` the epoch length
/// (semantic). Panics if [`supported`] is false for this network/design —
/// callers are expected to gate and fall back to [`crate::Simulator`].
pub fn run_sharded<I>(
    net: &Network,
    cfg: &ExperimentConfig,
    origins: &[u16],
    object_sizes: &[u32],
    requests: I,
    opts: &ShardOpts,
) -> ShardRun
where
    I: IntoIterator<Item = Request>,
{
    run_lanes(net, cfg, origins, object_sizes, requests, opts).0
}

/// [`run_sharded`], also handing back the final lane states and snapshot
/// (the directory-invariant tests inspect them).
fn run_lanes<'a, I>(
    net: &'a Network,
    cfg: &ExperimentConfig,
    origins: &'a [u16],
    object_sizes: &'a [u32],
    requests: I,
    opts: &ShardOpts,
) -> (ShardRun, Env<'a>, Vec<Lane>)
where
    I: IntoIterator<Item = Request>,
{
    assert!(
        supported(net, cfg),
        "epoch-sharded engine does not support this network/design; gate on shard::supported"
    );
    let mut env = Env::new(net, cfg.clone(), origins, object_sizes);
    let track_roots = env.spec.routing == Routing::ShortestPathToOrigin
        && (0..net.pops()).any(|p| env.equipped[net.pop_root(p) as usize]);
    env.frozen = Frozen {
        masks: env
            .tracks_replicas()
            .then(|| ReplicaMasks::new(origins.len())),
        roots: track_roots.then(|| vec![0u128; origins.len()]),
    };
    let budgets = per_node_budgets(
        cfg.budget_policy,
        cfg.f_fraction,
        origins.len() as u64,
        &net.core.populations,
        net.nodes_per_pop(),
    );
    let mut lanes: Vec<Lane> = (0..net.pops())
        .map(|p| Lane::new(&env, &budgets, p))
        .collect();

    let pops = net.pops() as usize;
    let workers = opts.shards.max(1).min(pops);
    let epoch_len = opts.epoch_len.max(1);
    let mut it = requests.into_iter();
    let mut next_idx = 0u64;
    let mut epochs = 0u64;
    let mut reconcile_ns = 0u64;
    let mut delta_buf: Vec<Delta> = Vec::new();
    loop {
        let mut pulled = 0u64;
        while pulled < epoch_len {
            let Some(req) = it.next() else {
                break;
            };
            lanes[req.pop as usize].bucket.push((next_idx, req));
            next_idx += 1;
            pulled += 1;
        }
        if pulled == 0 {
            break;
        }
        epochs += 1;
        run_epoch(&mut lanes, &env, workers);
        let clock = CellClock::start();
        reconcile(&mut lanes, &mut env, next_idx, &mut delta_buf);
        reconcile_ns += clock.elapsed_ns();
        if pulled < epoch_len {
            break;
        }
    }

    let mut metrics = RunMetrics::new(net.link_count() as usize, pops, net.tree.depth);
    for lane in &lanes {
        metrics.merge(&lane.kernel.metrics);
    }
    let run = ShardRun {
        metrics,
        epochs,
        reconcile_ns,
        workers,
    };
    (run, env, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;
    use crate::kernel::invariant;

    #[test]
    fn lane_directories_match_caches_and_the_published_snapshot() {
        // After the final reconcile every lane's live directory must
        // mirror its caches (nearest-replica routing), and the shared
        // snapshot must be exactly the union of what the lanes hold:
        // per-PoP mask groups under nearest-replica routing, root
        // residency bits under shortest-path routing.
        let (net, trace, origins) = invariant::fixture();
        let objects = origins.len() as u32;
        let opts = ShardOpts {
            shards: 2,
            epoch_len: 512,
        };
        for design in [DesignKind::IcnNr, DesignKind::IcnSp] {
            for (label, cfg) in invariant::stress_configs(design) {
                let requests = trace.requests.iter().copied();
                let (run, env, lanes) =
                    run_lanes(&net, &cfg, &origins, &trace.object_sizes, requests, &opts);
                assert!(run.metrics.cache_hits > 0, "{design:?}/{label}: no hits");
                assert!(env.frozen.masks.is_some() != env.frozen.roots.is_some());
                for lane in &lanes {
                    let world = &lane.kernel.world;
                    if env.tracks_replicas() {
                        invariant::assert_directory_matches_caches(&env, world, objects);
                    }
                    for o in 0..objects {
                        if let Some(masks) = &env.frozen.masks {
                            assert_eq!(
                                masks.group(o, world.pop),
                                world.own_mask(o),
                                "{label}: object {o}, PoP {} group",
                                world.pop
                            );
                        }
                        if let Some(roots) = &env.frozen.roots {
                            assert_eq!(
                                roots[o as usize] >> world.pop & 1 == 1,
                                world.caches[0].contains(o as u64),
                                "{label}: object {o}, PoP {} root residency",
                                world.pop
                            );
                        }
                    }
                }
            }
        }
    }
}
