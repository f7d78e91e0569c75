//! Determinism guarantees of the epoch-sharded engine (`icn_core::shard`,
//! DESIGN.md §13), layered from strongest to weakest:
//!
//! 1. **Worker-count invariance** — the shard count is pure mechanics:
//!    `shards = 1` and `shards = N` must produce bit-identical
//!    [`RunMetrics`] for *every* configuration (all five Figure-6
//!    designs, faults, TTL, capacity, probabilistic
//!    insertion). This is the invariant `scripts/check.sh` byte-compares
//!    end-to-end.
//! 2. **Exact sequential equivalences** — where the epoch semantics
//!    provably collapse onto the sequential simulator (a single-PoP
//!    network, or `epoch_len = 1` without lane-local state deviations),
//!    the engine must reproduce `Simulator` bit-for-bit.
//! 3. **Oracle equality** — on a single-PoP network the lane world must
//!    equal the external oracle (`tests/oracle.rs`, included below as a
//!    module) directly, not only through the sequential simulator.

use icn_core::capacity::ServingCapacity;
use icn_core::config::{ExperimentConfig, InsertionPolicy};
use icn_core::design::DesignKind;
use icn_core::fault::FaultConfig;
use icn_core::metrics::RunMetrics;
use icn_core::shard::{run_sharded, supported, ShardOpts};
use icn_core::sim::Simulator;
use icn_topology::{pop, AccessTree, Network, PopGraph};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Region, Trace, TraceIter};
use proptest::prelude::*;

#[path = "oracle.rs"]
mod oracle;

struct Fixture {
    net: Network,
    trace: Trace,
    origins: Vec<u16>,
}

impl Fixture {
    fn abilene() -> Self {
        Self::build(pop::abilene())
    }

    /// A one-PoP "network": no foreign state exists, so the epoch engine
    /// must collapse onto the sequential simulator exactly.
    fn single_pop() -> Self {
        Self::build(PopGraph::new(
            "solo",
            vec!["only".into()],
            vec![10_000_000],
            vec![],
        ))
    }

    fn build(graph: PopGraph) -> Self {
        let net = Network::new(graph, AccessTree::new(2, 3));
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
        Self {
            net,
            trace,
            origins,
        }
    }

    fn sharded(&self, cfg: &ExperimentConfig, opts: &ShardOpts) -> RunMetrics {
        run_sharded(
            &self.net,
            cfg,
            &self.origins,
            &self.trace.object_sizes,
            self.trace.requests.iter().copied(),
            opts,
        )
        .metrics
    }

    fn sequential(&self, cfg: &ExperimentConfig) -> RunMetrics {
        let mut sim = Simulator::new(
            &self.net,
            cfg.clone(),
            &self.origins,
            &self.trace.object_sizes,
        );
        sim.run(&self.trace.requests).clone()
    }
}

/// One "spicy" config per stress axis, all on the same design.
fn variants(design: DesignKind) -> Vec<(&'static str, ExperimentConfig)> {
    let base = ExperimentConfig::baseline(design);
    let mut out = vec![("baseline", base.clone())];
    let mut faulted = base.clone();
    let mut fc = FaultConfig::uniform(0xfa17, 0.02);
    fc.corruption_rate = 0.01;
    faulted.fault = Some(fc);
    out.push(("faulted+corrupt", faulted));
    let mut ttl = base.clone();
    ttl.policy = icn_cache::PolicyKind::Ttl { ttl: 700 };
    out.push(("ttl", ttl));
    let mut capped = base.clone();
    capped.capacity = Some(ServingCapacity {
        per_node: 3,
        window: 100,
    });
    out.push(("capacity", capped));
    let mut prob = base.clone();
    prob.insertion = InsertionPolicy::Probabilistic { p: 0.5 };
    out.push(("probabilistic", prob));
    let mut lcd = base;
    lcd.insertion = InsertionPolicy::LeaveCopyDown;
    out.push(("lcd", lcd));
    out
}

#[test]
fn worker_count_never_changes_a_byte() {
    // The tentpole invariant: lanes are the unit of determinism, workers
    // are pure mechanics. Every Figure-6 design under every stress axis
    // must produce identical RunMetrics at any shard count.
    let f = Fixture::abilene();
    for design in DesignKind::figure6_designs() {
        for (label, cfg) in variants(design) {
            assert!(supported(&f.net, &cfg), "{design:?}/{label}: unsupported");
            let opts = |shards| ShardOpts {
                shards,
                epoch_len: 512,
            };
            let one = f.sharded(&cfg, &opts(1));
            for shards in [2, 4, 64] {
                let many = f.sharded(&cfg, &opts(shards));
                assert_eq!(
                    one.total_latency.to_bits(),
                    many.total_latency.to_bits(),
                    "{design:?}/{label} (shards={shards}): latency bits"
                );
                assert_eq!(
                    one, many,
                    "{design:?}/{label} (shards={shards}): RunMetrics"
                );
            }
        }
    }
}

#[test]
fn single_pop_epoch_engine_matches_sequential() {
    // With one PoP there is no foreign state: no frozen snapshot, no
    // deltas, and lane 0 shares the sequential simulator's RNG seed. The
    // epoch engine must therefore reproduce `Simulator` bit-for-bit even
    // under TTL, capacity, probabilistic insertion, and (uniform) faults.
    let f = Fixture::single_pop();
    for design in [DesignKind::IcnNr, DesignKind::IcnSp, DesignKind::EdgeCoop] {
        for (label, cfg) in variants(design) {
            let want = f.sequential(&cfg);
            let got = f.sharded(
                &cfg,
                &ShardOpts {
                    shards: 1,
                    epoch_len: 97, // many boundaries, none aligned to anything
                },
            );
            assert_eq!(
                want.total_latency.to_bits(),
                got.total_latency.to_bits(),
                "{design:?}/{label}: single-PoP latency bits"
            );
            assert_eq!(want, got, "{design:?}/{label}: single-PoP RunMetrics");
        }
    }
}

#[test]
fn epoch_len_one_matches_sequential_multi_pop() {
    // With an epoch per request the frozen snapshot is refreshed before
    // every request, so — absent lane-local state (faults, capacity,
    // TTL, per-lane RNG) — the epoch engine degenerates to the
    // sequential simulator on any topology.
    let f = Fixture::abilene();
    for design in DesignKind::figure6_designs() {
        for insertion in [InsertionPolicy::Everywhere, InsertionPolicy::LeaveCopyDown] {
            let mut cfg = ExperimentConfig::baseline(design);
            cfg.insertion = insertion;
            let want = f.sequential(&cfg);
            let got = f.sharded(
                &cfg,
                &ShardOpts {
                    shards: 4,
                    epoch_len: 1,
                },
            );
            assert_eq!(
                want.total_latency.to_bits(),
                got.total_latency.to_bits(),
                "{design:?}/{insertion:?}: epoch_len=1 latency bits"
            );
            assert_eq!(
                want, got,
                "{design:?}/{insertion:?}: epoch_len=1 RunMetrics"
            );
        }
    }
}

#[test]
fn streamed_requests_match_materialized() {
    // `run_sharded` pulls straight off the iterator; epoch boundaries
    // land wherever they land — including mid-locality-window (the trace
    // synthesizer's per-leaf history window is 256; 173 never divides
    // it). Streaming the trace must equal materializing it first.
    let f = Fixture::abilene();
    let tc = Region::Us.config(0.005);
    for design in [DesignKind::IcnNr, DesignKind::EdgeCoop] {
        let cfg = ExperimentConfig::baseline(design);
        let opts = ShardOpts {
            shards: 3,
            epoch_len: 173,
        };
        let materialized = f.sharded(&cfg, &opts);
        let streamed = run_sharded(
            &f.net,
            &cfg,
            &f.origins,
            &f.trace.object_sizes,
            TraceIter::new(&tc, &f.net.core.populations, f.net.leaves_per_pop()),
            &opts,
        )
        .metrics;
        assert_eq!(
            materialized, streamed,
            "{design:?}: streamed epochs diverged from materialized"
        );
    }
}

#[test]
fn single_pop_epoch_engine_matches_the_oracle() {
    // The lane world judged by the same external implementation as the
    // live world: with one PoP there is no foreign state, so lane-local
    // directory masks, TTL queue, capacity counters and fault views must
    // reproduce the naive simulator bit for bit.
    let f = Fixture::single_pop();
    for design in [DesignKind::IcnNr, DesignKind::IcnSp, DesignKind::EdgeCoop] {
        for (label, cfg) in variants(design) {
            let want = oracle::run(
                &f.net,
                &cfg,
                &f.origins,
                &f.trace.object_sizes,
                &f.trace.requests,
            );
            let got = f.sharded(
                &cfg,
                &ShardOpts {
                    shards: 1,
                    epoch_len: 97,
                },
            );
            assert_eq!(
                want.total_latency.to_bits(),
                got.total_latency.to_bits(),
                "{design:?}/{label}: lane/oracle latency bits"
            );
            assert_eq!(want, got, "{design:?}/{label}: lane/oracle RunMetrics");
        }
    }
}

#[test]
fn epoch_count_and_worker_clamp_are_reported() {
    let f = Fixture::abilene();
    let cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
    let requests = f.trace.requests.len() as u64;
    let run = run_sharded(
        &f.net,
        &cfg,
        &f.origins,
        &f.trace.object_sizes,
        f.trace.requests.iter().copied(),
        &ShardOpts {
            shards: 1_000,
            epoch_len: 512,
        },
    );
    assert_eq!(run.epochs, requests.div_ceil(512));
    assert_eq!(run.workers, f.net.pops() as usize, "worker clamp to PoPs");
    assert_eq!(run.metrics.requests, requests);
}

#[test]
fn oversized_trees_are_rejected_by_supported() {
    // A 255-node access tree cannot be bit-packed into the u128 rank
    // masks; nearest-replica routing must be gated out (callers fall
    // back to the sequential simulator) while edge designs — which never
    // read the directory — stay eligible.
    let net = Network::new(pop::abilene(), AccessTree::new(2, 8));
    assert!(net.tree.nodes() > 128);
    assert!(!supported(
        &net,
        &ExperimentConfig::baseline(DesignKind::IcnNr)
    ));
    assert!(supported(
        &net,
        &ExperimentConfig::baseline(DesignKind::Edge)
    ));

    // Shortest-path routing with cache-equipped PoP roots keeps one
    // residency bit per PoP in a u128: a 129-PoP ring is one too many for
    // ICN-SP, while EDGE (leaf caches only, so no root residency to
    // track) and ICN-NR (per-PoP mask groups, any PoP count) stay
    // eligible.
    let pops = 129u32;
    let ring = PopGraph::new(
        "ring129",
        (0..pops).map(|p| format!("p{p}")).collect(),
        vec![1_000; pops as usize],
        (0..pops).map(|p| (p, (p + 1) % pops)).collect(),
    );
    let wide = Network::new(ring, AccessTree::new(2, 2));
    assert!(!supported(
        &wide,
        &ExperimentConfig::baseline(DesignKind::IcnSp)
    ));
    assert!(supported(
        &wide,
        &ExperimentConfig::baseline(DesignKind::Edge)
    ));
    assert!(supported(
        &wide,
        &ExperimentConfig::baseline(DesignKind::IcnNr)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized worker-count invariance: any (design, epoch length,
    /// shard count, stress axis) combination must match its shards=1
    /// run bit-for-bit.
    #[test]
    fn prop_shard_count_invariance(
        design_idx in 0usize..5,
        epoch_len in 1u64..1500,
        shards in 2usize..8,
        variant_idx in 0usize..6,
    ) {
        let f = Fixture::abilene();
        let design = DesignKind::figure6_designs()[design_idx];
        let (label, cfg) = variants(design).swap_remove(variant_idx);
        let opts = |shards| ShardOpts { shards, epoch_len };
        let one = f.sharded(&cfg, &opts(1));
        let many = f.sharded(&cfg, &opts(shards));
        prop_assert_eq!(
            one, many,
            "{:?}/{} (epoch_len={}, shards={}): RunMetrics diverged",
            design, label, epoch_len, shards
        );
    }
}
