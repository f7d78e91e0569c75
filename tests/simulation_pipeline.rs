//! Integration tests: the full simulation pipeline across crates
//! (topology + workload + cache + core).

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::sim::Simulator;
use icn_core::sweep::Scenario;
use icn_topology::{pop, AccessTree, Network};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Trace, TraceConfig};

fn small_cfg() -> TraceConfig {
    TraceConfig {
        requests: 30_000,
        objects: 3_000,
        alpha: 1.04,
        skew: 0.0,
        locality: None,
        sizes: icn_workload::sizes::SizeModel::Unit,
        seed: 99,
    }
}

#[test]
fn conservation_of_requests() {
    // Every request is served exactly once: cache hits + origin hits ==
    // total, for every design.
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::PopulationProportional,
    );
    for design in [
        DesignKind::NoCache,
        DesignKind::Edge,
        DesignKind::EdgeCoop,
        DesignKind::EdgeNorm,
        DesignKind::TwoLevels,
        DesignKind::TwoLevelsCoop,
        DesignKind::IcnSp,
        DesignKind::IcnNr,
    ] {
        let m = s.run_design(design);
        assert_eq!(m.requests, 30_000, "{}", design.name());
        assert_eq!(
            m.cache_hits + m.origin_hits,
            m.requests,
            "{} leaked requests",
            design.name()
        );
        let level_sum: u64 = m.hits_by_level.iter().sum();
        assert_eq!(level_sum, m.cache_hits, "{} hit levels", design.name());
    }
}

#[test]
fn origin_load_equals_origin_hits() {
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::Uniform,
    );
    for design in [DesignKind::NoCache, DesignKind::Edge, DesignKind::IcnNr] {
        let m = s.run_design(design);
        let origin_total: u64 = m.origin_served.iter().sum();
        assert_eq!(origin_total, m.origin_hits, "{}", design.name());
    }
}

#[test]
fn nocache_latency_matches_direct_distance() {
    // With no caches, the measured average latency must equal the average
    // leaf-to-origin distance + 1, computed independently.
    let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
    let cfg = small_cfg();
    let trace = Trace::synthesize(cfg, &net.core.populations, net.leaves_per_pop());
    let origins = assign_origins(
        OriginPolicy::PopulationProportional,
        trace.config.objects,
        &net.core.populations,
        5,
    );
    let mut sim = Simulator::new(
        &net,
        ExperimentConfig::baseline(DesignKind::NoCache),
        &origins,
        &trace.object_sizes,
    );
    sim.run(&trace.requests);
    let measured = sim.metrics().avg_latency();

    let expected: f64 = trace
        .requests
        .iter()
        .map(|r| {
            let leaf = net.leaf(r.pop as u32, r.leaf as u32);
            let origin_root = net.pop_root(origins[r.object as usize] as u32);
            net.distance(leaf, origin_root) as f64 + 1.0
        })
        .sum::<f64>()
        / trace.len() as f64;
    assert!((measured - expected).abs() < 1e-9);
}

#[test]
fn infinite_budget_dominates_finite() {
    let s = Scenario::build(
        pop::geant(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::PopulationProportional,
    );
    let finite = s.improvement(ExperimentConfig::baseline(DesignKind::Edge));
    let infinite = s.improvement(ExperimentConfig::baseline(DesignKind::InfiniteEdge));
    assert!(
        infinite.latency_pct >= finite.latency_pct - 1e-9,
        "infinite cache can't be worse: {infinite:?} vs {finite:?}"
    );
    let sp = s.improvement(ExperimentConfig::baseline(DesignKind::IcnSp));
    let inf_nr = s.improvement(ExperimentConfig::baseline(DesignKind::InfiniteIcnNr));
    assert!(inf_nr.latency_pct >= sp.latency_pct - 1e-9);
}

#[test]
fn bigger_budget_cannot_hurt_edge() {
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::PopulationProportional,
    );
    let mut small = ExperimentConfig::baseline(DesignKind::Edge);
    small.f_fraction = 0.01;
    let mut big = ExperimentConfig::baseline(DesignKind::Edge);
    big.f_fraction = 0.2;
    let si = s.improvement(small);
    let bi = s.improvement(big);
    assert!(
        bi.latency_pct >= si.latency_pct - 0.5,
        "bigger caches should help: {bi:?} vs {si:?}"
    );
}

#[test]
fn weight_by_size_changes_congestion_only() {
    let mut cfg = small_cfg();
    cfg.sizes = icn_workload::sizes::SizeModel::web_default();
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        cfg,
        OriginPolicy::PopulationProportional,
    );
    let mut unweighted = ExperimentConfig::baseline(DesignKind::Edge);
    let mut weighted = unweighted.clone();
    weighted.weight_by_size = true;
    unweighted.weight_by_size = false;
    let mu = s.run_config(unweighted);
    let mw = s.run_config(weighted);
    // Latency identical; congestion counts differ (bytes vs transfers).
    assert_eq!(mu.avg_latency(), mw.avg_latency());
    assert!(mw.max_congestion() > mu.max_congestion());
}

#[test]
fn serving_capacity_pushes_load_to_origin() {
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::PopulationProportional,
    );
    let unlimited = s.run_config(ExperimentConfig::baseline(DesignKind::Edge));
    let mut capped_cfg = ExperimentConfig::baseline(DesignKind::Edge);
    capped_cfg.capacity = Some(icn_core::capacity::ServingCapacity {
        per_node: 5,
        window: 1_000,
    });
    let capped = s.run_config(capped_cfg);
    assert!(capped.cache_hits < unlimited.cache_hits);
    assert!(capped.origin_hits > unlimited.origin_hits);
    assert_eq!(capped.cache_hits + capped.origin_hits, capped.requests);
}

#[test]
fn lfu_is_qualitatively_like_lru() {
    // §3: "We also tried LFU, which yielded qualitatively similar results."
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        small_cfg(),
        OriginPolicy::PopulationProportional,
    );
    let lru = s.improvement(ExperimentConfig::baseline(DesignKind::Edge));
    let mut lfu_cfg = ExperimentConfig::baseline(DesignKind::Edge);
    lfu_cfg.policy = icn_cache::policy::PolicyKind::Lfu;
    let lfu = s.improvement(lfu_cfg);
    assert!(
        (lru.latency_pct - lfu.latency_pct).abs() < 10.0,
        "LRU {lru:?} vs LFU {lfu:?}"
    );
}
