//! Property tests over the simulator: invariants that must hold for every
//! design, topology shape, and workload drawn by proptest.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::sim::Simulator;
use icn_topology::{pop::PopGraph, AccessTree, Network};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Locality, Trace, TraceConfig};
use proptest::prelude::*;

fn any_design() -> impl Strategy<Value = DesignKind> {
    prop_oneof![
        Just(DesignKind::NoCache),
        Just(DesignKind::Edge),
        Just(DesignKind::EdgeCoop),
        Just(DesignKind::EdgeNorm),
        Just(DesignKind::TwoLevels),
        Just(DesignKind::TwoLevelsCoop),
        Just(DesignKind::NormCoop),
        Just(DesignKind::DoubleBudgetCoop),
        Just(DesignKind::IcnSp),
        Just(DesignKind::IcnNr),
        Just(DesignKind::InfiniteEdge),
        Just(DesignKind::InfiniteIcnNr),
    ]
}

/// A small random connected PoP graph (ring + chords keeps it connected).
fn any_core(pops: usize, chords: &[(usize, usize)]) -> PopGraph {
    let labels: Vec<String> = (0..pops).map(|i| format!("p{i}")).collect();
    let populations: Vec<u64> = (0..pops).map(|i| 1_000 + 500 * i as u64).collect();
    let mut edges: Vec<(u32, u32)> = (0..pops)
        .map(|i| (i as u32, ((i + 1) % pops) as u32))
        .collect();
    for &(a, b) in chords {
        let (a, b) = (a % pops, b % pops);
        if a != b {
            edges.push((a as u32, b as u32));
        }
    }
    PopGraph::new("prop", labels, populations, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_served_exactly_once(
        design in any_design(),
        pops in 3usize..7,
        arity in 1u32..4,
        depth in 1u32..4,
        alpha in 0.3f64..1.5,
        f_fraction in 0.0f64..0.3,
        locality_q in 0.0f64..0.9,
        seed in 0u64..1_000,
        chords in prop::collection::vec((0usize..8, 0usize..8), 0..4),
    ) {
        let core = any_core(pops, &chords);
        let net = Network::new(core, AccessTree::new(arity, depth));
        let cfg = TraceConfig {
            requests: 2_000,
            objects: 300,
            alpha,
            skew: 0.0,
            locality: if locality_q > 0.0 {
                Some(Locality { q: locality_q, window: 32 })
            } else {
                None
            },
            sizes: icn_workload::sizes::SizeModel::Unit,
            seed,
        };
        let trace = Trace::synthesize(cfg, &net.core.populations, net.leaves_per_pop());
        let origins = assign_origins(
            OriginPolicy::PopulationProportional,
            trace.config.objects,
            &net.core.populations,
            seed ^ 1,
        );
        let mut exp = ExperimentConfig::baseline(design);
        exp.f_fraction = f_fraction;
        let mut sim = Simulator::new(&net, exp, &origins, &trace.object_sizes);
        sim.run(&trace.requests);
        let m = sim.metrics();

        // 1. Conservation.
        prop_assert_eq!(m.requests, 2_000);
        prop_assert_eq!(m.cache_hits + m.origin_hits, m.requests);
        // 2. Hit levels account for all cache hits.
        prop_assert_eq!(m.hits_by_level.iter().sum::<u64>(), m.cache_hits);
        // 3. Latency bounds: at least 1 per request; at most the network
        //    diameter + 1 per request.
        prop_assert!(m.total_latency >= m.requests as f64);
        let diameter_bound = (2 * depth
            + net.core.len() as u32) as f64 + 3.0;
        prop_assert!(
            m.avg_latency() <= diameter_bound,
            "avg latency {} exceeds bound {}", m.avg_latency(), diameter_bound
        );
        // 4. Origin counters are consistent.
        prop_assert_eq!(m.origin_served.iter().sum::<u64>(), m.origin_hits);
        // 5. NoCache means no cache hits.
        if design == DesignKind::NoCache {
            prop_assert_eq!(m.cache_hits, 0);
        }
        // 6. Congestion totals: every transfer crosses >= 0 links; the
        //    per-link totals are bounded by requests x max path length.
        let total_transfers: u64 = m.link_transfers.iter().sum();
        prop_assert!(total_transfers <= m.requests * diameter_bound as u64);
    }

    #[test]
    fn improvements_are_bounded(
        design in any_design(),
        alpha in 0.5f64..1.3,
        seed in 0u64..100,
    ) {
        let core = any_core(4, &[]);
        let net_tree = AccessTree::new(2, 2);
        let cfg = TraceConfig {
            requests: 3_000,
            objects: 400,
            alpha,
            skew: 0.0,
            locality: None,
            sizes: icn_workload::sizes::SizeModel::Unit,
            seed,
        };
        let s = icn_core::sweep::Scenario::build(
            core,
            net_tree,
            cfg,
            OriginPolicy::PopulationProportional,
        );
        let imp = s.improvement(ExperimentConfig::baseline(design));
        // Improvement over no caching is within [-5, 100] percent: caching
        // never makes latency worse than ~no caching (small negatives can
        // appear only from coop detours).
        for v in [imp.latency_pct, imp.congestion_pct, imp.origin_pct] {
            prop_assert!(v <= 100.0, "{design:?}: {v}");
            prop_assert!(v >= -5.0, "{design:?}: improvement suspiciously negative: {v}");
        }
    }
}
