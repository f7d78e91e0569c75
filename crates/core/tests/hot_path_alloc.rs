//! Once warm, the request kernel allocates nothing per request. A counting
//! global allocator watches a third `Simulator::run` of a trace the
//! simulator has already run twice, so every transitive callee is covered.
//! The count is per thread: parallel tests cannot pollute it.
//!
//! The replica directory is one flat bitset sized at construction, so
//! ICN-NR on 255-node trees (four words per PoP group) is asserted along
//! with the 15-node default. So is ICN-NR's probing selection, under
//! faults and under the ablation's serving-capacity limit, which reuses
//! one candidate scratch.
//!
//! Not asserted, because they allocate (third-run counts on this trace):
//! EDGE-Norm 1, Norm-Coop 2, Double-Budget-Coop 5; ICN-NR under TTL (700
//! ticks) 4, FIFO 3, TinyLFU 29, Prob (50 %) 22 and probabilistic
//! insertion 24. ICN-NR on 127-node trees allocates too: this short trace
//! does not fill its LRUs, so their slabs still grow on the third run.
//! LFU allocates 3,893 times per 110k requests, because its `BTreeSet`
//! eviction order allocates nodes as it churns: a finding, not yet fixed.

#![expect(unsafe_code, reason = "a counting GlobalAlloc is an unsafe impl")]

use icn_core::capacity::ServingCapacity;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::FaultConfig;
use icn_core::sim::Simulator;
use icn_topology::{pop, AccessTree, Network};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Region, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to `System`; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Asserts that the third run of one trace on Abilene with `tree` access
/// trees allocates nothing under each config.
fn assert_warm_runs_allocate_nothing(
    tree: AccessTree,
    cfgs: impl IntoIterator<Item = ExperimentConfig>,
) {
    let net = Network::new(pop::abilene(), tree);
    let populations = &net.core.populations;
    let trace = Trace::synthesize(Region::Us.config(0.1), populations, net.leaves_per_pop());
    let origins = assign_origins(
        OriginPolicy::PopulationProportional,
        trace.config.objects,
        populations,
        42,
    );
    let mut counts = Vec::new();
    for cfg in cfgs {
        let design = cfg.design;
        let mut sim = Simulator::new(&net, cfg, &origins, &trace.object_sizes);
        sim.run(&trace.requests);
        sim.run(&trace.requests);
        let before = ALLOCS.get();
        sim.run(&trace.requests);
        counts.push((design, ALLOCS.get() - before));
    }
    assert!(
        counts.iter().all(|&(_, n)| n == 0),
        "allocations: {counts:?}"
    );
}

#[test]
fn warm_lru_runs_allocate_nothing() {
    use DesignKind::*;
    let designs = [
        NoCache,
        IcnSp,
        IcnNr,
        Edge,
        EdgeCoop,
        TwoLevels,
        TwoLevelsCoop,
    ];
    assert_warm_runs_allocate_nothing(
        AccessTree::new(2, 3),
        designs.map(ExperimentConfig::baseline),
    );
}

#[test]
fn warm_wide_tree_nr_runs_allocate_nothing() {
    let nr = ExperimentConfig::baseline(DesignKind::IcnNr);
    assert_warm_runs_allocate_nothing(AccessTree::new(2, 7), [nr]);
}

#[test]
fn warm_faulted_runs_allocate_nothing() {
    let faulted = |design| ExperimentConfig {
        fault: Some(FaultConfig::uniform(0xfa17, 0.02)),
        ..ExperimentConfig::baseline(design)
    };
    let designs = [DesignKind::IcnNr, DesignKind::IcnSp, DesignKind::Edge];
    let capacity_limited_nr = ExperimentConfig {
        capacity: Some(ServingCapacity {
            per_node: 50,
            window: 10_000,
        }),
        ..ExperimentConfig::baseline(DesignKind::IcnNr)
    };
    let cfgs = designs
        .map(faulted)
        .into_iter()
        .chain([capacity_limited_nr]);
    assert_warm_runs_allocate_nothing(AccessTree::new(2, 3), cfgs);
}
