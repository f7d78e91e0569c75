//! Regression guard for the deterministic-core policy (core's `clippy.toml`,
//! DESIGN.md §7): running the identical simulation twice must produce
//! bit-identical [`RunMetrics`] — every counter, every per-link transfer
//! count, and the full latency histogram. Any wall-clock read, unseeded
//! entropy, or `HashMap` iteration leaking into results breaks this test.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::FaultConfig;
use icn_core::metrics::RunMetrics;
use icn_core::sim::Simulator;
use icn_core::sweep::{run_cells, Scenario, SweepCell};
use icn_topology::{pop, AccessTree, Network};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Region, Trace, TraceIter};

fn run_once(design: DesignKind) -> RunMetrics {
    let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
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
    let cfg = ExperimentConfig::baseline(design);
    let mut sim = Simulator::new(&net, cfg, &origins, &trace.object_sizes);
    sim.run(&trace.requests).clone()
}

#[test]
fn identical_runs_produce_bit_identical_metrics() {
    for design in [DesignKind::IcnSp, DesignKind::IcnNr, DesignKind::EdgeCoop] {
        let a = run_once(design);
        let b = run_once(design);
        // Field-by-field first, so a regression names the leaking metric
        // instead of dumping two full structs.
        assert_eq!(a.requests, b.requests, "{design:?}: request count");
        assert_eq!(
            a.total_latency.to_bits(),
            b.total_latency.to_bits(),
            "{design:?}: total latency must match to the last bit"
        );
        assert_eq!(a.link_transfers, b.link_transfers, "{design:?}: transfers");
        assert_eq!(a.origin_served, b.origin_served, "{design:?}: origin load");
        assert_eq!(a.hits_by_level, b.hits_by_level, "{design:?}: hit levels");
        assert_eq!(
            a.latency_hist, b.latency_hist,
            "{design:?}: latency histogram"
        );
        // And the whole struct, to catch any field added later.
        assert_eq!(a, b, "{design:?}: RunMetrics must be bit-identical");
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    // The tentpole invariant: `run_cells` must return the same bytes at any
    // worker count. One cell per Figure-6 design over a small scenario,
    // compared slot-by-slot between a 1-worker (sequential path) run and
    // runs at several worker counts (including more workers than cells on
    // the tail, to exercise the clamp). ICN-NR and EDGE also run under a
    // clock-bearing policy (TTL, with the kernel's expiry queue) and a
    // sketch-bearing one (TinyLFU admission).
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        Region::Us.config(0.005),
        OriginPolicy::PopulationProportional,
    );
    let policies = [
        icn_cache::PolicyKind::Ttl { ttl: 700 },
        icn_cache::PolicyKind::TinyLfu,
    ];
    let policy_cells = policies.into_iter().flat_map(|policy| {
        [DesignKind::IcnNr, DesignKind::Edge].map(|d| ExperimentConfig {
            policy,
            ..ExperimentConfig::baseline(d)
        })
    });
    let cells: Vec<SweepCell<'_>> = DesignKind::figure6_designs()
        .iter()
        .map(|&d| ExperimentConfig::baseline(d))
        .chain(policy_cells)
        .map(|cfg| SweepCell { scenario: &s, cfg })
        .collect();
    let sequential = run_cells(&cells, 1);
    for jobs in [2, 4, 64] {
        let parallel = run_cells(&cells, jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (i, ((seq_imp, seq_run), (par_imp, par_run))) in
            sequential.iter().zip(&parallel).enumerate()
        {
            let cell = format!("{:?}/{:?}", cells[i].cfg.design, cells[i].cfg.policy);
            assert_eq!(
                seq_imp.latency_pct.to_bits(),
                par_imp.latency_pct.to_bits(),
                "{cell} (jobs={jobs}): latency improvement must match bitwise"
            );
            assert_eq!(seq_imp, par_imp, "{cell} (jobs={jobs}): Improvement");
            assert_eq!(
                seq_run.latency_hist, par_run.latency_hist,
                "{cell} (jobs={jobs}): latency histogram"
            );
            assert_eq!(seq_run, par_run, "{cell} (jobs={jobs}): RunMetrics");
        }
    }
}

#[test]
fn parallel_faulted_sweep_is_bit_identical_to_sequential() {
    // The robustness extension of the invariant above: fault injection is
    // a pure function of (seed, config), so faulted cells must be exactly
    // as deterministic as fault-free ones — one faulted config per
    // Figure-6 design, compared slot-by-slot across worker counts.
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        Region::Us.config(0.005),
        OriginPolicy::PopulationProportional,
    );
    let cells: Vec<SweepCell<'_>> = DesignKind::figure6_designs()
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut cfg = ExperimentConfig::baseline(d);
            // Distinct seeds per design so the cells don't share schedules.
            cfg.fault = Some(FaultConfig::uniform(0xfa17 + i as u64, 0.02));
            SweepCell { scenario: &s, cfg }
        })
        .collect();
    let sequential = run_cells(&cells, 1);
    // The schedules must actually bite — otherwise this test collapses
    // into the fault-free one above.
    assert!(
        sequential.iter().any(|(_, run)| run.failed_requests > 0),
        "no cell saw a failed request; fault rate too low to test anything"
    );
    for jobs in [2, 4, 64] {
        let parallel = run_cells(&cells, jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (i, ((seq_imp, seq_run), (par_imp, par_run))) in
            sequential.iter().zip(&parallel).enumerate()
        {
            let design = cells[i].cfg.design;
            assert_eq!(
                seq_run.failed_requests, par_run.failed_requests,
                "{design:?} (jobs={jobs}): failed-request count"
            );
            assert_eq!(
                seq_run.fault_latency_hist, par_run.fault_latency_hist,
                "{design:?} (jobs={jobs}): under-failure latency histogram"
            );
            assert_eq!(seq_imp, par_imp, "{design:?} (jobs={jobs}): Improvement");
            assert_eq!(seq_run, par_run, "{design:?} (jobs={jobs}): RunMetrics");
        }
    }
}

#[test]
fn zero_failure_schedule_reproduces_fault_free_metrics() {
    // A present-but-zero fault schedule takes the fault-aware code paths
    // yet must reproduce the fault-free run bit-for-bit — this is what
    // keeps existing figure output byte-identical when the fault knob is
    // plumbed through but switched off.
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        Region::Us.config(0.005),
        OriginPolicy::PopulationProportional,
    );
    for design in DesignKind::figure6_designs() {
        let plain = s.run_config(ExperimentConfig::baseline(design));
        let mut cfg = ExperimentConfig::baseline(design);
        cfg.fault = Some(FaultConfig::zero(0x5eed));
        let zeroed = s.run_config(cfg);
        assert_eq!(
            plain, zeroed,
            "{design:?}: zero-failure schedule perturbed the run"
        );
        assert_eq!(zeroed.failed_requests, 0);
        assert_eq!(zeroed.availability_pct(), 100.0);
    }
}

#[test]
fn run_streamed_is_bit_identical_to_materialized_run() {
    // `Simulator::run_streamed` driven by `TraceIter` must reproduce the
    // materialized `Trace::synthesize` + `run` pipeline bit-for-bit —
    // fault-free and under an active fault schedule — or O(window)-memory
    // runs would silently diverge from the figures.
    let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
    let tc = Region::Us.config(0.005);
    let trace = Trace::synthesize(tc.clone(), &net.core.populations, net.leaves_per_pop());
    let origins = assign_origins(
        OriginPolicy::PopulationProportional,
        trace.config.objects,
        &net.core.populations,
        42,
    );
    for design in [DesignKind::IcnSp, DesignKind::IcnNr, DesignKind::EdgeCoop] {
        for fault in [None, Some(FaultConfig::uniform(0xfa17, 0.02))] {
            let mut cfg = ExperimentConfig::baseline(design);
            cfg.fault = fault;
            let mut materialized = Simulator::new(&net, cfg.clone(), &origins, &trace.object_sizes);
            let a = materialized.run(&trace.requests).clone();
            let mut streamed = Simulator::new(&net, cfg, &origins, &trace.object_sizes);
            let iter = TraceIter::new(&tc, &net.core.populations, net.leaves_per_pop());
            let b = streamed.run_streamed(iter).clone();
            assert_eq!(
                a.total_latency.to_bits(),
                b.total_latency.to_bits(),
                "{design:?} (fault={}): streamed latency must match bitwise",
                fault_label(&a)
            );
            assert_eq!(
                a.latency_hist, b.latency_hist,
                "{design:?}: streamed latency histogram"
            );
            assert_eq!(
                a, b,
                "{design:?}: streamed RunMetrics must be bit-identical"
            );
        }
    }
}

fn fault_label(m: &RunMetrics) -> &'static str {
    if m.failed_requests > 0 {
        "faulted"
    } else {
        "free"
    }
}

#[test]
fn different_fault_seeds_actually_change_the_run() {
    // Guards the faulted guard: if the simulator ignored the schedule the
    // bit-identity tests above would pass vacuously.
    let s = Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 3),
        Region::Us.config(0.005),
        OriginPolicy::PopulationProportional,
    );
    let run = |seed: u64| {
        let mut cfg = ExperimentConfig::baseline(DesignKind::IcnNr);
        cfg.fault = Some(FaultConfig::uniform(seed, 0.05));
        s.run_config(cfg)
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn different_trace_seeds_actually_change_the_run() {
    // Guards the guard: if the simulator ignored its inputs the test above
    // would pass vacuously.
    let net = Network::new(pop::abilene(), AccessTree::new(2, 3));
    let mut cfg_a = Region::Us.config(0.005);
    let mut cfg_b = cfg_a.clone();
    cfg_a.seed = 1;
    cfg_b.seed = 2;
    let run = |tc| {
        let trace = Trace::synthesize(tc, &net.core.populations, net.leaves_per_pop());
        let origins = assign_origins(
            OriginPolicy::PopulationProportional,
            trace.config.objects,
            &net.core.populations,
            42,
        );
        let mut sim = Simulator::new(
            &net,
            ExperimentConfig::baseline(DesignKind::IcnSp),
            &origins,
            &trace.object_sizes,
        );
        sim.run(&trace.requests).clone()
    };
    assert_ne!(run(cfg_a), run(cfg_b));
}
