//! Property tests for the fault-injection subsystem: a [`FaultSchedule`]
//! is a *pure function* of `(seed, FaultConfig)` — repeated construction,
//! arbitrary query order, and any `run_cells` worker count all observe the
//! same schedule — and a zero-failure schedule leaves [`RunMetrics`]
//! bit-identical to a run with no fault config at all.

use icn_core::capacity::ServingCapacity;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::{FaultConfig, FaultSchedule};
use icn_core::sweep::{run_cells, Scenario, SweepCell};
use icn_topology::{pop, AccessTree};
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::TraceConfig;
use proptest::prelude::*;

fn fault_configs() -> impl Strategy<Value = FaultConfig> {
    (
        (0u64..u64::MAX, 1u32..5_000, 0.0f64..0.5, 1u32..5),
        (0.0f64..0.5, 1u32..5, 0.0f64..0.5, 1u32..200),
        (1u32..5, 0.0f64..0.3),
    )
        .prop_map(
            |((seed, window, ncr, now), (lfr, low, odr, cap), (odw, corr))| FaultConfig {
                seed,
                window,
                node_crash_rate: ncr,
                node_outage_windows: now,
                link_failure_rate: lfr,
                link_outage_windows: low,
                origin_degraded_rate: odr,
                origin_degraded_windows: odw,
                degraded_origin: ServingCapacity {
                    per_node: cap,
                    window,
                },
                corruption_rate: corr,
            },
        )
}

proptest! {
    /// Two schedules built from the same config answer every query
    /// identically — the schedule carries no hidden state, wall-clock
    /// input, or construction-order dependence.
    #[test]
    fn schedule_is_a_pure_function_of_seed_and_config(
        cfg in fault_configs(),
        windows in prop::collection::vec(0u64..1_000_000, 1..50),
        entities in prop::collection::vec(0u32..256, 1..50),
    ) {
        let a = FaultSchedule::new(cfg);
        let b = FaultSchedule::new(cfg);
        for &w in &windows {
            for &e in &entities {
                prop_assert_eq!(a.node_crashes(e, w), b.node_crashes(e, w));
                prop_assert_eq!(a.node_down(e, w), b.node_down(e, w));
                prop_assert_eq!(a.link_down(e, w), b.link_down(e, w));
                prop_assert_eq!(
                    a.origin_degraded(e as u16, w),
                    b.origin_degraded(e as u16, w)
                );
            }
        }
        // Query order must not matter either: re-query in reverse.
        for &w in windows.iter().rev() {
            for &e in entities.iter().rev() {
                prop_assert_eq!(a.node_down(e, w), b.node_down(e, w));
            }
        }
    }

    /// An outage of `k` windows means a crash in window `w` keeps the node
    /// down through window `w + k - 1`, for every drawn config.
    #[test]
    fn outage_windows_cover_the_crash(
        cfg in fault_configs(),
        entity in 0u32..64,
        window in 0u64..100_000,
    ) {
        let s = FaultSchedule::new(cfg);
        if s.node_crashes(entity, window) {
            for k in 0..cfg.node_outage_windows as u64 {
                prop_assert!(
                    s.node_down(entity, window + k),
                    "crash at {window} but up at {} (outage {})",
                    window + k,
                    cfg.node_outage_windows
                );
            }
        }
    }
}

fn tiny_scenario() -> Scenario {
    let mut cfg = TraceConfig::small();
    cfg.requests = 8_000;
    cfg.objects = 800;
    Scenario::build(
        pop::abilene(),
        AccessTree::new(2, 2),
        cfg,
        OriginPolicy::PopulationProportional,
    )
}

proptest! {
    // Full simulator runs are costly; a handful of drawn seeds/rates is
    // plenty to catch order- or thread-dependence.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Faulted sweep cells return bit-identical results at any worker
    /// count, for arbitrary schedule seeds and rates.
    #[test]
    fn faulted_run_cells_agree_across_worker_counts(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.3,
    ) {
        let s = tiny_scenario();
        let mut cells: Vec<SweepCell<'_>> = [DesignKind::IcnNr, DesignKind::Edge, DesignKind::EdgeCoop]
            .iter()
            .map(|&d| {
                let mut cfg = ExperimentConfig::baseline(d);
                cfg.fault = Some(FaultConfig::uniform(seed, rate));
                SweepCell { scenario: &s, cfg }
            })
            .collect();
        // Cells with replica corruption must honor the same guarantee.
        for d in [DesignKind::IcnNr, DesignKind::Edge] {
            let mut cfg = ExperimentConfig::baseline(d);
            let mut fc = FaultConfig::uniform(seed, rate);
            fc.corruption_rate = rate;
            cfg.fault = Some(fc);
            cells.push(SweepCell { scenario: &s, cfg });
        }
        let sequential = run_cells(&cells, 1);
        for jobs in [2, 8] {
            let parallel = run_cells(&cells, jobs);
            for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
                prop_assert_eq!(seq, par, "cell {} differs at jobs={}", i, jobs);
            }
        }
    }

    /// A zero-rate schedule (any seed, any window length) reproduces the
    /// fault-free run bit-for-bit.
    #[test]
    fn zero_rate_schedule_is_invisible(
        seed in 0u64..u64::MAX,
        window in 1u32..10_000,
    ) {
        let s = tiny_scenario();
        for design in [DesignKind::IcnSp, DesignKind::IcnNr, DesignKind::EdgeCoop] {
            let plain = s.run_config(ExperimentConfig::baseline(design));
            let mut cfg = ExperimentConfig::baseline(design);
            let mut fc = FaultConfig::zero(seed);
            fc.window = window;
            cfg.fault = Some(fc);
            let zeroed = s.run_config(cfg);
            prop_assert_eq!(&plain, &zeroed, "{:?}: zero schedule changed the run", design);
            prop_assert_eq!(zeroed.failed_requests, 0);
        }
    }
}
