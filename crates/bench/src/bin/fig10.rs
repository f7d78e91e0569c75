//! Figure 10: bridging the best-case ICN-NR gap with simple EDGE
//! extensions, under the Figure 9 end-point configuration (AT&T, α = 0.1,
//! skew = 1, uniform budgeting, F = 2%).
//!
//! Bars: gain of best-case ICN-NR over Baseline (plain EDGE), 2-Levels,
//! Coop, 2-Levels-Coop, Norm, Norm-Coop, Double-Budget-Coop; plus two
//! reference points: Section-4 (the baseline-config gap) and Inf-Budget
//! (both sides with infinite caches).

use icn_cache::budget::BudgetPolicy;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::metrics::Improvement;
use icn_core::sweep::{Scenario, SweepCell};
use icn_workload::origin::OriginPolicy;

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("fig10");
    icn_bench::banner(
        "Figure 10",
        "EDGE extensions vs the best case for ICN-NR (AT&T)",
    );

    // The Figure 9 end-point workload plus the Section-4 reference
    // scenario, both built up front so every cell can go through one
    // parallel batch (12 cells, submission order = the printed order).
    let jobs = icn_bench::jobs();
    eprintln!("... building 2 scenarios, running 12 cells (JOBS={jobs})");
    let scenarios = icn_core::sweep::par_map(2, jobs, |_, i| {
        if i == 0 {
            let mut trace_cfg = icn_bench::asia_trace(icn_bench::scale());
            trace_cfg.alpha = 0.1;
            trace_cfg.skew = 1.0;
            Scenario::build(
                icn_topology::pop::att(),
                icn_bench::baseline_tree(),
                trace_cfg,
                OriginPolicy::PopulationProportional,
            )
        } else {
            icn_bench::baseline_scenario(icn_topology::pop::att())
        }
    });
    let (s, s4) = (&scenarios[0], &scenarios[1]);
    let best_cfg = |design: DesignKind| {
        let mut c = ExperimentConfig::baseline(design);
        c.budget_policy = BudgetPolicy::Uniform;
        c.f_fraction = 0.02;
        c
    };
    let variants = [
        ("Baseline (EDGE)", DesignKind::Edge),
        ("2-Levels", DesignKind::TwoLevels),
        ("Coop", DesignKind::EdgeCoop),
        ("2-Levels-Coop", DesignKind::TwoLevelsCoop),
        ("Norm", DesignKind::EdgeNorm),
        ("Norm-Coop", DesignKind::NormCoop),
        ("Double-Budget-Coop", DesignKind::DoubleBudgetCoop),
    ];
    let mut cells = vec![SweepCell {
        scenario: s,
        cfg: best_cfg(DesignKind::IcnNr),
    }];
    cells.extend(variants.map(|(_, design)| SweepCell {
        scenario: s,
        cfg: best_cfg(design),
    }));
    cells.extend([DesignKind::IcnNr, DesignKind::Edge].map(|d| SweepCell {
        scenario: s4,
        cfg: ExperimentConfig::baseline(d),
    }));
    cells.extend(
        [DesignKind::InfiniteIcnNr, DesignKind::InfiniteEdge].map(|d| SweepCell {
            scenario: s,
            cfg: best_cfg(d),
        }),
    );
    let results = telemetry.improvement_batch(&cells);
    let nr = results[0].0;

    println!(
        "{:<22} {:>10} {:>12} {:>14}",
        "ICN-NR advantage over", "Latency", "Congestion", "Origin-Load"
    );
    icn_bench::rule(62);
    for ((label, _), (edge_variant, _)) in variants.iter().zip(&results[1..=7]) {
        let gap = Improvement::gap(&nr, edge_variant);
        println!(
            "{label:<22} {:>10.2} {:>12.2} {:>14.2}",
            gap.latency_pct, gap.congestion_pct, gap.origin_pct
        );
    }

    // Reference point 1: the Section 4 baseline gap.
    let sec4 = Improvement::gap(&results[8].0, &results[9].0);
    println!(
        "{:<22} {:>10.2} {:>12.2} {:>14.2}",
        "Section-4 (reference)", sec4.latency_pct, sec4.congestion_pct, sec4.origin_pct
    );

    // Reference point 2: infinite budgets on both sides.
    let inf = Improvement::gap(&results[10].0, &results[11].0);
    println!(
        "{:<22} {:>10.2} {:>12.2} {:>14.2}",
        "Inf-Budget (reference)", inf.latency_pct, inf.congestion_pct, inf.origin_pct
    );

    println!(
        "\nPaper reference: Norm + cooperation brings the best-case gap down to\n\
         ~6%; doubling the edge budget can make EDGE beat ICN-NR outright."
    );
    telemetry.finish();
}
