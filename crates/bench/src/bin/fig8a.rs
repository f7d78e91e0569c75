//! Figure 8(a): ICN-NR − EDGE gap vs Zipf α (three metrics), on the
//! largest topology (AT&T), baseline budgets.
//!
//! Expected shape: the gap shrinks as α grows — popular objects concentrate
//! at the edge, so pervasive caching + nearest-replica routing add less.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::sweep::Scenario;
use icn_workload::origin::OriginPolicy;

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("fig8a");
    icn_bench::banner("Figure 8(a)", "ICN-NR gain over EDGE vs Zipf alpha (AT&T)");
    println!(
        "{:>6} {:>10} {:>12} {:>14}",
        "alpha", "Delay", "Congestion", "Origin load"
    );
    icn_bench::rule(46);
    let alphas = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    let jobs = icn_bench::jobs();
    eprintln!("... building {} scenarios (JOBS={jobs})", alphas.len());
    let scenarios = icn_core::sweep::par_map(alphas.len(), jobs, |_, i| {
        let mut trace_cfg = icn_bench::asia_trace(icn_bench::scale());
        trace_cfg.alpha = alphas[i];
        Scenario::build(
            icn_topology::pop::att(),
            icn_bench::baseline_tree(),
            trace_cfg,
            OriginPolicy::PopulationProportional,
        )
    });
    let pairs: Vec<(&Scenario, ExperimentConfig)> = scenarios
        .iter()
        .map(|s| (s, ExperimentConfig::baseline(DesignKind::Edge)))
        .collect();
    for (alpha, gap) in alphas.iter().zip(telemetry.nr_vs_edge_gap_batch(&pairs)) {
        println!(
            "{alpha:>6.1} {:>10.2} {:>12.2} {:>14.2}",
            gap.latency_pct, gap.congestion_pct, gap.origin_pct
        );
    }
    println!(
        "\nPaper reference: with increasing alpha the gap becomes less positive —\n\
         most requests are already served from edge caches."
    );
    telemetry.finish();
}
