//! Figure 9: constructing the best case for ICN-NR by progressively setting
//! each parameter to its most favorable value (on AT&T):
//!
//! Baseline → Alpha* (α = 0.1) → Skew* (skew = 1) → Budget-Dist.* (uniform
//! budgeting) → Node-Budget* (F = 2%). The paper's end point: even the best
//! case gives ICN-NR at most ~17% over EDGE.

use icn_cache::budget::BudgetPolicy;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::sweep::Scenario;
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::TraceConfig;

/// The progressive configurations; each step keeps all previous changes.
pub fn steps() -> Vec<(&'static str, TraceConfig, ExperimentConfig)> {
    let base_trace = icn_bench::asia_trace(icn_bench::scale());
    let base_cfg = ExperimentConfig::baseline(DesignKind::Edge);

    let mut alpha_trace = base_trace.clone();
    alpha_trace.alpha = 0.1;
    let mut skew_trace = alpha_trace.clone();
    skew_trace.skew = 1.0;
    let mut uniform_cfg = base_cfg.clone();
    uniform_cfg.budget_policy = BudgetPolicy::Uniform;
    let mut budget_cfg = uniform_cfg.clone();
    budget_cfg.f_fraction = 0.02;

    vec![
        ("Baseline", base_trace, base_cfg),
        ("Alpha*", alpha_trace, uniform_noop()),
        ("Skew*", skew_trace.clone(), uniform_noop()),
        ("Budget-Dist.*", skew_trace.clone(), uniform_cfg),
        ("Node-Budget*", skew_trace, budget_cfg),
    ]
}

fn uniform_noop() -> ExperimentConfig {
    ExperimentConfig::baseline(DesignKind::Edge)
}

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("fig9");
    icn_bench::banner(
        "Figure 9",
        "progressive best-case construction for ICN-NR (AT&T)",
    );
    println!(
        "{:<16} {:>10} {:>12} {:>14}",
        "Step", "Latency", "Congestion", "Origin-Load"
    );
    icn_bench::rule(56);
    // Fix the Alpha* step to also apply to later steps' configs (the
    // construction is cumulative in the trace; configs above already are).
    let steps = steps();
    let jobs = icn_bench::jobs();
    eprintln!("... building {} scenarios (JOBS={jobs})", steps.len());
    let scenarios = icn_core::sweep::par_map(steps.len(), jobs, |_, i| {
        Scenario::build(
            icn_topology::pop::att(),
            icn_bench::baseline_tree(),
            steps[i].1.clone(),
            OriginPolicy::PopulationProportional,
        )
    });
    let pairs: Vec<(&Scenario, ExperimentConfig)> = scenarios
        .iter()
        .zip(&steps)
        .map(|(s, (_, _, template))| (s, template.clone()))
        .collect();
    let gaps = telemetry.nr_vs_edge_gap_batch(&pairs);
    for ((name, _, _), gap) in steps.iter().zip(gaps) {
        println!(
            "{name:<16} {:>10.2} {:>12.2} {:>14.2}",
            gap.latency_pct, gap.congestion_pct, gap.origin_pct
        );
    }
    println!(
        "\nPaper reference: the fully stacked best case gives ICN-NR at most ~17%\n\
         over EDGE across all three metrics."
    );
    telemetry.finish();
}
