//! Figure 6: % improvement in (a) query latency, (b) congestion, and
//! (c) max origin load for the five designs across eight topologies, with
//! **population-proportional** cache budgets and origin assignment.

use icn_core::design::DesignKind;

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("fig6");
    icn_bench::banner(
        "Figure 6",
        "design improvements over no caching, population-proportional budgets",
    );
    run(
        &telemetry,
        icn_cache::budget::BudgetPolicy::PopulationProportional,
    );
    telemetry.finish();
}

/// Shared by fig6 (proportional) and fig7 (uniform).
pub fn run(telemetry: &icn_bench::Telemetry, budget: icn_cache::budget::BudgetPolicy) {
    let designs = DesignKind::figure6_designs();
    let topos = icn_bench::paper_topologies();
    let jobs = icn_bench::jobs();
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len(),
        topos.len() * designs.len()
    );
    let scenarios = icn_core::sweep::par_map(topos.len(), jobs, |_, i| {
        icn_bench::baseline_scenario(topos[i].clone())
    });
    let cells: Vec<icn_core::sweep::SweepCell<'_>> = scenarios
        .iter()
        .flat_map(|s| {
            designs.iter().map(move |&d| {
                let mut cfg = icn_core::config::ExperimentConfig::baseline(d);
                cfg.budget_policy = budget;
                icn_core::sweep::SweepCell { scenario: s, cfg }
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);
    let rows: Vec<(String, Vec<icn_core::metrics::Improvement>)> = topos
        .iter()
        .zip(results.chunks(designs.len()))
        .map(|(topo, chunk)| {
            (
                topo.name.clone(),
                chunk.iter().map(|(imp, _)| *imp).collect(),
            )
        })
        .collect();

    for (metric, pick) in [
        ("(a) Query latency improvement (%)", 0usize),
        ("(b) Congestion improvement (%)", 1),
        ("(c) Origin server load improvement (%)", 2),
    ] {
        println!("\n{metric}");
        print!("{:<10}", "Topology");
        for d in designs {
            print!("{:>12}", d.name());
        }
        println!("{:>10}", "max gap");
        icn_bench::rule(80);
        for (name, imps) in &rows {
            print!("{name:<10}");
            let vals: Vec<f64> = imps
                .iter()
                .map(|i| match pick {
                    0 => i.latency_pct,
                    1 => i.congestion_pct,
                    _ => i.origin_pct,
                })
                .collect();
            for v in &vals {
                print!("{v:>12.2}");
            }
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            println!("{:>10.2}", max - min);
        }
    }
    println!(
        "\nPaper reference: the gap between architectures is small (≤ ~9%);\n\
         EDGE-Coop tracks ICN-NR within ~3% on latency; ICN-NR adds ≤ 2% over ICN-SP."
    );
}
