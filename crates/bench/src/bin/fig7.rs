//! Figure 7: the Figure 6 matrix with **uniform** cache budgets and origin
//! assignment — the paper finds "no major change in the relative
//! performances".

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::sweep::{Scenario, SweepCell};
use icn_workload::origin::OriginPolicy;

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("fig7");
    icn_bench::banner(
        "Figure 7",
        "design improvements over no caching, uniform budgets & origins",
    );
    let designs = DesignKind::figure6_designs();
    let topos = icn_bench::paper_topologies();
    let jobs = icn_bench::jobs();
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len(),
        topos.len() * designs.len()
    );
    let scenarios = icn_core::sweep::par_map(topos.len(), jobs, |_, i| {
        Scenario::build(
            topos[i].clone(),
            icn_bench::baseline_tree(),
            icn_bench::asia_trace(icn_bench::scale()),
            OriginPolicy::Uniform,
        )
    });
    let cells: Vec<SweepCell<'_>> = scenarios
        .iter()
        .flat_map(|s| {
            designs.iter().map(move |&d| {
                let mut cfg = ExperimentConfig::baseline(d);
                cfg.budget_policy = icn_cache::budget::BudgetPolicy::Uniform;
                SweepCell { scenario: s, cfg }
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);
    let rows: Vec<(String, Vec<_>)> = topos
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
        println!();
        icn_bench::rule(72);
        for (name, imps) in &rows {
            print!("{name:<10}");
            for i in imps {
                let v = match pick {
                    0 => i.latency_pct,
                    1 => i.congestion_pct,
                    _ => i.origin_pct,
                };
                print!("{v:>12.2}");
            }
            println!();
        }
    }
    println!(
        "\nPaper reference: uniform budgeting does not change the relative ordering\n\
         of the designs (compare with the fig6 output)."
    );
    telemetry.finish();
}
