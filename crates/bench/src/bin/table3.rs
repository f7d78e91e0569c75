//! Table 3: ICN-NR − EDGE latency-improvement gap, "trace" vs synthetic.
//!
//! The paper compares real CDN traces against best-fit-Zipf synthetic logs.
//! Our stand-in (DESIGN.md): the locality-calibrated trace plays the role
//! of the real trace, and a pure-IRM Zipf trace with the same fitted
//! exponent plays the synthetic. The paper's direction — synthetic (IRM)
//! shows a slightly *larger* gap than the trace — should reproduce.
//!
//! A second table reports the latency *distribution* (p50/p90/p99) and
//! link utilisation (mean and max transfers per link) of the ICN-NR run
//! on the locality trace — the aggregate improvement numbers hide both.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{Scenario, SweepCell};
use icn_workload::origin::OriginPolicy;

/// Paper's Table 3 (query latency gap, %): (topology, trace, synthetic).
const PAPER: [(&str, f64, f64); 8] = [
    ("Abilene", 6.89, 7.81),
    ("Geant", 5.92, 6.96),
    ("Telstra", 7.44, 8.63),
    ("Sprint", 7.09, 8.76),
    ("Verio", 7.40, 8.94),
    ("Tiscali", 7.11, 8.05),
    ("Level3", 6.18, 7.32),
    ("ATT", 7.25, 8.04),
];

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("table3");
    icn_bench::banner(
        "Table 3",
        "ICN-NR vs EDGE latency gap: trace vs best-fit synthetic",
    );
    println!(
        "{:<10} {:>8} {:>10} {:>6} | {:>8} {:>10} {:>6}",
        "", "ours", "", "", "paper", "", ""
    );
    println!(
        "{:<10} {:>8} {:>10} {:>6} | {:>8} {:>10} {:>6}",
        "Topology", "Trace", "Synthetic", "Diff", "Trace", "Synthetic", "Diff"
    );
    icn_bench::rule(72);
    // Two scenarios per topology (locality trace, best-fit synthetic) and
    // two cells per scenario (ICN-NR, EDGE): built and simulated through
    // the parallel sweep engine, printed in topology order.
    let topos = icn_bench::paper_topologies();
    let jobs = icn_bench::jobs();
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len() * 2,
        topos.len() * 4
    );
    let scenarios = icn_core::sweep::par_map(topos.len() * 2, jobs, |_, i| {
        let with_locality = i % 2 == 0;
        let mut cfg = icn_bench::asia_trace(icn_bench::scale());
        if !with_locality {
            cfg.locality = None;
        }
        Scenario::build(
            topos[i / 2].clone(),
            icn_bench::baseline_tree(),
            cfg,
            OriginPolicy::PopulationProportional,
        )
    });
    let cells: Vec<SweepCell<'_>> = scenarios
        .iter()
        .flat_map(|s| {
            [DesignKind::IcnNr, DesignKind::Edge].map(|d| SweepCell {
                scenario: s,
                cfg: ExperimentConfig::baseline(d),
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);
    let gaps: Vec<Improvement> = results
        .chunks(2)
        .map(|pair| Improvement::gap(&pair[0].0, &pair[1].0))
        .collect();
    let mut nr_runs: Vec<(String, RunMetrics)> = Vec::new();
    for (i, topo) in topos.iter().enumerate() {
        let name = topo.name.clone();
        let trace_gap = gaps[2 * i].latency_pct;
        let synth_gap = gaps[2 * i + 1].latency_pct;
        let nr_run = results[4 * i].1.clone();
        let (pname, pt, ps) = PAPER[i];
        assert_eq!(pname, name);
        println!(
            "{name:<10} {:>8.2} {:>10.2} {:>6.2} | {pt:>8.2} {ps:>10.2} {:>6.2}",
            trace_gap,
            synth_gap,
            synth_gap - trace_gap,
            ps - pt,
        );
        nr_runs.push((name, nr_run));
    }

    println!("\nICN-NR on the locality trace: latency distribution & link utilisation");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} | {:>12} {:>12}",
        "Topology", "mean", "p50", "p90", "p99", "mean util", "max util"
    );
    icn_bench::rule(74);
    for (name, run) in &nr_runs {
        println!(
            "{name:<10} {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>12.1} {:>12}",
            run.avg_latency(),
            run.latency_p50(),
            run.latency_p90(),
            run.latency_p99(),
            run.mean_link_utilisation(),
            run.max_congestion(),
        );
    }

    println!(
        "\nPaper reference: the synthetic (IRM) gap exceeds the trace gap by ≤ 1.67%,\n\
         validating Zipf-based synthesis. The same direction should hold above\n\
         (our 'trace' is the locality-calibrated generator; see DESIGN.md).\n\
         The p99/p50 spread shows what the mean improvement hides: tail requests\n\
         still pay near-origin latency under every design."
    );
    telemetry.finish();
}
