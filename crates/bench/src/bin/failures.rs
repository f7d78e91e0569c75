//! Robustness under failure: sweeps a uniform fault rate (node crashes,
//! link failures, origin degradation — see [`icn_core::fault`]) across the
//! five Figure-6 designs and the paper's eight topologies, and reports per
//! design how much availability and latency degrade relative to the same
//! design's fault-free run.
//!
//! Every faulted cell runs through the same parallel batch path as the
//! figure binaries; the schedules are pure functions of their seeds, so
//! output is byte-identical at any `JOBS` value (checked by
//! `scripts/check.sh`).

use icn_core::design::DesignKind;
use icn_core::fault::FaultConfig;
use icn_core::metrics::RunMetrics;

/// Uniform per-window fault rates swept by this binary.
const RATES: [f64; 3] = [0.01, 0.05, 0.10];

/// Seed for cell `(topology t, design d, rate r)`: fixed arithmetic on the
/// indices — never wall clock — so reruns are bit-identical.
fn cell_seed(t: usize, d: usize, r: usize) -> u64 {
    0xfa17_0000 + (t * 1_000 + d * 10 + r) as u64
}

fn main() {
    let telemetry = icn_bench::Telemetry::from_env("failures");
    icn_bench::banner(
        "Robustness under failure",
        "availability and latency degradation vs the fault-free run, per design",
    );
    let designs = DesignKind::figure6_designs();
    let topos = icn_bench::paper_topologies();
    let jobs = icn_bench::jobs();
    // Per (topology, design): one fault-free run plus one per rate.
    let per_pair = 1 + RATES.len();
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len(),
        topos.len() * designs.len() * per_pair
    );
    let scenarios = icn_core::sweep::par_map(topos.len(), jobs, |_, i| {
        icn_bench::baseline_scenario(topos[i].clone())
    });
    let cells: Vec<icn_core::sweep::SweepCell<'_>> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(t, s)| {
            designs.iter().enumerate().flat_map(move |(d, &design)| {
                let base = icn_core::config::ExperimentConfig::baseline(design);
                std::iter::once(icn_core::sweep::SweepCell {
                    scenario: s,
                    cfg: base.clone(),
                })
                .chain(RATES.iter().enumerate().map(move |(r, &rate)| {
                    let mut cfg = base.clone();
                    cfg.fault = Some(FaultConfig::uniform(cell_seed(t, d, r), rate));
                    icn_core::sweep::SweepCell { scenario: s, cfg }
                }))
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);

    // runs[t][d] = [fault-free, rate0, rate1, ...]
    let runs: Vec<Vec<&[(icn_core::metrics::Improvement, RunMetrics)]>> = results
        .chunks(per_pair)
        .collect::<Vec<_>>()
        .chunks(designs.len())
        .map(|topo_chunk| topo_chunk.to_vec())
        .collect();

    for (r, &rate) in RATES.iter().enumerate() {
        println!("\n=== fault rate {rate} per window ===");
        for (metric, measure) in [
            ("availability (%)", 0usize),
            ("latency degradation vs fault-free (%)", 1),
        ] {
            println!("\n{metric}");
            print!("{:<10}", "Topology");
            for d in designs {
                print!("{:>12}", d.name());
            }
            println!();
            icn_bench::rule(70);
            let mut sums = vec![0.0f64; designs.len()];
            for (t, topo) in topos.iter().enumerate() {
                print!("{:<10}", topo.name);
                for (d, _) in designs.iter().enumerate() {
                    let pair = runs[t][d];
                    let base = &pair[0].1;
                    let faulted = &pair[1 + r].1;
                    let v = match measure {
                        0 => faulted.availability_pct(),
                        _ => {
                            let b = base.avg_latency();
                            if b <= 0.0 {
                                0.0
                            } else {
                                (faulted.avg_latency() - b) / b * 100.0
                            }
                        }
                    };
                    sums[d] += v;
                    print!("{v:>12.2}");
                }
                println!();
            }
            icn_bench::rule(70);
            print!("{:<10}", "mean");
            for s in &sums {
                print!("{:>12.2}", s / topos.len() as f64);
            }
            println!();
        }
    }

    // Tail latency while faults are active, at the harshest swept rate.
    let worst = RATES.len() - 1;
    println!(
        "\np99 latency of requests served during fault-active windows (rate {}):",
        RATES[worst]
    );
    print!("{:<10}", "Topology");
    for d in designs {
        print!("{:>12}", d.name());
    }
    println!();
    icn_bench::rule(70);
    for (t, topo) in topos.iter().enumerate() {
        print!("{:<10}", topo.name);
        for (d, _) in designs.iter().enumerate() {
            let faulted = &runs[t][d][1 + worst].1;
            print!("{:>12.2}", faulted.fault_latency_quantile(0.99));
        }
        println!();
    }

    println!(
        "\nReading: caching masks failures it can serve around — EDGE keeps\n\
         availability high when the origin path is cut but the object is cached\n\
         locally; ICN-NR additionally detours to farther live replicas, so its\n\
         availability degrades slowest as the fault rate rises."
    );
    telemetry.finish();
}
