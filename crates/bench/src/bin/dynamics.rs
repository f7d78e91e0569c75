//! Non-stationary workloads × admission/expiry policies: does the paper's
//! headline — "incremental EDGE deployment captures most of ICN's gain" —
//! survive when the request stream stops being a stationary IRM?
//!
//! Sweeps four workload shapes (static IRM, diurnal popularity cycles,
//! flash crowds on cold objects, content churn — see
//! [`icn_workload::dynamics`]) against four cache policies (LRU,
//! probabilistic insertion, TTL leases, TinyLFU admission) for the two
//! designs that define the headline gap, ICN-NR and EDGE. Every cell runs
//! through the same parallel batch path as the figure binaries; dynamics
//! are seeded through the trace config, so output is byte-identical at
//! any `JOBS` value (checked by `scripts/check.sh` via `--smoke`).
//!
//! Usage: `dynamics [--smoke]`
//!
//! `--smoke` shrinks the sweep (two topologies, 2% trace scale) so CI can
//! exercise the full grid — dynamics synthesis, the TTL expiry queue,
//! TinyLFU admission — in seconds.

use icn_cache::PolicyKind;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::metrics::Improvement;
use icn_core::sweep::{par_map, Scenario, SweepCell};
use icn_workload::dynamics::DynamicsConfig;
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::TraceConfig;

/// The two designs whose latency-improvement difference is the paper's
/// headline number (§5).
const DESIGNS: [DesignKind; 2] = [DesignKind::IcnNr, DesignKind::Edge];

/// Workload shapes swept, as `(label, preset)` — `None` is the paper's
/// stationary IRM baseline.
fn workloads(requests: usize) -> [(&'static str, Option<DynamicsConfig>); 4] {
    [
        ("static", None),
        ("diurnal", Some(DynamicsConfig::diurnal(requests))),
        ("flash", Some(DynamicsConfig::flash(requests))),
        ("churn", Some(DynamicsConfig::churn(requests))),
    ]
}

/// Cache policies swept, as `(label, kind)`. The TTL lease is an eighth
/// of the trace in logical time — long enough to hold the working set,
/// short enough to shed a finished flash crowd before the run ends.
fn policies(requests: usize) -> [(&'static str, PolicyKind); 4] {
    let ttl = (requests as u64 / 8).max(1) as u32;
    [
        ("LRU", PolicyKind::Lru),
        ("Prob50", PolicyKind::Prob { admit_pct: 50 }),
        ("TTL", PolicyKind::Ttl { ttl }),
        ("TinyLFU", PolicyKind::TinyLfu),
    ]
}

fn main() {
    // Telemetry flags (--telemetry/--trace/--flight/--sample) are parsed
    // by `Telemetry::from_env`; this binary only adds `--smoke`.
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let telemetry = icn_bench::Telemetry::from_env("dynamics");
    let scale = if smoke { 0.02 } else { icn_bench::scale() };
    let topos = {
        let mut t = icn_bench::paper_topologies();
        if smoke {
            t.truncate(2);
        }
        t
    };
    let jobs = icn_bench::jobs();

    let base_trace = icn_bench::asia_trace(scale);
    let requests = base_trace.requests;
    let loads = workloads(requests);
    let pols = policies(requests);
    icn_bench::rule(78);
    println!(
        "Workload dynamics: ICN-NR vs EDGE gap under non-stationary demand\n\
         ({} requests/trace, {} topologies, {} workloads x {} policies)",
        requests,
        topos.len(),
        loads.len(),
        pols.len(),
    );
    icn_bench::rule(78);

    // One scenario per (topology, workload): dynamics are part of the
    // trace, so each workload shape is its own synthesized stream.
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len() * loads.len(),
        topos.len() * loads.len() * pols.len() * DESIGNS.len()
    );
    let scenarios: Vec<Scenario> = par_map(topos.len() * loads.len(), jobs, |_, i| {
        let (t, w) = (i / loads.len(), i % loads.len());
        let cfg = TraceConfig {
            dynamics: loads[w].1,
            ..base_trace.clone()
        };
        Scenario::build(
            topos[t].clone(),
            icn_bench::baseline_tree(),
            cfg,
            OriginPolicy::PopulationProportional,
        )
    });
    let cells: Vec<SweepCell<'_>> = scenarios
        .iter()
        .flat_map(|s| {
            pols.iter().flat_map(move |&(_, policy)| {
                DESIGNS.map(move |design| {
                    let mut cfg = ExperimentConfig::baseline(design);
                    cfg.policy = policy;
                    SweepCell { scenario: s, cfg }
                })
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);

    // results index: ((t * W + w) * P + p) * 2 + d.
    let gap_of = |t: usize, w: usize, p: usize| -> Improvement {
        let at =
            |d: usize| &results[((t * loads.len() + w) * pols.len() + p) * DESIGNS.len() + d].0;
        Improvement::gap(at(0), at(1))
    };

    for (w, (wname, _)) in loads.iter().enumerate() {
        println!("\n=== workload: {wname} ===");
        println!("latency-improvement gap, ICN-NR minus EDGE (percentage points)");
        print!("{:<10}", "Topology");
        for (pname, _) in &pols {
            print!("{pname:>10}");
        }
        println!();
        icn_bench::rule(50);
        for (t, topo) in topos.iter().enumerate() {
            print!("{:<10}", topo.name);
            for p in 0..pols.len() {
                print!("{:>10.2}", gap_of(t, w, p).latency_pct);
            }
            println!();
        }
    }

    println!("\nmean gap across topologies (percentage points)");
    print!("{:<10}", "Workload");
    for (pname, _) in &pols {
        print!("{pname:>10}");
    }
    println!();
    icn_bench::rule(50);
    for (w, (wname, _)) in loads.iter().enumerate() {
        print!("{wname:<10}");
        for p in 0..pols.len() {
            let mean = (0..topos.len())
                .map(|t| gap_of(t, w, p).latency_pct)
                .sum::<f64>()
                / topos.len() as f64;
            print!("{mean:>10.2}");
        }
        println!();
    }

    println!(
        "\nReading: a positive cell means pervasive in-network caching (ICN-NR)\n\
         beats edge-only caching by that many points of latency improvement.\n\
         Content churn widens the gap — rotated ranks cold-start every cache,\n\
         and interior nodes re-converge on the new heads faster — and TTL\n\
         leases widen it most: expiry hits an edge-only deployment hardest,\n\
         since every lapsed lease is a full trip to the origin rather than\n\
         to a surviving interior replica.\n\
         Admission filtering (TinyLFU) holds the gap near the LRU baseline.\n\
         In every cell the gap stays modest, so the paper's claim — the\n\
         incremental deployment keeps most of the gain — survives\n\
         non-stationary demand."
    );
    telemetry.finish();
}
