//! Correlated disasters: does the paper's headline survive when failures
//! stop being independent?
//!
//! The `failures` binary sweeps *independent* per-entity fault rates. Real
//! outages cluster: a conduit cut severs every core link of a PoP, a power
//! event takes out a whole aggregation subtree, an overloaded origin sheds
//! load onto its neighbors, and a poisoned cache serves corrupted bytes.
//! This binary sweeps those correlated shapes (see [`icn_core::fault`])
//! across the ICN-NR / EDGE pair and the paper's eight topologies:
//!
//! * `indep`   — the independent baseline (same model as `failures`);
//! * `groups`  — shared-risk groups: PoP subtrees and core-link bundles
//!   fail as a unit, with geometric (MTTR) repair;
//! * `cascade` — degraded origins that saturate shed load onto their core
//!   neighbors next window;
//! * `corrupt` — cached replicas flip poisoned; self-certifying designs
//!   detect and re-fetch, EDGE serves the poison;
//! * `full`    — all of the above at once.
//!
//! Availability is split **reachable** (a response arrived) vs **correct**
//! (the response was authentic): corruption never dents EDGE's reachable
//! availability, only its correct availability.
//!
//! Every cell runs through the same parallel batch path as the figure
//! binaries; schedules are pure functions of their seeds, so output is
//! byte-identical at any `JOBS` value (checked by `scripts/check.sh` via
//! `--smoke`).
//!
//! Usage: `disasters [--smoke]`
//!
//! `--smoke` shrinks the sweep (two topologies, 2% trace scale) so CI can
//! exercise every disaster shape in seconds.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::{DisasterConfig, FaultConfig};
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{Scenario, SweepCell};
use icn_workload::origin::OriginPolicy;

/// The two designs whose gap is the paper's headline number (§5).
const DESIGNS: [DesignKind; 2] = [DesignKind::IcnNr, DesignKind::Edge];

/// Per-window event rate shared by every disaster shape.
const RATE: f64 = 0.05;

/// The swept disaster shapes.
const SHAPES: [&str; 5] = ["indep", "groups", "cascade", "corrupt", "full"];

/// Seed for cell `(topology t, design d, shape s)`: fixed arithmetic on
/// the indices — never wall clock — so reruns are bit-identical.
fn cell_seed(t: usize, d: usize, s: usize) -> u64 {
    0xd15a_0000 + (t * 1_000 + d * 10 + s) as u64
}

/// The fault config of one disaster shape.
fn shape_config(shape: &str, seed: u64) -> FaultConfig {
    match shape {
        "indep" => FaultConfig::uniform(seed, RATE),
        "groups" => FaultConfig {
            disaster: Some(DisasterConfig {
                group_rate: RATE / 2.0,
                group_mttr_windows: 4,
                geometric_repair: true,
                cascade_overload: false,
            }),
            ..FaultConfig::zero(seed)
        },
        "cascade" => {
            // Independent origin degradation, slow recovery, plus the
            // cascade rule — overload spreads along the core.
            let mut cfg = FaultConfig::uniform(seed, RATE);
            cfg.origin_degraded_windows = 3;
            cfg.disaster = Some(DisasterConfig {
                group_rate: 0.0,
                group_mttr_windows: 1,
                geometric_repair: false,
                cascade_overload: true,
            });
            cfg
        }
        "corrupt" => FaultConfig {
            corruption_rate: RATE,
            ..FaultConfig::zero(seed)
        },
        "full" => {
            let mut cfg = FaultConfig::uniform(seed, RATE);
            cfg.origin_degraded_windows = 3;
            cfg.corruption_rate = RATE;
            cfg.disaster = Some(DisasterConfig::full(RATE / 2.0));
            cfg
        }
        other => unreachable!("unknown disaster shape {other}"),
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let telemetry = icn_bench::Telemetry::from_env("disasters");
    let scale = if smoke { 0.02 } else { icn_bench::scale() };
    let topos = {
        let mut t = icn_bench::paper_topologies();
        if smoke {
            t.truncate(2);
        }
        t
    };
    let jobs = icn_bench::jobs();
    // Per (topology, design): one fault-free control plus one per shape.
    let per_pair = 1 + SHAPES.len();

    icn_bench::rule(78);
    println!(
        "Correlated disasters: reachable vs correct availability under shared-risk\n\
         faults, cascading overload, and content corruption\n\
         ({} topologies, {} designs x {} shapes + control)",
        topos.len(),
        DESIGNS.len(),
        SHAPES.len(),
    );
    icn_bench::rule(78);
    eprintln!(
        "... building {} scenarios, running {} cells (JOBS={jobs})",
        topos.len(),
        topos.len() * DESIGNS.len() * per_pair
    );
    let scenarios: Vec<Scenario> = icn_core::sweep::par_map(topos.len(), jobs, |_, i| {
        Scenario::build(
            topos[i].clone(),
            icn_bench::baseline_tree(),
            icn_bench::asia_trace(scale),
            OriginPolicy::PopulationProportional,
        )
    });
    let cells: Vec<SweepCell<'_>> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(t, s)| {
            DESIGNS.iter().enumerate().flat_map(move |(d, &design)| {
                let base = ExperimentConfig::baseline(design);
                std::iter::once(SweepCell {
                    scenario: s,
                    cfg: base.clone(),
                })
                .chain(SHAPES.iter().enumerate().map(move |(sh, &shape)| {
                    let mut cfg = base.clone();
                    cfg.fault = Some(shape_config(shape, cell_seed(t, d, sh)));
                    SweepCell { scenario: s, cfg }
                }))
            })
        })
        .collect();
    let results = telemetry.improvement_batch(&cells);
    let at = |t: usize, d: usize, slot: usize| -> &(Improvement, RunMetrics) {
        &results[(t * DESIGNS.len() + d) * per_pair + slot]
    };

    for (sh, &shape) in SHAPES.iter().enumerate() {
        println!("\n=== disaster shape: {shape} ===");
        println!(
            "{:<10}{:>14}{:>14}{:>14}{:>14}{:>12}{:>12}",
            "Topology",
            "NR reach%",
            "NR correct%",
            "EDGE reach%",
            "EDGE corr%",
            "NR caught",
            "EDGE pois"
        );
        icn_bench::rule(90);
        for (t, topo) in topos.iter().enumerate() {
            let nr = &at(t, 0, 1 + sh).1;
            let edge = &at(t, 1, 1 + sh).1;
            println!(
                "{:<10}{:>14.2}{:>14.2}{:>14.2}{:>14.2}{:>12}{:>12}",
                topo.name,
                nr.availability_pct(),
                nr.correct_availability_pct(),
                edge.availability_pct(),
                edge.correct_availability_pct(),
                nr.corrupt_detected,
                edge.corrupt_served,
            );
        }
    }

    // Gap retention: the headline latency-improvement gap under each
    // disaster shape, relative to the fault-free control.
    println!("\nheadline gap, ICN-NR minus EDGE latency improvement (percentage points)");
    print!("{:<10}{:>10}", "Topology", "control");
    for shape in SHAPES {
        print!("{shape:>10}");
    }
    println!();
    icn_bench::rule(80);
    let mut sums = vec![0.0f64; per_pair];
    for (t, topo) in topos.iter().enumerate() {
        print!("{:<10}", topo.name);
        for (slot, sum) in sums.iter_mut().enumerate() {
            let gap = Improvement::gap(&at(t, 0, slot).0, &at(t, 1, slot).0);
            *sum += gap.latency_pct;
            print!("{:>10.2}", gap.latency_pct);
        }
        println!();
    }
    icn_bench::rule(80);
    print!("{:<10}", "mean");
    for s in &sums {
        print!("{:>10.2}", s / topos.len() as f64);
    }
    println!();

    println!(
        "\nReading: shared-risk groups and cascades dent *reachable* availability\n\
         for every design — whole subtrees and core bundles go dark at once, and\n\
         no routing can serve around a severed origin. Corruption splits the\n\
         designs instead: ICN's self-certified names catch every poisoned replica\n\
         (counted under 'NR caught', paid as re-fetch latency), so its correct\n\
         availability equals its reachable availability, while EDGE serves the\n\
         poison ('EDGE pois') and only its *correct* availability drops. The\n\
         headline latency gap survives every shape."
    );
    telemetry.finish();
}
