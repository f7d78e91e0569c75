//! Extension sweeps beyond the paper: independent faults (`failures`),
//! correlated disasters (`disasters`) and non-stationary demand under
//! admission/expiry policies (`dynamics`). Fault schedules and dynamics
//! are pure functions of their seeds, so each is byte-identical at any
//! `JOBS` (checked by `scripts/check.sh`).

use crate::grid::{build, names, rule, spec, specs_on, table, topologies, Grid, Spec, NR_EDGE};
use crate::{RunOpts, Telemetry};
use icn_cache::PolicyKind;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::{DisasterConfig, FaultConfig};
use icn_core::metrics::RunMetrics;
use icn_workload::dynamics::DynamicsConfig;
use std::io::{self, Write};

/// Seed for faulted cell `(topology t, design d, rate or shape r)`: fixed
/// arithmetic on the indices — never wall clock — so reruns are
/// bit-identical.
fn cell_seed(base: u64, t: usize, d: usize, r: usize) -> u64 {
    base + (t * 1_000 + d * 10 + r) as u64
}

/// Uniform per-window fault rates swept by `failures`.
const RATES: [f64; 3] = [0.01, 0.05, 0.10];

/// Robustness under failure: a uniform fault rate (node crashes, link
/// failures, origin degradation — see [`icn_core::fault`]) across the five
/// Figure-6 designs and eight topologies; availability and latency
/// degradation relative to the same design's fault-free run.
pub fn failures(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let designs = DesignKind::figure6_designs();
    let cols: Vec<_> = designs.iter().map(|d| (d.name(), 12)).collect();
    let topos = topologies(opts);
    let head = ("Topology", &names(&topos)[..]);
    let scenarios = build(opts, &specs_on(&topos, opts));
    // Per (topology, design): the fault-free run, then one per rate.
    let cfg = |t, d, v: usize| {
        let fault = |r: usize| FaultConfig::uniform(cell_seed(0xfa17_0000, t, d, r), RATES[r]);
        let fault = v.checked_sub(1).map(fault);
        ExperimentConfig {
            fault,
            ..ExperimentConfig::baseline(designs[d])
        }
    };
    let grid = Grid::run(tel, &scenarios, designs.len(), 1 + RATES.len(), cfg);
    type Measure = fn(&RunMetrics, &RunMetrics) -> f64;
    let measures: [(&str, Measure); 2] = [
        ("availability (%)", |_, faulted| faulted.availability_pct()),
        ("latency degradation vs fault-free (%)", |base, faulted| {
            let b = base.avg_latency();
            if b <= 0.0 {
                0.0
            } else {
                (faulted.avg_latency() - b) / b * 100.0
            }
        }),
    ];
    for (r, rate) in RATES.iter().enumerate() {
        writeln!(out, "\n=== fault rate {rate} per window ===")?;
        for (metric, measure) in measures {
            writeln!(out, "\n{metric}")?;
            let cell = |t, d, v| &grid.cell(t, d, v).1;
            table(out, head, &cols, 70, true, |t, d| {
                measure(cell(t, d, 0), cell(t, d, 1 + r))
            })?;
        }
    }

    // Tail latency while faults are active, at the harshest swept rate.
    let worst = RATES.len();
    writeln!(
        out,
        "\np99 latency of requests served during fault-active windows (rate {}):",
        RATES[worst - 1]
    )?;
    table(out, head, &cols, 70, false, |t, d| {
        grid.cell(t, d, worst).1.fault_latency_quantile(0.99)
    })
}

/// Per-window event rate shared by every disaster shape.
const RATE: f64 = 0.05;

/// The disaster shapes swept by `disasters`.
const SHAPES: [&str; 5] = ["indep", "groups", "cascade", "corrupt", "full"];

/// The fault config of one disaster shape:
///
/// * `indep` — the independent baseline (the `failures` model);
/// * `groups` — shared-risk groups: PoP subtrees and core-link bundles fail
///   as a unit, with geometric (MTTR) repair;
/// * `cascade` — degraded origins that saturate shed load onto their core
///   neighbors next window;
/// * `corrupt` — cached replicas flip poisoned; self-certifying designs
///   detect and re-fetch, EDGE serves the poison;
/// * `full` — all of the above at once.
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
        // Independent origin degradation, slow recovery, plus the cascade
        // rule — overload spreads along the core.
        "cascade" => FaultConfig {
            origin_degraded_windows: 3,
            disaster: Some(DisasterConfig {
                group_rate: 0.0,
                group_mttr_windows: 1,
                geometric_repair: false,
                cascade_overload: true,
            }),
            ..FaultConfig::uniform(seed, RATE)
        },
        "corrupt" => FaultConfig {
            corruption_rate: RATE,
            ..FaultConfig::zero(seed)
        },
        "full" => FaultConfig {
            origin_degraded_windows: 3,
            corruption_rate: RATE,
            disaster: Some(DisasterConfig::full(RATE / 2.0)),
            ..FaultConfig::uniform(seed, RATE)
        },
        other => unreachable!("unknown disaster shape {other}"),
    }
}

/// Correlated disasters: does the headline survive when failures stop
/// being independent? Each [`SHAPES`] entry across ICN-NR / EDGE and the
/// topologies, with availability split into **reachable** (a response
/// arrived) and **correct** (it was authentic).
pub fn disasters(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let topos = topologies(opts);
    rule(out, 78)?;
    writeln!(
        out,
        "Correlated disasters: reachable vs correct availability under shared-risk\n\
         faults, cascading overload, and content corruption\n\
         ({} topologies, {} designs x {} shapes + control)",
        topos.len(),
        NR_EDGE.len(),
        SHAPES.len(),
    )?;
    rule(out, 78)?;
    let scenarios = build(opts, &specs_on(&topos, opts));
    // Per (topology, design): the fault-free control, then one per shape.
    let cfg = |t, d, v: usize| {
        let fault = |s: usize| shape_config(SHAPES[s], cell_seed(0xd15a_0000, t, d, s));
        let fault = v.checked_sub(1).map(fault);
        ExperimentConfig {
            fault,
            ..ExperimentConfig::baseline(NR_EDGE[d])
        }
    };
    let grid = Grid::run(tel, &scenarios, 2, 1 + SHAPES.len(), cfg);

    let head = [
        "NR reach%",
        "NR correct%",
        "EDGE reach%",
        "EDGE corr%",
        "NR caught",
        "EDGE pois",
    ];
    for (sh, shape) in SHAPES.iter().enumerate() {
        writeln!(out, "\n=== disaster shape: {shape} ===")?;
        let [a, b, c, d, e, f] = head;
        writeln!(
            out,
            "{:<10}{a:>14}{b:>14}{c:>14}{d:>14}{e:>12}{f:>12}",
            "Topology"
        )?;
        rule(out, 90)?;
        for (t, topo) in topos.iter().enumerate() {
            let (nr, edge) = (&grid.cell(t, 0, 1 + sh).1, &grid.cell(t, 1, 1 + sh).1);
            writeln!(
                out,
                "{:<10}{:>14.2}{:>14.2}{:>14.2}{:>14.2}{:>12}{:>12}",
                topo.name,
                nr.availability_pct(),
                nr.correct_availability_pct(),
                edge.availability_pct(),
                edge.correct_availability_pct(),
                nr.corrupt_detected,
                edge.corrupt_served,
            )?;
        }
    }

    // Gap retention: the headline latency-improvement gap under each
    // shape, next to the fault-free control.
    writeln!(
        out,
        "\nheadline gap, ICN-NR minus EDGE latency improvement (percentage points)"
    )?;
    let cols: Vec<_> = std::iter::once("control")
        .chain(SHAPES)
        .map(|s| (s, 10))
        .collect();
    let head = ("Topology", &names(&topos)[..]);
    table(out, head, &cols, 80, true, |t, v| {
        grid.gap(t, v).latency_pct
    })
}

/// Workload shapes swept by `dynamics`, as `(label, preset)` — `None` is
/// the paper's stationary IRM baseline.
fn workloads(requests: usize) -> [(&'static str, Option<DynamicsConfig>); 4] {
    [
        ("static", None),
        ("diurnal", Some(DynamicsConfig::diurnal(requests))),
        ("flash", Some(DynamicsConfig::flash(requests))),
        ("churn", Some(DynamicsConfig::churn(requests))),
    ]
}

/// Cache policies swept by `dynamics`. The TTL lease is an eighth of the
/// trace in logical time — long enough to hold the working set, short
/// enough to shed a finished flash crowd before the run ends.
fn policies(requests: usize) -> [(&'static str, PolicyKind); 4] {
    let ttl = (requests as u64 / 8).max(1) as u32;
    [
        ("LRU", PolicyKind::Lru),
        ("Prob50", PolicyKind::Prob { admit_pct: 50 }),
        ("TTL", PolicyKind::Ttl { ttl }),
        ("TinyLFU", PolicyKind::TinyLfu),
    ]
}

/// Non-stationary workloads × admission/expiry policies: does "incremental
/// EDGE deployment captures most of ICN's gain" survive when the request
/// stream stops being stationary? Four workload shapes (see
/// [`icn_workload::dynamics`]) against four cache policies, ICN-NR vs EDGE.
pub fn dynamics(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let topos = topologies(opts);
    let requests = opts.workload.requests;
    let (loads, pols) = (workloads(requests), policies(requests));
    rule(out, 78)?;
    writeln!(
        out,
        "Workload dynamics: ICN-NR vs EDGE gap under non-stationary demand\n\
         ({} requests/trace, {} topologies, {} workloads x {} policies)",
        requests,
        topos.len(),
        loads.len(),
        pols.len(),
    )?;
    rule(out, 78)?;
    // One scenario per (topology, workload): dynamics are part of the
    // trace, so each workload shape is its own synthesized stream.
    let specs: Vec<Spec> = (topos.iter())
        .flat_map(|t| loads.map(|(_, dynamics)| spec(t.clone(), opts, |w| w.dynamics = dynamics)))
        .collect();
    let scenarios = build(opts, &specs);
    let grid = Grid::run(tel, &scenarios, 2, pols.len(), |_, d, p| {
        let policy = pols[p].1;
        ExperimentConfig {
            policy,
            ..ExperimentConfig::baseline(NR_EDGE[d])
        }
    });
    let gap = |t: usize, w: usize, p: usize| grid.gap(t * loads.len() + w, p).latency_pct;
    let cols = pols.map(|(name, _)| (name, 10));
    let head = ("Topology", &names(&topos)[..]);
    for (w, (wname, _)) in loads.iter().enumerate() {
        writeln!(out, "\n=== workload: {wname} ===")?;
        writeln!(
            out,
            "latency-improvement gap, ICN-NR minus EDGE (percentage points)"
        )?;
        table(out, head, &cols, 50, false, |t, p| gap(t, w, p))?;
    }
    writeln!(out, "\nmean gap across topologies (percentage points)")?;
    let mean = |w, p| (0..topos.len()).map(|t| gap(t, w, p)).sum::<f64>() / topos.len() as f64;
    let workloads = loads.map(|(name, _)| name);
    table(out, ("Workload", &workloads), &cols, 50, false, mean)
}
