//! The extension sweep beyond the paper: independent faults (`failures`).
//! Fault schedules are pure functions of their seeds, so the sweep is
//! byte-identical at any `JOBS` (checked by `scripts/check.sh`).

use crate::grid::{build, names, specs_on, table, Grid};
use crate::{RunOpts, Telemetry};
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::fault::FaultConfig;
use icn_core::metrics::RunMetrics;
use icn_topology::pop;
use std::io::{self, Write};

/// Seed for faulted cell `(topology t, design d, rate r)`: fixed
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
    let topos = pop::paper_topologies();
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
