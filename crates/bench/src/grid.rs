//! The two shapes most experiments share, each written once: the
//! scenario × design × variant matrix (fig6, fig7, table3, failures)
//! and the ICN-NR − EDGE gap table (fig8a–c, table4, fig9, fig10,
//! ablations).

use crate::{RunOpts, Telemetry};
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{par_map, Scenario, SweepCell};
use icn_topology::{AccessTree, PopGraph};
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::TraceConfig;
use std::io::{self, Write};

/// The two designs whose gap is the paper's headline number (§5).
pub const NR_EDGE: [DesignKind; 2] = [DesignKind::IcnNr, DesignKind::Edge];

/// What a scenario is built from: core topology, access tree, trace and
/// origin assignment.
pub type Spec = (PopGraph, AccessTree, TraceConfig, OriginPolicy);

/// The §4 setting on `core` — binary depth-5 access trees,
/// population-proportional origins — over `opts.workload` changed by
/// `tweak`.
pub fn spec(core: PopGraph, opts: &RunOpts, tweak: impl FnOnce(&mut TraceConfig)) -> Spec {
    let mut trace = opts.workload.clone();
    tweak(&mut trace);
    let origins = OriginPolicy::PopulationProportional;
    (core, AccessTree::baseline(), trace, origins)
}

/// [`spec`] on each of `topos`, with the workload unchanged.
pub fn specs_on(topos: &[PopGraph], opts: &RunOpts) -> Vec<Spec> {
    topos
        .iter()
        .map(|t| spec(t.clone(), opts, |_| ()))
        .collect()
}

/// Builds one scenario per spec over `opts.jobs` workers, in spec order.
pub fn build(opts: &RunOpts, specs: &[Spec]) -> Vec<Scenario> {
    let (n, jobs) = (specs.len(), opts.jobs);
    eprintln!("... building {n} scenarios (JOBS={jobs})");
    par_map(n, jobs, |_, i| {
        let (core, tree, trace, origins) = specs[i].clone();
        Scenario::build(core, tree, trace, origins)
    })
}

/// The §4 EDGE configuration changed by `tweak`: the template of a gap
/// row (the gap sets the design on each side).
pub fn template(tweak: impl FnOnce(&mut ExperimentConfig)) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::baseline(DesignKind::Edge);
    tweak(&mut cfg);
    cfg
}

/// Every cell of a scenario × design × variant sweep.
pub struct Grid {
    cells: Vec<(Improvement, RunMetrics)>,
    designs: usize,
    variants: usize,
}

impl Grid {
    /// Runs `cfg(scenario, design, variant)` for every index triple through
    /// one parallel batch.
    pub fn run(
        tel: &Telemetry,
        scenarios: &[Scenario],
        designs: usize,
        variants: usize,
        cfg: impl Fn(usize, usize, usize) -> ExperimentConfig,
    ) -> Self {
        let mut cells = Vec::new();
        for (s, scenario) in scenarios.iter().enumerate() {
            for d in 0..designs {
                for v in 0..variants {
                    cells.push(SweepCell {
                        scenario,
                        cfg: cfg(s, d, v),
                    });
                }
            }
        }
        let cells = tel.improvement_batch(&cells);
        Self {
            cells,
            designs,
            variants,
        }
    }

    /// One cell's improvement over no caching, and its raw metrics.
    pub fn cell(&self, s: usize, d: usize, v: usize) -> &(Improvement, RunMetrics) {
        &self.cells[(s * self.designs + d) * self.variants + v]
    }

    /// ICN-NR − EDGE gap of variant `v` on scenario `s`, for a grid whose
    /// designs are [`NR_EDGE`].
    pub fn gap(&self, s: usize, v: usize) -> Improvement {
        Improvement::gap(&self.cell(s, 0, v).0, &self.cell(s, 1, v).0)
    }
}

/// Writes a rule line of `width` dashes.
pub fn rule(out: &mut dyn Write, width: usize) -> io::Result<()> {
    writeln!(out, "{}", "-".repeat(width))
}

/// The names of `topos`, as table row labels.
pub fn names(topos: &[PopGraph]) -> Vec<&str> {
    topos.iter().map(|t| t.name.as_str()).collect()
}

/// Writes a table: a header — `first` in 10 columns, then each `(title,
/// width)` column right-aligned — and a rule `rule_width` wide, then a row
/// per label with `value(row, column)` to two decimals. With `mean`, a rule
/// and the column means close it.
pub fn table(
    out: &mut dyn Write,
    (first, labels): (&str, &[&str]),
    cols: &[(&str, usize)],
    rule_width: usize,
    mean: bool,
    value: impl Fn(usize, usize) -> f64,
) -> io::Result<()> {
    let line = |out: &mut dyn Write, label: &str, value: &dyn Fn(usize) -> f64| {
        write!(out, "{label:<10}")?;
        for (c, (_, width)) in cols.iter().enumerate() {
            write!(out, "{:>width$.2}", value(c))?;
        }
        writeln!(out)
    };
    write!(out, "{first:<10}")?;
    for (title, width) in cols {
        write!(out, "{title:>width$}")?;
    }
    writeln!(out)?;
    rule(out, rule_width)?;
    for (r, label) in labels.iter().enumerate() {
        line(out, label, &|c| value(r, c))?;
    }
    if mean {
        rule(out, rule_width)?;
        let sum = |c| (0..labels.len()).fold(0.0, |sum, r| sum + value(r, c));
        line(out, "mean", &|c| sum(c) / labels.len() as f64)?;
    }
    Ok(())
}

/// Writes one gap row: the pre-formatted `label`, then the latency,
/// congestion and origin-load gaps.
pub fn gap_line(out: &mut dyn Write, label: &str, gap: Improvement) -> io::Result<()> {
    let (lat, cong, orig) = (gap.latency_pct, gap.congestion_pct, gap.origin_pct);
    writeln!(out, "{label} {lat:>10.2} {cong:>12.2} {orig:>14.2}")
}

/// Writes `head` (the header line, and the width of the rule under it),
/// builds `specs`, runs the ICN-NR − EDGE gap of every `(label, spec
/// index, template)` row through one parallel batch, and writes a
/// [`gap_line`] per row.
pub fn gap_table(
    opts: &RunOpts,
    tel: &Telemetry,
    out: &mut dyn Write,
    (head, width): (&str, usize),
    specs: &[Spec],
    rows: &[(String, usize, ExperimentConfig)],
) -> io::Result<()> {
    writeln!(out, "{head}")?;
    rule(out, width)?;
    let scenarios = build(opts, specs);
    let pairs: Vec<_> = rows
        .iter()
        .map(|(_, s, cfg)| (&scenarios[*s], cfg.clone()))
        .collect();
    for ((label, ..), gap) in rows.iter().zip(tel.nr_vs_edge_gap_batch(&pairs)) {
        gap_line(out, label, gap)?;
    }
    Ok(())
}
