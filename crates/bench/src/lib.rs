//! Shared harness for the figure/table regeneration binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` (`fig1`, `table2`, `fig2`, `fig6`, `fig7`, `table3`,
//! `fig8a`–`fig8c`, `table4`, `fig9`, `fig10`, `ablations`). Each prints
//! the measured rows next to the paper's reference values where the paper
//! states them. Criterion micro-benchmarks for the hot paths live in
//! `benches/`.
//!
//! Scale: the paper's runs use the full Asia trace (1.8M requests). The
//! binaries default to `SCALE=0.25` of that (set the `SCALE` env var to
//! `1.0` to match the paper's volume; results are stable in scale — see
//! EXPERIMENTS.md).

#![warn(missing_docs)]

use icn_core::sweep::Scenario;
use icn_topology::{pop, AccessTree, PopGraph};
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::{Region, TraceConfig};

pub mod telemetry;

pub use telemetry::Telemetry;

/// The experiment scale factor (fraction of the paper's trace volume).
///
/// A malformed, zero, or negative `SCALE` aborts with a clear error
/// instead of silently falling back to the default — a typo like
/// `SCALE=1,0` used to mislabel every printed figure as a 0.25 run.
pub fn scale() -> f64 {
    match std::env::var("SCALE") {
        Err(std::env::VarError::NotPresent) => 0.25,
        Err(e) => die(&format!("invalid SCALE value: {e}")),
        Ok(s) => parse_scale(&s).unwrap_or_else(|e| die(&e)),
    }
}

/// Validates a `SCALE` value: a finite decimal fraction > 0.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    let v: f64 = s.trim().parse().map_err(|_| {
        format!(
            "invalid SCALE value {s:?}: expected a decimal fraction of the \
             paper's trace volume, e.g. SCALE=0.25"
        )
    })?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "invalid SCALE value {s:?}: must be finite and > 0 (e.g. SCALE=0.25)"
        ));
    }
    Ok(v)
}

/// Worker-thread count for the parallel sweep engine: the `JOBS` env var,
/// defaulting to [`std::thread::available_parallelism`]. `JOBS=1` restores
/// the fully sequential path; any value produces identical output (see
/// EXPERIMENTS.md, "Parallelism"). One caveat: `--trace` forces the
/// sequential path regardless of `JOBS` (the per-request JSONL stream
/// must stay in request order) — [`Telemetry`](crate::Telemetry) warns on
/// stderr when it ignores a `JOBS>1` setting for that reason.
pub fn jobs() -> usize {
    match std::env::var("JOBS") {
        Err(std::env::VarError::NotPresent) => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        Err(e) => die(&format!("invalid JOBS value: {e}")),
        Ok(s) => parse_jobs(&s).unwrap_or_else(|e| die(&e)),
    }
}

/// Validates a `JOBS` value: a positive integer.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid JOBS value {s:?}: expected a positive worker count \
             (JOBS=1 disables parallelism)"
        )),
    }
}

pub(crate) fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The §4 baseline workload: Asia-region synthetic trace at [`scale`].
pub fn asia_trace(scale: f64) -> TraceConfig {
    Region::Asia.config(scale)
}

/// The paper's eight topologies (Figures 6/7 order).
pub fn paper_topologies() -> Vec<PopGraph> {
    pop::paper_topologies()
}

/// The §4 baseline access tree (binary, depth 5 — 32 leaves per PoP).
pub fn baseline_tree() -> AccessTree {
    AccessTree::baseline()
}

/// Builds the §4 baseline scenario for one topology.
pub fn baseline_scenario(core: PopGraph) -> Scenario {
    Scenario::build(
        core,
        baseline_tree(),
        asia_trace(scale()),
        OriginPolicy::PopulationProportional,
    )
}

/// Formats a percentage cell.
pub fn pct(x: f64) -> String {
    format!("{x:6.2}")
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str) {
    rule(78);
    println!("{id}: {what}");
    println!(
        "(scale = {} of the paper's 1.8M-request Asia trace; SCALE env overrides)",
        scale()
    );
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default() {
        // Unless the environment overrides, the default is 0.25.
        if std::env::var("SCALE").is_err() {
            assert_eq!(scale(), 0.25);
        }
    }

    #[test]
    fn scale_values_are_validated_not_silently_defaulted() {
        // Regression: these all used to fall back to 0.25 without a word,
        // mislabelling every printed figure.
        for bad in ["1,0", "0", "-1", "0.0", "-0.25", "nan", "inf", "", "fast"] {
            assert!(parse_scale(bad).is_err(), "SCALE={bad:?} must be rejected");
        }
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert_eq!(parse_scale(" 1.0 "), Ok(1.0));
        assert_eq!(parse_scale("2"), Ok(2.0));
    }

    #[test]
    fn jobs_values_are_validated() {
        for bad in ["0", "-2", "four", "1.5", ""] {
            assert!(parse_jobs(bad).is_err(), "JOBS={bad:?} must be rejected");
        }
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
    }

    #[test]
    fn asia_trace_parameters() {
        let cfg = asia_trace(0.1);
        assert_eq!(cfg.requests, 180_000);
        assert_eq!(cfg.alpha, 1.04);
        assert!(cfg.locality.is_some());
    }

    #[test]
    fn eight_paper_topologies() {
        let topos = paper_topologies();
        assert_eq!(topos.len(), 8);
        assert_eq!(topos[0].name, "Abilene");
        assert_eq!(topos[7].name, "ATT");
    }
}
