//! The `icn` front end: every table and figure of the paper's evaluation,
//! the extension sweeps and two utilities, as subcommands of one binary.
//!
//! `icn <experiment> [flags]` runs one entry of a table of experiments and
//! writes its tables to stdout; `icn all` regenerates the paper's 14 committed
//! `results/<name>.txt` files in one process. Options are parsed once, into
//! [`RunOpts`], from `SCALE`, `JOBS` and the command line,
//! and printed as a one-line manifest to stderr and into the `--telemetry`
//! sidecar, never to stdout.
//!
//! Scale: the paper's runs use the full Asia trace (1.8M requests). The
//! experiments default to `SCALE=0.25` of that (`SCALE=1.0` matches the
//! paper's volume; results are stable in scale — see EXPERIMENTS.md).

#![warn(missing_docs)]

use icn_obs::json::Value;
use icn_topology::{pop, PopGraph};
use icn_workload::trace::{Region, TraceConfig};
use std::env::VarError;
use std::io::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;

mod grid;
mod paper;
mod sweeps;
mod telemetry;
mod tools;

pub use telemetry::Telemetry;

/// What an experiment does: write its tables to `out`.
type Run = fn(&RunOpts, &Telemetry, &mut dyn Write) -> io::Result<()>;

/// One `icn` subcommand.
#[derive(Debug)]
pub(crate) struct Experiment {
    /// The subcommand, named after the binary it replaced.
    pub(crate) name: &'static str,
    /// The banner's title line; empty for subcommands that print their
    /// own heading.
    banner: &'static str,
    /// Writes its tables.
    run: Run,
    /// The closing paragraph — the paper's reference values, or how to
    /// read the tables; empty for none.
    note: &'static str,
}

/// An [`Experiment`]; its `banner` and `note` may be empty.
const fn experiment(
    name: &'static str,
    banner: &'static str,
    run: Run,
    note: &'static str,
) -> Experiment {
    Experiment {
        name,
        banner,
        run,
        note,
    }
}

/// Every subcommand. The first [`PAPER`] are the paper's experiments, in
/// the order `icn all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    experiment(
        "fig1",
        "Figure 1: request popularity distribution across regions",
        paper::fig1,
        "Takeaway (paper §2.2): every region is well-approximated by a Zipf\n\
         distribution — each series is near-linear on a log-log plot.",
    ),
    experiment(
        "table2",
        "Table 2: Zipf fits for the three CDN vantage points",
        paper::table2,
        "Each synthetic trace is generated at the paper's fitted exponent and\n\
         re-fit blindly; agreement validates the generator + estimator loop.",
    ),
    experiment(
        "fig2",
        "Figure 2: fraction of requests served per tree level (optimal static placement)",
        paper::fig2,
        "Paper reference (α = 0.7): expected hops ≈ 3 with all levels vs 4 with\n\
         edge-only caching — interior levels buy only ~25%. Levels 2–5 individually\n\
         serve small fractions; the edge and the origin dominate.",
    ),
    experiment(
        "fig6",
        "Figure 6: design improvements over no caching, population-proportional budgets",
        |opts, tel, out| paper::design_matrix(opts, tel, out, true),
        "Paper reference: the gap between architectures is small (≤ ~9%);\n\
         EDGE-Coop tracks ICN-NR within ~3% on latency; ICN-NR adds ≤ 2% over ICN-SP.",
    ),
    experiment(
        "fig7",
        "Figure 7: design improvements over no caching, uniform budgets & origins",
        |opts, tel, out| paper::design_matrix(opts, tel, out, false),
        "Paper reference: uniform budgeting does not change the relative ordering\n\
         of the designs (compare with the fig6 output).",
    ),
    experiment(
        "table3",
        "Table 3: ICN-NR vs EDGE latency gap: trace vs best-fit synthetic",
        paper::table3,
        "Paper reference: the synthetic (IRM) gap exceeds the trace gap by ≤ 1.67%,\n\
         validating Zipf-based synthesis. The same direction should hold above\n\
         (our 'trace' is the locality-calibrated generator; see DESIGN.md).\n\
         The p99/p50 spread shows what the mean improvement hides: tail requests\n\
         still pay near-origin latency under every design.",
    ),
    experiment(
        "fig8a",
        "Figure 8(a): ICN-NR gain over EDGE vs Zipf alpha (AT&T)",
        paper::fig8a,
        "Paper reference: with increasing alpha the gap becomes less positive —\n\
         most requests are already served from edge caches.",
    ),
    experiment(
        "fig8b",
        "Figure 8(b): ICN-NR gain over EDGE vs cache budget F (AT&T)",
        paper::fig8b,
        "Paper reference: the gap is non-monotone in cache size, peaking near\n\
         F ≈ 2% (~10%) and collapsing once per-cache budgets exceed ~10% of the\n\
         object universe.",
    ),
    experiment(
        "fig8c",
        "Figure 8(c): ICN-NR gain over EDGE vs spatial skew (AT&T)",
        paper::fig8c,
        "Paper reference: as spatial skew increases, ICN-NR increasingly\n\
         outperforms EDGE (up to ~15% at skew 1 in the paper's setting).",
    ),
    experiment(
        "table4",
        "Table 4: ICN-NR over EDGE vs access-tree arity (64 leaves/tree)",
        paper::table4,
        "Paper reference: the gap shrinks monotonically with arity; at arity 64\n\
         (a one-level tree) EDGE holds nearly the whole budget and the gap ~vanishes.",
    ),
    experiment(
        "fig9",
        "Figure 9: progressive best-case construction for ICN-NR (AT&T)",
        paper::fig9,
        "Paper reference: the fully stacked best case gives ICN-NR at most ~17%\n\
         over EDGE across all three metrics.",
    ),
    experiment(
        "fig10",
        "Figure 10: EDGE extensions vs the best case for ICN-NR (AT&T)",
        paper::fig10,
        "Paper reference: Norm + cooperation brings the best-case gap down to\n\
         ~6%; doubling the edge budget can make EDGE beat ICN-NR outright.",
    ),
    experiment(
        "ablations",
        "Ablations (§5.1): latency models, serving capacity, sizes, policies",
        paper::ablations,
        "Paper reference: the latency-model and serving-capacity ablations move\n\
         the gap by < 2%, heterogeneous sizes by < 1%, and LFU is qualitatively\n\
         like LRU — none changes the conclusion.",
    ),
    experiment(
        "dos_resilience",
        "DoS resilience (§7): victim origin load under a request flood, per design",
        paper::dos_resilience,
        "Paper reference (§7): edge caching provides approximately the same\n\
         request-flood protection as pervasive ICN when the flood's working set\n\
         is cacheable at the edge; a working set larger than the smallest edge\n\
         caches re-opens the gap (our extension measurement).",
    ),
    experiment(
        "failures",
        "Robustness under failure: availability and latency degradation vs the fault-free run, \
         per design",
        sweeps::failures,
        "Reading: caching masks failures it can serve around — EDGE keeps\n\
         availability high when the origin path is cut but the object is cached\n\
         locally; ICN-NR additionally detours to farther live replicas, so its\n\
         availability degrades slowest as the fault rate rises.",
    ),
    experiment("trace_gen", "", tools::trace_gen, ""),
    experiment("telemetry_check", "", tools::telemetry_check, ""),
    experiment("all", "", all, ""),
];

/// How many leading [`EXPERIMENTS`] reproduce the paper (and have a
/// committed `results/<name>.txt`).
const PAPER: usize = 14;

/// Runs the paper's experiments in order, each into `results/<name>.txt`.
fn all(opts: &RunOpts, tel: &Telemetry, _: &mut dyn Write) -> io::Result<()> {
    std::fs::create_dir_all("results")?;
    for e in &EXPERIMENTS[..PAPER] {
        let path = format!("results/{}.txt", e.name);
        eprintln!("=== {} -> {path}", e.name);
        let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
        let opts = RunOpts {
            experiment: e,
            ..opts.clone()
        };
        run(&opts, tel, &mut file)?;
        file.flush()?;
    }
    Ok(())
}

/// Runs the experiment `opts` names into `out`: its banner (at
/// `opts.scale`), its tables, then its closing note.
pub fn run(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let e = opts.experiment;
    if !e.banner.is_empty() {
        let scale = opts.scale;
        grid::rule(out, 78)?;
        writeln!(out, "{}", e.banner)?;
        writeln!(
            out,
            "(scale = {scale} of the paper's 1.8M-request Asia trace; SCALE env overrides)"
        )?;
        grid::rule(out, 78)?;
    }
    (e.run)(opts, tel, out)?;
    if !e.note.is_empty() {
        writeln!(out, "\n{}", e.note)?;
    }
    Ok(())
}

/// Everything one `icn` invocation reads from its environment and command
/// line, parsed once by [`RunOpts::from_env`].
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The subcommand.
    pub(crate) experiment: &'static Experiment,
    /// Trace volume as a fraction of the paper's: `SCALE` (default 0.25),
    /// or `trace_gen --scale` (default 0.05).
    pub(crate) scale: f64,
    /// Sweep workers: `JOBS`, default every core. Never moves a byte.
    pub(crate) jobs: usize,
    /// Cores available to this process.
    pub(crate) cores: usize,
    /// The base workload: the Asia trace at `scale`, or `trace_gen`'s
    /// region trace with its workload flags applied.
    pub(crate) workload: TraceConfig,
    /// `trace_gen --topology` (default Abilene).
    pub(crate) topology: PopGraph,
    /// `--telemetry PATH`: the JSON sidecar, with the span profile.
    pub(crate) telemetry: Option<PathBuf>,
    /// `--trace PATH`: the sampled per-request JSONL trace.
    pub(crate) trace: Option<PathBuf>,
    /// `--sample N`: keep every Nth trace record.
    pub(crate) sample: u64,
    /// `telemetry_check`'s sidecar to validate; `None` under
    /// `--live-metrics`.
    pub(crate) sidecar: Option<PathBuf>,
}

impl RunOpts {
    /// Parses the process environment and command line.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place icn reads its environment and argv"
    )]
    pub fn from_env() -> Result<Self, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(|name| std::env::var(name), &args)
    }

    /// Parses `args` (program name excluded) with `var` looking up the
    /// environment. A malformed value, or a flag the experiment does not
    /// take, is an error.
    fn parse(
        var: impl Fn(&str) -> Result<String, VarError>,
        args: &[String],
    ) -> Result<Self, String> {
        let env = |name: &str| match var(name) {
            Err(VarError::NotPresent) => Ok(None),
            value => value
                .map(Some)
                .map_err(|e| format!("invalid {name} value: {e}")),
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut scale = env("SCALE")?.map_or(Ok(0.25), |s| parse_scale(&s))?;
        let jobs = env("JOBS")?.map_or(Ok(cores), |s| parse("JOBS", &s, |n: usize| n >= 1))?;

        let (name, flags) = args.split_first().ok_or_else(usage)?;
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment {name:?}\n{}", usage()))?;
        let (mut telemetry, mut trace, mut sidecar) = (None, None, None);
        let (mut sample, mut live) = (telemetry::DEFAULT_TRACE_SAMPLE, false);
        let (mut region, mut topology) = (Region::Asia, pop::abilene());
        if name == "trace_gen" {
            scale = 0.05; // its own --scale, not SCALE
        }
        let (mut alpha, mut skew, mut seed, mut irm) = (None, None, None, false);
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match (flag.as_str(), name.as_str()) {
                ("--telemetry", _) => telemetry = Some(value()?.into()),
                ("--trace", _) => trace = Some(value()?.into()),
                ("--sample", _) => sample = parse(flag, value()?, |n: u64| n >= 1)?,
                ("--region", "trace_gen") => region = parse_region(value()?)?,
                ("--topology", "trace_gen") => topology = parse_topology(value()?)?,
                ("--scale", "trace_gen") => scale = parse_scale(value()?)?,
                ("--alpha", "trace_gen") => {
                    alpha = Some(parse(flag, value()?, |a: f64| a.is_finite() && a >= 0.0)?)
                }
                ("--skew", "trace_gen") => {
                    skew = Some(parse(flag, value()?, |s: f64| (0.0..=1.0).contains(&s))?)
                }
                ("--seed", "trace_gen") => seed = Some(parse(flag, value()?, |_: u64| true)?),
                ("--irm", "trace_gen") => irm = true,
                ("--live-metrics", "telemetry_check") => live = true,
                (path, "telemetry_check") if !path.starts_with('-') => sidecar = Some(path.into()),
                (other, _) => return Err(format!("{name}: unknown option {other:?}\n{}", usage())),
            }
        }
        if name == "telemetry_check" && sidecar.is_some() == live {
            return Err(format!("{name} takes a sidecar path or --live-metrics"));
        }
        let mut workload = region.config(scale);
        workload.alpha = alpha.unwrap_or(workload.alpha);
        workload.skew = skew.unwrap_or(workload.skew);
        workload.seed = seed.unwrap_or(workload.seed);
        if irm {
            workload.locality = None;
        }
        Ok(Self {
            experiment,
            scale,
            jobs,
            cores,
            workload,
            topology,
            telemetry,
            trace,
            sample,
            sidecar,
        })
    }

    /// The run manifest: what produced this output. Printed to stderr and
    /// written into the `--telemetry` sidecar.
    pub fn manifest(&self) -> Value {
        let fields: [(&str, Value); 8] = [
            ("experiment", self.experiment.name.into()),
            ("version", env!("CARGO_PKG_VERSION").into()),
            ("rustc", env!("ICN_RUSTC").into()),
            ("git", env!("ICN_GIT_REV").into()),
            ("cores", (self.cores as u64).into()),
            ("scale", self.scale.into()),
            ("jobs", (self.jobs as u64).into()),
            ("trace_seed", self.workload.seed.into()),
        ];
        Value::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: icn <{}> [--telemetry PATH] [--trace PATH] [--sample N]\n\
         \x20      icn trace_gen [--region us|europe|asia] [--scale F] [--topology NAME] \
         [--alpha F] [--skew F] [--seed N] [--irm]\n\
         \x20      icn telemetry_check <sidecar.json> | --live-metrics",
        names.join("|")
    )
}

/// Validates a `SCALE` value: a decimal fraction in (0, 1].
fn parse_scale(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Ok(v) if v > 0.0 && v <= 1.0 => Ok(v),
        _ => Err(format!(
            "invalid SCALE value {s:?}: expected a fraction of the paper's trace \
             volume in (0, 1], e.g. SCALE=0.25"
        )),
    }
}

/// Parses `what`'s value `s` as a `T` that satisfies `ok`.
fn parse<T: FromStr + Copy>(what: &str, s: &str, ok: fn(T) -> bool) -> Result<T, String> {
    match s.trim().parse::<T>() {
        Ok(v) if ok(v) => Ok(v),
        _ => Err(format!("invalid {what} value {s:?}")),
    }
}

fn parse_region(s: &str) -> Result<Region, String> {
    let region = Region::all()
        .into_iter()
        .find(|r| r.name().eq_ignore_ascii_case(s));
    region.ok_or_else(|| format!("unknown region {s:?} (us|europe|asia)"))
}

fn parse_topology(s: &str) -> Result<PopGraph, String> {
    let topology = pop::paper_topologies()
        .into_iter()
        .find(|t| t.name.eq_ignore_ascii_case(s));
    topology.ok_or_else(|| format!("unknown topology {s:?} (one of Figure 6's eight)"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// [`RunOpts::parse`] of the whitespace-separated `args` with `env` as
    /// the whole environment.
    pub(crate) fn parse_with(env: &[(&str, &str)], args: &str) -> Result<RunOpts, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        let var = |name: &str| match env.iter().find(|(k, _)| *k == name) {
            Some((_, v)) => Ok(v.to_string()),
            None => Err(VarError::NotPresent),
        };
        RunOpts::parse(var, &args)
    }

    /// [`parse_with`] in the empty environment.
    pub(crate) fn parse(args: &str) -> Result<RunOpts, String> {
        parse_with(&[], args)
    }

    #[test]
    fn scale_default() {
        // The empty environment: the paper-fraction default, every core.
        let opts = parse("fig6").unwrap();
        assert_eq!((opts.scale, opts.workload.requests), (0.25, 450_000));
        assert_eq!(opts.jobs, opts.cores);
        assert_eq!(opts.experiment.name, "fig6");
    }

    #[test]
    fn scale_values_are_validated_not_silently_defaulted() {
        // Regression: these all used to fall back to 0.25 without a word,
        // mislabelling every printed figure.
        for bad in [
            "1,0", "0", "-1", "0.0", "-0.25", "nan", "inf", "", "fast", "2",
        ] {
            assert!(parse_scale(bad).is_err(), "SCALE={bad:?} must be rejected");
            assert!(parse_with(&[("SCALE", bad)], "fig6").is_err());
        }
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert_eq!(parse_scale(" 1.0 "), Ok(1.0));
    }

    #[test]
    fn jobs_values_are_validated() {
        for bad in ["0", "-2", "four", "1.5", ""] {
            let err = parse_with(&[("JOBS", bad)], "fig6").unwrap_err();
            assert!(err.contains("invalid JOBS value"), "JOBS={bad:?}: {err}");
        }
        let jobs = |s| parse_with(&[("JOBS", s)], "fig6").unwrap().jobs;
        assert_eq!((jobs("1"), jobs(" 8 ")), (1, 8));
    }

    #[test]
    fn asia_trace_parameters() {
        let cfg = parse_with(&[("SCALE", "0.1")], "table3").unwrap().workload;
        assert_eq!((cfg.requests, cfg.alpha), (180_000, 1.04));
        assert!(cfg.locality.is_some());
    }

    #[test]
    fn eight_paper_topologies() {
        let topos = pop::paper_topologies();
        assert_eq!(topos.len(), 8);
        assert_eq!(topos[0].name, "Abilene");
        assert_eq!(topos[7].name, "ATT");
    }

    #[test]
    fn trace_gen_values_are_validated_not_silently_defaulted() {
        // Regression: each of these used to generate the default trace
        // (scale 0.05, the region's alpha and seed) without a word.
        for bad in [
            "--scale 1,0",
            "--seed x1",
            "--alpha fast",
            "--alpha -1",
            "--alpha inf",
            "--skew 2",
            "--region mars",
            "--topology nowhere",
            "--scale",
        ] {
            assert!(parse(&format!("trace_gen {bad}")).is_err(), "{bad}");
        }
        let opts = parse("trace_gen").unwrap();
        assert_eq!((opts.scale, opts.workload.requests), (0.05, 90_000));
        let flags = "--region us --scale 0.01 --alpha 0.8 --skew 0.5 --seed 7 --irm --topology att";
        let opts = parse(&format!("trace_gen {flags}")).unwrap();
        let w = &opts.workload;
        assert_eq!((w.requests, w.alpha, w.skew, w.seed), (11_000, 0.8, 0.5, 7));
        assert!(w.locality.is_none());
        assert_eq!(opts.topology.name, "ATT");
    }

    #[test]
    fn unknown_and_misplaced_flags_are_errors() {
        // Regression: `fig8a --smok` silently ran the full sweep.
        for bad in [
            "",
            "fig9000",
            "fig8a --smok",
            "fig8a --smoke",
            "fig6 stray",
            "fig6 --alpha 1",
            "fig6 --flight x",
            "all --smoke",
            "failures --smoke",
            "disasters",
            "dynamics",
            "telemetry_check",
            "telemetry_check t.json --live-metrics",
            "trace_gen --live-metrics",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let opts = parse("failures --telemetry t.json").unwrap();
        assert_eq!(opts.telemetry, Some(PathBuf::from("t.json")));
        let sidecar = Some(PathBuf::from("t.json"));
        assert_eq!(parse("telemetry_check t.json").unwrap().sidecar, sidecar);
        assert_eq!(
            parse("telemetry_check --live-metrics").unwrap().sidecar,
            None
        );
    }

    #[test]
    fn manifest_names_the_run_and_its_knobs() {
        let opts = parse_with(&[("SCALE", "0.1"), ("JOBS", "2")], "fig6").unwrap();
        let m = opts.manifest();
        assert_eq!(m.get("experiment").and_then(Value::as_str), Some("fig6"));
        assert_eq!(m.get("scale").and_then(Value::as_f64), Some(0.1));
        assert_eq!(m.get("jobs").and_then(Value::as_u64), Some(2));
        assert_eq!(
            m.get("trace_seed").and_then(Value::as_u64),
            Some(opts.workload.seed)
        );
        for key in ["version", "rustc", "git", "cores"] {
            assert!(m.get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn all_runs_the_paper_experiments_in_results_order() {
        let names: Vec<&str> = EXPERIMENTS[..PAPER].iter().map(|e| e.name).collect();
        let results = "fig1 table2 fig2 fig6 fig7 table3 fig8a fig8b fig8c table4 fig9 fig10 \
                       ablations dos_resilience";
        assert_eq!(names, results.split_whitespace().collect::<Vec<_>>());
        assert!(EXPERIMENTS[..PAPER].iter().all(|e| !e.banner.is_empty()));
    }
}
