//! The repo benchmark: five workloads across the request-level simulator
//! and the idICN HTTP overlay, with a per-layer traced run.
//!
//! ```text
//! icn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! icn-benchmark --smoke            every workload at ~1/20 size, schema check
//! icn-benchmark aa [--seconds S]   run the full set twice, compare the two
//! ```
//!
//! One run prints a manifest, every metric by name with its unit, the
//! outcome of its checks, and — as the last line of standard output — the
//! result object `BENCHMARK.json` describes. It exits non-zero when a check
//! fails. See `README.md` for what each workload isolates and how to claim
//! a gain against these numbers.

mod aa;
mod accesslog;
mod idicn_load;
mod loadgen;
mod probes;
mod report;
mod sim;
mod spans;
mod stats;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "sim-route",
    "sim-edge",
    "sim-par",
    "idicn-hit",
    "idicn-miss",
];

/// In a traced run, the workloads that run at smoke size beside the
/// selected one, so that every layer of both products reports: each
/// per-layer value comes from the selected workload when it produces it,
/// and from the first of these that does otherwise.
const LAYER_PRODUCERS: [&str; 4] = ["sim-route", "sim-edge", "sim-par", "idicn-miss"];

/// Times every workload sets up; the median is reported as `setup_s`.
pub const SETUPS: usize = 3;

/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// How much of its full size a workload runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the end-to-end numbers are defined at.
    Full,
    /// About 1/20 of it, with fixed durations: schema checks and the
    /// per-layer fill-in of traced runs.
    Smoke,
}

/// What a workload needs to know about the run it is part of.
pub struct Ctx<'a> {
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// Full or smoke size.
    pub size: Size,
    /// Span recorder; disabled in untraced runs.
    pub tracer: &'a Tracer,
    /// Where traces and streamed access logs go.
    pub out_dir: PathBuf,
    /// Print digest lines and skip the golden comparison.
    pub print_digests: bool,
}

/// An independent seed for input stream `stream`, from `--seed`
/// (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "sim-route" => sim::run_kernel(ctx, "sim-route", &sim::ROUTE_DESIGNS),
        "sim-edge" => sim::run_kernel(ctx, "sim-edge", &sim::EDGE_DESIGNS),
        "sim-par" => sim::run_par(ctx),
        "idicn-hit" => idicn_load::run(ctx, "idicn-hit"),
        "idicn-miss" => idicn_load::run(ctx, "idicn-miss"),
        other => usage(&format!("unknown workload {other:?}")),
    }
}

fn describe(name: &str, ctx: &Ctx) -> String {
    if name.starts_with("sim-") {
        sim::describe(ctx.size)
    } else {
        idicn_load::describe(name, ctx)
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    print_digests: bool,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "error: {problem}\n\
         usage: icn-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--digests]\n\
         \x20      icn-benchmark --smoke [--seed N]\n\
         \x20      icn-benchmark aa [--seed N] [--seconds S]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: sim::GOLDEN_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
        print_digests: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--digests" => args.print_digests = true,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => s,
                    _ => return Err(format!("bad --seconds {v:?}: expected 0 < S <= 600")),
                };
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; a bare `--trace`
                // means 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = args.aa as u8 + args.smoke as u8 + args.workload.is_some() as u8;
    if modes != 1 {
        return Err("give exactly one of --workload, --smoke, aa".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(args)
}

/// The simulator reads these at run time to switch engines; a stray one
/// would silently change what every sim workload measures.
fn refuse_engine_switches() {
    for var in ["CELL_SHARDS", "ICN_EPOCH_LEN", "ICN_SIM_REFERENCE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("error: {var} is set; the benchmark fixes the engine, unset it");
            std::process::exit(2);
        }
    }
}

fn print_outcome(out: &Outcome, table: &[report::Decl], values: &Values, digests: bool) {
    for (name, value, unit) in &out.native {
        println!("native {name} = {value} {unit}");
    }
    for &(name, unit, _) in table {
        if let Some(v) = values.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    for n in &out.notes {
        println!("note {n}");
    }
    if digests {
        for d in &out.digests {
            println!("digest {d}");
        }
    }
    for p in &out.problems {
        println!("FAILED {p}");
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "checks fail_share = {share} ({} failed / {} attempted)",
        out.failed, out.attempted
    );
}

/// Runs one workload as `BENCHMARK.json` describes and returns the exit code.
fn run_one(args: &Args, workload: &str) -> i32 {
    std::fs::create_dir_all(&args.out_dir).expect("the output directory can be created");
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Full,
        tracer: &tracer,
        out_dir: args.out_dir.clone(),
        print_digests: args.print_digests,
    };
    println!(
        "manifest {}",
        report::manifest(
            workload,
            args.seed,
            args.seconds,
            args.trace,
            &describe(workload, &ctx)
        )
    );
    let mut out = run_workload(workload, &ctx);

    let (table, values): (&[report::Decl], Values) = if args.trace {
        let mut layers = std::mem::take(&mut out.layers);
        for (k, v) in probes::run_all(args.seed, &tracer, Size::Full) {
            layers.entry(k).or_insert(v);
        }
        // Fill in the layers this workload does not exercise from smoke-size
        // runs of the workloads that do. They record into a tracer of their
        // own: the trace file holds the selected workload's spans only.
        let side = Tracer::new(true);
        for other in LAYER_PRODUCERS.iter().filter(|&&o| o != workload) {
            let side_ctx = Ctx {
                size: Size::Smoke,
                tracer: &side,
                out_dir: args.out_dir.clone(),
                ..ctx
            };
            let mut o = run_workload(other, &side_ctx);
            o.layers.remove("trace.overhead_pct");
            for (k, v) in o.layers {
                layers.entry(k).or_insert(v);
            }
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.problems.extend(
                o.problems
                    .into_iter()
                    .map(|p| format!("[{other} at smoke size] {p}")),
            );
        }
        layers.insert("trace.spans".into(), tracer.len() as f64);
        let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
        let written = tracer
            .write_jsonl(&path)
            .expect("the trace file can be written");
        println!("note {written} spans written to {}", path.display());
        for l in tracer.summary() {
            println!(
                "span {} count={} total_ms={:.3} self_ms={:.3}",
                l.name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        (&PER_LAYER, layers)
    } else {
        let mut e2e = std::mem::take(&mut out.e2e);
        e2e.insert("peak_rss_mib".into(), report::peak_rss_mib());
        (&END_TO_END, e2e)
    };

    print_outcome(&out, table, &values, args.print_digests);
    match report::result_json(table, &values, &out) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            3
        }
    }
}

/// Every workload at smoke size in this one process: checks that each
/// produces every end-to-end metric, that between them and the probes every
/// per-layer metric is produced, and that all output checks pass.
fn smoke(args: &Args) -> i32 {
    std::fs::create_dir_all(&args.out_dir).expect("the output directory can be created");
    let tracer = Tracer::new(true);
    let ctx = Ctx {
        seed: args.seed,
        seconds: 0.0,
        size: Size::Smoke,
        tracer: &tracer,
        out_dir: args.out_dir.clone(),
        print_digests: false,
    };
    let mut bad = 0;
    let mut layers = probes::run_all(args.seed, &tracer, Size::Smoke);
    layers.insert("trace.spans".into(), 0.0);
    for w in WORKLOADS {
        let mut out = run_workload(w, &ctx);
        out.e2e
            .insert("peak_rss_mib".into(), report::peak_rss_mib());
        let line = report::result_json(&END_TO_END, &out.e2e, &out);
        let positive = out.e2e.values().all(|&v| v > 0.0);
        let ok = line.is_ok() && positive && out.correct();
        println!(
            "smoke {w}: {} ({} checks, {} failed){}",
            if ok { "ok" } else { "FAILED" },
            out.attempted,
            out.failed,
            line.as_ref()
                .err()
                .map_or(String::new(), |e| format!(": {e}"))
        );
        out.problems.iter().for_each(|p| println!("FAILED {p}"));
        bad += !ok as i32;
        layers.extend(out.layers);
    }
    match report::result_json(&PER_LAYER, &layers, &Outcome::default()) {
        Ok(_) => println!("smoke per-layer: ok ({} metrics)", PER_LAYER.len()),
        Err(e) => {
            println!("smoke per-layer: FAILED: {e}");
            bad += 1;
        }
    }
    bad.min(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| usage(&e));
    refuse_engine_switches();
    let code = if args.aa {
        aa::run(args.seed, args.seconds)
    } else if args.smoke {
        smoke(&args)
    } else {
        let workload = args.workload.clone().expect("checked by parse_args");
        run_one(&args, &workload)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload idicn-miss --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("idicn-miss"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(!parse("--workload sim-par --trace 0").unwrap().trace);
        assert!(parse("--workload sim-par --trace").unwrap().trace);
        assert!(parse("--workload sim-par --trace --seed 3").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload sim-par --seconds 0",
            "--workload sim-par --seconds x",
            "--workload sim-par --seed -1",
            "--workload sim-par --smoke",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_by_stream() {
        let all: std::collections::BTreeSet<u64> = (0..50)
            .flat_map(|seed| (0..50).map(move |stream| derive_seed(seed, stream)))
            .collect();
        assert_eq!(all.len(), 2500);
        assert_eq!(derive_seed(1, 1), derive_seed(1, 1));
    }

    #[test]
    fn every_layer_producer_is_a_workload() {
        assert!(LAYER_PRODUCERS.iter().all(|p| WORKLOADS.contains(p)));
    }
}
