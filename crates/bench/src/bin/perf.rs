//! `perf`: simulator throughput benchmark, emitting `BENCH_sim.json`.
//!
//! Runs every Figure-6 design over the paper topologies under the §4
//! baseline config and reports wall-clock throughput (requests/second)
//! per design plus peak RSS — the numbers backing the "Performance"
//! section of EXPERIMENTS.md. All seeds are the fixed experiment seeds,
//! so the *work* is identical run to run; only the timings vary with the
//! host.
//!
//! Usage: `perf [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks the workload (one topology, 2% trace scale) so CI
//! can exercise the binary and the JSON schema in seconds; `--out` picks
//! the output path (default `BENCH_sim.json`).
//!
//! Besides the timed rows, the JSON carries a `"profile"` section: a
//! per-phase self/total-time attribution (directory lookup, cache probe,
//! cost selection, eviction, fault schedule) from a separate *untimed*
//! profiled pass over the first topology, so the throughput numbers stay
//! free of profiler overhead. With `--no-default-features` the section is
//! present but empty (`{"phases": {}}`).

use icn_bench as bench;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::instrument::SimObs;
use icn_core::shard::{self, ShardOpts};
use icn_core::sweep::{par_map, Scenario};
use icn_obs::{peak_rss_kb, Profiler, Registry};
use icn_topology::pop;
use icn_workload::origin::OriginPolicy;
use std::fmt::Write as _;
use std::time::Instant;

struct DesignRow {
    name: &'static str,
    requests: u64,
    seconds: f64,
}

struct ShardRow {
    design: &'static str,
    shards: usize,
    workers: usize,
    requests: u64,
    seconds: f64,
    epochs: u64,
    reconcile_ns: u64,
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_sim.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out = p,
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?} (usage: perf [--smoke] [--out PATH])");
                std::process::exit(2);
            }
        }
    }

    let scale = if smoke { 0.02 } else { bench::scale() };
    let topos = if smoke {
        vec![pop::abilene()]
    } else {
        bench::paper_topologies()
    };
    let trace_cfg = bench::asia_trace(scale);
    let trace_seed = trace_cfg.seed;
    eprintln!(
        "[perf] building {} scenario(s) at scale {scale}...",
        topos.len()
    );
    let scenarios: Vec<Scenario> = par_map(topos.len(), bench::jobs(), |_, i| {
        Scenario::build(
            topos[i].clone(),
            bench::baseline_tree(),
            trace_cfg.clone(),
            OriginPolicy::PopulationProportional,
        )
    });
    let requests_per_pass: u64 = scenarios
        .iter()
        .map(|s| s.trace.requests.len() as u64)
        .sum();

    // Sequential, single-threaded timing: this measures the simulator's
    // per-request hot path, not the sweep engine's parallel speedup.
    let mut rows = Vec::new();
    for design in DesignKind::figure6_designs() {
        let t0 = Instant::now();
        let mut served = 0u64;
        for s in &scenarios {
            let m = s.run_config(ExperimentConfig::baseline(design));
            served += m.requests;
        }
        let seconds = t0.elapsed().as_secs_f64();
        assert_eq!(served, requests_per_pass, "{design:?}: request count drift");
        eprintln!(
            "[perf] {:10} {:>9} req in {seconds:7.3}s  ({:9.0} req/s)",
            design.name(),
            requests_per_pass,
            requests_per_pass as f64 / seconds
        );
        rows.push(DesignRow {
            name: design.name(),
            requests: requests_per_pass,
            seconds,
        });
    }

    // Intra-cell shard sweep (DESIGN.md §13): the epoch-sharded engine at
    // 1, 2, and 4 workers over every scenario, one nearest-replica and
    // one edge design. Same bytes at every shard count (check.sh
    // byte-compares); these rows measure the wall-clock scaling and the
    // sequential reconcile overhead per epoch.
    let mut shard_rows = Vec::new();
    for design in [DesignKind::IcnNr, DesignKind::Edge] {
        let cfg = ExperimentConfig::baseline(design);
        for shards in [1usize, 2, 4] {
            let t0 = Instant::now();
            let mut served = 0u64;
            let mut epochs = 0u64;
            let mut reconcile_ns = 0u64;
            let mut workers = 0usize;
            for s in &scenarios {
                if !shard::supported(&s.net, &cfg) {
                    continue;
                }
                let run = shard::run_sharded(
                    &s.net,
                    &cfg,
                    &s.origins,
                    &s.trace.object_sizes,
                    s.trace.requests.iter().copied(),
                    &ShardOpts {
                        shards,
                        ..Default::default()
                    },
                );
                served += run.metrics.requests;
                epochs += run.epochs;
                reconcile_ns += run.reconcile_ns;
                workers = workers.max(run.workers);
            }
            let seconds = t0.elapsed().as_secs_f64();
            eprintln!(
                "[perf] {:10} shards={shards} ({workers} workers) {:>9} req in {seconds:7.3}s  \
                 ({:9.0} req/s, reconcile {:.2}%)",
                design.name(),
                served,
                served as f64 / seconds,
                reconcile_ns as f64 / (seconds * 1e9) * 100.0
            );
            shard_rows.push(ShardRow {
                design: design.name(),
                shards,
                workers,
                requests: served,
                seconds,
                epochs,
                reconcile_ns,
            });
        }
    }

    // Untimed profiled pass: per-phase attribution over the first
    // topology only, kept out of the timed rows above so the reported
    // req/s never carries profiler overhead.
    eprintln!("[perf] profiling pass (first topology, untimed)...");
    let profiler = Profiler::new();
    let profile_registry = Registry::new();
    for design in DesignKind::figure6_designs() {
        let obs = SimObs::new(&profile_registry, design.name()).with_profiler(&profiler);
        let _ = scenarios[0].run_config_instrumented(ExperimentConfig::baseline(design), obs);
    }
    let profile = profiler.snapshot();
    eprint!("{}", profile.render_table());

    let total_requests: u64 = rows.iter().map(|r| r.requests).sum();
    let total_seconds: f64 = rows.iter().map(|r| r.seconds).sum();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"topologies\": {},", topos.len());
    let _ = writeln!(json, "  \"trace_seed\": {trace_seed},");
    let _ = writeln!(json, "  \"jobs\": {},", bench::jobs());
    let _ = writeln!(json, "  \"peak_rss_kb\": {},", peak_rss_kb());
    let _ = writeln!(json, "  \"total\": {{");
    let _ = writeln!(json, "    \"requests\": {total_requests},");
    let _ = writeln!(json, "    \"seconds\": {total_seconds:.3},");
    let _ = writeln!(
        json,
        "    \"requests_per_sec\": {:.0}",
        total_requests as f64 / total_seconds
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"profile\": {},", profile.to_json());
    let _ = writeln!(json, "  \"designs\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}\", \"requests\": {}, \"seconds\": {:.3}, \
             \"requests_per_sec\": {:.0}}}{comma}",
            r.name,
            r.requests,
            r.seconds,
            r.requests as f64 / r.seconds
        );
    }
    let _ = writeln!(json, "  ],");
    // Shard rows key their "design" field as NAME#sK so bench_compare.sh
    // (which keys rows by that field) never collides them with the
    // sequential rows above or with each other.
    let _ = writeln!(json, "  \"shards\": [");
    for (i, r) in shard_rows.iter().enumerate() {
        let comma = if i + 1 < shard_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}#s{}\", \"shards\": {}, \"workers\": {}, \
             \"requests\": {}, \"seconds\": {:.3}, \"requests_per_sec\": {:.0}, \
             \"epochs\": {}, \"reconcile_ns\": {}, \"reconcile_pct\": {:.3}}}{comma}",
            r.design,
            r.shards,
            r.shards,
            r.workers,
            r.requests,
            r.seconds,
            r.requests as f64 / r.seconds,
            r.epochs,
            r.reconcile_ns,
            r.reconcile_ns as f64 / (r.seconds * 1e9) * 100.0
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "perf: {total_requests} requests in {total_seconds:.3}s across {} designs -> {out}",
        rows.len()
    );
}
