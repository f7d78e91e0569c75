//! The three simulator workloads: `sim-route`, `sim-edge`, `sim-par`.
//!
//! All three run the paper's §4 baseline (Asia trace, binary depth-5 access
//! tree, population-proportional budgets and origins) over the eight paper
//! topologies; what differs is which designs run and how the kernel is
//! driven. Every simulated number is checked on every pass, so a speed-up
//! that changes a result fails the run instead of improving it.

use crate::report::{nproc, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::{derive_seed, Ctx, Size, SETUPS};
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::shard::{self, ShardOpts};
use icn_core::sweep::{self, Scenario, SweepCell};
use icn_core::Simulator;
use icn_topology::{pop, AccessTree, PopGraph};
use icn_workload::origin::OriginPolicy;
use icn_workload::trace::{Region, TraceConfig, TraceIter};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Designs of `sim-route`: the replica directory and cost selection do
/// most of the work.
pub const ROUTE_DESIGNS: [DesignKind; 2] = [DesignKind::IcnNr, DesignKind::IcnSp];
/// Designs of `sim-edge`: cache probe/evict/insert dominates and the
/// replica directory is bypassed.
pub const EDGE_DESIGNS: [DesignKind; 3] =
    [DesignKind::Edge, DesignKind::EdgeCoop, DesignKind::EdgeNorm];

/// Golden per-cell digests for seed 1 at full size.
const GOLDEN: &str = include_str!("../golden/seed1.txt");
/// The seed the golden file was recorded with.
pub const GOLDEN_SEED: u64 = 1;

struct Params {
    /// Asia-trace scale of the kernel and fig6 parts.
    scale: f64,
    /// Asia-trace scale of the sharded ATT runs.
    shard_scale: f64,
    /// Timed passes/reps at least, whatever `--seconds` says.
    min_reps: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            scale: 0.25,
            shard_scale: 1.0,
            min_reps: 3,
        },
        Size::Smoke => Params {
            scale: 0.0125,
            shard_scale: 0.05,
            min_reps: 2,
        },
    }
}

/// One-line description of the fixed parameters, for the manifest.
pub fn describe(size: Size) -> String {
    let p = params(size);
    format!(
        "Asia trace SCALE={} (sharded ATT runs SCALE={}), 8 paper topologies, baseline tree \
         arity 2 depth 5, LRU, F=5%, population-proportional budgets and origins, \
         >= {} timed passes, {SETUPS} set-ups, jobs=shards=nproc={}",
        p.scale,
        p.shard_scale,
        p.min_reps,
        nproc()
    )
}

fn trace_config(seed: u64, scale: f64) -> TraceConfig {
    let mut cfg = Region::Asia.config(scale);
    cfg.seed = derive_seed(seed, 1);
    cfg
}

fn build_scenario(core: PopGraph, cfg: &TraceConfig) -> Scenario {
    Scenario::build(
        core,
        AccessTree::baseline(),
        cfg.clone(),
        OriginPolicy::PopulationProportional,
    )
}

/// `f(0..n)` in index order, computed by `jobs` scoped threads.
fn par_map<R: Send + Sync>(n: usize, jobs: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = slots[i].set(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every index is claimed once"))
        .collect()
}

fn build_scenarios(cfg: &TraceConfig, jobs: usize) -> Vec<Scenario> {
    let topos = pop::paper_topologies();
    par_map(topos.len(), jobs, |i| build_scenario(topos[i].clone(), cfg))
}

/// Digest over every counter of a run that a figure or table prints.
/// Spelled out field by field so that adding an unrelated field to
/// `RunMetrics` does not invalidate the golden file.
fn metrics_digest(m: &RunMetrics, imp: Option<&Improvement>) -> String {
    let mut bytes = Vec::new();
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    put(m.requests);
    put(m.total_latency.to_bits());
    put(m.cache_hits);
    put(m.origin_hits);
    put(m.coop_hits);
    put(m.failed_requests);
    for q in [0.5, 0.9, 0.99] {
        put(m.latency_quantile(q).to_bits());
    }
    for v in [&m.link_transfers, &m.origin_served, &m.hits_by_level] {
        put(v.len() as u64);
        v.iter().for_each(|&x| put(x));
    }
    if let Some(i) = imp {
        put(i.latency_pct.to_bits());
        put(i.congestion_pct.to_bits());
        put(i.origin_pct.to_bits());
    }
    idicn::crypto::to_hex(&idicn::crypto::digest(&bytes)[..12])
}

/// Checks one cell's digest against the golden file (seed 1, full size
/// only) and records the digest line.
fn check_golden(ctx: &Ctx, out: &mut Outcome, key: &str, digest: &str, first_pass: bool) {
    if first_pass {
        out.digests.push(format!("{key} {digest}"));
    }
    if ctx.seed != GOLDEN_SEED || ctx.size != Size::Full || ctx.print_digests {
        return;
    }
    let want = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')));
    out.check(want == Some(digest), || {
        format!("{key}: digest {digest} differs from golden {want:?}")
    });
}

fn suffix(design: DesignKind) -> String {
    design.name().to_ascii_lowercase()
}

/// `sim-route` / `sim-edge`: `Simulator::run` over pre-materialized traces,
/// `designs` x 8 topologies, single thread.
pub fn run_kernel(ctx: &Ctx, workload: &'static str, designs: &[DesignKind]) -> Outcome {
    let p = params(ctx.size);
    let mut out = Outcome::default();
    let cfg = trace_config(ctx.seed, p.scale);

    // Set-up: scenario build, several times over; the last one is kept.
    let mut setup = Vec::new();
    let mut scenarios = Vec::new();
    for rep in 0..SETUPS {
        drop(std::mem::take(&mut scenarios));
        let t = Instant::now();
        scenarios = ctx
            .tracer
            .span("setup.build_scenarios", SpanId::NONE, rep as u64, |_| {
                build_scenarios(&cfg, 1)
            });
        setup.push(t.elapsed().as_secs_f64());
    }
    let cells: Vec<(&Scenario, DesignKind)> = designs
        .iter()
        .flat_map(|&d| scenarios.iter().map(move |s| (s, d)))
        .collect();
    let requests_per_pass: u64 = cells.iter().map(|(s, _)| s.trace.len() as u64).sum();

    // Reference pass, off the clock: the same cells through `run_streamed`
    // with a fresh generator. It warms the caches, and its results are what
    // every timed pass must reproduce bit for bit (run == run_streamed).
    let mut reference = Vec::with_capacity(cells.len());
    let mut streamed_secs = vec![0.0; designs.len()];
    for (ci, &(s, design)) in cells.iter().enumerate() {
        let t = Instant::now();
        let mut sim = Simulator::new(
            &s.net,
            ExperimentConfig::baseline(design),
            &s.origins,
            &s.trace.object_sizes,
        );
        sim.run_streamed(TraceIter::new(
            &s.trace.config,
            &s.net.core.populations,
            s.net.leaves_per_pop(),
        ));
        streamed_secs[ci / scenarios.len()] += t.elapsed().as_secs_f64();
        reference.push(sim.metrics().clone());
    }

    // Timed passes. In a traced run every other pass records spans, and the
    // difference between the two kinds of pass is the tracing overhead.
    let off = Tracer::new(false);
    let mut cell_secs: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut pass_secs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut pass = 0usize;
    while pass < p.min_reps || Instant::now() < deadline {
        let traced = ctx.tracer.is_on() && pass % 2 == 1;
        let tracer = if traced { ctx.tracer } else { &off };
        let mut total = 0.0;
        for (ci, &(s, design)) in cells.iter().enumerate() {
            let op = (pass * cells.len() + ci) as u64;
            let cell = tracer.begin("sim.cell", SpanId::NONE, op);
            let mut sim = tracer.span("core.sim.new", cell, op, |_| {
                Simulator::new(
                    &s.net,
                    ExperimentConfig::baseline(design),
                    &s.origins,
                    &s.trace.object_sizes,
                )
            });
            let t_run = Instant::now();
            tracer.span("core.sim.run", cell, op, |_| {
                sim.run(std::hint::black_box(&s.trace.requests));
            });
            let secs = t_run.elapsed().as_secs_f64();
            tracer.end(cell);
            cell_secs[ci].push(secs);
            total += secs;

            let m = sim.metrics();
            let key = format!("{workload} {} {}", design.name(), s.net.core.name);
            out.check(
                *m == reference[ci] && m.requests == s.trace.len() as u64 && m.failed_requests == 0,
                || format!("{key}: pass {pass} differs from the streamed reference run"),
            );
            check_golden(ctx, &mut out, &key, &metrics_digest(m, None), pass == 0);
        }
        pass_secs.push(total);
        pass += 1;
    }

    let medians: Vec<f64> = cell_secs.iter_mut().map(|v| median(v)).collect();
    let grid_secs: f64 = medians.iter().sum();
    let slowest = medians.iter().cloned().fold(0.0, f64::max);
    let req_per_s = requests_per_pass as f64 / grid_secs;
    out.e2e.insert("throughput_per_s".into(), req_per_s);
    out.e2e.insert("time_p50_ms".into(), grid_secs * 1e3);
    out.e2e.insert("time_tail_ms".into(), slowest * 1e3);
    out.e2e.insert("setup_s".into(), median(&mut setup));
    out.native.push(("sim_req_per_s", req_per_s, "1/s"));
    out.native.push(("grid_pass_s", grid_secs, "s"));
    out.native.push(("slowest_cell_s", slowest, "s"));
    out.notes.push(format!(
        "{} cells x {pass} timed passes, {requests_per_pass} simulated requests per pass, \
         per-cell median of {pass}",
        cells.len()
    ));
    out.notes.push(format!(
        "whole-pass seconds, in order: {}",
        pass_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // Per-layer values this workload produces itself.
    let n = scenarios.len();
    for (di, &design) in designs.iter().enumerate() {
        let range = di * n..(di + 1) * n;
        let requests: u64 = scenarios.iter().map(|s| s.trace.len() as u64).sum();
        let secs: f64 = medians[range.clone()].iter().sum();
        let sfx = suffix(design);
        out.layers.insert(
            format!("core.sim.run_req_per_s.{sfx}"),
            requests as f64 / secs,
        );
        let hits: u64 = reference[range.clone()].iter().map(|m| m.cache_hits).sum();
        out.layers.insert(
            format!("core.sim.cache_hit_share.{sfx}"),
            hits as f64 / requests as f64,
        );
        if matches!(design, DesignKind::IcnNr | DesignKind::Edge) {
            out.layers.insert(
                format!("core.sim.run_streamed_req_per_s.{sfx}"),
                requests as f64 / streamed_secs[di],
            );
        }
        if design == DesignKind::EdgeCoop {
            let coop: u64 = reference[range].iter().map(|m| m.coop_hits).sum();
            out.layers.insert(
                format!("core.sim.coop_hit_share.{sfx}"),
                coop as f64 / requests as f64,
            );
        }
    }
    insert_overhead(ctx.tracer, &mut out, &pass_secs);
    out
}

/// `trace.overhead_pct` from reps in the order they ran: in a traced run the
/// odd ones recorded spans, and the figure is how much longer those took, in
/// percent of the even ones.
fn insert_overhead(tracer: &Tracer, out: &mut Outcome, secs: &[f64]) {
    let of_parity = |p: usize| -> Vec<f64> { secs.iter().skip(p).step_by(2).copied().collect() };
    let (mut plain, mut traced) = (of_parity(0), of_parity(1));
    if !tracer.is_on() || traced.is_empty() {
        return;
    }
    out.layers.insert(
        "trace.overhead_pct".into(),
        (median(&mut traced) / median(&mut plain) - 1.0) * 100.0,
    );
}

fn fig6_cells(scenarios: &[Scenario]) -> Vec<SweepCell<'_>> {
    scenarios
        .iter()
        .flat_map(|s| {
            DesignKind::figure6_designs()
                .into_iter()
                .map(move |d| SweepCell {
                    scenario: s,
                    cfg: ExperimentConfig::baseline(d),
                })
        })
        .collect()
}

/// `sim-par`: (a) the in-process work of `fig6` — build 8 scenarios, the
/// no-cache baselines, 40 cells through `sweep::run_cells(jobs = nproc)`;
/// (b) `shard::run_sharded(shards = nproc)` for ICN-NR and EDGE on ATT.
pub fn run_par(ctx: &Ctx) -> Outcome {
    let p = params(ctx.size);
    let jobs = nproc();
    let mut out = Outcome::default();
    let cfg = trace_config(ctx.seed, p.scale);
    let att_cfg = trace_config(ctx.seed, p.shard_scale);
    let off = Tracer::new(false);

    // Set-up: the ATT scenario of part (b). Part (a) builds on the clock.
    let mut setup = Vec::new();
    let mut att = None;
    for rep in 0..SETUPS {
        drop(att.take());
        let t = Instant::now();
        att = Some(
            ctx.tracer
                .span("setup.build_att", SpanId::NONE, rep as u64, |_| {
                    build_scenario(pop::att(), &att_cfg)
                }),
        );
        setup.push(t.elapsed().as_secs_f64());
    }
    let att = att.expect("SETUPS > 0");

    // (a) fig6, fan-out over cells.
    let designs = DesignKind::figure6_designs();
    let mut fig6_secs = Vec::new();
    let mut first: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.6);
    let mut rep = 0usize;
    while rep < p.min_reps || Instant::now() < deadline {
        let traced = ctx.tracer.is_on() && rep % 2 == 1;
        let tracer = if traced { ctx.tracer } else { &off };
        let op = rep as u64;
        let t = Instant::now();
        let root = tracer.begin("fig6", SpanId::NONE, op);
        let scenarios = tracer.span("fig6.build_scenarios", root, op, |_| {
            build_scenarios(&cfg, jobs)
        });
        let cells = fig6_cells(&scenarios);
        let results = tracer.span("core.sweep.run_cells", root, op, |_| {
            sweep::run_cells(&cells, jobs)
        });
        tracer.end(root);
        fig6_secs.push(t.elapsed().as_secs_f64());

        for (si, (s, row)) in scenarios
            .iter()
            .zip(results.chunks(designs.len()))
            .enumerate()
        {
            let topo = &s.net.core.name;
            for (di, (imp, m)) in row.iter().enumerate() {
                let key = format!("sim-par fig6 {} {topo}", designs[di].name());
                let digest = metrics_digest(m, Some(imp));
                if rep == 0 {
                    first.push(digest.clone());
                }
                let same = first.get(si * designs.len() + di) == Some(&digest);
                out.check(
                    same && m.requests == s.trace.len() as u64 && m.failed_requests == 0,
                    || format!("{key}: rep {rep} differs from rep 0"),
                );
                check_golden(ctx, &mut out, &key, &digest, rep == 0);
            }
            let lat = |d: DesignKind| {
                let di = designs.iter().position(|&x| x == d).expect("a fig6 design");
                row[di].0.latency_pct
            };
            out.check(lat(DesignKind::IcnNr) > lat(DesignKind::Edge), || {
                format!(
                    "{topo}: ICN-NR latency improvement {} is not above EDGE's {}",
                    lat(DesignKind::IcnNr),
                    lat(DesignKind::Edge)
                )
            });
        }
        rep += 1;
    }
    let fig6_reps = rep;

    // (b) the epoch-sharded engine on ATT. The one-worker runs are the
    // reference every nproc-worker run must equal bit for bit.
    let shard_designs = [DesignKind::IcnNr, DesignKind::Edge];
    let run_sharded = |design: DesignKind, shards: usize| {
        let cfg = ExperimentConfig::baseline(design);
        assert!(
            shard::supported(&att.net, &cfg),
            "ATT fits the shard engine"
        );
        let t = Instant::now();
        let run = shard::run_sharded(
            &att.net,
            &cfg,
            &att.origins,
            &att.trace.object_sizes,
            att.trace.requests.iter().copied(),
            &ShardOpts {
                shards,
                ..ShardOpts::default()
            },
        );
        (run, t.elapsed().as_secs_f64())
    };
    let reference: Vec<_> = shard_designs.iter().map(|&d| run_sharded(d, 1)).collect();
    let len = att.trace.len() as u64;
    let mut shard_secs = Vec::new();
    let mut design_secs: Vec<Vec<f64>> = vec![Vec::new(); shard_designs.len()];
    let mut reconcile_share: Vec<Vec<f64>> = vec![Vec::new(); shard_designs.len()];
    let mut workers = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.4);
    let mut rep = 0usize;
    while rep < p.min_reps || Instant::now() < deadline {
        let traced = ctx.tracer.is_on() && rep % 2 == 1;
        let tracer = if traced { ctx.tracer } else { &off };
        let mut total = 0.0;
        for (di, &design) in shard_designs.iter().enumerate() {
            let (run, secs) =
                tracer.span("core.shard.run_sharded", SpanId::NONE, rep as u64, |_| {
                    run_sharded(design, jobs)
                });
            total += secs;
            design_secs[di].push(secs);
            reconcile_share[di].push(run.reconcile_ns as f64 / (secs * 1e9) * 100.0);
            workers = run.workers;
            let key = format!("sim-par shard {} ATT", design.name());
            out.check(
                run.metrics == reference[di].0.metrics
                    && run.epochs == reference[di].0.epochs
                    && run.metrics.requests == len,
                || format!("{key}: {jobs} workers differ from 1 worker (rep {rep})"),
            );
            check_golden(
                ctx,
                &mut out,
                &key,
                &metrics_digest(&run.metrics, None),
                rep == 0,
            );
        }
        shard_secs.push(total);
        rep += 1;
    }

    // The overhead is taken on the fig6 reps alone, before the median below
    // reorders them: mixing two kinds of rep would compare unlike things.
    insert_overhead(ctx.tracer, &mut out, &fig6_secs);
    let fig6_wall = median(&mut fig6_secs);
    let shard_req_per_s = (len * shard_designs.len() as u64) as f64 / median(&mut shard_secs);
    let sn_secs: Vec<f64> = design_secs.iter_mut().map(|v| median(v)).collect();
    let slowest = sn_secs.iter().cloned().fold(0.0, f64::max);
    out.e2e.insert("throughput_per_s".into(), shard_req_per_s);
    out.e2e.insert("time_p50_ms".into(), fig6_wall * 1e3);
    out.e2e.insert("time_tail_ms".into(), slowest * 1e3);
    out.e2e.insert("setup_s".into(), median(&mut setup));
    out.native.push(("fig6_wall_s", fig6_wall, "s"));
    out.native.push(("shard_req_per_s", shard_req_per_s, "1/s"));
    out.native.push(("slowest_sharded_run_s", slowest, "s"));
    out.notes.push(format!(
        "fig6: 40 cells, jobs={jobs}, median of {fig6_reps} reps; sharded ATT: {len} requests x 2 \
         designs, shards={jobs} ({workers} workers), median of {rep} reps"
    ));

    for (di, &design) in shard_designs.iter().enumerate() {
        let sfx = suffix(design);
        out.layers.insert(
            format!("core.shard.req_per_s.{sfx}.s1"),
            len as f64 / reference[di].1,
        );
        out.layers.insert(
            format!("core.shard.req_per_s.{sfx}.sn"),
            len as f64 / sn_secs[di],
        );
        out.layers.insert(
            format!("core.shard.reconcile_pct.{sfx}"),
            median(&mut reconcile_share[di]),
        );
    }
    out.layers
        .insert("core.shard.epochs".into(), reference[0].0.epochs as f64);
    out.layers
        .insert("core.shard.workers".into(), workers as f64);

    if ctx.tracer.is_on() {
        layered_rep(ctx, &cfg, &att, &sn_secs, &mut out);
    }
    out
}

/// The traced run's extra rep: the same work as parts (a) and (b), taken
/// apart so each layer gets its own number.
fn layered_rep(ctx: &Ctx, cfg: &TraceConfig, att: &Scenario, sn_secs: &[f64], out: &mut Outcome) {
    let jobs = nproc();
    let tracer = ctx.tracer;
    let scenarios = build_scenarios(cfg, jobs);
    let cells = fig6_cells(&scenarios);

    let t = Instant::now();
    tracer.span("core.sweep.baselines", SpanId::NONE, 0, |_| {
        par_map(scenarios.len(), jobs, |i| {
            scenarios[i].baseline_metrics();
        })
    });
    let baseline = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let seq = tracer.span("core.sweep.run_cells.jobs1", SpanId::NONE, 0, |_| {
        sweep::run_cells(&cells, 1)
    });
    let jobs1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let par = tracer.span("core.sweep.run_cells.jobsn", SpanId::NONE, 0, |_| {
        sweep::run_cells(&cells, jobs)
    });
    let jobsn = t.elapsed().as_secs_f64();
    out.check(seq == par, || {
        format!("run_cells at jobs=1 and jobs={jobs} disagree")
    });
    out.layers
        .insert("core.sweep.baseline_wall_s".into(), baseline);
    out.layers.insert("core.sweep.jobs1_wall_s".into(), jobs1);
    out.layers.insert("core.sweep.jobsn_wall_s".into(), jobsn);
    out.layers
        .insert("core.sweep.speedup".into(), jobs1 / jobsn);

    for (di, design) in [DesignKind::IcnNr, DesignKind::Edge]
        .into_iter()
        .enumerate()
    {
        let mut sim = Simulator::new(
            &att.net,
            ExperimentConfig::baseline(design),
            &att.origins,
            &att.trace.object_sizes,
        );
        let t = Instant::now();
        tracer.span("core.sim.run", SpanId::NONE, di as u64, |_| {
            sim.run(&att.trace.requests);
        });
        let seq_secs = t.elapsed().as_secs_f64();
        out.layers.insert(
            format!("core.shard.speedup_vs_seq.{}", suffix(design)),
            seq_secs / sn_secs[di],
        );
    }
}
