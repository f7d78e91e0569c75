//! The paper's evaluation: Figures 1–2 and 6–10, Tables 2–4, the §5.1
//! ablations and the §7 DoS claim. Each prints the measured rows next to
//! the paper's reference values where the paper states them.

use crate::grid::{
    build, gap_line, gap_table, names, rule, spec, specs_on, table, template, Grid, Spec, NR_EDGE,
};
use crate::{RunOpts, Telemetry};
use icn_analysis::tree_opt::{interior_cache_benefit, optimal_levels};
use icn_cache::budget::BudgetPolicy;
use icn_cache::policy::PolicyKind;
use icn_core::capacity::ServingCapacity;
use icn_core::config::{ExperimentConfig, InsertionPolicy};
use icn_core::design::DesignKind;
use icn_core::latency::LatencyModel;
use icn_core::metrics::Improvement;
use icn_core::sweep::Scenario;
use icn_topology::{pop, AccessTree, Network};
use icn_workload::fit::{fit_zipf, rank_frequency};
use icn_workload::flood::{inject_flood, FloodConfig};
use icn_workload::origin::OriginPolicy;
use icn_workload::sizes::SizeModel;
use icn_workload::skew::SpatialModel;
use icn_workload::trace::{Region, Trace};
use icn_workload::zipf::Zipf;
use std::io::{self, Write};

/// The three regions' synthetic traces at `opts.scale`, one at a time.
/// Any population vector works for the popularity marginal; the Abilene
/// metros give the generator realistic PoP weights.
fn region_traces(opts: &RunOpts) -> impl Iterator<Item = (Region, Trace)> + '_ {
    let populations = pop::abilene().populations;
    let synthesize =
        move |r: Region| (r, Trace::synthesize(r.config(opts.scale), &populations, 32));
    Region::all().into_iter().map(synthesize)
}

/// Figure 1: request popularity is Zipfian across three CDN regions —
/// log-log rank-frequency series for synthesized US / Europe / Asia traces
/// (standing in for the proprietary CDN logs; see DESIGN.md) and each
/// fitted exponent.
pub fn fig1(opts: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    for (region, trace) in region_traces(opts) {
        let counts = trace.object_counts();
        let fit = fit_zipf(&counts).expect("non-trivial trace");
        writeln!(
            out,
            "\n--- {} ({} requests, {} objects requested at least once)\n\
             fitted alpha (MLE) = {:.3}   log-log R^2 = {:.3}   [paper fit: {:.2}]\n\
             rank      frequency   (geometrically thinned for plotting)",
            region.name(),
            trace.len(),
            fit.support,
            fit.alpha_mle,
            fit.r_squared,
            region.paper_alpha()
        )?;
        for (rank, freq) in rank_frequency(&counts, 20) {
            writeln!(out, "{rank:>8}  {freq:>10}")?;
        }
    }
    Ok(())
}

/// Table 2: request counts and best-fit Zipf parameters per CDN region.
pub fn table2(opts: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Location       Requests   Fitted alpha |   Paper reqs    Paper a"
    )?;
    rule(out, 66)?;
    for (region, trace) in region_traces(opts) {
        let alpha = fit_zipf(&trace.object_counts())
            .expect("non-trivial trace")
            .alpha_mle;
        let (name, n, paper_alpha) = (region.name(), trace.len(), region.paper_alpha());
        let paper_reqs = format!("{:.1}M", region.paper_requests() as f64 / 1e6);
        writeln!(
            out,
            "{name:<10} {n:>12} {alpha:>14.3} | {paper_reqs:>12} {paper_alpha:>10.2}"
        )?;
    }
    Ok(())
}

/// Figure 2: utility of cache levels on a 6-level binary tree (level 6 is
/// the origin) under the optimal static placement, for α ∈ {0.7, 1.1, 1.5}.
pub fn fig2(_: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    const LEVELS: u32 = 6;
    const OBJECTS: usize = 100_000;
    const CACHE_PER_NODE: usize = 5_000; // 5% of the universe, the F baseline
    writeln!(
        out,
        "binary tree, {LEVELS} levels (level {LEVELS} = origin), {OBJECTS} objects, \
         {CACHE_PER_NODE} objects per cache\n"
    )?;
    let levels: String = (1..=LEVELS).map(|l| format!("  lvl{l}")).collect();
    writeln!(out, "alpha    {levels}   E[hops]  edge-only  interior gain")?;
    rule(out, 78)?;
    for alpha in [0.7, 1.1, 1.5] {
        let p = optimal_levels(LEVELS, CACHE_PER_NODE, &Zipf::new(OBJECTS, alpha));
        let cells: String = p.served.iter().map(|f| format!("{f:6.2}")).collect();
        let (hops, edge_only) = (p.expected_hops, p.edge_only_expected_hops);
        let gain = interior_cache_benefit(&p) * 100.0;
        writeln!(
            out,
            "{alpha:<8}{cells}   {hops:7.2}  {edge_only:9.2}  {gain:12.1}%"
        )?;
    }
    Ok(())
}

/// Figures 6 and 7: % improvement in (a) query latency, (b) congestion and
/// (c) max origin load for the five designs across eight topologies, with
/// population-proportional budgets and origins (Figure 6, plus each row's
/// max − min spread) or uniform ones (Figure 7 — the paper finds "no major
/// change in the relative performances").
pub fn design_matrix(
    opts: &RunOpts,
    tel: &Telemetry,
    out: &mut dyn Write,
    proportional: bool,
) -> io::Result<()> {
    let (origins, budget_policy) = match proportional {
        true => (
            OriginPolicy::PopulationProportional,
            BudgetPolicy::PopulationProportional,
        ),
        false => (OriginPolicy::Uniform, BudgetPolicy::Uniform),
    };
    let (designs, topos) = (DesignKind::figure6_designs(), pop::paper_topologies());
    let mut specs = specs_on(&topos, opts);
    specs.iter_mut().for_each(|spec| spec.3 = origins);
    let grid = Grid::run(tel, &build(opts, &specs), designs.len(), 1, |_, d, _| {
        ExperimentConfig {
            budget_policy,
            ..ExperimentConfig::baseline(designs[d])
        }
    });
    let mut cols: Vec<_> = designs.iter().map(|d| (d.name(), 12)).collect();
    let width = if proportional { 80 } else { 72 };
    if proportional {
        cols.push(("max gap", 10));
    }
    type Pick = fn(&Improvement) -> f64;
    let panels: [(&str, Pick); 3] = [
        ("(a) Query latency improvement (%)", |i| i.latency_pct),
        ("(b) Congestion improvement (%)", |i| i.congestion_pct),
        ("(c) Origin server load improvement (%)", |i| i.origin_pct),
    ];
    for (metric, pick) in panels {
        writeln!(out, "\n{metric}")?;
        let value = |t, d| pick(&grid.cell(t, d, 0).0);
        let spread = |t| {
            let values = (0..designs.len()).map(|d| value(t, d));
            values.clone().fold(f64::MIN, f64::max) - values.fold(f64::MAX, f64::min)
        };
        let head = ("Topology", &names(&topos)[..]);
        table(out, head, &cols, width, false, |t, c| match c {
            c if c < designs.len() => value(t, c),
            _ => spread(t),
        })?;
    }
    Ok(())
}

/// Paper's Table 3 (query latency gap, %): (topology, trace, synthetic).
const PAPER_TABLE3: [(&str, f64, f64); 8] = [
    ("Abilene", 6.89, 7.81),
    ("Geant", 5.92, 6.96),
    ("Telstra", 7.44, 8.63),
    ("Sprint", 7.09, 8.76),
    ("Verio", 7.40, 8.94),
    ("Tiscali", 7.11, 8.05),
    ("Level3", 6.18, 7.32),
    ("ATT", 7.25, 8.04),
];

/// Table 3: ICN-NR − EDGE latency-improvement gap, "trace" vs synthetic.
/// The locality-calibrated trace stands in for the paper's real CDN trace
/// and a pure-IRM Zipf trace with the same exponent for its best-fit
/// synthetic log (DESIGN.md); the paper's direction — the synthetic gap is
/// slightly *larger* — should reproduce. A second table reports the
/// latency distribution and link utilisation of ICN-NR on the locality
/// trace, which the aggregate improvement hides.
pub fn table3(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "               ours                   |    paper                  \n\
         Topology      Trace  Synthetic   Diff |    Trace  Synthetic   Diff"
    )?;
    rule(out, 72)?;
    // Two scenarios per topology: the locality trace, then pure IRM.
    let specs: Vec<Spec> = (pop::paper_topologies().into_iter())
        .flat_map(|t| {
            [
                spec(t.clone(), opts, |_| ()),
                spec(t, opts, |w| w.locality = None),
            ]
        })
        .collect();
    let grid = Grid::run(tel, &build(opts, &specs), 2, 1, |_, d, _| {
        ExperimentConfig::baseline(NR_EDGE[d])
    });
    for (i, (name, pt, ps)) in PAPER_TABLE3.into_iter().enumerate() {
        assert_eq!(specs[2 * i].0.name, name);
        let (trace, synth) = (
            grid.gap(2 * i, 0).latency_pct,
            grid.gap(2 * i + 1, 0).latency_pct,
        );
        let (ours, paper) = (synth - trace, ps - pt);
        let ours = format!("{trace:>8.2} {synth:>10.2} {ours:>6.2}");
        writeln!(out, "{name:<10} {ours} | {pt:>8.2} {ps:>10.2} {paper:>6.2}")?;
    }

    writeln!(
        out,
        "\nICN-NR on the locality trace: latency distribution & link utilisation\n\
         Topology       mean      p50      p90      p99 |    mean util     max util"
    )?;
    rule(out, 74)?;
    for (i, (name, ..)) in PAPER_TABLE3.into_iter().enumerate() {
        let run = &grid.cell(2 * i, 0, 0).1;
        let (mean, p50, p90, p99) = (
            run.avg_latency(),
            run.latency_p50(),
            run.latency_p90(),
            run.latency_p99(),
        );
        let (util, max) = (run.mean_link_utilisation(), run.max_congestion());
        let latency = format!("{mean:>8.2} {p50:>8.2} {p90:>8.2} {p99:>8.2}");
        writeln!(out, "{name:<10} {latency} | {util:>12.1} {max:>12}")?;
    }
    Ok(())
}

/// Figure 8(a): ICN-NR − EDGE gap vs Zipf α on AT&T. The gap shrinks as α
/// grows — popular objects concentrate at the edge.
pub fn fig8a(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let alphas = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    let specs = alphas.map(|alpha| spec(pop::att(), opts, |w| w.alpha = alpha));
    let rows: Vec<_> = (alphas.iter().enumerate())
        .map(|(i, alpha)| (format!("{alpha:>6.1}"), i, template(|_| ())))
        .collect();
    let head = " alpha      Delay   Congestion    Origin load";
    gap_table(opts, tel, out, (head, 46), &specs, &rows)
}

/// Figure 8(b): ICN-NR − EDGE gap vs per-cache budget fraction `F`
/// (log-spaced) on AT&T: non-monotone, peaking at a small F.
pub fn fig8b(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let fractions = [1e-5, 1e-4, 1e-3, 5e-3, 0.02, 0.05, 0.1, 0.3, 1.0];
    let rows = fractions.map(|f| (format!("{f:>10.5}"), 0, template(|c| c.f_fraction = f)));
    let specs = [spec(pop::att(), opts, |_| ())];
    let head = "         F      Delay   Congestion    Origin load";
    gap_table(opts, tel, out, (head, 50), &specs, &rows)
}

/// Figure 8(c): ICN-NR − EDGE gap vs spatial popularity skew on AT&T. The
/// gap grows with skew: cross-tree replicas, which only ICN-NR can use,
/// become valuable.
pub fn fig8c(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let skews = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let specs = skews.map(|skew| spec(pop::att(), opts, |w| w.skew = skew));
    let (w, pops) = (&opts.workload, pop::att().len() as u32);
    let rows: Vec<_> = (skews.iter().enumerate())
        .map(|(i, &skew)| {
            // The paper's skew metric for this setting.
            let model = SpatialModel::new(w.objects, pops, skew, w.seed ^ 0x5b5b_5b5b);
            let label = format!("{skew:>6.1} {:>14.3}", model.measured_skew());
            (label, i, template(|_| ()))
        })
        .collect();
    let head = "  skew  measured skew      Delay   Congestion    Origin load";
    gap_table(opts, tel, out, (head, 60), &specs, &rows)
}

/// Paper's Table 4: (arity, latency gain %, congestion gain %, origin %).
const PAPER_TABLE4: [(u32, f64, f64, f64); 4] = [
    (2, 10.29, 9.14, 6.27),
    (4, 9.12, 8.28, 5.35),
    (8, 7.95, 7.01, 4.66),
    (64, 1.76, 0.90, 0.34),
];

/// Table 4: the ICN-NR over EDGE gap vs access-tree arity, 64 leaves per
/// tree. Higher arity gives the leaves nearly the whole budget, implicitly
/// "normalizing" EDGE.
pub fn table4(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        " arity  Latency Congestion   Origin |    p.Lat     p.Cong   p.Orig"
    )?;
    rule(out, 70)?;
    let mut specs = PAPER_TABLE4.map(|_| spec(pop::att(), opts, |_| ()));
    for (spec, (arity, ..)) in specs.iter_mut().zip(PAPER_TABLE4) {
        spec.1 = AccessTree::with_fixed_leaves(arity, 64);
    }
    let scenarios = build(opts, &specs);
    let pairs: Vec<_> = scenarios.iter().map(|s| (s, template(|_| ()))).collect();
    let gaps = tel.nr_vs_edge_gap_batch(&pairs);
    for ((arity, p_lat, p_cong, p_orig), gap) in PAPER_TABLE4.into_iter().zip(gaps) {
        let (lat, cong, orig) = (gap.latency_pct, gap.congestion_pct, gap.origin_pct);
        let ours = format!("{arity:>6} {lat:>8.2} {cong:>10.2} {orig:>8.2}");
        writeln!(out, "{ours} | {p_lat:>8.2} {p_cong:>10.2} {p_orig:>8.2}")?;
    }
    Ok(())
}

/// Figure 9: the best case for ICN-NR on AT&T, built by setting each
/// parameter to its most favourable value in turn — each step keeps the
/// previous ones.
pub fn fig9(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        spec(pop::att(), opts, |_| ()),
        spec(pop::att(), opts, |w| w.alpha = 0.1),
        spec(pop::att(), opts, |w| (w.alpha, w.skew) = (0.1, 1.0)),
    ];
    let uniform = |c: &mut ExperimentConfig| c.budget_policy = BudgetPolicy::Uniform;
    let steps = [
        ("Baseline", 0, template(|_| ())),
        ("Alpha*", 1, template(|_| ())),
        ("Skew*", 2, template(|_| ())),
        ("Budget-Dist.*", 2, template(uniform)),
        (
            "Node-Budget*",
            2,
            template(|c| (uniform(c), c.f_fraction = 0.02).1),
        ),
    ];
    let rows = steps.map(|(name, s, cfg)| (format!("{name:<16}"), s, cfg));
    let head = "Step                Latency   Congestion    Origin-Load";
    gap_table(opts, tel, out, (head, 56), &specs, &rows)
}

/// Figure 10: bridging the best-case ICN-NR gap with simple EDGE
/// extensions, under the Figure 9 end point (AT&T, α = 0.1, skew = 1,
/// uniform budgets, F = 2%), plus two reference points: the Section-4 gap
/// and both sides with infinite caches.
pub fn fig10(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let best = spec(pop::att(), opts, |w| (w.alpha, w.skew) = (0.1, 1.0));
    let scenarios = build(opts, &[best, spec(pop::att(), opts, |_| ())]);
    let best = template(|c| (c.budget_policy, c.f_fraction) = (BudgetPolicy::Uniform, 0.02));
    use DesignKind::*;
    let variants = [
        ("Baseline (EDGE)", Edge),
        ("2-Levels", TwoLevels),
        ("Coop", EdgeCoop),
        ("2-Levels-Coop", TwoLevelsCoop),
        ("Norm", EdgeNorm),
        ("Norm-Coop", NormCoop),
        ("Double-Budget-Coop", DoubleBudgetCoop),
    ];
    // On the best case: ICN-NR, the seven EDGE variants, the
    // infinite-budget pair.
    let designs: Vec<_> = [IcnNr]
        .into_iter()
        .chain(variants.map(|v| v.1))
        .chain([InfiniteIcnNr, InfiniteEdge])
        .collect();
    let grid = Grid::run(tel, &scenarios[..1], designs.len(), 1, |_, d, _| {
        ExperimentConfig {
            design: designs[d],
            ..best.clone()
        }
    });
    let section4 = tel.nr_vs_edge_gap_batch(&[(&scenarios[1], template(|_| ()))]);
    writeln!(
        out,
        "ICN-NR advantage over     Latency   Congestion    Origin-Load"
    )?;
    rule(out, 62)?;
    let gap = |nr, edge| Improvement::gap(&grid.cell(0, nr, 0).0, &grid.cell(0, edge, 0).0);
    let mut rows: Vec<_> = (variants.iter().enumerate())
        .map(|(v, (label, _))| (*label, gap(0, 1 + v)))
        .collect();
    rows.push(("Section-4 (reference)", section4[0]));
    rows.push(("Inf-Budget (reference)", gap(8, 9)));
    for (label, gap) in rows {
        gap_line(out, &format!("{label:<22}"), gap)?;
    }
    Ok(())
}

/// §5.1 "Other parameters": latency models favouring ICN-NR, per-node
/// serving capacity with overflow redirection, heterogeneous object sizes,
/// plus two extensions — insertion and replacement policy.
pub fn ablations(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        spec(pop::att(), opts, |_| ()),
        spec(pop::att(), opts, |w| w.sizes = SizeModel::web_default()),
    ];
    let mut rows = vec![("unit hop cost (baseline)".to_string(), 0, template(|_| ()))];
    // 1. Latency models chosen to magnify ICN-NR's advantage.
    let progression = template(|c| c.latency = LatencyModel::Progression);
    rows.push(("arithmetic progression to core".into(), 0, progression));
    for d in [4, 16] {
        let cfg = template(|c| c.latency = LatencyModel::CoreMultiplier { d });
        rows.push((format!("core links cost {d}x"), 0, cfg));
    }
    // 2. Request-serving capacity with redirection.
    for per_node in [50u32, 200] {
        let capacity = Some(ServingCapacity {
            per_node,
            window: 10_000,
        });
        let cfg = template(|c| c.capacity = capacity);
        rows.push((format!("capacity {per_node}/10k-request window"), 0, cfg));
    }
    // 3. Heterogeneous object sizes: congestion counts bytes, not objects.
    let sized = template(|c| c.weight_by_size = true);
    rows.push(("bounded-Pareto sizes (byte-weighted)".into(), 1, sized));
    // 4. (extension) The ICN literature's leave-copy-down and probabilistic
    //    insertion vs the paper's leave-copy-everywhere. They only affect
    //    the ICN side (EDGE has a single cache level).
    let lcd = template(|c| c.insertion = InsertionPolicy::LeaveCopyDown);
    rows.push(("leave-copy-down insertion".into(), 0, lcd));
    let prob = template(|c| c.insertion = InsertionPolicy::Probabilistic { p: 0.3 });
    rows.push(("probabilistic insertion p=0.3".into(), 0, prob));
    // 5. (extension) Replacement policy.
    for policy in [PolicyKind::Lfu, PolicyKind::Fifo] {
        rows.push((
            format!("{policy:?} replacement"),
            0,
            template(|c| c.policy = policy),
        ));
    }
    rows.iter_mut()
        .for_each(|row| row.0 = format!("{:<34}", row.0));
    let head = "ICN-NR − EDGE gap under               Latency   Congestion    Origin-Load";
    gap_table(opts, tel, out, (head, 74), &specs, &rows)
}

/// §7 claim check: edge caching provides "much of the same request flood
/// protection as pervasively deployed ICNs". A flood of bot requests for
/// one victim publisher's catalog is injected into the Asia baseline, and
/// the victim origin's load is reported per design relative to no caching.
pub fn dos_resilience(opts: &RunOpts, tel: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let net = Network::new(pop::abilene(), AccessTree::baseline());
    let (populations, leaves) = (&net.core.populations, net.leaves_per_pop());
    let base = Trace::synthesize(Region::Asia.config(opts.scale * 0.5), populations, leaves);
    // Victim: one content provider (origin PoP 3, Denver). Two regimes: a
    // flood whose working set fits even the smallest edge cache (the
    // paper's claim), and one that overflows it (an extension finding:
    // cache-overflow floods re-open the gap).
    const VICTIM_POP: u16 = 3;
    let (regimes, objects) = ([15u32, 50], base.config.objects);
    let scenarios = regimes.map(|victim_objects| {
        let victims = objects - victim_objects..objects;
        let flood = FloodConfig {
            intensity: 10.0,
            ..FloodConfig::new(victims.clone())
        };
        let flooded = inject_flood(&base, net.pops() as u16, leaves as u16, &flood);
        let seed = base.config.seed ^ 0x0_12c_0de;
        let (core, tree) = (net.core.clone(), net.tree);
        let origins = OriginPolicy::PopulationProportional;
        let mut s = Scenario::with_trace(core, tree, flooded, origins, seed);
        victims.for_each(|o| s.origins[o as usize] = VICTIM_POP);
        s
    });
    use DesignKind::*;
    let designs = [NoCache, Edge, EdgeCoop, IcnSp, IcnNr];
    let grid = Grid::run(tel, &scenarios, designs.len(), 1, |_, d, _| {
        ExperimentConfig::baseline(designs[d])
    });
    for (s, victim_objects) in regimes.into_iter().enumerate() {
        let extra = scenarios[s].trace.len() - base.len();
        writeln!(
            out,
            "\n--- flood of {extra} requests over {victim_objects} victim objects ---\n\
             design       victim origin load   flood absorbed (%)    hit ratio"
        )?;
        rule(out, 66)?;
        let run = |d: usize| &grid.cell(s, d, 0).1;
        let load = |d: usize| run(d).origin_served[VICTIM_POP as usize];
        for (d, design) in designs.iter().enumerate() {
            let absorbed = (load(0) - load(d)) as f64 / load(0) as f64 * 100.0;
            let hit = match d {
                0 => "-".to_string(),
                _ => format!("{:.1}%", run(d).hit_ratio() * 100.0),
            };
            let (name, load) = (design.name(), load(d));
            writeln!(out, "{name:<12} {load:>18} {absorbed:>20.2} {hit:>12}")?;
        }
    }
    Ok(())
}
