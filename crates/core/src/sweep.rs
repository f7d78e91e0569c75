//! Scenario bundling and parameter sweeps (the §5 machinery).
//!
//! A [`Scenario`] binds a topology, an access-tree shape, a synthesized
//! trace, and an origin assignment, and can evaluate any design on it. The
//! improvement metrics are always computed against a no-caching run of the
//! *same* scenario, as the paper does.
//!
//! Independent `(scenario, config)` cells of a sweep grid are
//! embarrassingly parallel: [`run_cells`] distributes them over scoped
//! worker threads (each with its own [`Simulator`]) and returns results in
//! the caller's submission order, so a parallel sweep is bit-identical to
//! the sequential one. Every fan-out in the workspace — cells, baseline
//! pre-warm, scenario construction in the `icn` experiments — is the one
//! [`par_map`]. Results land in pre-indexed slots, never in a
//! completion-ordered accumulator; the JOBS=1 vs JOBS=4 `cmp`s in
//! `scripts/check.sh` and `tests/determinism.rs` fail if they ever do.

use crate::config::ExperimentConfig;
use crate::design::DesignKind;
use crate::instrument::{CellClock, CellSample, SimObs};
use crate::latency::LatencyModel;
use crate::metrics::{Improvement, RunMetrics};
use crate::sim::Simulator;
use icn_topology::{AccessTree, Network, PopGraph};
use icn_workload::origin::{assign_origins, OriginPolicy};
use icn_workload::trace::{Trace, TraceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A reusable experiment setting: network + trace + origin map.
///
/// `Send + Sync`: the cached no-cache baseline lives in a [`OnceLock`], so
/// a scenario can be shared by reference across sweep worker threads.
pub struct Scenario {
    /// The router-level network.
    pub net: Network,
    /// The request trace.
    pub trace: Trace,
    /// `origins[object]` = owning PoP.
    pub origins: Vec<u16>,
    baseline: OnceLock<RunMetrics>,
}

impl Scenario {
    /// Builds a scenario: network from `core` + `tree`, trace synthesized
    /// over it, origins assigned per `origin_policy`.
    pub fn build(
        core: PopGraph,
        tree: AccessTree,
        trace_cfg: TraceConfig,
        origin_policy: OriginPolicy,
    ) -> Self {
        let net = Network::new(core, tree);
        let trace = Trace::synthesize(trace_cfg, &net.core.populations, net.leaves_per_pop());
        let origins = assign_origins(
            origin_policy,
            trace.config.objects,
            &net.core.populations,
            trace.config.seed ^ 0x0_12c_0de,
        );
        Self {
            net,
            trace,
            origins,
            baseline: OnceLock::new(),
        }
    }

    /// Builds a scenario around an existing trace (e.g. a loaded one).
    pub fn with_trace(
        core: PopGraph,
        tree: AccessTree,
        trace: Trace,
        origin_policy: OriginPolicy,
        origin_seed: u64,
    ) -> Self {
        let net = Network::new(core, tree);
        assert!(
            trace
                .requests
                .iter()
                .all(|r| (r.pop as usize) < net.core.populations.len()
                    && (r.leaf as u32) < net.leaves_per_pop()),
            "trace does not fit the network"
        );
        let origins = assign_origins(
            origin_policy,
            trace.config.objects,
            &net.core.populations,
            origin_seed,
        );
        Self {
            net,
            trace,
            origins,
            baseline: OnceLock::new(),
        }
    }

    /// Runs one design with an explicit configuration through the
    /// sequential [`Simulator`] — always: nothing outside the arguments
    /// selects an engine or a mode. The epoch-sharded engine is reached
    /// only by calling [`crate::shard::run_sharded`] directly.
    pub fn run_config(&self, cfg: ExperimentConfig) -> RunMetrics {
        self.run_with(cfg, None)
    }

    /// Like [`Scenario::run_config`], with instrumentation attached for
    /// the duration of the run.
    pub fn run_config_instrumented(&self, cfg: ExperimentConfig, obs: SimObs) -> RunMetrics {
        self.run_with(cfg, Some(obs))
    }

    fn run_with(&self, cfg: ExperimentConfig, obs: Option<SimObs>) -> RunMetrics {
        let mut sim = Simulator::new(&self.net, cfg, &self.origins, &self.trace.object_sizes);
        if let Some(obs) = obs {
            sim.attach_obs(obs);
        }
        sim.run(&self.trace.requests);
        sim.metrics().clone()
    }

    /// Runs one design with the §4 baseline configuration.
    pub fn run_design(&self, design: DesignKind) -> RunMetrics {
        self.run_config(ExperimentConfig::baseline(design))
    }

    /// The cached no-caching run used for normalization.
    pub fn baseline_metrics(&self) -> &RunMetrics {
        self.baseline
            .get_or_init(|| self.run_design(DesignKind::NoCache))
    }

    /// Improvement of a design (under `cfg`) over the no-caching run.
    ///
    /// The no-cache baseline is insensitive to every cache-side knob, so a
    /// single cached baseline serves all configurations of this scenario —
    /// except the latency model, size weighting and an active fault
    /// schedule, which do change the baseline; such configurations are
    /// normalized against a no-cache run under the same three settings.
    pub fn improvement(&self, cfg: ExperimentConfig) -> Improvement {
        self.improvement_detailed(cfg).0
    }

    /// Like [`Scenario::improvement`], also returning the design run's raw
    /// metrics (latency distribution, per-link transfers, hit breakdown)
    /// for telemetry export.
    pub fn improvement_detailed(&self, cfg: ExperimentConfig) -> (Improvement, RunMetrics) {
        self.improvement_inner(cfg, None)
    }

    /// [`Scenario::improvement_detailed`] with optional instrumentation on
    /// the design run (the normalization baseline runs uninstrumented).
    fn improvement_inner(
        &self,
        cfg: ExperimentConfig,
        obs: Option<SimObs>,
    ) -> (Improvement, RunMetrics) {
        let needs_custom_base = !uses_shared_baseline(&cfg);
        let run = self.run_with(cfg.clone(), obs);
        let imp = if needs_custom_base {
            let mut base_cfg = ExperimentConfig::baseline(DesignKind::NoCache);
            base_cfg.latency = cfg.latency;
            base_cfg.weight_by_size = cfg.weight_by_size;
            // Faulted runs normalize against a no-cache run of the *same*
            // faulted world, so the improvement isolates caching, not the
            // faults themselves.
            base_cfg.fault = cfg.fault;
            let base = self.run_config(base_cfg);
            Improvement::over_baseline(&base, &run)
        } else {
            Improvement::over_baseline(self.baseline_metrics(), &run)
        };
        (imp, run)
    }

    /// The §5 headline number: `RelImprov(ICN-NR) − RelImprov(EDGE)` under
    /// a shared configuration template (design field is overwritten).
    pub fn nr_vs_edge_gap(&self, template: &ExperimentConfig) -> Improvement {
        let mut nr_cfg = template.clone();
        nr_cfg.design = DesignKind::IcnNr;
        let mut edge_cfg = template.clone();
        edge_cfg.design = DesignKind::Edge;
        let nr = self.improvement(nr_cfg);
        let edge = self.improvement(edge_cfg);
        Improvement::gap(&nr, &edge)
    }
}

/// True when `cfg` normalizes against the scenario's single cached
/// no-cache baseline (see [`Scenario::improvement`]): only the latency
/// model, size weighting, and an active fault schedule change the
/// baseline itself. (A present-but-zero fault schedule cannot perturb a
/// run, so it still shares the cached baseline.)
fn uses_shared_baseline(cfg: &ExperimentConfig) -> bool {
    cfg.latency == LatencyModel::Unit
        && !cfg.weight_by_size
        && cfg.fault.is_none_or(|f| f.is_zero())
}

/// One unit of parallel sweep work: evaluate `cfg` on `scenario`.
pub struct SweepCell<'a> {
    /// The scenario the configuration runs against.
    pub scenario: &'a Scenario,
    /// The design + knobs to evaluate.
    pub cfg: ExperimentConfig,
}

/// Runs every cell — over `jobs` scoped worker threads when `jobs > 1` —
/// and returns `(Improvement, RunMetrics)` per cell **in submission
/// order**, bit-identical to running the cells sequentially.
///
/// Each worker owns its [`Simulator`] (per-run seeded RNG included), so
/// cells never share mutable state; the only cross-cell state is each
/// scenario's cached no-cache baseline, which is pre-warmed exactly once
/// before the fan-out. `jobs <= 1` is the plain sequential loop.
pub fn run_cells(cells: &[SweepCell<'_>], jobs: usize) -> Vec<(Improvement, RunMetrics)> {
    run_cells_reported(cells, jobs, |_, _, _| None, |_| {})
}

/// [`run_cells`] with per-cell instrumentation and completion accounting.
/// `mk_obs(worker, index, cell)` is invoked on the worker thread that
/// claimed the cell, so callers can bind each [`SimObs`] to a per-worker
/// registry and merge the registries deterministically afterwards.
/// `on_done` fires on the worker thread as each cell finishes, carrying
/// its submission index, request count, wall-clock time, and peak RSS (a
/// [`CellSample`]). Both are side-band observability and never touch the
/// returned results, so the submission-order determinism contract is
/// unchanged.
pub fn run_cells_reported<F, D>(
    cells: &[SweepCell<'_>],
    jobs: usize,
    mk_obs: F,
    on_done: D,
) -> Vec<(Improvement, RunMetrics)>
where
    F: Fn(usize, usize, &SweepCell<'_>) -> Option<SimObs> + Sync,
    D: Fn(CellSample) + Sync,
{
    let run_cell = |worker: usize, idx: usize| {
        let cell = &cells[idx];
        let clock = CellClock::start();
        let result = cell
            .scenario
            .improvement_inner(cell.cfg.clone(), mk_obs(worker, idx, cell));
        on_done(CellSample {
            index: idx,
            requests: result.1.requests,
            wall_ns: clock.elapsed_ns(),
            peak_rss_kb: icn_obs::peak_rss_kb(),
        });
        result
    };
    if jobs > 1 {
        // Pre-warm: every distinct scenario that at least one cell
        // normalizes against the shared baseline gets its no-cache run
        // computed exactly once, in parallel, *before* the cell fan-out —
        // so no worker stalls inside another worker's `OnceLock`
        // initialization.
        let mut warm: Vec<&Scenario> = Vec::new();
        for c in cells {
            if uses_shared_baseline(&c.cfg)
                && c.scenario.baseline.get().is_none()
                && !warm.iter().any(|s| std::ptr::eq(*s, c.scenario))
            {
                warm.push(c.scenario);
            }
        }
        par_map(warm.len(), jobs, |_, i| {
            warm[i].baseline_metrics();
        });
    }
    par_map(cells.len(), jobs, run_cell)
}

/// Deterministic fan-out: computes `f(worker, i)` for every `i` in `0..n`
/// over at most `jobs` scoped worker threads and returns the results in
/// index order. An atomic index hands items to whichever worker is free;
/// each result is written to its own index-addressed slot, so the
/// collection is in the caller's order, never completion order. `worker`
/// (`< jobs`) names the claiming thread, for per-worker side state.
/// `jobs <= 1` (or `n <= 1`) is the plain sequential loop on the calling
/// thread.
#[expect(clippy::expect_used, reason = "every slot is filled (see below)")]
pub fn par_map<R: Send + Sync>(
    n: usize,
    jobs: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    if jobs <= 1 || n <= 1 {
        return (0..n).map(|i| f(0, i)).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..jobs.min(n) {
            let (slots, next, f) = (&slots, &next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let _ = slots[i].set(f(worker, i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            // Every index < n is claimed by exactly one worker, which
            // fills the slot; a worker panic propagates out of
            // `thread::scope` before this collection runs.
            slot.into_inner().expect("par_map worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::pop;

    fn small_scenario() -> Scenario {
        let mut cfg = TraceConfig::small();
        cfg.requests = 20_000;
        cfg.objects = 2_000;
        Scenario::build(
            pop::abilene(),
            AccessTree::new(2, 3),
            cfg,
            OriginPolicy::PopulationProportional,
        )
    }

    #[test]
    fn all_caching_designs_beat_no_caching() {
        let s = small_scenario();
        for design in DesignKind::figure6_designs() {
            let imp = s.improvement(ExperimentConfig::baseline(design));
            assert!(
                imp.latency_pct > 0.0 && imp.latency_pct < 100.0,
                "{}: latency {:?}",
                design.name(),
                imp
            );
            assert!(imp.congestion_pct > 0.0, "{}: {:?}", design.name(), imp);
            assert!(imp.origin_pct > 0.0, "{}: {:?}", design.name(), imp);
        }
    }

    #[test]
    fn design_ordering_matches_paper() {
        let s = small_scenario();
        let nr = s.improvement(ExperimentConfig::baseline(DesignKind::IcnNr));
        let sp = s.improvement(ExperimentConfig::baseline(DesignKind::IcnSp));
        let edge = s.improvement(ExperimentConfig::baseline(DesignKind::Edge));
        let coop = s.improvement(ExperimentConfig::baseline(DesignKind::EdgeCoop));
        // Pervasive caching >= edge caching on latency.
        assert!(
            nr.latency_pct >= edge.latency_pct - 1.0,
            "nr {nr:?} vs edge {edge:?}"
        );
        // NR at least as good as SP (it can only find closer copies).
        assert!(
            nr.latency_pct >= sp.latency_pct - 0.5,
            "nr {nr:?} vs sp {sp:?}"
        );
        // Cooperation helps EDGE.
        assert!(
            coop.latency_pct >= edge.latency_pct - 0.5,
            "coop {coop:?} vs edge {edge:?}"
        );
    }

    #[test]
    fn gap_is_small_like_the_paper() {
        // The headline claim: the ICN-NR vs EDGE gap is modest.
        let s = small_scenario();
        let gap = s.nr_vs_edge_gap(&ExperimentConfig::baseline(DesignKind::Edge));
        assert!(gap.latency_pct.abs() < 25.0, "gap {gap:?}");
    }

    #[test]
    fn detailed_improvement_exposes_latency_distribution() {
        let s = small_scenario();
        let cfg = ExperimentConfig::baseline(DesignKind::Edge);
        let (imp, run) = s.improvement_detailed(cfg.clone());
        assert_eq!(imp, s.improvement(cfg));
        assert_eq!(run.latency_hist.count(), run.requests);
        // The histogram's mean must agree with the scalar accumulator to
        // within the millicost rounding.
        assert!(
            (run.latency_hist.mean() / crate::metrics::LATENCY_HIST_SCALE - run.avg_latency())
                .abs()
                < 0.05,
            "hist mean {} vs avg {}",
            run.latency_hist.mean() / crate::metrics::LATENCY_HIST_SCALE,
            run.avg_latency()
        );
        assert!(run.latency_p99() >= run.latency_p50());
        assert!(run.mean_link_utilisation() > 0.0);
    }

    #[test]
    fn instrumented_run_matches_plain_run() {
        let s = small_scenario();
        let registry = icn_obs::Registry::new();
        let cfg = ExperimentConfig::baseline(DesignKind::EdgeCoop);
        let obs = crate::instrument::SimObs::new(&registry, "EDGE-Coop");
        let (imp_obs, run_obs) = s.improvement_inner(cfg.clone(), Some(obs));
        let (imp, run) = s.improvement_detailed(cfg);
        // Instrumentation must not perturb the simulation.
        assert_eq!(imp_obs, imp);
        assert_eq!(run_obs.total_latency, run.total_latency);
        assert_eq!(run_obs.link_transfers, run.link_transfers);
        assert!(registry.snapshot().counters["sim.coop_probes"] > 0);
    }

    #[test]
    fn baseline_is_cached_and_deterministic() {
        let s = small_scenario();
        let a = s.baseline_metrics().avg_latency();
        let b = s.baseline_metrics().avg_latency();
        assert_eq!(a, b);
        assert!(a > 1.0);
    }

    #[test]
    fn par_map_preserves_index_order_at_any_worker_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 16] {
            assert_eq!(par_map(37, jobs, |_, i| i * i), expect, "jobs={jobs}");
            let workers = par_map(37, jobs, |worker, _| worker);
            assert!(workers.iter().all(|&w| w < jobs), "jobs={jobs}");
        }
        assert!(par_map(0, 4, |_, i| i).is_empty());
    }

    #[test]
    fn reported_cells_cover_every_index_without_changing_results() {
        let s = small_scenario();
        let cells: Vec<SweepCell<'_>> = DesignKind::figure6_designs()
            .iter()
            .map(|&d| SweepCell {
                scenario: &s,
                cfg: ExperimentConfig::baseline(d),
            })
            .collect();
        let plain = run_cells(&cells, 1);
        for jobs in [1usize, 4] {
            let samples = std::sync::Mutex::new(Vec::new());
            let reported = run_cells_reported(
                &cells,
                jobs,
                |_, _, _| None,
                |sample| samples.lock().unwrap().push(sample),
            );
            // Side-band accounting must not perturb the figures.
            assert_eq!(reported, plain, "jobs={jobs}");
            let mut samples = samples.into_inner().unwrap();
            samples.sort_by_key(|sample| sample.index);
            assert_eq!(samples.len(), cells.len(), "jobs={jobs}");
            for (i, sample) in samples.iter().enumerate() {
                assert_eq!(sample.index, i, "jobs={jobs}");
                assert_eq!(sample.requests, reported[i].1.requests, "jobs={jobs}");
            }
        }
    }
}
