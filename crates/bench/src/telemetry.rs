//! Run telemetry shared by every experiment, configured by [`RunOpts`]:
//! `--telemetry PATH` writes a JSON sidecar (an [`icn_obs::Snapshot`] of
//! every counter, the merged request-latency histogram and the span
//! profile's `<phase>.self`/`<phase>.total` timers, plus the run manifest
//! under `"manifest"`); `--trace PATH` streams every `--sample`th request
//! as JSONL, which forces sequential sweeps (a streamed trace is
//! completion-ordered). Both files are created before anything runs, so an
//! unwritable path fails at once. Every completed sweep cell prints one
//! stderr line. None of it changes a printed figure.

use crate::RunOpts;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::instrument::{CellSample, SimObs};
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{run_cells_reported, Scenario, SweepCell};
use icn_obs::json::Value;
use icn_obs::{Profiler, Registry, Snapshot, TraceSink};
use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-request trace sampling (keep every Nth record).
pub(crate) const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// Telemetry collector for one `icn` invocation: a metric registry, an
/// optional JSON sidecar (which attaches the hot-path span profiler), and
/// an optional JSONL trace sink.
pub struct Telemetry {
    label: &'static str,
    registry: Registry,
    out: Option<(PathBuf, File)>,
    trace: Option<Arc<TraceSink>>,
    /// Attach the span profiler: exactly when there is a sidecar for it.
    profile: bool,
    jobs: usize,
    manifest: Value,
}

impl Telemetry {
    /// Builds the collector `opts` asks for (see the module docs), or says
    /// which output file cannot be created. Once both files exist, prints
    /// the run manifest as the first stderr line.
    pub fn new(opts: &RunOpts) -> Result<Self, String> {
        let label = opts.experiment.name;
        let out = match &opts.telemetry {
            Some(path) => {
                let file = File::create(path).map_err(|e| {
                    format!("cannot create telemetry sidecar {}: {e}", path.display())
                })?;
                Some((path.clone(), file))
            }
            None => None,
        };
        let trace = match &opts.trace {
            Some(path) => {
                let sink = TraceSink::to_file(&path.to_string_lossy(), opts.sample)
                    .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
                Some(Arc::new(sink))
            }
            None => None,
        };
        let manifest = opts.manifest();
        eprintln!("[icn] manifest {}", manifest.to_json());
        if let Some(path) = &opts.trace {
            let (every, path) = (opts.sample, path.display());
            eprintln!("[{label}] tracing every {every}th request to {path}");
        }
        let mut jobs = opts.jobs;
        if trace.is_some() && jobs > 1 {
            eprintln!(
                "warning: --trace forces a sequential sweep (JOBS={jobs} ignored) — a \
                 streamed JSONL trace is completion-ordered; drop --trace to parallelize \
                 (see EXPERIMENTS.md, \"Parallelism\")"
            );
            jobs = 1;
        }
        let t = Self {
            label,
            profile: out.is_some(),
            out,
            trace,
            jobs,
            manifest,
            ..Self::disabled()
        };
        t.registry.counter("bench.runs"); // always present in the snapshot
        Ok(t)
    }

    /// A sequential collector that persists nothing (tests).
    fn disabled() -> Self {
        Self {
            label: "test",
            registry: Registry::new(),
            out: None,
            trace: None,
            profile: false,
            jobs: 1,
            manifest: Value::Null,
        }
    }

    /// Runs a batch of sweep cells over [`RunOpts::jobs`] workers,
    /// returning `(Improvement, RunMetrics)` per cell in submission order,
    /// and prints one stderr line per completed cell. Output is
    /// bit-identical at any worker count: results come from
    /// [`run_cells_reported`]'s ordered merge, per-worker registries and
    /// profilers fold into this collector in worker order (their adds and
    /// merges commute), and per-run latency histograms merge in submission
    /// order. Only wall-clock timer durations vary. The `sim.requests` and
    /// `sim.failed_requests` counters are sums of each run's
    /// [`RunMetrics`], which counts them already.
    pub fn improvement_batch(&self, cells: &[SweepCell<'_>]) -> Vec<(Improvement, RunMetrics)> {
        let jobs = self.jobs;
        eprintln!("... running {} cells (JOBS={jobs})", cells.len());
        let workers: Vec<(Registry, Profiler)> = (0..jobs).map(|_| Default::default()).collect();
        let mk_obs = |worker: usize, _, cell: &SweepCell<'_>| {
            let (registry, profiler) = &workers[worker];
            let mut obs = SimObs::new(registry, cell.cfg.design.name());
            if let Some(sink) = &self.trace {
                obs = obs.with_trace(Arc::clone(sink));
            }
            if self.profile {
                obs = obs.with_profiler(profiler);
            }
            Some(obs)
        };
        let done = AtomicUsize::new(0);
        let results = run_cells_reported(cells, jobs, mk_obs, |sample| {
            let done = done.fetch_add(1, Ordering::Relaxed) + 1;
            let design = cells[sample.index].cfg.design.name();
            eprintln!("{}", self.cell_line(done, cells.len(), design, &sample));
        });
        for (registry, profiler) in &workers {
            self.registry.merge_from(registry);
            self.registry.merge_from(profiler.registry());
        }
        for (_, run) in &results {
            self.registry.counter("bench.runs").inc();
            self.registry.counter("sim.requests").add(run.requests);
            self.registry
                .counter("sim.failed_requests")
                .add(run.failed_requests);
            // Latency in millicost units, see [`icn_core::metrics::LATENCY_HIST_SCALE`].
            self.registry
                .merge_histogram("sim.latency_milli", &run.latency_hist);
        }
        results
    }

    /// The stderr line for the `done`th of `planned` completed cells.
    fn cell_line(&self, done: usize, planned: usize, design: &str, sample: &CellSample) -> String {
        format!(
            "[{}] cell {done}/{planned} {design}: {} requests, {:.2} s, peak RSS {} MiB",
            self.label,
            sample.requests,
            sample.wall_ns as f64 / 1e9,
            sample.peak_rss_kb / 1024
        )
    }

    /// Batched, instrumented [`Scenario::nr_vs_edge_gap`]: one `(scenario,
    /// template)` pair per output row, expanded to an ICN-NR and an EDGE
    /// cell (the template's design is overwritten, as in the scalar form),
    /// all run through one [`Telemetry::improvement_batch`].
    pub fn nr_vs_edge_gap_batch(
        &self,
        pairs: &[(&Scenario, ExperimentConfig)],
    ) -> Vec<Improvement> {
        let cells: Vec<SweepCell<'_>> = (pairs.iter())
            .flat_map(|(scenario, template)| {
                [DesignKind::IcnNr, DesignKind::Edge].map(|design| {
                    let cfg = ExperimentConfig {
                        design,
                        ..template.clone()
                    };
                    SweepCell { scenario, cfg }
                })
            })
            .collect();
        let results = self.improvement_batch(&cells);
        results
            .chunks(2)
            .map(|pair| Improvement::gap(&pair[0].0, &pair[1].0))
            .collect()
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The `--telemetry` sidecar: the snapshot's JSON object plus the run
    /// manifest.
    pub fn sidecar(&self) -> String {
        let mut root = self.snapshot().to_object();
        root.insert("manifest".to_string(), self.manifest.clone());
        Value::Obj(root).to_json()
    }

    /// Flushes the trace sink and writes the sidecar (its table to
    /// stderr). Call once, last.
    pub fn finish(&self) -> io::Result<()> {
        if let Some(sink) = &self.trace {
            if let Err(e) = sink.flush() {
                eprintln!("warning: trace flush failed: {e}");
            }
            let (written, offered) = (sink.written(), sink.offered());
            eprintln!("trace: {written} records written ({offered} offered)");
        }
        if let Some((path, mut file)) = self.out.as_ref().map(|(p, f)| (p.display(), f)) {
            file.write_all(self.sidecar().as_bytes())
                .map_err(|e| io::Error::new(e.kind(), format!("cannot write {path}: {e}")))?;
            eprintln!("telemetry snapshot written to {path}");
            eprint!("{}", self.snapshot().render_table());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::parse;
    use icn_core::fault::FaultConfig;
    use icn_obs::json;
    use icn_topology::{pop, AccessTree};
    use icn_workload::origin::OriginPolicy;
    use icn_workload::trace::TraceConfig;

    fn tiny_scenario() -> Scenario {
        let cfg = TraceConfig {
            requests: 5_000,
            objects: 500,
            ..TraceConfig::small()
        };
        let (core, origins) = (pop::abilene(), OriginPolicy::PopulationProportional);
        Scenario::build(core, AccessTree::new(2, 2), cfg, origins)
    }

    /// The five Figure-6 designs on `s`.
    fn fig6_cells(s: &Scenario) -> Vec<SweepCell<'_>> {
        let cell = |&d| SweepCell {
            scenario: s,
            cfg: ExperimentConfig::baseline(d),
        };
        DesignKind::figure6_designs().iter().map(cell).collect()
    }

    /// A collector over `jobs` workers, optionally profiling.
    fn telemetry(jobs: usize, profile: bool) -> Telemetry {
        Telemetry {
            jobs,
            profile,
            ..Telemetry::disabled()
        }
    }

    #[test]
    fn telemetry_collects_runs_and_latency() {
        let (t, s) = (Telemetry::disabled(), tiny_scenario());
        let cell = SweepCell {
            scenario: &s,
            cfg: ExperimentConfig::baseline(DesignKind::Edge),
        };
        let (imp, _) = t.improvement_batch(&[cell]).remove(0);
        assert!(imp.latency_pct > 0.0);
        let snap = t.snapshot();
        assert_eq!(snap.counters["bench.runs"], 1);
        assert_eq!(
            snap.histograms["sim.latency_milli"].count,
            s.trace.len() as u64
        );
        // The sidecar JSON round-trips.
        assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn parallel_batch_matches_sequential_bit_for_bit() {
        let s = tiny_scenario();
        let (t_seq, t_par) = (telemetry(1, false), telemetry(4, false));
        let seq = t_seq.improvement_batch(&fig6_cells(&s));
        assert_eq!(seq, t_par.improvement_batch(&fig6_cells(&s)));
        // The merged telemetry agrees on everything except wall-clock
        // timer durations.
        let (snap_seq, snap_par) = (t_seq.snapshot(), t_par.snapshot());
        assert_eq!(snap_seq.counters, snap_par.counters);
        assert_eq!(snap_seq.histograms, snap_par.histograms);
        assert!(snap_seq.timers.keys().eq(snap_par.timers.keys()));
    }

    #[test]
    fn gap_batch_matches_scalar_gaps() {
        let (t, s) = (Telemetry::disabled(), tiny_scenario());
        let template = ExperimentConfig::baseline(DesignKind::Edge);
        let small_f = ExperimentConfig {
            f_fraction: 0.01,
            ..template.clone()
        };
        let batch = t.nr_vs_edge_gap_batch(&[(&s, template.clone()), (&s, small_f.clone())]);
        assert_eq!(
            batch,
            [s.nr_vs_edge_gap(&template), s.nr_vs_edge_gap(&small_f)]
        );
        assert_eq!(t.snapshot().counters["bench.runs"], 4);
    }

    #[test]
    fn sample_values_are_validated_not_silently_defaulted() {
        // Regression: `--sample 1O` used to trace every 64th request
        // without a word.
        for bad in ["1O", "0", "-4", "2.5", "", "every"] {
            let opts = parse(&format!("fig6 --sample {bad}"));
            assert!(opts.is_err(), "--sample {bad:?} must be rejected");
        }
        assert_eq!(parse("fig6 --sample 1").unwrap().sample, 1);
        assert_eq!(parse("fig6 --sample 100").unwrap().sample, 100);
        assert_eq!(parse("fig6").unwrap().sample, DEFAULT_TRACE_SAMPLE);
    }

    #[test]
    fn a_flag_given_last_without_its_value_is_an_error() {
        let opts = parse("fig6 --telemetry t.json --sample 8").unwrap();
        assert_eq!(opts.telemetry, Some(PathBuf::from("t.json")));
        assert_eq!((opts.trace, opts.sample), (None, 8));
        for flag in ["--telemetry", "--trace", "--sample"] {
            assert!(
                parse(&format!("fig6 --telemetry t.json {flag}")).is_err(),
                "{flag}"
            );
        }
    }

    #[test]
    fn unwritable_output_paths_fail_before_the_run() {
        // A file is not a directory, so neither path can be created.
        for flag in ["--telemetry", "--trace"] {
            let opts = parse(&format!("fig6 {flag} Cargo.toml/out")).unwrap();
            let err = Telemetry::new(&opts).err().expect(flag);
            assert!(err.contains("Cargo.toml/out"), "{flag}: {err}");
        }
    }

    #[test]
    fn sidecar_carries_the_manifest_and_the_profile() {
        let (t, s) = (telemetry(1, true), tiny_scenario());
        t.improvement_batch(&fig6_cells(&s));
        let root = json::parse(&t.sidecar()).unwrap();
        assert_eq!(root.get("manifest"), Some(&Value::Null));
        let snap = Snapshot::from_value(&root).unwrap();
        assert_eq!(snap, t.snapshot());
        assert!(snap.timers.contains_key("sim.request.total"));
        let plain = Telemetry::disabled();
        plain.improvement_batch(&fig6_cells(&s));
        assert!(!plain.snapshot().timers.contains_key("sim.request.total"));
    }

    #[test]
    fn cell_line_names_the_cell_and_its_cost() {
        let sample = CellSample {
            index: 6,
            requests: 110_000,
            wall_ns: 410_000_000,
            peak_rss_kb: 56_320,
        };
        let line = Telemetry::disabled().cell_line(7, 40, "ICN-NR", &sample);
        assert_eq!(
            line,
            "[test] cell 7/40 ICN-NR: 110000 requests, 0.41 s, peak RSS 55 MiB"
        );
    }

    #[test]
    fn profiler_does_not_perturb_results_and_merges_across_workers() {
        let s = tiny_scenario();
        let plain = Telemetry::disabled().improvement_batch(&fig6_cells(&s));
        for jobs in [1usize, 4] {
            let t = telemetry(jobs, true);
            // The profiling-never-changes-numbers invariant.
            assert_eq!(t.improvement_batch(&fig6_cells(&s)), plain, "jobs={jobs}");
            let timers = t.snapshot().timers;
            let total = |phase: &str| timers[&format!("{phase}.total")].sum;
            assert!(timers["sim.request.total"].count > 0, "jobs={jobs}");
            // Child phases nest under the request span.
            for child in ["sim.dir_lookup", "sim.coop_lookup", "sim.transfer"] {
                assert!(total(child) <= total("sim.request"), "jobs={jobs}: {child}");
            }
            let phases = (timers.keys()).filter_map(|name| name.strip_suffix(".total"));
            for phase in phases {
                let self_ns = &timers[&format!("{phase}.self")];
                assert!(self_ns.sum <= total(phase), "jobs={jobs}: {phase}");
            }
        }
    }

    #[test]
    fn request_counters_are_sums_of_run_metrics() {
        let s = tiny_scenario();
        let mut cells = fig6_cells(&s);
        cells.push(SweepCell {
            scenario: &s,
            cfg: ExperimentConfig {
                fault: Some(FaultConfig::uniform(0xfa17, 0.1)),
                ..ExperimentConfig::baseline(DesignKind::IcnNr)
            },
        });
        for jobs in [1usize, 4] {
            let t = telemetry(jobs, false);
            let runs: Vec<RunMetrics> = (t.improvement_batch(&cells).into_iter())
                .map(|(_, run)| run)
                .collect();
            let counters = t.snapshot().counters;
            let requests: u64 = runs.iter().map(|run| run.requests).sum();
            let failed: u64 = runs.iter().map(|run| run.failed_requests).sum();
            assert_eq!(counters["sim.requests"], requests, "jobs={jobs}");
            assert_eq!(counters["sim.failed_requests"], failed, "jobs={jobs}");
            assert!(failed > 0, "the faulted cell must fail some requests");
        }
    }
}
