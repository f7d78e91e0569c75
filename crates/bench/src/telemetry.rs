//! Run telemetry shared by every experiment, configured by [`RunOpts`]:
//! `--telemetry PATH` writes a JSON sidecar (an [`icn_obs::Snapshot`] of
//! every counter, timer and the merged request-latency histogram, plus the
//! run manifest under `"manifest"` and, with `ICN_PROFILE`, the span
//! profile under `"profile"`); `--trace PATH` streams every `--sample`th
//! request as JSONL, which forces sequential sweeps (a streamed trace is
//! completion-ordered); `--flight PATH` writes the sweep
//! [`FlightRecorder`], which always runs and dumps to stderr on a panic.
//! Neither they nor profiling change a printed figure. With
//! `--no-default-features` the `sim.*` metrics and profiler spans compile
//! out, but the latency histogram ([`RunMetrics`] carries it) is still
//! exported.

use crate::RunOpts;
use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::instrument::SimObs;
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{run_cells_reported, Scenario, SweepCell};
use icn_obs::json::{self, Value};
use icn_obs::{
    install_panic_dump, CellEvent, FlightRecorder, Profiler, Registry, Snapshot, TraceSink,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default per-request trace sampling (keep every Nth record).
pub(crate) const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// Telemetry collector for one `icn` invocation: a metric registry, an
/// optional JSON sidecar, an optional JSONL trace sink, a sweep flight
/// recorder, and an optional hot-path span profiler.
pub struct Telemetry {
    registry: Registry,
    out: Option<PathBuf>,
    trace: Option<Arc<TraceSink>>,
    flight: Arc<FlightRecorder>,
    flight_out: Option<PathBuf>,
    profiler: Option<Profiler>,
    jobs: usize,
    manifest: Value,
}

impl Telemetry {
    /// Builds the collector `opts` asks for (see the module docs).
    pub fn new(opts: &RunOpts) -> Self {
        let label = opts.experiment.name;
        let trace = opts.trace.as_ref().map(|path| {
            let path = path.to_string_lossy();
            let sink = TraceSink::to_file(&path, opts.sample)
                .unwrap_or_else(|e| panic!("cannot open trace file {path}: {e}"));
            eprintln!(
                "[{label}] tracing every {}th request to {path}",
                opts.sample
            );
            Arc::new(sink)
        });
        let flight = Arc::new(FlightRecorder::new(label));
        install_panic_dump(Arc::clone(&flight));
        if opts.profile {
            eprintln!("[{label}] ICN_PROFILE set: hot-path span profiler attached");
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
            out: opts.telemetry.clone(),
            trace,
            flight,
            flight_out: opts.flight.clone(),
            profiler: opts.profile.then(Profiler::new),
            jobs,
            manifest: opts.manifest(),
            ..Self::disabled()
        };
        t.registry.counter("bench.runs"); // always present in the snapshot
        t
    }

    /// A sequential collector that persists nothing (tests).
    fn disabled() -> Self {
        Self {
            registry: Registry::new(),
            out: None,
            trace: None,
            flight: Arc::new(FlightRecorder::new("test").silent()),
            flight_out: None,
            profiler: None,
            jobs: 1,
            manifest: Value::Null,
        }
    }

    /// Runs a batch of sweep cells over [`RunOpts::jobs`] workers,
    /// returning `(Improvement, RunMetrics)` per cell in submission order.
    /// Output is bit-identical at any worker count: results come from
    /// [`run_cells_reported`]'s ordered merge, per-worker registries and
    /// profilers fold into this collector in worker order (their adds and
    /// merges commute — profile merge is proptest-verified), and per-run
    /// latency histograms merge in submission order. Only wall-clock timer
    /// durations vary.
    ///
    /// With one worker — forced while a `--trace` sink is active, since a
    /// streamed trace is completion-ordered — each run also prints its
    /// progress lines.
    pub fn improvement_batch(&self, cells: &[SweepCell<'_>]) -> Vec<(Improvement, RunMetrics)> {
        let jobs = self.jobs;
        eprintln!("... running {} cells (JOBS={jobs})", cells.len());
        self.flight.add_planned(cells.len() as u64);
        let workers: Vec<(Registry, Profiler)> = (0..jobs)
            .map(|_| (Registry::new(), Profiler::new()))
            .collect();
        let mk_obs = |worker: usize, _, cell: &SweepCell<'_>| {
            let ((registry, profiler), design) = (&workers[worker], cell.cfg.design.name());
            let mut obs = SimObs::new(registry, design);
            if jobs == 1 {
                obs = obs.with_progress(design, cell.scenario.trace.len() as u64);
            }
            if let Some(sink) = &self.trace {
                obs = obs.with_trace(Arc::clone(sink));
            }
            if self.profiler.is_some() {
                obs = obs.with_profiler(profiler);
            }
            Some(obs)
        };
        // The flight recorder's ring labels each completed cell, so a
        // panic dump says which configuration it was.
        let results = run_cells_reported(cells, jobs, mk_obs, |sample| {
            self.flight.record(CellEvent {
                index: sample.index,
                label: cells[sample.index].cfg.design.name().to_string(),
                requests: sample.requests,
                wall_ns: sample.wall_ns,
                peak_rss_kb: sample.peak_rss_kb,
            })
        });
        for (registry, profiler) in &workers {
            self.registry.merge_from(registry);
            if let Some(p) = &self.profiler {
                p.merge_from(profiler);
            }
        }
        // Latency in millicost units, see [`icn_core::metrics::LATENCY_HIST_SCALE`].
        for (_, run) in &results {
            self.registry.counter("bench.runs").inc();
            self.registry
                .merge_histogram("sim.latency_milli", &run.latency_hist);
        }
        results
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
    /// manifest and, when profiled, the span profile.
    pub fn sidecar(&self) -> String {
        let Ok(Value::Obj(mut root)) = json::parse(&self.snapshot().to_json()) else {
            unreachable!("a snapshot serializes to a JSON object")
        };
        root.insert("manifest".to_string(), self.manifest.clone());
        if let Some(profiler) = &self.profiler {
            root.insert("profile".to_string(), profiler.snapshot().to_value());
        }
        Value::Obj(root).to_json()
    }

    /// Flushes the trace sink, prints the profile, and writes the flight
    /// record and the sidecar (its table to stderr). Call once, last.
    pub fn finish(&self) -> io::Result<()> {
        if self.flight.done() > 0 {
            self.flight.finish();
        }
        if let Some(path) = &self.flight_out {
            write(path, "flight record", self.flight.to_json())?;
        }
        if let Some(profiler) = &self.profiler {
            eprint!("{}", profiler.snapshot().render_table());
        }
        if let Some(sink) = &self.trace {
            if let Err(e) = sink.flush() {
                eprintln!("warning: trace flush failed: {e}");
            }
            let (written, offered) = (sink.written(), sink.offered());
            eprintln!("trace: {written} records written ({offered} offered)");
        }
        if let Some(path) = &self.out {
            write(path, "telemetry snapshot", self.sidecar())?;
            eprint!("{}", self.snapshot().render_table());
        }
        Ok(())
    }
}

/// Writes `what` to `path`, naming both in any error.
fn write(path: &Path, what: &str, contents: String) -> io::Result<()> {
    let shown = path.display();
    let context =
        |e: io::Error| io::Error::new(e.kind(), format!("cannot write {what} to {shown}: {e}"));
    std::fs::write(path, contents).map_err(context)?;
    eprintln!("{what} written to {shown}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::parse;
    use icn_obs::ProfileSnapshot;
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
        let profiler = profile.then(Profiler::new);
        Telemetry {
            jobs,
            profiler,
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
        for flag in ["--telemetry", "--trace", "--sample", "--flight"] {
            assert!(
                parse(&format!("fig6 --telemetry t.json {flag}")).is_err(),
                "{flag}"
            );
        }
    }

    #[test]
    fn sidecar_carries_the_manifest_and_the_profile() {
        let t = telemetry(1, true);
        let root = json::parse(&t.sidecar()).unwrap();
        assert_eq!(root.get("manifest"), Some(&Value::Null));
        assert!(ProfileSnapshot::from_value(root.get("profile").unwrap()).is_ok());
        assert_eq!(Snapshot::from_json(&t.sidecar()).unwrap(), t.snapshot());
        let plain = json::parse(&Telemetry::disabled().sidecar()).unwrap();
        assert!(plain.get("profile").is_none());
    }

    #[test]
    fn flight_recorder_sees_every_cell_at_any_worker_count() {
        let s = tiny_scenario();
        let cells = fig6_cells(&s);
        for jobs in [1usize, 4] {
            let t = telemetry(jobs, false);
            let results = t.improvement_batch(&cells);
            assert_eq!(t.flight.done(), cells.len() as u64, "jobs={jobs}");
            let root = json::parse(&t.flight.to_json()).unwrap();
            let get = |k: &str| root.get(k).and_then(Value::as_u64);
            assert_eq!(get("cells_done"), Some(cells.len() as u64));
            assert_eq!(get("cells_planned"), Some(cells.len() as u64));
            let total: u64 = results.iter().map(|(_, r)| r.requests).sum();
            assert_eq!(get("requests"), Some(total));
            let recent = root.get("recent").and_then(Value::as_arr).unwrap();
            assert_eq!(recent.len(), cells.len());
            // Every cell appears with its design label (order may vary
            // when parallel; the ring holds completion order).
            for (i, cell) in cells.iter().enumerate() {
                let seen = recent.iter().any(|e| {
                    e.get("index").and_then(Value::as_u64) == Some(i as u64)
                        && e.get("label").and_then(Value::as_str) == Some(cell.cfg.design.name())
                });
                assert!(seen, "jobs={jobs}: cell {i} missing from flight ring");
            }
        }
    }

    #[test]
    fn profiler_does_not_perturb_results_and_merges_across_workers() {
        let s = tiny_scenario();
        let plain = Telemetry::disabled().improvement_batch(&fig6_cells(&s));
        for jobs in [1usize, 4] {
            let t = telemetry(jobs, true);
            // The profiling-never-changes-numbers invariant.
            assert_eq!(t.improvement_batch(&fig6_cells(&s)), plain, "jobs={jobs}");
            let snap = t.profiler.as_ref().unwrap().snapshot();
            #[cfg(feature = "obs")]
            {
                let req = &snap.phases["sim.request"];
                assert!(req.count > 0, "jobs={jobs}");
                // Child phases nest under the request span.
                let dir = &snap.phases["sim.dir_lookup"];
                assert!(dir.total_ns.sum <= req.total_ns.sum, "jobs={jobs}");
                for phase in snap.phases.values() {
                    assert!(phase.self_ns.sum <= phase.total_ns.sum);
                }
            }
            #[cfg(not(feature = "obs"))]
            assert!(snap.phases.is_empty());
        }
    }
}
