//! Run telemetry shared by every figure/table binary.
//!
//! Each binary accepts four optional flags (anywhere on its command line;
//! unrecognized flags are left for the binary's own parser):
//!
//! - `--telemetry PATH` — write an [`icn_obs::Snapshot`] of every counter,
//!   timer, and the merged request-latency histogram as JSON to `PATH`
//!   when the binary finishes, and print the human-readable table to
//!   stderr.
//! - `--trace PATH` — stream sampled per-request [`icn_obs::TraceRecord`]s
//!   as JSONL to `PATH`. **Tracing forces sequential sweeps**: a streamed
//!   JSONL trace is completion-ordered, so `JOBS > 1` is ignored (with a
//!   stderr warning) while a trace sink is active.
//! - `--sample N` — keep every `N`th trace record (default 64; a positive
//!   integer, anything else is an error).
//! - `--flight PATH` — write the sweep [`FlightRecorder`] JSON (totals plus
//!   the ring of recent cell completions) to `PATH` at exit. The recorder
//!   runs regardless; the flag only persists it. A panic mid-sweep dumps
//!   the same JSON to stderr.
//!
//! A value-taking flag given last, with no value after it, is an error.
//!
//! Setting the `ICN_PROFILE` environment variable (to anything but `0`,
//! `false`, or empty) attaches a sampling hot-path [`Profiler`] to every
//! simulator run; the per-phase self/total table goes to stderr at exit.
//! Profiling never changes the printed figures: spans alter no control
//! flow and all profiler output is stderr/sidecar-only.
//!
//! Simulator runs are always instrumented (progress lines with
//! requests/sec + ETA go to stderr); the flags only control what is
//! persisted. With `--no-default-features` the `sim.*` counters, span
//! timers, and profiler spans compile out, but the latency histogram —
//! which [`RunMetrics`] carries unconditionally — is still exported.

use icn_core::config::ExperimentConfig;
use icn_core::design::DesignKind;
use icn_core::instrument::{CellSample, SimObs};
use icn_core::metrics::{Improvement, RunMetrics};
use icn_core::sweep::{run_cells_reported, Scenario, SweepCell};
use icn_obs::{
    install_panic_dump, CellEvent, FlightRecorder, ProfileSnapshot, Profiler, Registry, Snapshot,
    TraceSink,
};
use std::path::PathBuf;
use std::sync::{Arc, Once};

/// Default per-request trace sampling (keep every Nth record).
pub const DEFAULT_TRACE_SAMPLE: u64 = 64;

/// True when the `ICN_PROFILE` environment variable asks for the hot-path
/// span profiler (set, and not `0`/`false`/empty).
pub fn profile_enabled() -> bool {
    match std::env::var("ICN_PROFILE") {
        Ok(v) => !matches!(v.trim(), "" | "0" | "false"),
        Err(_) => false,
    }
}

/// Validates a `--sample` value: a positive integer (keep every Nth
/// trace record).
fn parse_sample(s: &str) -> Result<u64, String> {
    match s.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid --sample value {s:?}: expected a positive integer \
             (keep every Nth trace record, default {DEFAULT_TRACE_SAMPLE})"
        )),
    }
}

/// The value following `flag` on the command line, `None` when the flag is
/// absent; a flag with nothing after it is an error, not an absent flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// Telemetry collector for one binary invocation: a metric registry, an
/// optional JSON snapshot sink, an optional JSONL trace sink, a sweep
/// flight recorder, and an optional hot-path span profiler.
pub struct Telemetry {
    registry: Registry,
    out: Option<PathBuf>,
    trace: Option<Arc<TraceSink>>,
    flight: Arc<FlightRecorder>,
    flight_out: Option<PathBuf>,
    profiler: Option<Profiler>,
    bin: String,
    warned_trace_seq: Once,
}

impl Telemetry {
    /// Builds a collector from the process command line (see the module
    /// docs for the flags). `bin` labels progress output.
    pub fn from_env(bin: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| flag_value(&args, flag).unwrap_or_else(|e| crate::die(&e));
        let sample = get("--sample").map_or(DEFAULT_TRACE_SAMPLE, |s| {
            parse_sample(s).unwrap_or_else(|e| crate::die(&e))
        });
        let trace = get("--trace").map(|path| {
            let sink = TraceSink::to_file(path, sample)
                .unwrap_or_else(|e| panic!("cannot open trace file {path}: {e}"));
            eprintln!("[{bin}] tracing every {sample}th request to {path}");
            Arc::new(sink)
        });
        let flight = Arc::new(FlightRecorder::new(bin));
        install_panic_dump(Arc::clone(&flight));
        let profiler = profile_enabled().then(|| {
            eprintln!("[{bin}] ICN_PROFILE set: hot-path span profiler attached");
            Profiler::new()
        });
        let t = Self {
            registry: Registry::new(),
            out: get("--telemetry").map(PathBuf::from),
            trace,
            flight,
            flight_out: get("--flight").map(PathBuf::from),
            profiler,
            bin: bin.to_string(),
            warned_trace_seq: Once::new(),
        };
        t.registry.counter("bench.runs"); // always present in the snapshot
        t
    }

    /// A collector that parses nothing and persists nothing (tests).
    pub fn disabled() -> Self {
        Self {
            registry: Registry::new(),
            out: None,
            trace: None,
            flight: Arc::new(FlightRecorder::new("test").silent()),
            flight_out: None,
            profiler: None,
            bin: "test".to_string(),
            warned_trace_seq: Once::new(),
        }
    }

    /// [`Telemetry::disabled`] with the span profiler attached (tests).
    pub fn disabled_with_profiler() -> Self {
        Self {
            profiler: Some(Profiler::new()),
            ..Self::disabled()
        }
    }

    /// The registry runs record into; usable for binary-specific counters
    /// (e.g. `bench.traces_synthesized`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Instrumentation for one simulator run of `total` requests,
    /// labelled `label` in progress lines and trace records. The label is
    /// `&'static` (design names are), so records borrow it allocation-free.
    pub fn obs(&self, label: &'static str, total: u64) -> SimObs {
        let mut obs = SimObs::new(&self.registry, label).with_progress(label, total);
        if let Some(sink) = &self.trace {
            obs = obs.with_trace(Arc::clone(sink));
        }
        if let Some(profiler) = &self.profiler {
            obs = obs.with_profiler(profiler);
        }
        obs
    }

    /// The sweep flight recorder (always running; `--flight PATH`
    /// persists it, a panic dumps it to stderr).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The merged hot-path profile so far, when `ICN_PROFILE` is set.
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.profiler.as_ref().map(Profiler::snapshot)
    }

    /// Folds one finished run into the collector: bumps `bench.runs` and
    /// merges the run's latency histogram into `sim.latency_milli`
    /// (millicost units, see [`icn_core::metrics::LATENCY_HIST_SCALE`]).
    pub fn record_run(&self, run: &RunMetrics) {
        self.registry.counter("bench.runs").inc();
        self.registry
            .merge_histogram("sim.latency_milli", &run.latency_hist);
    }

    /// Runs a batch of sweep cells — in parallel over [`crate::jobs`]
    /// workers — returning `(Improvement, RunMetrics)` per cell in
    /// submission order. Output is bit-identical at any worker count:
    /// simulation results come from [`run_cells_with`]'s ordered merge,
    /// per-worker metric registries fold into this collector with
    /// commutative adds, and per-run latency histograms merge in
    /// submission order. Only wall-clock timer durations vary.
    ///
    /// With `JOBS=1` — or when a `--trace` sink is active, since a
    /// streamed JSONL trace is inherently completion-ordered — this is
    /// exactly the sequential instrumented path (progress lines included).
    pub fn improvement_batch(&self, cells: &[SweepCell<'_>]) -> Vec<(Improvement, RunMetrics)> {
        self.improvement_batch_jobs(cells, crate::jobs())
    }

    /// [`Telemetry::improvement_batch`] with an explicit worker count.
    pub fn improvement_batch_jobs(
        &self,
        cells: &[SweepCell<'_>],
        jobs: usize,
    ) -> Vec<(Improvement, RunMetrics)> {
        if self.trace.is_some() && jobs > 1 {
            self.warned_trace_seq.call_once(|| {
                eprintln!(
                    "[{}] warning: --trace forces a sequential sweep (JOBS={jobs} \
                     ignored) — a streamed JSONL trace is completion-ordered; drop \
                     --trace to parallelize (see EXPERIMENTS.md, \"Parallelism\")",
                    self.bin
                );
            });
        }
        self.flight.add_planned(cells.len() as u64);
        // Per-cell completion accounting feeds the flight recorder; the
        // labels come from the caller's cells, so the panic-dump ring can
        // say *which* configuration each completed cell was.
        let on_done = |sample: CellSample| {
            self.flight.record(CellEvent {
                index: sample.index,
                label: cells[sample.index].cfg.design.name().to_string(),
                requests: sample.requests,
                wall_ns: sample.wall_ns,
                peak_rss_kb: sample.peak_rss_kb,
            });
        };
        let results = if jobs <= 1 || self.trace.is_some() {
            // Sequential: full instrumentation (progress lines, trace
            // sink, profiler) straight into this collector's registry.
            run_cells_reported(
                cells,
                1,
                |_, _, cell| {
                    Some(self.obs(cell.cfg.design.name(), cell.scenario.trace.len() as u64))
                },
                on_done,
            )
        } else {
            // Parallel: per-worker registries and profilers, merged
            // deterministically afterwards — registries in worker-index
            // order (commutative counter/histogram adds), profilers
            // likewise (profile merge is proptest-verified associative
            // and commutative), then each run's latency histogram in
            // submission order — the same order the sequential path
            // records them.
            let workers: Vec<Registry> = (0..jobs).map(|_| Registry::new()).collect();
            let profilers: Vec<Profiler> = (0..jobs).map(|_| Profiler::new()).collect();
            let results = run_cells_reported(
                cells,
                jobs,
                |worker, _idx, cell| {
                    let mut obs = SimObs::new(&workers[worker], cell.cfg.design.name());
                    if self.profiler.is_some() {
                        obs = obs.with_profiler(&profilers[worker]);
                    }
                    Some(obs)
                },
                on_done,
            );
            for r in &workers {
                self.registry.merge_from(r);
            }
            if let Some(profiler) = &self.profiler {
                for w in &profilers {
                    profiler.merge_from(w);
                }
            }
            results
        };
        for (_, run) in &results {
            self.record_run(run);
        }
        results
    }

    /// Batched, instrumented [`Scenario::nr_vs_edge_gap`]: one `(scenario,
    /// template)` pair per output row, expanded to an ICN-NR and an EDGE
    /// cell each (the template's design field is overwritten, as in the
    /// scalar form), all run through one [`Telemetry::improvement_batch`].
    pub fn nr_vs_edge_gap_batch(
        &self,
        pairs: &[(&Scenario, ExperimentConfig)],
    ) -> Vec<Improvement> {
        let cells: Vec<SweepCell<'_>> = pairs
            .iter()
            .flat_map(|(s, template)| {
                let mut nr_cfg = template.clone();
                nr_cfg.design = DesignKind::IcnNr;
                let mut edge_cfg = template.clone();
                edge_cfg.design = DesignKind::Edge;
                [
                    SweepCell {
                        scenario: s,
                        cfg: nr_cfg,
                    },
                    SweepCell {
                        scenario: s,
                        cfg: edge_cfg,
                    },
                ]
            })
            .collect();
        self.improvement_batch(&cells)
            .chunks(2)
            .map(|pair| Improvement::gap(&pair[0].0, &pair[1].0))
            .collect()
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Flushes the trace sink, persists the flight record and profile,
    /// and writes the JSON snapshot sidecar (plus its human-readable
    /// table to stderr). Call once at the end of main.
    pub fn finish(&self) {
        if self.flight.done() > 0 {
            self.flight.finish();
        }
        if let Some(path) = &self.flight_out {
            match std::fs::write(path, self.flight.to_json()) {
                Ok(()) => eprintln!("flight record written to {}", path.display()),
                Err(e) => {
                    eprintln!(
                        "error: cannot write flight record to {}: {e}",
                        path.display()
                    );
                    std::process::exit(1);
                }
            }
        }
        if let Some(profiler) = &self.profiler {
            eprint!("{}", profiler.snapshot().render_table());
        }
        if let Some(sink) = &self.trace {
            if let Err(e) = sink.flush() {
                eprintln!("warning: trace flush failed: {e}");
            }
            eprintln!(
                "trace: {} records written ({} offered)",
                sink.written(),
                sink.offered()
            );
        }
        let Some(path) = &self.out else { return };
        let snap = self.snapshot();
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => eprintln!("telemetry snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write telemetry to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprint!("{}", snap.render_table());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_topology::AccessTree;
    use icn_workload::origin::OriginPolicy;
    use icn_workload::trace::TraceConfig;

    fn tiny_scenario() -> Scenario {
        let mut cfg = TraceConfig::small();
        cfg.requests = 5_000;
        cfg.objects = 500;
        Scenario::build(
            icn_topology::pop::abilene(),
            AccessTree::new(2, 2),
            cfg,
            OriginPolicy::PopulationProportional,
        )
    }

    #[test]
    fn telemetry_collects_runs_and_latency() {
        let t = Telemetry::disabled();
        let s = tiny_scenario();
        let cell = SweepCell {
            scenario: &s,
            cfg: ExperimentConfig::baseline(DesignKind::Edge),
        };
        let (imp, _) = t.improvement_batch_jobs(&[cell], 1).remove(0);
        assert!(imp.latency_pct > 0.0);
        let snap = t.snapshot();
        assert_eq!(snap.counters["bench.runs"], 1);
        let lat = &snap.histograms["sim.latency_milli"];
        assert_eq!(lat.count, s.trace.len() as u64);
        // The sidecar JSON round-trips.
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn parallel_batch_matches_sequential_bit_for_bit() {
        let s = tiny_scenario();
        let cells = || -> Vec<SweepCell<'_>> {
            DesignKind::figure6_designs()
                .iter()
                .map(|&d| SweepCell {
                    scenario: &s,
                    cfg: ExperimentConfig::baseline(d),
                })
                .collect()
        };
        let t_seq = Telemetry::disabled();
        let seq = t_seq.improvement_batch_jobs(&cells(), 1);
        let t_par = Telemetry::disabled();
        let par = t_par.improvement_batch_jobs(&cells(), 4);
        assert_eq!(seq.len(), par.len());
        for (i, ((imp_s, run_s), (imp_p, run_p))) in seq.iter().zip(&par).enumerate() {
            assert_eq!(imp_s, imp_p, "cell {i}: improvement");
            assert_eq!(run_s, run_p, "cell {i}: run metrics");
        }
        // The merged telemetry agrees on everything except wall-clock
        // timer durations.
        let snap_seq = t_seq.snapshot();
        let snap_par = t_par.snapshot();
        assert_eq!(snap_seq.counters, snap_par.counters);
        assert_eq!(snap_seq.histograms, snap_par.histograms);
        assert_eq!(
            snap_seq.timers.keys().collect::<Vec<_>>(),
            snap_par.timers.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn gap_batch_matches_scalar_gaps() {
        let s = tiny_scenario();
        let t = Telemetry::disabled();
        let template = ExperimentConfig::baseline(DesignKind::Edge);
        let mut small_f = template.clone();
        small_f.f_fraction = 0.01;
        let batch = t.nr_vs_edge_gap_batch(&[(&s, template.clone()), (&s, small_f.clone())]);
        assert_eq!(batch[0], s.nr_vs_edge_gap(&template));
        assert_eq!(batch[1], s.nr_vs_edge_gap(&small_f));
    }

    #[test]
    fn sample_values_are_validated_not_silently_defaulted() {
        // Regression: `--sample 1O` used to trace every 64th request
        // without a word.
        for bad in ["1O", "0", "-4", "2.5", "", "every"] {
            assert!(
                parse_sample(bad).is_err(),
                "--sample {bad:?} must be rejected"
            );
        }
        assert_eq!(parse_sample("1"), Ok(1));
        assert_eq!(parse_sample(" 100 "), Ok(100));
    }

    #[test]
    fn a_flag_given_last_without_its_value_is_an_error() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = args("--telemetry t.json --sample");
        assert_eq!(flag_value(&a, "--telemetry"), Ok(Some("t.json")));
        assert_eq!(flag_value(&a, "--trace"), Ok(None));
        assert!(flag_value(&a, "--sample").is_err());
    }

    #[test]
    fn flight_recorder_sees_every_cell_at_any_worker_count() {
        let s = tiny_scenario();
        let cells: Vec<SweepCell<'_>> = DesignKind::figure6_designs()
            .iter()
            .map(|&d| SweepCell {
                scenario: &s,
                cfg: ExperimentConfig::baseline(d),
            })
            .collect();
        for jobs in [1usize, 4] {
            let t = Telemetry::disabled();
            let results = t.improvement_batch_jobs(&cells, jobs);
            assert_eq!(t.flight().done(), cells.len() as u64, "jobs={jobs}");
            let root = icn_obs::json::parse(&t.flight().to_json()).unwrap();
            let get = |k: &str| root.get(k).and_then(icn_obs::json::Value::as_u64);
            assert_eq!(get("cells_done"), Some(cells.len() as u64));
            assert_eq!(get("cells_planned"), Some(cells.len() as u64));
            let total: u64 = results.iter().map(|(_, r)| r.requests).sum();
            assert_eq!(get("requests"), Some(total));
            let recent = root
                .get("recent")
                .and_then(icn_obs::json::Value::as_arr)
                .unwrap();
            assert_eq!(recent.len(), cells.len());
            // Every cell appears with its design label (order may vary
            // when parallel; the ring holds completion order).
            for (i, cell) in cells.iter().enumerate() {
                assert!(
                    recent.iter().any(|e| {
                        e.get("index").and_then(icn_obs::json::Value::as_u64) == Some(i as u64)
                            && e.get("label").and_then(icn_obs::json::Value::as_str)
                                == Some(cell.cfg.design.name())
                    }),
                    "jobs={jobs}: cell {i} missing from flight ring"
                );
            }
        }
    }

    #[test]
    fn profiler_does_not_perturb_results_and_merges_across_workers() {
        let s = tiny_scenario();
        let cells = || -> Vec<SweepCell<'_>> {
            DesignKind::figure6_designs()
                .iter()
                .map(|&d| SweepCell {
                    scenario: &s,
                    cfg: ExperimentConfig::baseline(d),
                })
                .collect()
        };
        let plain = Telemetry::disabled().improvement_batch_jobs(&cells(), 1);
        for jobs in [1usize, 4] {
            let t = Telemetry::disabled_with_profiler();
            let profiled = t.improvement_batch_jobs(&cells(), jobs);
            // The profiling-never-changes-numbers invariant.
            assert_eq!(profiled, plain, "jobs={jobs}");
            let snap = t.profile_snapshot().unwrap();
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

    #[test]
    fn gap_matches_uninstrumented_scenario_gap() {
        let t = Telemetry::disabled();
        let s = tiny_scenario();
        let template = ExperimentConfig::baseline(DesignKind::Edge);
        let ours = t.nr_vs_edge_gap_batch(&[(&s, template.clone())]);
        assert_eq!(ours, [s.nr_vs_edge_gap(&template)]);
        assert_eq!(t.snapshot().counters["bench.runs"], 2);
    }
}
