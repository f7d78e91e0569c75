//! Simulator instrumentation.
//!
//! [`SimObs`] bundles what a [`crate::sim::Simulator`] can report while
//! running beyond its [`RunMetrics`](crate::metrics::RunMetrics): the
//! `sim.coop_probes` counter, sampled per-request [`TraceRecord`]s and,
//! with a [`Profiler`] attached, sampled spans over the request's phases
//! (fault schedule, cache probe, cooperative lookup, directory lookup,
//! cost selection, transfer accounting, eviction/insertion), all nested
//! under one `sim.request` span. Attach one with
//! [`crate::sim::Simulator::attach_obs`]; a run with none attached pays
//! one `Option::is_none` branch per hook. Request and failure counts are
//! not counted twice: they are `RunMetrics::{requests, failed_requests}`.
//!
//! Spans are sampled (every [`DEFAULT_SPAN_SAMPLE`]th request) —
//! `Instant::now()` costs tens of nanoseconds, which would otherwise be
//! measurable against a request that routes in a few hundred. Counters and
//! the latency histogram are exact; only durations are sampled.

#![expect(clippy::disallowed_types, reason = "the one home of obs timing types")]

use icn_obs::{Counter, PhaseHandle, Profiler, Registry, SpanGuard, TraceRecord, TraceSink};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Spans fire for every `DEFAULT_SPAN_SAMPLE`th request. Durations are
/// sampled because reading the clock twice per span is the one
/// instrumentation cost that is not "a few atomics".
pub const DEFAULT_SPAN_SAMPLE: u64 = 64;

/// Per-cell accounting emitted by sweep drivers when a cell completes:
/// where the wall clock went, cell by cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSample {
    /// Submission index of the cell within its batch.
    pub index: usize,
    /// Requests the cell simulated.
    pub requests: u64,
    /// Wall-clock nanoseconds the cell took.
    pub wall_ns: u64,
    /// Process peak RSS in KiB at completion (0 when the platform hides it).
    pub peak_rss_kb: u64,
}

/// Pre-resolved profiler phases for the simulator hot path.
#[derive(Clone)]
struct PhaseSpans {
    request: PhaseHandle,
    fault: PhaseHandle,
    probe: PhaseHandle,
    coop: PhaseHandle,
    dir: PhaseHandle,
    select: PhaseHandle,
    transfer: PhaseHandle,
    evict: PhaseHandle,
}

/// Live instrumentation attached to a simulator run.
#[derive(Clone)]
pub struct SimObs {
    design: Cow<'static, str>,
    coop_probes: Counter,
    trace: Option<Arc<TraceSink>>,
    profile: Option<PhaseSpans>,
}

impl SimObs {
    /// Instrumentation recording into `registry`, labelled with the
    /// design under test (the label lands in trace records). Design
    /// names are `&'static str` in practice, so the label is borrowed
    /// — trace records stamp it without allocating.
    pub fn new(registry: &Registry, design: impl Into<Cow<'static, str>>) -> Self {
        Self {
            design: design.into(),
            coop_probes: registry.counter("sim.coop_probes"),
            trace: None,
            profile: None,
        }
    }

    /// Also emit sampled per-request trace records to `sink`.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Also record sampled per-phase spans into `profiler`.
    pub fn with_profiler(mut self, profiler: &Profiler) -> Self {
        self.profile = Some(PhaseSpans {
            request: profiler.phase("sim.request"),
            fault: profiler.phase("sim.fault_schedule"),
            probe: profiler.phase("sim.cache_probe"),
            coop: profiler.phase("sim.coop_lookup"),
            dir: profiler.phase("sim.dir_lookup"),
            select: profiler.phase("sim.cost_select"),
            transfer: profiler.phase("sim.transfer"),
            evict: profiler.phase("sim.evict_insert"),
        });
        self
    }

    /// Offers a trace record; `build` runs only when a sink is attached
    /// (the sink then applies its own every-Nth sampling). `build`
    /// receives the design label by value — cloning a borrowed `Cow`
    /// copies a pointer, not the string.
    #[inline]
    pub fn trace_with(&self, build: impl FnOnce(Cow<'static, str>) -> TraceRecord) {
        if let Some(sink) = &self.trace {
            sink.offer_with(|| build(self.design.clone()));
        }
    }

    #[inline]
    fn phase_span(
        &self,
        idx: u64,
        pick: impl FnOnce(&PhaseSpans) -> &PhaseHandle,
    ) -> Option<SpanGuard> {
        self.profile.as_ref().and_then(|p| {
            idx.is_multiple_of(DEFAULT_SPAN_SAMPLE)
                .then(|| pick(p).span())
        })
    }

    /// Sampled span covering one whole request (the parent of every
    /// other phase span).
    #[inline]
    pub fn request_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.request)
    }

    /// Sampled span covering fault-schedule advancement.
    #[inline]
    pub fn fault_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.fault)
    }

    /// Sampled span covering cache probes along the path.
    #[inline]
    pub fn probe_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.probe)
    }

    /// Counts one scoped sibling lookup (exact) and opens its sampled
    /// span (nested inside [`SimObs::probe_span`]).
    #[inline]
    pub fn coop_span(&self, idx: u64) -> Option<SpanGuard> {
        self.coop_probes.inc();
        self.phase_span(idx, |p| &p.coop)
    }

    /// Sampled span covering the replica-directory lookup and
    /// candidate gathering.
    #[inline]
    pub fn dir_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.dir)
    }

    /// Sampled span covering cost-based replica selection (nested
    /// inside [`SimObs::dir_span`]).
    #[inline]
    pub fn select_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.select)
    }

    /// Sampled span covering latency/congestion accounting and
    /// response-path insertion.
    #[inline]
    pub fn transfer_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.transfer)
    }

    /// Sampled span covering response-path cache insertion and
    /// eviction (nested inside [`SimObs::transfer_span`]).
    #[inline]
    pub fn evict_span(&self, idx: u64) -> Option<SpanGuard> {
        self.phase_span(idx, |p| &p.evict)
    }
}

/// A wall clock for per-cell sweep accounting. Lives here — not in
/// `sweep.rs` — because `Instant` is banned from the deterministic
/// core; this module is the one sanctioned gate.
pub struct CellClock(Instant);

impl CellClock {
    /// Starts the clock.
    #[expect(clippy::disallowed_methods, reason = "see CellClock")]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since [`CellClock::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_sampled() {
        let (registry, profiler) = (Registry::new(), Profiler::new());
        let obs = SimObs::new(&registry, "EDGE").with_profiler(&profiler);
        for idx in 0..10 * DEFAULT_SPAN_SAMPLE {
            drop(obs.coop_span(idx));
            drop(obs.transfer_span(idx));
        }
        let snap = registry.snapshot();
        // Counters are exact; only span durations are sampled.
        assert_eq!(snap.counters["sim.coop_probes"], 10 * DEFAULT_SPAN_SAMPLE);
        let timers = profiler.registry().snapshot().timers;
        assert_eq!(timers["sim.coop_lookup.total"].count, 10);
        assert_eq!(timers["sim.transfer.self"].count, 10);
    }

    #[test]
    fn profiler_phases_sample_and_nest() {
        let registry = Registry::new();
        let profiler = Profiler::new();
        let obs = SimObs::new(&registry, "EDGE").with_profiler(&profiler);
        for idx in 0..10 * DEFAULT_SPAN_SAMPLE {
            let _req = obs.request_span(idx);
            {
                let _dir = obs.dir_span(idx);
                drop(obs.select_span(idx));
            }
            let _transfer = obs.transfer_span(idx);
            drop(obs.evict_span(idx));
        }
        let timers = profiler.registry().snapshot().timers;
        for phase in [
            "sim.request",
            "sim.dir_lookup",
            "sim.cost_select",
            "sim.transfer",
            "sim.evict_insert",
        ] {
            assert_eq!(timers[&format!("{phase}.total")].count, 10, "{phase}");
        }
        // Without a profiler attached, the same call sites are no-ops.
        let bare = SimObs::new(&registry, "EDGE");
        assert!(bare.request_span(0).is_none());
        assert!(bare.transfer_span(0).is_none());
        // The request span is the parent: nested phase totals fit inside.
        let total = |phase: &str| timers[&format!("{phase}.total")].sum;
        assert!(total("sim.dir_lookup") + total("sim.transfer") <= total("sim.request"));
        assert!(total("sim.evict_insert") <= total("sim.transfer"));
        assert!(timers["sim.request.self"].sum <= total("sim.request"));
    }

    #[test]
    fn cell_clock_advances() {
        let clock = CellClock::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(clock.elapsed_ns() > 0);
    }

    #[test]
    fn trace_records_carry_the_design_label() {
        struct Sink(std::sync::Mutex<Vec<u8>>);
        // A TraceSink needs a Write; share a Vec through a tiny adapter.
        #[derive(Clone)]
        struct W(Arc<Sink>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0 .0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = Arc::new(Sink(std::sync::Mutex::new(Vec::new())));
        let sink = Arc::new(TraceSink::new(Box::new(W(Arc::clone(&store))), 1));
        let registry = Registry::new();
        let obs = SimObs::new(&registry, "ICN-NR").with_trace(sink);
        obs.trace_with(|design| TraceRecord {
            seq: 1,
            design,
            ..TraceRecord::default()
        });
        let text = String::from_utf8(store.0.lock().unwrap().clone()).unwrap();
        let rec = TraceRecord::from_json(text.trim()).unwrap();
        assert_eq!(rec.design, "ICN-NR");
    }
}
