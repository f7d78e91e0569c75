//! Zero-dependency observability for the ICN workspace.
//!
//! Everything the simulator, the paper-figure binaries, and the idICN
//! proxy need to see themselves run — with no crates beyond `std`, so it
//! builds anywhere the workspace does (including fully offline):
//!
//! - **Counters, gauges, histograms, timers** behind a [`Registry`].
//!   Registration takes a lock once; the returned handles ([`Counter`],
//!   [`Gauge`], [`HistHandle`], [`TimerHandle`]) are `Arc`-backed and
//!   every hot-path operation is a relaxed atomic.
//! - **Log-bucketed streaming histograms** ([`Histogram`],
//!   [`AtomicHistogram`]): exact below 32, ≤ ~3.2% relative quantile
//!   error above, exactly mergeable across shards/runs.
//! - **Span-style scoped timers**: `let _t = registry.timer("sim.route");`
//!   records elapsed nanoseconds on drop.
//! - **Structured trace records** ([`TraceRecord`], [`TraceSink`]):
//!   per-request journey (object, design, serving level, hops, hit/coop)
//!   with every-Nth sampling, exported as JSONL.
//! - **Snapshots** ([`Snapshot`]): point-in-time JSON export (the
//!   `--telemetry out.json` sidecar format), lossless round-trip via
//!   [`Snapshot::from_json`], exact cross-run merging, and a human table.
//! - **Progress lines** ([`Progress`]): throttled requests/sec + ETA.
//! - **Hierarchical span profiler** ([`Profiler`]): sampling,
//!   zero-allocation self/total time attribution per phase via a
//!   thread-local span stack, mergeable across workers and exported as
//!   JSON ([`ProfileSnapshot`]).
//! - **Flight recorder** ([`FlightRecorder`]): a ring of recent sweep-cell
//!   completions with cell-level progress/ETA, dumped as JSON on
//!   completion or panic.
//! - **Prometheus exposition** ([`render_prometheus`]): text-format
//!   `/metrics` rendering of any snapshot.
//!
//! The JSON itself is this crate's own ~300-line implementation
//! ([`json`]), kept deliberately boring: objects are `BTreeMap`s so
//! output is deterministic and diffable.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod profiler;
pub mod progress;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use flight::{install_panic_dump, peak_rss_kb, CellEvent, FlightRecorder};
pub use hist::{AtomicHistogram, Histogram};
pub use profiler::{PhaseHandle, PhaseSummary, ProfileSnapshot, Profiler, SpanGuard};
pub use progress::Progress;
pub use prom::{render_prometheus, sanitize_metric_name, PROM_CONTENT_TYPE};
pub use registry::{Counter, Gauge, HistHandle, Registry, ScopedTimer, TimerHandle};
pub use snapshot::{fmt_ns, HistSummary, Snapshot};
pub use trace::{TraceRecord, TraceSink};
