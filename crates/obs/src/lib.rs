//! Zero-dependency observability for the ICN workspace.
//!
//! Everything the simulator, the paper-figure experiments, and the idICN
//! proxy need to see themselves run — with no crates beyond `std`, so it
//! builds anywhere the workspace does (including fully offline):
//!
//! - **Counters, gauges, histograms, timers** behind a [`Registry`].
//!   Registration takes a lock once; the returned handles ([`Counter`],
//!   [`Gauge`], [`TimerHandle`]) are `Arc`-backed and every hot-path
//!   operation is a relaxed atomic. `timer_handle.start()` is a scoped
//!   span timer that records elapsed nanoseconds on drop.
//! - **Log-bucketed streaming histograms** ([`Histogram`]): exact below
//!   32, ≤ ~3.2% relative quantile error above, exactly mergeable across
//!   shards/runs.
//! - **Hierarchical span profiler** ([`Profiler`]): sampling,
//!   zero-allocation self/total time attribution per phase via a
//!   thread-local span stack, recorded as the registry timers
//!   `<phase>.self` and `<phase>.total`.
//! - **Structured trace records** ([`TraceRecord`], [`TraceSink`]):
//!   per-request journey (object, design, serving level, hops, hit/coop)
//!   with every-Nth sampling, exported as JSONL.
//! - **Snapshots** ([`Snapshot`]): point-in-time JSON export (the
//!   `--telemetry out.json` sidecar format), lossless round-trip via
//!   [`Snapshot::from_json`], and a human table.
//! - **Prometheus exposition** ([`render_prometheus`]): text-format
//!   `/metrics` rendering of any snapshot.
//!
//! The JSON itself is this crate's own ~300-line implementation
//! ([`json`]), kept deliberately boring: objects are `BTreeMap`s so
//! output is deterministic and diffable.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod hist;
pub mod json;
mod profiler;
mod prom;
mod registry;
mod snapshot;
mod trace;

pub use hist::Histogram;
pub use profiler::{PhaseHandle, Profiler, SpanGuard};
pub use prom::{render_prometheus, PROM_CONTENT_TYPE};
pub use registry::{Counter, Gauge, Registry, ScopedTimer, TimerHandle};
pub use snapshot::{HistSummary, Snapshot};
pub use trace::{TraceRecord, TraceSink};

/// Process peak resident set size in KiB (`VmHWM` from `/proc`), or 0
/// when the platform does not expose it.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_plausible() {
        // On Linux /proc is available and the value is nonzero; elsewhere
        // the helper degrades to 0 rather than failing.
        let kb = super::peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(kb > 0);
        }
    }
}
