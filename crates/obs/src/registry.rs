//! The metric registry: named counters, gauges, histograms, and timers.
//!
//! Registration (name lookup) takes a lock; the returned handles are
//! `Arc`-backed and every hot-path operation on them is a relaxed atomic.
//! Hot loops should resolve handles once up front:
//!
//! ```
//! use icn_obs::Registry;
//! let registry = Registry::new();
//! let served = registry.counter("proxy.served");
//! let request = registry.timer_handle("proxy.request");
//! for _ in 0..3 {
//!     let _t = request.start(); // scoped span timer
//!     served.inc();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["proxy.served"], 3);
//! assert_eq!(snap.timers["proxy.request"].count, 3);
//! ```

use crate::hist::AtomicHistogram;
use crate::snapshot::{HistSummary, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed up/down gauge handle (cheap to clone).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A pre-resolved timer: start it to get a scoped guard that records the
/// elapsed nanoseconds on drop.
#[derive(Clone)]
pub struct TimerHandle(Arc<AtomicHistogram>);

impl TimerHandle {
    /// Starts a span; the guard records on drop.
    #[inline]
    pub fn start(&self) -> ScopedTimer {
        ScopedTimer {
            hist: self.0.clone(),
            start: Instant::now(),
        }
    }

    /// Records an externally measured duration (nanoseconds).
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.0.record(ns);
    }
}

/// A live span; records its elapsed nanoseconds into the timer's histogram
/// when dropped.
pub struct ScopedTimer {
    hist: Arc<AtomicHistogram>,
    start: Instant,
}

impl Drop for ScopedTimer {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
    timers: BTreeMap<String, Arc<AtomicHistogram>>,
}

/// The metric registry. Wrap in an [`Arc`] to share across threads; all
/// handle operations are lock-free.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Counter(Arc::clone(
            inner.counters.entry(name.to_string()).or_default(),
        ))
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Gauge(Arc::clone(
            inner.gauges.entry(name.to_string()).or_default(),
        ))
    }

    /// Gets or creates the timer `name` (pre-resolved form for hot loops).
    pub fn timer_handle(&self, name: &str) -> TimerHandle {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        TimerHandle(Arc::clone(
            inner.timers.entry(name.to_string()).or_default(),
        ))
    }

    /// Merges a finished plain histogram into the histogram `name`
    /// (used to fold per-run/per-shard histograms into the registry).
    pub fn merge_histogram(&self, name: &str, h: &crate::hist::Histogram) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .merge_plain(h);
    }

    /// Folds every metric of `other` into this registry: counters and
    /// gauges add, histograms and timers merge bucket-wise; names are
    /// unioned. Built for folding per-worker registries into a main one
    /// after a parallel sweep — every operation is commutative, so the
    /// merged counts are independent of worker scheduling (only timer
    /// *durations*, which record wall clock, can differ run to run).
    pub fn merge_from(&self, other: &Registry) {
        // Snapshot `other` into plain data first so the two registry
        // locks are never held at once.
        let (counters, gauges, histograms, timers) = {
            let o = other
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (
                o.counters
                    .iter()
                    .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
                    .collect::<Vec<_>>(),
                o.gauges
                    .iter()
                    .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
                    .collect::<Vec<_>>(),
                o.histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), h.snapshot()))
                    .collect::<Vec<_>>(),
                o.timers
                    .iter()
                    .map(|(n, t)| (n.clone(), t.snapshot()))
                    .collect::<Vec<_>>(),
            )
        };
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, v) in counters {
            inner
                .counters
                .entry(name)
                .or_default()
                .fetch_add(v, Ordering::Relaxed);
        }
        for (name, v) in gauges {
            inner
                .gauges
                .entry(name)
                .or_default()
                .fetch_add(v, Ordering::Relaxed);
        }
        for (name, h) in histograms {
            inner.histograms.entry(name).or_default().merge_plain(&h);
        }
        for (name, t) in timers {
            inner.timers.entry(name).or_default().merge_plain(&t);
        }
    }

    /// A point-in-time copy of every metric, quantiles included.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snap = Snapshot::default();
        for (name, c) in &inner.counters {
            snap.counters
                .insert(name.clone(), c.load(Ordering::Relaxed));
        }
        for (name, g) in &inner.gauges {
            snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
        }
        for (name, h) in &inner.histograms {
            snap.histograms
                .insert(name.clone(), HistSummary::of(&h.snapshot()));
        }
        for (name, t) in &inner.timers {
            snap.timers
                .insert(name.clone(), HistSummary::of(&t.snapshot()));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").inc();
        r.gauge("g").inc();
        r.gauge("g").inc();
        r.gauge("g").dec();
        assert_eq!(r.gauge("g").get(), 1);
        let snap = r.snapshot();
        assert_eq!((snap.counters["x"], snap.gauges["g"]), (3, 1));
    }

    #[test]
    fn concurrent_counts_are_exact() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(thread::spawn(move || {
                let c = r.counter("hits");
                let t = r.timer_handle("lat");
                for i in 0..10_000u64 {
                    c.inc();
                    t.observe_ns(i % 512);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["hits"], 80_000);
        assert_eq!(snap.timers["lat"].count, 80_000);
    }

    fn hist_of(values: &[u64]) -> crate::hist::Histogram {
        let mut h = crate::hist::Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn merge_from_adds_counts_and_unions_names() {
        let main = Registry::new();
        main.counter("sim.requests").add(10);
        main.merge_histogram("lat", &hist_of(&[5]));
        let worker = Registry::new();
        worker.counter("sim.requests").add(32);
        worker.counter("sim.coop_probes").add(7);
        worker.gauge("depth").dec();
        worker.gauge("depth").dec();
        worker.merge_histogram("lat", &hist_of(&[9]));
        worker.timer_handle("span").observe_ns(100);

        main.merge_from(&worker);
        let snap = main.snapshot();
        assert_eq!(snap.counters["sim.requests"], 42);
        assert_eq!(snap.counters["sim.coop_probes"], 7);
        assert_eq!(snap.gauges["depth"], -2);
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(snap.histograms["lat"].sum, 14);
        assert_eq!(snap.timers["span"].count, 1);
        // The merge is additive and order-independent: folding two worker
        // registries in either order yields the same counts.
        let a = Registry::new();
        a.counter("c").add(1);
        let b = Registry::new();
        b.counter("c").add(2);
        let ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.snapshot().counters, ba.snapshot().counters);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let r = Registry::new();
        let t = r.timer_handle("span");
        drop(t.start());
        t.observe_ns(500);
        let snap = r.snapshot();
        assert_eq!(snap.timers["span"].count, 2);
        assert!(snap.timers["span"].sum >= 500);
    }
}
