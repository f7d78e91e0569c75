//! A sampling, zero-allocation hierarchical span profiler.
//!
//! Where [`crate::Registry`] timers answer "how long does X take", the
//! profiler answers "where does the time *go*": each phase records both its
//! **total** time (wall clock of the span) and its **self** time (total
//! minus time spent in nested profiled spans), so a flame-graph-style
//! attribution falls out of flat per-phase histograms.
//!
//! Span nesting is tracked on a fixed-size thread-local stack of child-time
//! accumulators — entering and leaving a span touches no allocator and no
//! lock, only the thread-local array plus relaxed atomics on drop. Like the
//! registry, per-worker profilers are folded into a main one with
//! [`Profiler::merge_from`], which is commutative and associative, so the
//! merged profile is independent of worker scheduling.
//!
//! ```
//! use icn_obs::Profiler;
//! let p = Profiler::new();
//! let outer = p.phase("sim.request");
//! let inner = p.phase("sim.select");
//! {
//!     let _req = outer.span();
//!     let _sel = inner.span(); // nested: counted as child time of the outer
//! }
//! let snap = p.snapshot();
//! assert_eq!(snap.phases["sim.request"].count, 1);
//! assert!(snap.phases["sim.request"].self_ns.sum <= snap.phases["sim.request"].total_ns.sum);
//! ```

use crate::hist::AtomicHistogram;
use crate::json::{parse, Value};
use crate::snapshot::{fmt_ns, HistSummary};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Deepest span nesting the thread-local stack tracks. Spans opened beyond
/// this depth still record their total time but are not attributed to
/// their parent's child accumulator (the simulator nests at most ~4 deep).
const MAX_DEPTH: usize = 64;

struct SpanStack {
    depth: usize,
    child_ns: [u64; MAX_DEPTH],
}

thread_local! {
    static STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack { depth: 0, child_ns: [0; MAX_DEPTH] })
    };
}

struct PhaseStats {
    count: AtomicU64,
    self_ns: AtomicHistogram,
    total_ns: AtomicHistogram,
}

impl Default for PhaseStats {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            self_ns: AtomicHistogram::new(),
            total_ns: AtomicHistogram::new(),
        }
    }
}

impl PhaseStats {
    fn observe(&self, self_ns: u64, total_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.self_ns.record(self_ns);
        self.total_ns.record(total_ns);
    }
}

/// A hierarchical span profiler. Wrap in an [`Arc`] to share; resolving a
/// phase takes a lock once, every span on the returned handle is lock-free.
#[derive(Default)]
pub struct Profiler {
    inner: Mutex<BTreeMap<String, Arc<PhaseStats>>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the phase `name` (pre-resolve outside hot loops).
    pub fn phase(&self, name: &str) -> PhaseHandle {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        PhaseHandle(Arc::clone(inner.entry(name.to_string()).or_default()))
    }

    /// Folds every phase of `other` into this profiler: counts add and
    /// histograms merge bucket-wise, so the operation is commutative and
    /// associative — merging per-worker profilers yields counts independent
    /// of worker scheduling.
    pub fn merge_from(&self, other: &Profiler) {
        // Snapshot `other` into plain data first so the two locks are
        // never held at once.
        let phases: Vec<_> = {
            let o = other
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            o.iter()
                .map(|(n, p)| {
                    (
                        n.clone(),
                        p.count.load(Ordering::Relaxed),
                        p.self_ns.snapshot(),
                        p.total_ns.snapshot(),
                    )
                })
                .collect()
        };
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, count, self_h, total_h) in phases {
            let p = inner.entry(name).or_default();
            p.count.fetch_add(count, Ordering::Relaxed);
            p.self_ns.merge_plain(&self_h);
            p.total_ns.merge_plain(&total_h);
        }
    }

    /// A point-in-time copy of every phase.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snap = ProfileSnapshot::default();
        for (name, p) in inner.iter() {
            snap.phases.insert(
                name.clone(),
                PhaseSummary {
                    count: p.count.load(Ordering::Relaxed),
                    self_ns: HistSummary::of(&p.self_ns.snapshot()),
                    total_ns: HistSummary::of(&p.total_ns.snapshot()),
                },
            );
        }
        snap
    }
}

/// A pre-resolved phase (cheap to clone); start spans with
/// [`PhaseHandle::span`].
#[derive(Clone)]
pub struct PhaseHandle(Arc<PhaseStats>);

impl PhaseHandle {
    /// Opens a span; the guard records self/total nanoseconds on drop.
    #[inline]
    pub fn span(&self) -> SpanGuard {
        let pushed = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.depth < MAX_DEPTH {
                let d = s.depth;
                s.child_ns[d] = 0;
                s.depth += 1;
                true
            } else {
                false
            }
        });
        SpanGuard {
            stats: Arc::clone(&self.0),
            start: Instant::now(),
            pushed,
        }
    }

    /// Records an externally measured observation (used by tests and by
    /// merges of pre-aggregated data).
    pub fn observe_ns(&self, self_ns: u64, total_ns: u64) {
        self.0.observe(self_ns, total_ns);
    }
}

/// A live span; on drop it records its elapsed time as `total`, its elapsed
/// minus nested-span time as `self`, and adds its elapsed time to the
/// enclosing span's child accumulator.
pub struct SpanGuard {
    stats: Arc<PhaseStats>,
    start: Instant,
    pushed: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        if !self.pushed {
            // Stack overflowed at open: record unattributed.
            self.stats.observe(elapsed, elapsed);
            return;
        }
        let child = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.depth -= 1;
            let child = s.child_ns[s.depth];
            if s.depth > 0 {
                let d = s.depth - 1;
                s.child_ns[d] = s.child_ns[d].saturating_add(elapsed);
            }
            child
        });
        self.stats.observe(elapsed.saturating_sub(child), elapsed);
    }
}

/// Summary of one profiled phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Number of recorded spans.
    pub count: u64,
    /// Self-time histogram (nanoseconds; span time minus nested spans).
    pub self_ns: HistSummary,
    /// Total-time histogram (nanoseconds; full span wall clock).
    pub total_ns: HistSummary,
}

/// A point-in-time copy of every phase in a [`Profiler`]; round-trips
/// through JSON losslessly and merges exactly, like [`crate::Snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Phase summaries by name.
    pub phases: BTreeMap<String, PhaseSummary>,
}

impl ProfileSnapshot {
    /// The JSON value form (embedded under `"profile"` in a `--telemetry` sidecar).
    pub fn to_value(&self) -> Value {
        let mut phases = BTreeMap::new();
        for (name, p) in &self.phases {
            let mut m = BTreeMap::new();
            m.insert("count".to_string(), Value::UInt(p.count));
            m.insert("self".to_string(), p.self_ns.to_value());
            m.insert("total".to_string(), p.total_ns.to_value());
            phases.insert(name.clone(), Value::Obj(m));
        }
        let mut root = BTreeMap::new();
        root.insert("phases".to_string(), Value::Obj(phases));
        Value::Obj(root)
    }

    /// Serializes to a compact JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a profile back from a JSON value.
    pub fn from_value(root: &Value) -> Result<Self, String> {
        let mut snap = ProfileSnapshot::default();
        let phases = root
            .get("phases")
            .and_then(Value::as_obj)
            .ok_or("profile missing 'phases'")?;
        for (name, v) in phases {
            let count = v
                .get("count")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("phase '{name}' missing 'count'"))?;
            let self_ns = HistSummary::from_value(
                v.get("self")
                    .ok_or_else(|| format!("phase '{name}' missing 'self'"))?,
            )?;
            let total_ns = HistSummary::from_value(
                v.get("total")
                    .ok_or_else(|| format!("phase '{name}' missing 'total'"))?,
            )?;
            snap.phases.insert(
                name.clone(),
                PhaseSummary {
                    count,
                    self_ns,
                    total_ns,
                },
            );
        }
        Ok(snap)
    }

    /// Parses a profile back from its JSON text form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&parse(text)?)
    }

    /// Merges another profile in (counts add, histograms merge exactly).
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (name, p) in &other.phases {
            match self.phases.get_mut(name) {
                None => {
                    self.phases.insert(name.clone(), p.clone());
                }
                Some(mine) => {
                    mine.count += p.count;
                    let mut h = mine.self_ns.to_histogram();
                    h.merge(&p.self_ns.to_histogram());
                    mine.self_ns = HistSummary::of(&h);
                    let mut h = mine.total_ns.to_histogram();
                    h.merge(&p.total_ns.to_histogram());
                    mine.total_ns = HistSummary::of(&h);
                }
            }
        }
    }

    /// Renders a human-readable attribution table, phases sorted by
    /// cumulative self time (where the time actually went).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "profile: {:<23} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "", "count", "self", "total", "self/avg", "total/p99"
        );
        let mut rows: Vec<_> = self.phases.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.sum.cmp(&a.1.self_ns.sum).then(a.0.cmp(b.0)));
        for (name, p) in rows {
            let _ = writeln!(
                out,
                "  {name:<30} {:>10} {:>10} {:>10} {:>10} {:>10}",
                p.count,
                fmt_ns(p.self_ns.sum as f64),
                fmt_ns(p.total_ns.sum as f64),
                fmt_ns(p.self_ns.mean),
                fmt_ns(p.total_ns.p99),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn nested_spans_attribute_child_time() {
        let p = Profiler::new();
        let outer = p.phase("outer");
        let inner = p.phase("inner");
        {
            let _o = outer.span();
            {
                let _i = inner.span();
                thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let snap = p.snapshot();
        let o = &snap.phases["outer"];
        let i = &snap.phases["inner"];
        assert_eq!(o.count, 1);
        assert_eq!(i.count, 1);
        // The outer span's total covers the inner span entirely.
        assert!(o.total_ns.sum >= i.total_ns.sum);
        // Self excludes the nested sleep: outer self = total - inner total.
        assert_eq!(o.self_ns.sum, o.total_ns.sum - i.total_ns.sum);
        // Inner had no children: self == total.
        assert_eq!(i.self_ns.sum, i.total_ns.sum);
    }

    #[test]
    fn sibling_spans_both_count_toward_parent_children() {
        let p = Profiler::new();
        let outer = p.phase("outer");
        let a = p.phase("a");
        let b = p.phase("b");
        {
            let _o = outer.span();
            drop(a.span());
            drop(b.span());
        }
        let snap = p.snapshot();
        let children = snap.phases["a"].total_ns.sum + snap.phases["b"].total_ns.sum;
        assert_eq!(
            snap.phases["outer"].self_ns.sum,
            snap.phases["outer"].total_ns.sum - children
        );
    }

    #[test]
    fn merge_adds_counts_and_unions_phases() {
        let main = Profiler::new();
        main.phase("x").observe_ns(5, 10);
        let worker = Profiler::new();
        worker.phase("x").observe_ns(7, 7);
        worker.phase("y").observe_ns(1, 2);
        main.merge_from(&worker);
        let snap = main.snapshot();
        assert_eq!(snap.phases["x"].count, 2);
        assert_eq!(snap.phases["x"].self_ns.sum, 12);
        assert_eq!(snap.phases["x"].total_ns.sum, 17);
        assert_eq!(snap.phases["y"].count, 1);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = Profiler::new();
        p.phase("sim.request").observe_ns(100, 250);
        p.phase("sim.select").observe_ns(40, 40);
        let snap = p.snapshot();
        let back = ProfileSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_merge_matches_profiler_merge() {
        let a = Profiler::new();
        a.phase("x").observe_ns(3, 6);
        let b = Profiler::new();
        b.phase("x").observe_ns(9, 12);
        b.phase("y").observe_ns(1, 1);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        a.merge_from(&b);
        assert_eq!(sa, a.snapshot());
    }

    #[test]
    fn rejects_malformed_profiles() {
        assert!(ProfileSnapshot::from_json("not json").is_err());
        assert!(ProfileSnapshot::from_json("{}").is_err());
        assert!(ProfileSnapshot::from_json("{\"phases\":{\"p\":{\"count\":1}}}").is_err());
    }

    #[test]
    fn table_sorts_by_self_time() {
        let p = Profiler::new();
        p.phase("small").observe_ns(10, 10);
        p.phase("big").observe_ns(1_000_000, 1_000_000);
        let table = p.snapshot().render_table();
        let big_at = table.find("big").unwrap();
        let small_at = table.find("small").unwrap();
        assert!(big_at < small_at, "{table}");
    }

    #[test]
    fn deep_nesting_past_stack_limit_is_safe() {
        let p = Profiler::new();
        let h = p.phase("deep");
        let mut guards = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            guards.push(h.span());
        }
        while guards.pop().is_some() {}
        assert_eq!(p.snapshot().phases["deep"].count, (MAX_DEPTH + 8) as u64);
    }
}
