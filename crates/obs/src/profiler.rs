//! A sampling, zero-allocation hierarchical span profiler.
//!
//! Where a [`Registry`] timer answers "how long does X take", the profiler
//! answers "where does the time *go*": each phase `p` records its **total**
//! time (wall clock of the span) into the timer `p.total` and its **self**
//! time (total minus time spent in nested profiled spans) into `p.self`,
//! so a flame-graph-style attribution falls out of flat timers in one
//! [`crate::Snapshot`]. Per-worker profilers fold into a main registry
//! with [`Registry::merge_from`], which is commutative and associative, so
//! the merged profile is independent of worker scheduling.
//!
//! Span nesting is tracked on a fixed-size thread-local stack of child-time
//! accumulators — entering and leaving a span touches no allocator and no
//! lock, only the thread-local array plus relaxed atomics on drop.
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
//! let snap = p.registry().snapshot();
//! assert_eq!(snap.timers["sim.request.total"].count, 1);
//! assert!(snap.timers["sim.request.self"].sum <= snap.timers["sim.request.total"].sum);
//! ```

use crate::registry::{Registry, TimerHandle};
use std::cell::RefCell;
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

/// A hierarchical span profiler: the owner of every phase's `self`/`total`
/// timer pair. Resolving a phase takes a lock once; every span on the
/// returned handle is lock-free.
#[derive(Default)]
pub struct Profiler {
    registry: Registry,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the phase `name` (pre-resolve outside hot loops).
    pub fn phase(&self, name: &str) -> PhaseHandle {
        PhaseHandle {
            self_ns: self.registry.timer_handle(&format!("{name}.self")),
            total_ns: self.registry.timer_handle(&format!("{name}.total")),
        }
    }

    /// The registry holding the phase timers.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// A pre-resolved phase (cheap to clone); start spans with
/// [`PhaseHandle::span`].
#[derive(Clone)]
pub struct PhaseHandle {
    self_ns: TimerHandle,
    total_ns: TimerHandle,
}

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
            phase: self.clone(),
            start: Instant::now(),
            pushed,
        }
    }
}

/// A live span; on drop it records its elapsed time as `total`, its elapsed
/// minus nested-span time as `self`, and adds its elapsed time to the
/// enclosing span's child accumulator.
pub struct SpanGuard {
    phase: PhaseHandle,
    start: Instant,
    pushed: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        // A span opened past the stack limit records unattributed.
        let child = if !self.pushed {
            0
        } else {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.depth -= 1;
                let child = s.child_ns[s.depth];
                if s.depth > 0 {
                    let d = s.depth - 1;
                    s.child_ns[d] = s.child_ns[d].saturating_add(elapsed);
                }
                child
            })
        };
        self.phase.self_ns.observe_ns(elapsed.saturating_sub(child));
        self.phase.total_ns.observe_ns(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
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
        let t = p.registry().snapshot().timers;
        assert_eq!(t["outer.total"].count, 1);
        assert_eq!(t["inner.total"].count, 1);
        // The outer span's total covers the inner span entirely.
        assert!(t["outer.total"].sum >= t["inner.total"].sum);
        // Self excludes the nested sleep: outer self = total - inner total.
        assert_eq!(
            t["outer.self"].sum,
            t["outer.total"].sum - t["inner.total"].sum
        );
        // Inner had no children: self == total.
        assert_eq!(t["inner.self"].sum, t["inner.total"].sum);
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
        let t = p.registry().snapshot().timers;
        let children = t["a.total"].sum + t["b.total"].sum;
        assert_eq!(t["outer.self"].sum, t["outer.total"].sum - children);
    }

    #[test]
    fn merge_adds_counts_and_unions_phases() {
        let main = Profiler::new();
        drop(main.phase("x").span());
        let worker = Profiler::new();
        drop(worker.phase("x").span());
        drop(worker.phase("y").span());
        main.registry().merge_from(worker.registry());
        let t = main.registry().snapshot().timers;
        assert_eq!((t["x.self"].count, t["x.total"].count), (2, 2));
        assert_eq!((t["y.self"].count, t["y.total"].count), (1, 1));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        // Phases are plain timers, so the snapshot codec carries them.
        let p = Profiler::new();
        drop(p.phase("sim.request").span());
        let snap = p.registry().snapshot();
        assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
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
        let t = p.registry().snapshot().timers;
        assert_eq!(t["deep.total"].count, (MAX_DEPTH + 8) as u64);
        assert!(t["deep.self"].sum <= t["deep.total"].sum);
    }
}
