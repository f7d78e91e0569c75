//! Property tests for the observability primitives: quantile accuracy
//! against an exact oracle, merge algebra, concurrent recording, snapshot
//! JSON round trips, and the span profiler's merge/nesting invariants.

use icn_obs::{Histogram, Profiler, Registry, Snapshot};
use proptest::prelude::*;

/// The same rank convention `Histogram::quantile` uses.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[rank]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    // Mix magnitudes: sub-bucket-exact small values through full-range
    // large ones, so quantiles land in both regimes.
    prop::collection::vec(
        prop_oneof![
            0u64..32,
            32u64..4096,
            4096u64..1_000_000,
            1_000_000u64..u64::MAX / 2,
        ],
        1..400,
    )
}

proptest! {
    #[test]
    fn quantiles_track_the_exact_order_statistics(vals in values()) {
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            // The estimate is the midpoint of the bucket holding the rank:
            // exact below 32, within one bucket width (~6.25%) above.
            let tol = (exact as f64 / 16.0) + 1.0;
            prop_assert!(
                (est - exact as f64).abs() <= tol,
                "q={q}: est {est} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative(
        a in values(), b in values(), c in values()
    ) {
        let hist = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

        let mut ab_c = ha.clone();
        ab_c.merge(&hb);
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
    }

    #[test]
    fn snapshot_json_round_trips(
        counters in prop::collection::vec((0u64..1000, 0u64..u64::MAX / 2), 0..8),
        gauge in -1_000i64..1_000,
        hist_vals in values(),
    ) {
        let registry = Registry::new();
        for (i, (_, v)) in counters.iter().enumerate() {
            registry.counter(&format!("c.{i}")).add(*v);
        }
        let g = registry.gauge("g");
        for _ in 0..gauge.unsigned_abs() {
            if gauge < 0 { g.dec() } else { g.inc() }
        }
        let mut h = Histogram::new();
        for &v in &hist_vals {
            h.record(v);
        }
        registry.merge_histogram("h", &h);
        registry.timer_handle("t").observe_ns(1_234_567);

        let snap = registry.snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        prop_assert_eq!(&back, &snap);
        // And a second round trip is a fixed point.
        let again = Snapshot::from_json(&back.to_json()).unwrap();
        prop_assert_eq!(&again, &back);
    }
}

/// Observations as `(phase, self_ns, total_ns)` with `self ≤ total`.
fn observations() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec(
        (0u8..4, 0u64..1_000_000, 0u64..1_000_000).prop_map(|(n, a, b)| (n, a.min(b), a.max(b))),
        0..50,
    )
}

/// A profiler whose phase timers hold `obs` (a phase is the timer pair
/// `<phase>.self` / `<phase>.total`).
fn profiler_of(obs: &[(u8, u64, u64)]) -> Profiler {
    let p = Profiler::new();
    for &(name, self_ns, total_ns) in obs {
        let timer = |half: &str| p.registry().timer_handle(&format!("phase.{name}.{half}"));
        timer("self").observe_ns(self_ns);
        timer("total").observe_ns(total_ns);
    }
    p
}

proptest! {
    #[test]
    fn profiler_merge_is_associative_and_commutative(
        a in observations(), b in observations(), c in observations()
    ) {
        let (pa, pb, pc) = (profiler_of(&a), profiler_of(&b), profiler_of(&c));
        let merged = |first: &Profiler, rest: &[&Profiler]| {
            for p in rest {
                first.registry().merge_from(p.registry());
            }
            first.registry().snapshot()
        };

        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let bc = profiler_of(&b);
        bc.registry().merge_from(pc.registry());
        prop_assert_eq!(
            merged(&profiler_of(&a), &[&pb, &pc]),
            merged(&profiler_of(&a), &[&bc])
        );

        // a ∪ b == b ∪ a
        prop_assert_eq!(merged(&profiler_of(&a), &[&pb]), merged(&profiler_of(&b), &[&pa]));
    }

    #[test]
    fn profile_json_round_trips(obs in observations()) {
        let snap = profiler_of(&obs).registry().snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        prop_assert_eq!(&back, &snap);
        let again = Snapshot::from_json(&back.to_json()).unwrap();
        prop_assert_eq!(&again, &back);
    }

    #[test]
    fn span_nesting_tiles_the_root(ops in prop::collection::vec(0u8..2, 0..40)) {
        // Interpret `ops` as open/close events of a random span tree under
        // a single root, phases named by depth. On one thread the self
        // times must tile the root's total exactly: every nanosecond of
        // the root span is the self time of exactly one phase.
        let p = Profiler::new();
        let root = p.phase("root");
        {
            let _root = root.span();
            let mut guards = Vec::new();
            for op in ops {
                if op == 1 {
                    guards.push(p.phase(&format!("depth.{}", guards.len() + 1)).span());
                } else {
                    guards.pop();
                }
            }
            while guards.pop().is_some() {}
        }
        let timers = p.registry().snapshot().timers;
        let mut self_sum = 0u64;
        for (name, self_ns) in &timers {
            let Some(phase) = name.strip_suffix(".self") else {
                continue;
            };
            let total_ns = &timers[&format!("{phase}.total")];
            prop_assert!(
                self_ns.sum <= total_ns.sum,
                "{phase}: self {} > total {}",
                self_ns.sum,
                total_ns.sum
            );
            prop_assert_eq!(self_ns.count, total_ns.count);
            self_sum += self_ns.sum;
        }
        prop_assert_eq!(self_sum, timers["root.total"].sum);
        // Children at depth d+1 are fully contained in spans at depth d.
        for d in 1.. {
            let Some(child) = timers.get(&format!("depth.{}.total", d + 1)) else {
                break;
            };
            prop_assert!(child.sum <= timers[&format!("depth.{d}.total")].sum);
        }
    }
}

#[test]
fn counters_and_histograms_are_exact_under_contention() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let registry = std::sync::Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = std::sync::Arc::clone(&registry);
            std::thread::spawn(move || {
                let counter = registry.counter("contended.counter");
                let timer = registry.timer_handle("contended.timer");
                for i in 0..PER_THREAD {
                    counter.inc();
                    timer.observe_ns(t as u64 * PER_THREAD + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counters["contended.counter"], total);
    let timer = &snap.timers["contended.timer"];
    assert_eq!((timer.count, timer.min, timer.max), (total, 0, total - 1));
    // Sum of 0..total, exactly, despite the contention.
    assert_eq!(timer.sum, total * (total - 1) / 2);
}
