//! Integration tests: statistical properties of the workload layer that
//! the simulation results rest on.

use icn_analysis::stats;
use icn_topology::pop;
use icn_workload::fit::fit_zipf;
use icn_workload::skew::SpatialModel;
use icn_workload::trace::{Locality, Region, Trace, TraceConfig};

#[test]
fn per_pop_request_shares_track_population() {
    // §4.1: "requests at each PoP are proportional to its population".
    let core = pop::geant();
    let trace = Trace::synthesize(Region::Europe.config(0.02), &core.populations, 32);
    let total_pop: u64 = core.populations.iter().sum();
    let mut counts = vec![0u64; core.len()];
    for r in &trace.requests {
        counts[r.pop as usize] += 1;
    }
    let n = trace.len() as f64;
    let mut errs = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        let expected = core.populations[i] as f64 / total_pop as f64;
        errs.push((c as f64 / n - expected).abs());
    }
    assert!(
        stats::max(&errs).unwrap() < 0.01,
        "worst PoP share error {:?}",
        stats::max(&errs)
    );
}

#[test]
fn locality_does_not_break_region_fits() {
    // The Table 2 loop must hold *with* the calibrated locality component.
    let populations = pop::abilene().populations.clone();
    for region in Region::all() {
        let cfg = region.config(0.05);
        assert!(
            cfg.locality.is_some(),
            "regions default to calibrated locality"
        );
        let trace = Trace::synthesize(cfg, &populations, 32);
        let fit = fit_zipf(&trace.object_counts()).unwrap();
        assert!(
            (fit.alpha_mle - region.paper_alpha()).abs() < 0.12,
            "{}: {} vs {}",
            region.name(),
            fit.alpha_mle,
            region.paper_alpha()
        );
        assert!(
            fit.r_squared > 0.75,
            "{}: R^2 {}",
            region.name(),
            fit.r_squared
        );
    }
}

#[test]
fn skew_metric_is_monotone_in_parameter() {
    // The paper's skew metric (§5.1 fn. 5) should increase with our
    // generator's skew parameter across the whole range.
    let mut last = -1.0;
    for s in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let measured = SpatialModel::new(2_000, 11, s, 42).measured_skew();
        assert!(
            measured >= last,
            "skew metric not monotone: param {s} gave {measured} after {last}"
        );
        last = measured;
    }
    assert!(
        last > 0.15,
        "full skew should approach the uniform-rank stdev"
    );
}

#[test]
fn locality_window_bounds_reuse_distance() {
    // Replays come only from the last `window` requests at a leaf: objects
    // never repeat with a leaf-local reuse distance beyond window unless
    // redrawn by the IRM component. Statistical check: with a tiny window
    // most repeats are near.
    let cfg = TraceConfig {
        requests: 40_000,
        objects: 200_000, // IRM repeats essentially never happen
        alpha: 0.8,
        skew: 0.0,
        locality: Some(Locality { q: 0.7, window: 16 }),
        sizes: icn_workload::sizes::SizeModel::Unit,
        seed: 5,
    };
    let trace = Trace::synthesize(cfg, &[1_000], 1); // single leaf
    let mut last_seen: std::collections::HashMap<u32, usize> = Default::default();
    let mut near = 0usize;
    let mut far = 0usize;
    for (i, r) in trace.requests.iter().enumerate() {
        if let Some(&prev) = last_seen.get(&r.object) {
            if i - prev <= 64 {
                near += 1;
            } else {
                far += 1;
            }
        }
        last_seen.insert(r.object, i);
    }
    // Replay chains can resurface an object later (a replayed object
    // re-enters the window), so some far repeats are expected; locality
    // still concentrates reuse heavily near the window.
    assert!(
        near > 5 * far.max(1),
        "repeats should be overwhelmingly near: near={near} far={far}"
    );
}

#[test]
fn object_sizes_are_popularity_independent() {
    // §5.1: "we do not see a strong correlation between an object's size
    // and its popularity" — our generator draws sizes independent of rank.
    let sizes = icn_workload::sizes::SizeModel::web_default().generate(20_000, 3);
    let head: Vec<f64> = sizes[..1_000].iter().map(|&s| s as f64).collect();
    let tail: Vec<f64> = sizes[19_000..].iter().map(|&s| s as f64).collect();
    let (mh, mt) = (stats::mean(&head), stats::mean(&tail));
    // Means of heavy-tailed samples are noisy; just require same order of
    // magnitude.
    let ratio = mh.max(mt) / mh.min(mt);
    assert!(ratio < 5.0, "head/tail mean size ratio {ratio}");
}
