//! Che's approximation for LRU hit rates under IRM.
//!
//! The paper (and prior work it cites, e.g. [39]) observes that "the LRU
//! policy performs near-optimally in practical scenarios". Che's
//! approximation is the standard analytical tool for LRU under independent
//! requests: a cache of capacity `C` behaves as if each object stays
//! resident for a characteristic time `t_C` satisfying
//! `Σ_i (1 − e^{−p_i t_C}) = C`, and object `i`'s hit probability is
//! `1 − e^{−p_i t_C}`.

use icn_workload::zipf::Zipf;

/// Result of the Che approximation for one LRU cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CheApproximation {
    /// The characteristic time `t_C` (in requests).
    pub characteristic_time: f64,
    /// Aggregate hit rate `Σ_i p_i (1 − e^{−p_i t_C})`.
    pub hit_rate: f64,
}

/// Computes the Che approximation for an LRU cache of `capacity` objects
/// serving an IRM stream with the given Zipf popularity.
///
/// # Panics
/// Panics if `capacity` is not smaller than the number of objects (the
/// approximation is for caches that actually evict; a cache at least as
/// large as the universe trivially hits at rate 1).
pub fn lru_hit_rate(zipf: &Zipf, capacity: usize) -> CheApproximation {
    let n = zipf.len();
    assert!(capacity < n, "cache must be smaller than the universe");
    if capacity == 0 {
        return CheApproximation {
            characteristic_time: 0.0,
            hit_rate: 0.0,
        };
    }
    let probs: Vec<f64> = (0..n).map(|r| zipf.pmf(r)).collect();
    // Solve sum_i (1 - e^{-p_i t}) = C for t by bisection; the left side is
    // increasing in t, 0 at t = 0, and approaches n as t → ∞.
    let occupancy = |t: f64| -> f64 { probs.iter().map(|&p| 1.0 - (-p * t).exp()).sum() };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while occupancy(hi) < capacity as f64 {
        hi *= 2.0;
        assert!(hi < 1e18, "bisection bracket blew up");
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < capacity as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t_c = 0.5 * (lo + hi);
    let hit_rate = probs.iter().map(|&p| p * (1.0 - (-p * t_c).exp())).sum();
    CheApproximation {
        characteristic_time: t_c,
        hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_cache::policy::CachePolicy;
    use icn_cache::CompactLru;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simulate_lru_hit_rate(zipf: &Zipf, capacity: usize, requests: usize, seed: u64) -> f64 {
        let mut cache = CompactLru::new(capacity);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        // Warm up on the first half, measure on the second.
        for i in 0..2 * requests {
            let k = zipf.sample(&mut rng) as u64;
            if cache.contains(k) {
                cache.touch(k);
                if i >= requests {
                    hits += 1;
                }
            } else {
                cache.insert(k);
            }
        }
        hits as f64 / requests as f64
    }

    #[test]
    fn matches_simulation_within_two_points() {
        for &(n, c, alpha) in &[
            (5_000usize, 250usize, 0.8),
            (5_000, 250, 1.1),
            (2_000, 400, 1.0),
        ] {
            let zipf = Zipf::new(n, alpha);
            let che = lru_hit_rate(&zipf, c);
            let sim = simulate_lru_hit_rate(&zipf, c, 300_000, 17);
            assert!(
                (che.hit_rate - sim).abs() < 0.02,
                "n={n} c={c} a={alpha}: che {:.4} vs sim {sim:.4}",
                che.hit_rate
            );
        }
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut last = -1.0;
        for c in [1usize, 10, 50, 100, 500, 999] {
            let h = lru_hit_rate(&zipf, c).hit_rate;
            assert!(h > last, "capacity {c}: {h} after {last}");
            last = h;
        }
        assert!(last > 0.99, "caching everything-but-one hits nearly always");
    }

    #[test]
    fn zero_capacity_never_hits() {
        let zipf = Zipf::new(100, 1.0);
        assert_eq!(lru_hit_rate(&zipf, 0).hit_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "smaller than the universe")]
    fn oversized_cache_rejected() {
        let zipf = Zipf::new(10, 1.0);
        lru_hit_rate(&zipf, 10);
    }

    #[test]
    fn higher_alpha_higher_hit_rate() {
        let c = 100;
        let lo = lru_hit_rate(&Zipf::new(5_000, 0.6), c).hit_rate;
        let hi = lru_hit_rate(&Zipf::new(5_000, 1.2), c).hit_rate;
        assert!(hi > lo + 0.1, "alpha 1.2 ({hi:.3}) vs 0.6 ({lo:.3})");
    }
}
