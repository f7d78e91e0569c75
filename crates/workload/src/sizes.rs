//! Object size models.
//!
//! The paper's traces span "regular text, images, multimedia, software
//! binaries" — heavy-tailed sizes with no strong size–popularity
//! correlation (§5.1 reports heterogeneous sizes change results by < 1%).
//! Sizes are drawn per **object** (not per request) so every transfer of an
//! object moves the same number of bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How object sizes are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizeModel {
    /// All objects have the same size (the baseline: congestion counts
    /// transfers, so unit size reproduces the paper's default metric).
    Unit,
    /// Bounded Pareto in bytes: heavy-tailed, independent of popularity.
    BoundedPareto {
        /// Tail index (smaller ⇒ heavier tail); the web-object classic is ~1.2.
        alpha: f64,
        /// Minimum size in bytes.
        min: u32,
        /// Maximum size in bytes.
        max: u32,
    },
}

impl SizeModel {
    /// A typical web-object mix: 1 KiB – 100 MiB, tail index 1.2.
    pub fn web_default() -> Self {
        SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1 << 10,
            max: 100 << 20,
        }
    }

    /// Draws a size per object id. Object ids are global-popularity ranks,
    /// and the draw is independent of the id, so size ⟂ popularity.
    pub fn generate(&self, objects: u32, seed: u64) -> Vec<u32> {
        match *self {
            SizeModel::Unit => vec![1; objects as usize],
            SizeModel::BoundedPareto { alpha, min, max } => {
                assert!(alpha > 0.0 && min >= 1 && max > min);
                let mut rng = StdRng::seed_from_u64(seed);
                (0..objects)
                    .map(|_| bounded_pareto_inv(rng.gen(), alpha, min, max))
                    .collect()
            }
        }
    }
}

/// Inverse CDF of the bounded Pareto on `[min, max]` with tail index
/// `alpha`, evaluated at `u ∈ [0, 1]`. Always returns a size within the
/// bounds.
///
/// The naive form computes `max^alpha`, which overflows to infinity for
/// large tail indices; the whole expression then collapses to NaN, and
/// `NaN as u32` is 0 — a size *below* `min`. This form only raises the
/// ratio `min/max ≤ 1` to `alpha` (which can underflow to 0, the exact
/// limit value, but never overflow); the final clamp absorbs float
/// rounding at the bounds, and a non-finite guard maps the `u → 1`
/// supremum to `max`.
pub fn bounded_pareto_inv(u: f64, alpha: f64, min: u32, max: u32) -> u32 {
    if u >= 1.0 {
        return max; // the supremum of the support
    }
    let (l, h) = (min as f64, max as f64);
    let r = (l / h).powf(alpha);
    let x = l * (1.0 - u * (1.0 - r)).powf(-1.0 / alpha);
    if x.is_finite() {
        x.clamp(l, h) as u32
    } else {
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_sizes() {
        let s = SizeModel::Unit.generate(10, 0);
        assert_eq!(s, vec![1; 10]);
    }

    #[test]
    fn pareto_within_bounds() {
        let m = SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1024,
            max: 1 << 30,
        };
        let sizes = m.generate(10_000, 7);
        assert!(sizes.iter().all(|&s| (1024..=1 << 30).contains(&s)));
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let m = SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1024,
            max: 1 << 30,
        };
        let sizes = m.generate(50_000, 3);
        let mean = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        // Heavy tail: mean far above median.
        assert!(mean > 3.0 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn deterministic() {
        let m = SizeModel::web_default();
        assert_eq!(m.generate(100, 9), m.generate(100, 9));
        assert_ne!(m.generate(100, 9), m.generate(100, 10));
    }

    #[test]
    fn huge_tail_index_stays_within_bounds() {
        // Regression: alpha = 400 made the old inverse CDF compute
        // max^alpha = inf, collapse to NaN, and emit size 0 (< min) for
        // every object. The ratio form keeps every draw in-bounds.
        let m = SizeModel::BoundedPareto {
            alpha: 400.0,
            min: 1024,
            max: 1 << 30,
        };
        let sizes = m.generate(2_000, 11);
        assert!(
            sizes.iter().all(|&s| (1024..=1 << 30).contains(&s)),
            "out-of-bounds sizes: {:?}",
            sizes
                .iter()
                .filter(|&&s| s < 1024)
                .take(3)
                .collect::<Vec<_>>()
        );
        // A huge tail index concentrates essentially all mass just above
        // the lower bound (analytically ~99.8% below min + 16 at α=400).
        assert!(sizes.iter().filter(|&&s| s <= 1040).count() > 1_900);
    }

    #[test]
    fn inverse_cdf_extreme_draws_hit_the_bounds_exactly() {
        for &(alpha, min, max) in &[
            (1.2f64, 1u32 << 10, 100u32 << 20),
            (0.1, 1, 2),
            (400.0, 7, 1 << 30),
        ] {
            assert_eq!(bounded_pareto_inv(0.0, alpha, min, max), min);
            assert_eq!(bounded_pareto_inv(1.0, alpha, min, max), max);
            // Largest f64 strictly below 1.
            let u = 1.0 - f64::EPSILON / 2.0;
            let s = bounded_pareto_inv(u, alpha, min, max);
            assert!((min..=max).contains(&s), "alpha={alpha}: {s}");
        }
    }
}
