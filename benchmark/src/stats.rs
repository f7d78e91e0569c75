//! Order statistics for the reported numbers.
//!
//! Every timing the harness prints is a median, or the highest percentile
//! the sample can support: a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p99" over 300 samples is
//! never three outliers in disguise.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `values` (mean of the two middle elements for even counts).
/// Sorts in place. Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    (((pct / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the sample supports it).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] not above `wanted` that has at
/// least [`MIN_BEYOND`] samples beyond it; the median when none has.
pub fn tail(sorted: &[f64], wanted: f64) -> Tail {
    let n = sorted.len();
    for &pct in TAIL_LADDER.iter().filter(|&&p| p <= wanted) {
        let r = rank(n, pct);
        if n - r >= MIN_BEYOND || pct == 50.0 {
            return Tail {
                pct,
                value: sorted[r - 1],
                beyond: n - r,
                samples: n,
            };
        }
    }
    unreachable!("the ladder ends at the median, which is always reported")
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — exactly enough.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: rank 990 leaves nine beyond, so p95 is reported.
        let t = tail(&v[..999], 99.0);
        assert_eq!((t.pct, t.beyond), (95.0, 49));
        // 150 samples: p95 leaves 7, p90 leaves 15.
        let t = tail(&v[..150], 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 135.0, 15));
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let t = tail(&v, 99.0);
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 3.0, 2));
    }

    #[test]
    fn wanted_percentile_caps_the_ladder() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v, 95.0).pct, 95.0);
    }
}
