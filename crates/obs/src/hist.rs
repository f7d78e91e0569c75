//! Log-linear streaming histograms (HdrHistogram-style bucketing).
//!
//! Values are `u64`; buckets are exact for `v < 32` and geometric above,
//! with 16 linear sub-buckets per octave. The relative quantile error is
//! therefore bounded by half a bucket width: ≤ 1/32 ≈ 3.2%. A histogram is
//! ~1 KiB when sparse (buckets allocate lazily to the highest index seen)
//! and merging two histograms is element-wise addition, so per-shard
//! histograms can be combined exactly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^4 linear buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total addressable buckets for the full `u64` range: the `SUB` exact
/// low buckets plus one group of `SUB` per octave from bit `SUB_BITS`
/// through bit 63 (the top value `u64::MAX` lands in group
/// `63 - SUB_BITS + 1`, sub-bucket `SUB - 1`).
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * (SUB as usize);

/// Bucket index for a value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let n = 63 - v.leading_zeros(); // position of the highest set bit, ≥ SUB_BITS
        let shift = n - SUB_BITS;
        ((n - SUB_BITS + 1) as usize) * SUB as usize + ((v >> shift) & (SUB - 1)) as usize
    }
}

/// `[lower, upper)` bounds of bucket `i`.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        (i, i + 1)
    } else {
        let octave = i / SUB; // = n - SUB_BITS + 1
        let sub = i % SUB;
        let n = octave + SUB_BITS as u64 - 1;
        let shift = (n - SUB_BITS as u64) as u32;
        let lower = (SUB + sub) << shift;
        // The topmost bucket's upper bound would be 2^64; saturate.
        (lower, lower.saturating_add(1u64 << shift))
    }
}

/// A plain (single-threaded) streaming histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Bucket counts up to the highest non-empty index (lazily grown).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), or 0 when empty.
    ///
    /// Exact for values < 32; above that, within half a bucket width
    /// (≤ ~3.2% relative error) because the estimate is the midpoint of the
    /// bucket containing the rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-based rank of the order statistic.
        let rank = ((q * (self.count - 1) as f64).round() as u64).min(self.count - 1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let (lo, hi) = bucket_bounds(i);
                let est = if hi - lo == 1 {
                    lo as f64
                } else {
                    (lo as f64 + hi as f64) / 2.0
                };
                return est.clamp(self.min() as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Adds every bucket of `other` into `self` (exact merge).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from sparse parts (inverse of
    /// [`Histogram::nonzero_buckets`] + the scalar accessors).
    pub(crate) fn from_parts(
        buckets: &[(usize, u64)],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        let len = buckets.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let mut counts = vec![0; len];
        for &(i, c) in buckets {
            counts[i] += c;
        }
        Self {
            counts,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }
}

/// A thread-safe histogram with relaxed-atomic bucket counters.
///
/// The hot path (`record`) is wait-free: one atomic add on the bucket plus
/// scalar updates. Buckets are allocated eagerly (fixed array) so recording
/// never takes a lock. `min`/`max` use compare-exchange loops.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (wait-free except min/max CAS refinement).
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges a plain histogram in (exact, bucket-wise).
    pub fn merge_plain(&self, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        for (i, c) in h.nonzero_buckets() {
            self.counts[i].fetch_add(c, Ordering::Relaxed);
        }
        self.count.fetch_add(h.count, Ordering::Relaxed);
        self.sum.fetch_add(h.sum, Ordering::Relaxed);
        self.min.fetch_min(h.min, Ordering::Relaxed);
        self.max.fetch_max(h.max, Ordering::Relaxed);
    }

    /// Copies the current state into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut len = 0;
        for (i, c) in self.counts.iter().enumerate() {
            if c.load(Ordering::Relaxed) > 0 {
                len = i + 1;
            }
        }
        let counts: Vec<u64> = self.counts[..len]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        Histogram {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut prev = None;
        for v in (0..4096u64).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "{v} -> {i}");
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo}, {hi})"
            );
            if let Some((pv, pi)) = prev {
                assert!(i >= pi, "index not monotone at {pv}->{v}");
            }
            prev = Some((v, i));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 3, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 9.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 21);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..10_000u64).map(|i| (i * i * 7919) % 1_000_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * (vals.len() - 1) as f64).round() as usize).min(vals.len() - 1);
            let exact = vals[rank] as f64;
            let est = h.quantile(q);
            let err = (est - exact).abs() / exact.max(1.0);
            assert!(err <= 0.04, "q={q}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn merge_matches_combined_stream() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..1000u64 {
            let x = v * 37 % 5000;
            if v % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn atomic_snapshot_equals_plain() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 123_456_789] {
            ah.record(v);
            h.record(v);
        }
        assert_eq!(ah.snapshot(), h);
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new();
        for v in [3u64, 99, 99, 40_000] {
            h.record(v);
        }
        let parts: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(&parts, h.count(), h.sum(), h.min(), h.max());
        assert_eq!(back, h);
    }
}
