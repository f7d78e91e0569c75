//! Metric accumulation and the paper's improvement-over-no-caching scores.
//!
//! The three reported metrics (§4):
//!
//! * **query latency** — mean request latency (link costs + 1 serving hop);
//! * **network congestion** — transfers over the *most congested* link;
//! * **origin server load** — requests served by the *most loaded* origin.
//!
//! Each is reported as the percentage improvement relative to the identical
//! run with no caches.

use icn_obs::Histogram;
use serde::{Deserialize, Serialize};

/// Fixed-point scale used to store a (fractional) request latency in the
/// integer [`RunMetrics::latency_hist`]: latencies are recorded as
/// "millicost" (`latency × 1000` rounded), giving three decimal places —
/// far finer than the histogram's own bucket resolution.
pub const LATENCY_HIST_SCALE: f64 = 1000.0;

/// Raw per-run counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Requests processed.
    pub requests: u64,
    /// Sum of request latencies.
    pub total_latency: f64,
    /// Per-request latency distribution in millicost units (latency ×
    /// [`LATENCY_HIST_SCALE`]); always recorded — a histogram insert is a
    /// few nanoseconds, well under the routing work per request.
    pub latency_hist: Histogram,
    /// Transfers (or bytes, when size-weighted) per link.
    pub link_transfers: Vec<u64>,
    /// Requests served by each PoP acting as an origin.
    pub origin_served: Vec<u64>,
    /// Requests answered by a cache.
    pub cache_hits: u64,
    /// Requests answered by an origin server.
    pub origin_hits: u64,
    /// Cache hits by the serving router's tree level (index 0 = PoP root).
    pub hits_by_level: Vec<u64>,
    /// Cache hits served by a sibling after a scoped cooperative lookup.
    pub coop_hits: u64,
    /// Requests that could not be served at all (origin unreachable or
    /// saturated under an active fault schedule). Always 0 in fault-free
    /// runs. Failed requests contribute no latency and no transfers.
    pub failed_requests: u64,
    /// Latency distribution of requests *served during fault-active
    /// windows* (millicost units, like [`RunMetrics::latency_hist`]).
    /// Empty in fault-free runs, so fault-free metrics stay bit-identical
    /// to runs built before fault injection existed.
    pub fault_latency_hist: Histogram,
    /// Requests answered with a *poisoned* cached replica by a design that
    /// cannot detect corruption (no content self-certification). These
    /// requests count as served/reachable but not as *correct* — see
    /// [`RunMetrics::correct_availability_pct`]. Always 0 fault-free.
    pub corrupt_served: u64,
    /// Poisoned replicas *caught* by content self-certification at serve
    /// time: the copy is evicted, the wasted fetch charged as latency, and
    /// the request re-served from the next candidate (or the origin).
    /// Always 0 fault-free.
    pub corrupt_detected: u64,
}

impl RunMetrics {
    /// Creates zeroed counters for a network with `links` links, `pops`
    /// PoPs, and trees of `depth` levels below the root.
    pub fn new(links: usize, pops: usize, depth: u32) -> Self {
        Self {
            requests: 0,
            total_latency: 0.0,
            latency_hist: Histogram::new(),
            link_transfers: vec![0; links],
            origin_served: vec![0; pops],
            cache_hits: 0,
            origin_hits: 0,
            hits_by_level: vec![0; depth as usize + 1],
            coop_hits: 0,
            failed_requests: 0,
            fault_latency_hist: Histogram::new(),
            corrupt_served: 0,
            corrupt_detected: 0,
        }
    }

    /// Folds another run's counters into this one, element-wise.
    ///
    /// Used by the epoch-sharded engine (`crate::shard`): each PoP lane
    /// accumulates into a private `RunMetrics` and the driver merges the
    /// lanes in ascending PoP order. Every integer counter is a plain
    /// add and both histograms merge bucket-wise, so the fold is exact;
    /// `total_latency` is a sum of integer-valued `f64` latencies (the
    /// `crate::costs` bit-identity contract), so even the float
    /// accumulator is independent of merge order.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.requests += other.requests;
        self.total_latency += other.total_latency;
        self.latency_hist.merge(&other.latency_hist);
        for (a, b) in self.link_transfers.iter_mut().zip(&other.link_transfers) {
            *a += b;
        }
        for (a, b) in self.origin_served.iter_mut().zip(&other.origin_served) {
            *a += b;
        }
        self.cache_hits += other.cache_hits;
        self.origin_hits += other.origin_hits;
        for (a, b) in self.hits_by_level.iter_mut().zip(&other.hits_by_level) {
            *a += b;
        }
        self.coop_hits += other.coop_hits;
        self.failed_requests += other.failed_requests;
        self.fault_latency_hist.merge(&other.fault_latency_hist);
        self.corrupt_served += other.corrupt_served;
        self.corrupt_detected += other.corrupt_detected;
    }

    /// Requests that were actually served (requests minus failures).
    pub fn served(&self) -> u64 {
        self.requests - self.failed_requests
    }

    /// Availability in percent: the fraction of requests that were served.
    /// An empty run is vacuously 100% available.
    pub fn availability_pct(&self) -> f64 {
        if self.requests == 0 {
            100.0
        } else {
            self.served() as f64 / self.requests as f64 * 100.0
        }
    }

    /// *Correct* availability in percent: the fraction of requests served
    /// with intact content. [`RunMetrics::availability_pct`] counts a
    /// request as available as soon as *something* answered — this
    /// subtracts the answers that delivered a poisoned replica
    /// ([`RunMetrics::corrupt_served`]), splitting availability into
    /// reachable-vs-correct. Identical to plain availability for
    /// self-certifying designs (they never serve poison) and for
    /// fault-free runs.
    pub fn correct_availability_pct(&self) -> f64 {
        if self.requests == 0 {
            100.0
        } else {
            (self.served() - self.corrupt_served) as f64 / self.requests as f64 * 100.0
        }
    }

    /// Mean latency over *served* requests (failed requests have no
    /// latency to average; with zero failures this is the plain mean).
    pub fn avg_latency(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            0.0
        } else {
            self.total_latency / served as f64
        }
    }

    /// Records one request's latency into the distribution (in addition to
    /// the `total_latency` accumulator — callers update both).
    #[inline]
    pub fn record_latency(&mut self, latency: f64) {
        self.latency_hist
            .record((latency * LATENCY_HIST_SCALE).round() as u64);
    }

    /// Estimated latency percentile (`q` in `[0, 1]`), in the simulator's
    /// latency unit.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency_hist.quantile(q) / LATENCY_HIST_SCALE
    }

    /// Median request latency.
    pub fn latency_p50(&self) -> f64 {
        self.latency_quantile(0.5)
    }

    /// 90th-percentile request latency.
    pub fn latency_p90(&self) -> f64 {
        self.latency_quantile(0.9)
    }

    /// 99th-percentile request latency.
    pub fn latency_p99(&self) -> f64 {
        self.latency_quantile(0.99)
    }

    /// Records one served request's latency during a fault-active window
    /// into the under-failure distribution.
    #[inline]
    pub fn record_fault_latency(&mut self, latency: f64) {
        self.fault_latency_hist
            .record((latency * LATENCY_HIST_SCALE).round() as u64);
    }

    /// Latency percentile over requests served during fault-active
    /// windows (`q` in `[0, 1]`); 0 when no such request exists.
    pub fn fault_latency_quantile(&self, q: f64) -> f64 {
        if self.fault_latency_hist.count() == 0 {
            0.0
        } else {
            self.fault_latency_hist.quantile(q) / LATENCY_HIST_SCALE
        }
    }

    /// Mean transfers per link (0 when the network has no links). Reported
    /// alongside [`RunMetrics::max_congestion`]: the max shows the hot
    /// spot, the mean shows whether caching relieved the network overall.
    pub fn mean_link_utilisation(&self) -> f64 {
        if self.link_transfers.is_empty() {
            0.0
        } else {
            self.link_transfers.iter().sum::<u64>() as f64 / self.link_transfers.len() as f64
        }
    }

    /// Transfers over the most congested link.
    pub fn max_congestion(&self) -> u64 {
        self.link_transfers.iter().copied().max().unwrap_or(0)
    }

    /// Load on the most loaded origin.
    pub fn max_origin_load(&self) -> u64 {
        self.origin_served.iter().copied().max().unwrap_or(0)
    }

    /// Cache hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }
}

/// Percentage improvements of a run over the no-caching baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Improvement {
    /// Query latency improvement, percent.
    pub latency_pct: f64,
    /// Max-link congestion improvement, percent.
    pub congestion_pct: f64,
    /// Max-origin load improvement, percent.
    pub origin_pct: f64,
}

impl Improvement {
    /// Computes `(base - run) / base × 100` per metric. A zero baseline
    /// yields 0% (nothing to improve).
    pub fn over_baseline(base: &RunMetrics, run: &RunMetrics) -> Self {
        fn pct(base: f64, run: f64) -> f64 {
            if base <= 0.0 {
                0.0
            } else {
                (base - run) / base * 100.0
            }
        }
        Self {
            latency_pct: pct(base.avg_latency(), run.avg_latency()),
            congestion_pct: pct(base.max_congestion() as f64, run.max_congestion() as f64),
            origin_pct: pct(base.max_origin_load() as f64, run.max_origin_load() as f64),
        }
    }

    /// The §5 sensitivity score: `RelImprov(a) − RelImprov(b)` per metric.
    pub fn gap(a: &Improvement, b: &Improvement) -> Improvement {
        Improvement {
            latency_pct: a.latency_pct - b.latency_pct,
            congestion_pct: a.congestion_pct - b.congestion_pct,
            origin_pct: a.origin_pct - b.origin_pct,
        }
    }

    /// Largest of the three improvements (used by "on all metrics" claims).
    pub fn max_metric(&self) -> f64 {
        self.latency_pct
            .max(self.congestion_pct)
            .max(self.origin_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(latency: f64, requests: u64, links: Vec<u64>, origins: Vec<u64>) -> RunMetrics {
        let mut m = RunMetrics::new(links.len(), origins.len(), 2);
        m.requests = requests;
        m.total_latency = latency;
        m.link_transfers = links;
        m.origin_served = origins;
        m
    }

    #[test]
    fn aggregates() {
        let m = metrics(300.0, 100, vec![5, 9, 2], vec![10, 40]);
        assert_eq!(m.avg_latency(), 3.0);
        assert_eq!(m.max_congestion(), 9);
        assert_eq!(m.max_origin_load(), 40);
    }

    #[test]
    fn empty_run_is_zero() {
        let m = RunMetrics::new(0, 0, 2);
        assert_eq!(m.avg_latency(), 0.0);
        assert_eq!(m.max_congestion(), 0);
        assert_eq!(m.hit_ratio(), 0.0);
    }

    #[test]
    fn improvement_math() {
        let base = metrics(1000.0, 100, vec![100], vec![100]);
        let run = metrics(600.0, 100, vec![50], vec![75]);
        let imp = Improvement::over_baseline(&base, &run);
        assert!((imp.latency_pct - 40.0).abs() < 1e-12);
        assert!((imp.congestion_pct - 50.0).abs() < 1e-12);
        assert!((imp.origin_pct - 25.0).abs() < 1e-12);
        assert_eq!(imp.max_metric(), 50.0);
    }

    #[test]
    fn gap_is_signed() {
        let a = Improvement {
            latency_pct: 50.0,
            congestion_pct: 60.0,
            origin_pct: 70.0,
        };
        let b = Improvement {
            latency_pct: 45.0,
            congestion_pct: 65.0,
            origin_pct: 70.0,
        };
        let g = Improvement::gap(&a, &b);
        assert_eq!(g.latency_pct, 5.0);
        assert_eq!(g.congestion_pct, -5.0);
        assert_eq!(g.origin_pct, 0.0);
    }

    #[test]
    fn latency_percentiles_track_distribution() {
        let mut m = RunMetrics::new(1, 1, 2);
        for i in 0..100 {
            let latency = 1.0 + i as f64 / 10.0; // 1.0 .. 10.9
            m.requests += 1;
            m.total_latency += latency;
            m.record_latency(latency);
        }
        assert!(
            (m.latency_p50() - 5.95).abs() < 0.3,
            "p50 {}",
            m.latency_p50()
        );
        assert!(m.latency_p99() > m.latency_p90());
        assert!(m.latency_p90() > m.latency_p50());
        assert!(
            (m.latency_p99() - 10.8).abs() < 0.5,
            "p99 {}",
            m.latency_p99()
        );
    }

    #[test]
    fn correct_availability_subtracts_poisoned_serves() {
        let mut m = metrics(0.0, 100, vec![0], vec![0]);
        m.failed_requests = 10;
        m.corrupt_served = 5;
        assert_eq!(m.availability_pct(), 90.0);
        assert_eq!(m.correct_availability_pct(), 85.0);
        // Detection does not reduce correctness — the request was
        // re-served with intact content.
        m.corrupt_detected = 7;
        assert_eq!(m.correct_availability_pct(), 85.0);
        assert_eq!(RunMetrics::new(0, 0, 2).correct_availability_pct(), 100.0);
    }

    #[test]
    fn mean_link_utilisation_averages() {
        let m = metrics(0.0, 0, vec![10, 20, 0], vec![1]);
        assert_eq!(m.mean_link_utilisation(), 10.0);
        assert_eq!(RunMetrics::new(0, 0, 2).mean_link_utilisation(), 0.0);
    }

    #[test]
    fn zero_baseline_guard() {
        let base = metrics(0.0, 0, vec![0], vec![0]);
        let run = metrics(10.0, 10, vec![1], vec![1]);
        let imp = Improvement::over_baseline(&base, &run);
        assert_eq!(imp.latency_pct, 0.0);
        assert_eq!(imp.congestion_pct, 0.0);
    }
}
