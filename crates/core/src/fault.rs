//! Deterministic fault injection (robustness extension).
//!
//! The paper's incremental-deployability argument (§6) implies the designs
//! must keep working when parts of the infrastructure break. This module
//! models the failure classes over the request-indexed windows already
//! used by [`crate::capacity`]:
//!
//! * **cache-node crashes** — the node's contents are flushed and it stays
//!   cold (cannot serve or store) for a configurable outage window;
//! * **link failures** — tree or core links drop; routing must detour
//!   (ICN-NR falls back to the next-nearest live replica) or the request
//!   fails when the origin is unreachable;
//! * **origin degradation** — a degraded origin PoP serves through a
//!   [`CapacityTracker`] with reduced capacity; saturated windows fail
//!   requests;
//! * **replica corruption** — a cached copy flips to poisoned for a
//!   window; self-certifying (ICN) designs detect and re-fetch, EDGE
//!   designs serve the poisoned bytes (see `Simulator`).
//!
//! Everything is a **pure function of a `u64` seed and the
//! [`FaultConfig`]** — never wall clock, never a global RNG. A
//! [`FaultSchedule`] query hashes `(seed, entity, window, kind)` through a
//! SplitMix64-style mixer and thresholds the result against the configured
//! rate, so two schedules built from identical inputs agree on every query
//! regardless of query order, thread count, or construction count. This is
//! what lets the sweep engine's 1-vs-N bit-identity guarantee extend to
//! faulted runs (see `tests/determinism.rs`).
//!
//! [`CapacityTracker`]: crate::capacity::CapacityTracker

use crate::capacity::ServingCapacity;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of one deterministic fault schedule.
///
/// All rates are per-entity per-window probabilities in `[0, 1]`. Time is
/// measured in simulated requests (like [`ServingCapacity::window`]): each
/// block of [`FaultConfig::window`] consecutive requests is one fault
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the schedule. Different seeds give statistically
    /// independent schedules; equal seeds (with equal configs) give
    /// bit-identical schedules.
    pub seed: u64,
    /// Fault-window length in simulated requests (>= 1).
    pub window: u32,
    /// Probability that a cache-equipped router crashes in a window.
    pub node_crash_rate: f64,
    /// Windows a crashed node stays down (including the crash window).
    pub node_outage_windows: u32,
    /// Probability that a link fails in a window.
    pub link_failure_rate: f64,
    /// Windows a failed link stays down (including the failure window).
    pub link_outage_windows: u32,
    /// Probability that an origin PoP is degraded in a window.
    pub origin_degraded_rate: f64,
    /// Windows a degraded origin stays degraded (including the event
    /// window, >= 1). [`FaultConfig::zero`] and [`FaultConfig::uniform`]
    /// keep the historical span of 1 (degradation as a transient load
    /// condition); raise it to model slow origin recovery.
    pub origin_degraded_windows: u32,
    /// Serving capacity of a *degraded* origin (healthy origins are
    /// infinite). Reuses the §5.1 capacity model: per-window counters
    /// tracked by a `CapacityTracker`; a saturated degraded origin
    /// fails the request.
    pub degraded_origin: ServingCapacity,
    /// Probability that a given cached replica is poisoned in a window.
    /// Self-certifying designs detect the corruption on serve (charged a
    /// re-fetch); others serve the poisoned object and count an integrity
    /// failure. See `RunMetrics::corrupt_served` / `corrupt_detected`.
    pub corruption_rate: f64,
}

/// A rejected [`FaultConfig`] field, reported by [`FaultConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultConfigError {
    /// A rate field is NaN, negative, or above 1 — such a rate would
    /// silently never fire (NaN compares false) or always fire.
    InvalidRate {
        /// The offending config field.
        field: &'static str,
        /// Its rejected value.
        value: f64,
    },
    /// A window or duration field is zero (every span includes at least
    /// the event window itself).
    ZeroWindow {
        /// The offending config field.
        field: &'static str,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::InvalidRate { field, value } => {
                write!(
                    f,
                    "{field} must be a finite probability in [0, 1], got {value}"
                )
            }
            FaultConfigError::ZeroWindow { field } => {
                write!(f, "{field} must be >= 1")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultConfig {
    /// A schedule that never fires: every rate is zero. Runs under this
    /// config are bit-identical to runs with no fault config at all
    /// (asserted by `tests/fault_determinism.rs`).
    pub fn zero(seed: u64) -> Self {
        Self {
            seed,
            window: 1_000,
            node_crash_rate: 0.0,
            node_outage_windows: 1,
            link_failure_rate: 0.0,
            link_outage_windows: 1,
            origin_degraded_rate: 0.0,
            origin_degraded_windows: 1,
            degraded_origin: ServingCapacity {
                per_node: u32::MAX,
                window: 1_000,
            },
            corruption_rate: 0.0,
        }
    }

    /// A uniform schedule: nodes, links, and origins all fail at `rate`
    /// per window, with short (2-window) outages and a tightly capped
    /// degraded origin. The `failures` bench bin sweeps this rate.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            window: 1_000,
            node_crash_rate: rate,
            node_outage_windows: 2,
            link_failure_rate: rate,
            link_outage_windows: 2,
            origin_degraded_rate: rate,
            origin_degraded_windows: 1,
            degraded_origin: ServingCapacity {
                per_node: 50,
                window: 1_000,
            },
            corruption_rate: 0.0,
        }
    }

    /// True when no fault can ever fire under this config.
    pub fn is_zero(&self) -> bool {
        self.node_crash_rate <= 0.0
            && self.link_failure_rate <= 0.0
            && self.origin_degraded_rate <= 0.0
            && self.corruption_rate <= 0.0
    }

    /// Checks every rate is a finite probability in `[0, 1]` and every
    /// window/duration is at least 1. A NaN or out-of-range rate would
    /// otherwise *silently* never fire (NaN comparisons are false) or
    /// always fire — rejected here instead.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        fn rate(field: &'static str, value: f64) -> Result<(), FaultConfigError> {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(FaultConfigError::InvalidRate { field, value })
            }
        }
        fn window(field: &'static str, value: u32) -> Result<(), FaultConfigError> {
            if value >= 1 {
                Ok(())
            } else {
                Err(FaultConfigError::ZeroWindow { field })
            }
        }
        rate("node_crash_rate", self.node_crash_rate)?;
        rate("link_failure_rate", self.link_failure_rate)?;
        rate("origin_degraded_rate", self.origin_degraded_rate)?;
        rate("corruption_rate", self.corruption_rate)?;
        window("window", self.window)?;
        window("node_outage_windows", self.node_outage_windows)?;
        window("link_outage_windows", self.link_outage_windows)?;
        window("origin_degraded_windows", self.origin_degraded_windows)?;
        window("degraded_origin.window", self.degraded_origin.window)?;
        Ok(())
    }
}

/// Salt separating the event kinds in the hash domain.
const SALT_NODE: u64 = 0x6e6f_6465_0000_0001; // "node"
const SALT_LINK: u64 = 0x6c69_6e6b_0000_0002; // "link"
const SALT_ORIGIN: u64 = 0x6f72_6967_0000_0003; // "orig"
const SALT_CORRUPT: u64 = 0x636f_7272_0000_0006; // "corr"

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer. Statistically
/// strong enough to decorrelate adjacent (entity, window) draws; crucially
/// it is *stateless*, so the schedule has no query-order dependence.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stateless, seeded fault schedule. Queries are pure: any two
/// schedules constructed from equal configs return equal answers for
/// every `(entity, window)`, in any order, on any thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    cfg: FaultConfig,
}

impl FaultSchedule {
    /// Builds a schedule from its config.
    ///
    /// # Panics
    /// Panics when the config fails [`FaultConfig::validate`] — use
    /// [`FaultSchedule::try_new`] for a panic-free construction.
    pub fn new(cfg: FaultConfig) -> Self {
        let validated = cfg.validate();
        assert!(validated.is_ok(), "invalid FaultConfig: {validated:?}");
        Self { cfg }
    }

    /// Builds a schedule, rejecting invalid configs (NaN/out-of-range
    /// rates, zero windows) instead of panicking.
    pub fn try_new(cfg: FaultConfig) -> Result<Self, FaultConfigError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The schedule's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The fault window containing request `req_idx`.
    #[inline]
    pub fn window_of(&self, req_idx: u64) -> u64 {
        req_idx / self.cfg.window as u64
    }

    /// A uniform draw in `[0, 1)` for `(kind, entity, window)`: 53
    /// mantissa bits of the mixed hash, the same construction the
    /// vendored rand crate uses for `f64` sampling.
    #[inline]
    fn draw(&self, salt: u64, entity: u64, window: u64) -> f64 {
        let mut h = mix(self.cfg.seed ^ salt);
        h = mix(h ^ entity.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = mix(h ^ window);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True when a crash *event* is drawn for `node` in exactly `window`.
    /// (The node then stays down for its outage duration; see
    /// [`FaultSchedule::node_down`].)
    #[inline]
    pub fn node_crashes(&self, node: u32, window: u64) -> bool {
        self.cfg.node_crash_rate > 0.0
            && self.draw(SALT_NODE, node as u64, window) < self.cfg.node_crash_rate
    }

    /// True when `node` is down in `window`: a crash event fired recently
    /// enough that its outage still covers `window`.
    pub fn node_down(&self, node: u32, window: u64) -> bool {
        self.down_via(
            SALT_NODE,
            node as u64,
            window,
            self.cfg.node_crash_rate,
            self.cfg.node_outage_windows,
        )
    }

    /// True when `link` is down in `window`.
    pub fn link_down(&self, link: u32, window: u64) -> bool {
        self.down_via(
            SALT_LINK,
            link as u64,
            window,
            self.cfg.link_failure_rate,
            self.cfg.link_outage_windows,
        )
    }

    /// True when origin PoP `pop` is degraded in `window`.
    pub fn origin_degraded(&self, pop: u16, window: u64) -> bool {
        self.down_via(
            SALT_ORIGIN,
            pop as u64,
            window,
            self.cfg.origin_degraded_rate,
            self.cfg.origin_degraded_windows,
        )
    }

    /// True when the replica of `object` cached at `node` is poisoned in
    /// `window`. One draw per (replica, window): corruption is transient —
    /// a poisoned copy that survives the window (nobody requested it, or
    /// the design cannot detect it) draws fresh next window.
    #[inline]
    pub fn replica_corrupted(&self, node: u32, object: u32, window: u64) -> bool {
        self.cfg.corruption_rate > 0.0
            && self.draw(SALT_CORRUPT, ((node as u64) << 32) | object as u64, window)
                < self.cfg.corruption_rate
    }

    #[inline]
    fn down_via(&self, salt: u64, entity: u64, window: u64, rate: f64, outage: u32) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let span = outage.max(1) as u64;
        let first = window.saturating_sub(span - 1);
        (first..=window).any(|w| self.draw(salt, entity, w) < rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(seed: u64, rate: f64) -> FaultSchedule {
        FaultSchedule::new(FaultConfig::uniform(seed, rate))
    }

    #[test]
    fn window_indexing() {
        let s = sched(1, 0.1);
        assert_eq!(s.window_of(0), 0);
        assert_eq!(s.window_of(999), 0);
        assert_eq!(s.window_of(1000), 1);
    }

    #[test]
    fn zero_rate_never_fires() {
        let s = FaultSchedule::new(FaultConfig::zero(42));
        for w in 0..500 {
            for e in 0..32u32 {
                assert!(!s.node_down(e, w));
                assert!(!s.link_down(e, w));
                assert!(!s.origin_degraded(e as u16, w));
                assert!(!s.node_crashes(e, w));
                assert!(!s.replica_corrupted(e, e, w));
            }
        }
        assert!(FaultConfig::zero(42).is_zero());
        assert!(!FaultConfig::uniform(42, 0.01).is_zero());
    }

    #[test]
    fn rate_one_always_fires() {
        let s = sched(7, 1.0);
        for w in 0..50 {
            assert!(s.node_down(3, w));
            assert!(s.link_down(3, w));
            assert!(s.origin_degraded(3, w));
        }
    }

    #[test]
    fn identical_inputs_give_identical_schedules() {
        let a = sched(0xfeed, 0.05);
        let b = sched(0xfeed, 0.05);
        for w in 0..2_000 {
            for e in 0..16u32 {
                assert_eq!(a.node_down(e, w), b.node_down(e, w));
                assert_eq!(a.link_down(e, w), b.link_down(e, w));
                assert_eq!(
                    a.origin_degraded(e as u16, w),
                    b.origin_degraded(e as u16, w)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = sched(1, 0.1);
        let b = sched(2, 0.1);
        let mut differ = false;
        'outer: for w in 0..200 {
            for e in 0..16u32 {
                if a.node_crashes(e, w) != b.node_crashes(e, w) {
                    differ = true;
                    break 'outer;
                }
            }
        }
        assert!(differ, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let s = sched(99, 0.1);
        let draws = 50_000u64;
        let fired = (0..draws).filter(|&w| s.node_crashes(0, w)).count() as f64;
        let p = fired / draws as f64;
        assert!((p - 0.1).abs() < 0.01, "empirical crash rate {p}");
    }

    #[test]
    fn outage_extends_the_crash_window() {
        // With a 2-window outage, a node is down in the crash window and
        // the one after it.
        let s = sched(5, 0.05);
        for w in 1..5_000 {
            if s.node_crashes(7, w) {
                assert!(s.node_down(7, w), "down in the crash window");
                assert!(s.node_down(7, w + 1), "down in the following window");
            }
        }
        // And there exists a crash whose +2 window is back up (otherwise
        // the outage logic would be "forever down").
        let recovered = (1..5_000).any(|w| {
            s.node_crashes(7, w)
                && !s.node_crashes(7, w + 1)
                && !s.node_crashes(7, w + 2)
                && !s.node_down(7, w + 2)
        });
        assert!(recovered, "no crash ever recovered");
    }

    #[test]
    fn query_order_does_not_matter() {
        // Stateless schedule: interleaving queries across entities and
        // windows in any order gives the same answers.
        let s = sched(0xabc, 0.2);
        let forward: Vec<bool> = (0..100)
            .flat_map(|w| (0..8u32).map(move |e| (e, w)))
            .map(|(e, w)| s.link_down(e, w))
            .collect();
        let backward: Vec<bool> = (0..100)
            .flat_map(|w| (0..8u32).map(move |e| (e, w)))
            .rev()
            .map(|(e, w)| s.link_down(e, w))
            .collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
    }

    // ---- satellite 1: config validation ----

    #[test]
    fn validation_rejects_bad_rates_and_windows() {
        let ok = FaultConfig::uniform(1, 0.5);
        assert!(ok.validate().is_ok());
        for bad_rate in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let mut cfg = ok;
            cfg.node_crash_rate = bad_rate;
            assert!(
                matches!(
                    FaultSchedule::try_new(cfg),
                    Err(FaultConfigError::InvalidRate {
                        field: "node_crash_rate",
                        ..
                    })
                ),
                "rate {bad_rate} must be rejected"
            );
            let mut cfg = ok;
            cfg.corruption_rate = bad_rate;
            assert!(FaultSchedule::try_new(cfg).is_err());
        }
        let mut cfg = ok;
        cfg.window = 0;
        assert_eq!(
            cfg.validate(),
            Err(FaultConfigError::ZeroWindow { field: "window" })
        );
        let mut cfg = ok;
        cfg.origin_degraded_windows = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid FaultConfig")]
    fn new_panics_on_nan_rate() {
        let mut cfg = FaultConfig::zero(1);
        cfg.link_failure_rate = f64::NAN;
        FaultSchedule::new(cfg);
    }

    #[test]
    fn error_display_names_the_field() {
        let mut cfg = FaultConfig::zero(1);
        cfg.origin_degraded_rate = 2.0;
        let msg = cfg.validate().map_err(|e| e.to_string()).err();
        assert!(msg.is_some_and(|m| m.contains("origin_degraded_rate")));
    }

    // ---- satellite 2: configurable origin degradation span ----

    #[test]
    fn origin_degradation_span_is_configurable() {
        let mut cfg = FaultConfig::uniform(11, 0.02);
        cfg.origin_degraded_windows = 3;
        let s = FaultSchedule::new(cfg);
        let one = sched(11, 0.02); // same seed, span 1
        let mut extended = false;
        for w in 0..5_000u64 {
            // An event window is degraded under both configs …
            if one.origin_degraded(4, w) {
                assert!(s.origin_degraded(4, w));
                // … and the 3-window config keeps the two following
                // windows degraded as well.
                assert!(s.origin_degraded(4, w + 1));
                assert!(s.origin_degraded(4, w + 2));
                extended = true;
            }
        }
        assert!(extended, "no degradation event in 5000 windows");
    }

    #[test]
    fn corruption_draws_are_per_replica_and_deterministic() {
        let mut cfg = FaultConfig::zero(31);
        cfg.corruption_rate = 0.1;
        let s = FaultSchedule::new(cfg);
        assert!(!cfg.is_zero(), "corruption makes the schedule non-zero");
        let draws = 50_000u64;
        let fired = (0..draws)
            .filter(|&w| s.replica_corrupted(3, 17, w))
            .count() as f64;
        let p = fired / draws as f64;
        assert!((p - 0.1).abs() < 0.01, "empirical corruption rate {p}");
        // Distinct replicas draw independently.
        let same =
            (0..2_000u64).all(|w| s.replica_corrupted(3, 17, w) == s.replica_corrupted(4, 17, w));
        assert!(!same, "replicas at different nodes share one draw");
        assert_eq!(
            s.replica_corrupted(3, 17, 999),
            s.replica_corrupted(3, 17, 999)
        );
    }
}
