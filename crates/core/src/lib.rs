//! Request-level simulator for ICN caching architectures.
//!
//! This is the paper's primary analysis engine (§3–§5): it routes every
//! request of a trace over a [`icn_topology::Network`], serves it from the
//! first available cache (or the origin), caches the object along the
//! response path, and accounts the three metrics the paper reports —
//! query latency, link congestion, and origin-server load — as percentage
//! improvements over a no-caching run.
//!
//! The representative designs of §4.1 ([`DesignKind::IcnSp`],
//! [`DesignKind::IcnNr`], [`DesignKind::Edge`], [`DesignKind::EdgeCoop`],
//! [`DesignKind::EdgeNorm`]) and the §5.2 EDGE extensions are expressed as
//! combinations of four orthogonal knobs (cache placement, request routing,
//! sibling cooperation, and budget scaling) in [`design`].
//!
//! Routing and lookup are deliberately free, matching the paper's
//! conservative assumption: "we conservatively assume that routing and
//! lookup have zero cost" (§3).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod capacity;
pub mod config;
pub mod costs;
pub mod design;
pub mod dir;
pub mod fault;
pub mod instrument;
mod kernel;
pub mod latency;
pub mod metrics;
pub mod shard;
pub mod sim;
pub mod sweep;

pub use config::ExperimentConfig;
pub use costs::CostTable;
pub use design::{CacheSet, DesignKind, DesignSpec, Routing};
pub use fault::{FaultConfig, FaultSchedule};
pub use latency::LatencyModel;
pub use metrics::{Improvement, RunMetrics};
pub use shard::{ShardOpts, ShardRun};
pub use sim::Simulator;
pub use sweep::Scenario;
