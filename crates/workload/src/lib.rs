//! Request workloads for ICN cache simulation.
//!
//! The paper's measurements come from proprietary CDN request logs (US
//! 1.1M / Europe 3.1M / Asia 1.8M requests) which it shows are well
//! approximated by Zipf popularity distributions (Figure 1, Table 2), and it
//! validates (Table 3) that best-fit synthetic traces reproduce the
//! system-level results within ≤1.67%. This crate synthesizes those traces:
//!
//! * [`zipf`] — Zipf samplers and closed-form CDF helpers;
//! * [`trace`] — request records and the region presets (US/Europe/Asia);
//! * [`skew`] — the spatial popularity-skew model of §5.1 and the paper's
//!   skew metric;
//! * [`sizes`] — heterogeneous object sizes (bounded Pareto), independent
//!   of popularity as the paper observes;
//! * [`fit`] — Zipf exponent estimation (MLE + log-log regression) used to
//!   recover Table 2 from generated traces;
//! * [`origin`] — origin-server assignment of objects to PoPs;
//! * [`flood`] — request-flood (DoS) attack workloads for the §7
//!   resilience experiment;
//! * [`adapter`] — ingestion of external CDN logs (plain CSV) into traces.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod adapter;
pub mod fit;
pub mod flood;
pub mod origin;
pub mod sizes;
pub mod skew;
pub mod trace;
pub mod zipf;

pub use fit::ZipfFit;
pub use origin::OriginPolicy;
pub use sizes::SizeModel;
pub use skew::SpatialModel;
pub use trace::{Request, Trace, TraceConfig};
pub use zipf::Zipf;
