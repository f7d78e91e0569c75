//! Analytical models backing §2.2 of the paper.
//!
//! * [`tree_opt`] — the optimal *static* placement of objects on a k-ary
//!   distribution tree under a Zipf workload, reproducing Figure 2 (fraction
//!   of requests served per tree level) and the "25% improvement" worked
//!   example, with an exhaustive-search validator for small instances;
//! * [`budget_alloc`] — the §2.2 extension the paper describes but does
//!   not show: optimally dividing a total cache budget across tree levels
//!   ("the optimal solution under a Zipf workload involves assigning a
//!   majority of the total caching budget to the leaves");
//! * [`stats`] — small statistics helpers shared by the experiment
//!   binaries.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod budget_alloc;
pub mod che;
pub mod stats;
pub mod tree_opt;

pub use tree_opt::{optimal_levels, TreePlacement};
