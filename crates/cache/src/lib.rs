//! Cache replacement policies and cache-budget provisioning.
//!
//! The simulator instantiates one cache per router (potentially thousands),
//! so the workhorse implementation is [`CompactLru`]: a fixed-capacity LRU
//! over object ids stored as `u32`, with slab-allocated links and lazy
//! growth. A generic [`Lru`], an [`Lfu`] ("we also tried LFU, which yielded
//! qualitatively similar results", §3), and a [`Fifo`] baseline are
//! provided behind the common [`CachePolicy`] trait.
//!
//! [`budget`] implements the paper's provisioning policies (§4.1): a total
//! network budget of `F × R × O` split either uniformly or proportionally to
//! PoP population, plus the EDGE-Norm normalization constant.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod budget;
pub mod fifo;
pub mod hash;
pub mod lfu;
pub mod lru;
pub mod policy;
pub mod prob;
pub mod slot;
pub mod tinylfu;
pub mod ttl;

pub use budget::{per_node_budgets, BudgetPolicy};
pub use fifo::Fifo;
pub use lfu::Lfu;
pub use lru::{CompactLru, Lru};
pub use policy::{CachePolicy, PolicyKind};
pub use prob::ProbCache;
pub use slot::{CacheSlot, Stored};
pub use tinylfu::TinyLfu;
pub use ttl::Ttl;
