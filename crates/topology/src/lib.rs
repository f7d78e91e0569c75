//! PoP-level ISP topologies and k-ary access trees for ICN simulation.
//!
//! This crate provides the network substrate used by the simulator in
//! `icn-core`, mirroring the setup of Fayazbakhsh et al. (SIGCOMM 2013), §4.1:
//!
//! * a **core graph** of Points of Presence ([`PopGraph`]) annotated with
//!   metro populations — embedded educational backbones (Abilene, Géant) and
//!   seeded Rocketfuel-class synthetic topologies with the published PoP
//!   counts ([`pop::telstra`], [`pop::att`], ...);
//! * a **complete k-ary access tree** rooted at every PoP ([`AccessTree`]);
//! * the **combined router-level network** ([`Network`]) with global node
//!   ids, hop distances between arbitrary routers, and link-level path
//!   enumeration used for congestion accounting.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod net;
pub mod pop;
pub mod tree;

pub use net::{LinkId, Network, NodeId};
pub use pop::{PopGraph, PopId};
pub use tree::AccessTree;
