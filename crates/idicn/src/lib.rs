//! idICN — an incrementally deployable, application-layer ICN (§6 of
//! Fayazbakhsh et al., SIGCOMM 2013).
//!
//! idICN delivers the *qualitative* benefits of ICN (content-oriented
//! security, automatic configuration, ad hoc sharing, mobility) with purely
//! end-to-end mechanisms over HTTP — no router support required. This crate
//! implements the full Figure 11 pipeline over real loopback sockets:
//!
//! ```text
//!              (1) WPAD auto-config        (3) name resolution
//!   client ──────────► proxy ◄──────────────► resolver
//!     ▲ (7)             │ (4)                      ▲ (P2) register
//!     └── response      ▼                          │
//!                  reverse proxy ◄──── (P1) publish ── origin server
//!                       │ (5/6) fetch + sign + metadata
//!                       ▼
//!                  origin server
//! ```
//!
//! * [`access`] — hop-to-hop request-ID propagation, per-component JSONL
//!   access logs, and Prometheus `/metrics` exposition;
//! * [`crypto`] — SHA-256 (FIPS 180-4) and a Merkle one-time signature
//!   scheme, both implemented in-repo (no crypto crates on the approved
//!   dependency list); enough for self-certifying names;
//! * [`name`] — DONA-style flat self-certifying names `L.P` mapped into the
//!   DNS-compatible `L.P.idicn.org` namespace;
//! * [`chunk`] / [`metalink`] — Metalink/HTTP-style metadata: piece
//!   digests, mirrors, publisher key, and signature carried in HTTP headers;
//! * [`http`] — a minimal blocking HTTP/1.1 implementation (requests,
//!   responses, Content-Length bodies, Range, keep-alive) plus a tiny
//!   threaded server harness with one bounded accept loop, and the
//!   keep-alive pool the components' upstream hops share;
//! * [`resolver`] — the flat name-resolution service (SFR-like): REGISTER /
//!   RESOLVE with cryptographic authorization and `P`-level fallback;
//! * [`origin`] / [`reverse_proxy`] / [`proxy`] — the three HTTP roles of
//!   Figure 11;
//! * [`wpad`] — WPAD-style proxy auto-discovery and a declarative PAC
//!   subset with `FindProxyForURL` semantics;
//! * [`adhoc`] — mDNS-style ad hoc content sharing (the Alice & Bob
//!   scenario of §6.2);
//! * [`chaos`] — a deterministic fault-injecting forwarder (resets,
//!   stalls, truncation, content corruption) for soak-testing the overlay;
//! * [`mobility`] — dynamic re-registration plus HTTP-Range session
//!   resumption (§6.3).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod access;
pub mod adhoc;
pub mod chaos;
pub mod chunk;
pub mod crypto;
pub mod error;
pub mod http;
pub mod metalink;
pub mod mobility;
pub mod name;
pub mod origin;
pub mod proxy;
pub mod resolver;
pub mod retry;
pub mod reverse_proxy;
pub mod wpad;

pub use access::{AccessEntry, AccessLog, REQUEST_ID_HEADER};
pub use error::{ProxyError, ProxyResult};
pub use name::{ContentName, Principal};

/// Errors surfaced by idICN components.
#[derive(Debug)]
pub enum Error {
    /// Underlying socket/file error.
    Io(std::io::Error),
    /// A peer did not respond within the I/O deadline (see
    /// [`http::IO_TIMEOUT`]). Distinct from [`Error::Io`] so callers can
    /// retry deadline expiries without retrying, say, permission errors.
    Timeout(std::io::Error),
    /// A TCP connection to a peer could not be established (refused,
    /// reset, no route). Distinct from [`Error::NotFound`]: the *service*
    /// is gone, not the name — callers fall back instead of giving up.
    Unreachable(std::io::Error),
    /// Malformed protocol input (HTTP, names, registry lines, ...).
    Protocol(String),
    /// Content failed cryptographic verification.
    Verification(String),
    /// A name could not be resolved.
    NotFound(String),
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Timeout(e) => write!(f, "i/o deadline expired: {e}"),
            Error::Unreachable(e) => write!(f, "peer unreachable: {e}"),
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Error::Verification(m) => write!(f, "verification failed: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) | Error::Timeout(e) | Error::Unreachable(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, Error>;
