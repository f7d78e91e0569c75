//! The flat name-resolution system (§6.1).
//!
//! An SFR-style resolver: publishers REGISTER `L.P → locations` records,
//! clients RESOLVE names. Registrations are cryptographically authorized —
//! the resolver checks that the registration is signed by the key behind
//! `P` ("these resolvers need only check for cryptographic correctness").
//! Lookup first tries the exact `L.P` entry, then falls back to a
//! `P`-level entry, which may point at a finer-grained resolver
//! (delegation).
//!
//! The wire protocol is HTTP (POST /register, GET /resolve) so the whole
//! overlay speaks one protocol.

use crate::access::{metrics_response, AccessEntry, AccessLog, REQUEST_ID_HEADER};
use crate::crypto::mss::MssSignature;
use crate::crypto::sha256::digest;
use crate::crypto::{from_hex, to_hex, Digest};
use crate::http::{self, HttpRequest, HttpResponse};
use crate::name::{ContentName, Principal};
use crate::{Error, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// What a resolution returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Locations (absolute URLs) serving the exact name.
    Locations(Vec<String>),
    /// No exact entry; a `P`-level entry delegates to another resolver or
    /// default location.
    Delegation(String),
}

/// A signed registration record.
pub struct Registration {
    /// The name being registered.
    pub name: ContentName,
    /// Serving locations (absolute URLs).
    pub locations: Vec<String>,
    /// The publisher's Merkle root (must hash to the name's principal).
    pub publisher_root: Digest,
    /// Signature over [`registration_bytes`].
    pub signature: MssSignature,
}

/// The byte string a publisher signs to authorize a registration.
pub fn registration_bytes(name: &ContentName, locations: &[String]) -> Vec<u8> {
    let mut out = name.to_flat().into_bytes();
    for l in locations {
        out.push(0);
        out.extend_from_slice(l.as_bytes());
    }
    out
}

#[derive(Default)]
struct Store {
    exact: HashMap<(Principal, String), Vec<String>>,
    by_principal: HashMap<Principal, String>,
}

/// The in-process resolver state, shared with its HTTP server.
#[derive(Clone, Default)]
pub struct Resolver {
    store: Arc<RwLock<Store>>,
    obs: Arc<icn_obs::Registry>,
    access: Arc<AccessLog>,
}

impl Resolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self {
            access: Arc::new(AccessLog::new()),
            ..Self::default()
        }
    }

    /// The structured JSONL access log (one entry per HTTP request).
    pub fn access_log(&self) -> &AccessLog {
        &self.access
    }

    /// Telemetry snapshot: `resolver.registrations`,
    /// `resolver.rejected_registrations`, `resolver.lookups`,
    /// `resolver.exact`, `resolver.delegations`, `resolver.not_found`.
    pub fn telemetry(&self) -> icn_obs::Snapshot {
        self.obs.snapshot()
    }

    /// Applies a signed registration after verifying it.
    pub fn register(&self, reg: &Registration) -> Result<()> {
        if digest(&reg.publisher_root) != reg.name.principal.0 {
            self.obs.counter("resolver.rejected_registrations").inc();
            return Err(Error::Verification(
                "registration root does not match principal".into(),
            ));
        }
        let msg = digest(&registration_bytes(&reg.name, &reg.locations));
        if !reg.signature.verify(&msg, &reg.publisher_root) {
            self.obs.counter("resolver.rejected_registrations").inc();
            return Err(Error::Verification("registration signature invalid".into()));
        }
        self.obs.counter("resolver.registrations").inc();
        let mut store = self.store.write();
        store.exact.insert(
            (reg.name.principal, reg.name.label.clone()),
            reg.locations.clone(),
        );
        // The most recent registration's first location doubles as the
        // P-level fallback (a pointer to "a resolver that has entries for
        // individual L.P names" — here, the publisher's reverse proxy).
        if let Some(first) = reg.locations.first() {
            store.by_principal.insert(reg.name.principal, first.clone());
        }
        Ok(())
    }

    /// Resolves a name: exact match first, then `P`-level delegation.
    pub fn resolve(&self, name: &ContentName) -> Option<Resolution> {
        self.obs.counter("resolver.lookups").inc();
        let store = self.store.read();
        if let Some(locs) = store.exact.get(&(name.principal, name.label.clone())) {
            self.obs.counter("resolver.exact").inc();
            return Some(Resolution::Locations(locs.clone()));
        }
        let delegated = store
            .by_principal
            .get(&name.principal)
            .map(|loc| Resolution::Delegation(loc.clone()));
        self.obs
            .counter(if delegated.is_some() {
                "resolver.delegations"
            } else {
                "resolver.not_found"
            })
            .inc();
        delegated
    }

    /// Number of exact entries (for monitoring/tests).
    pub fn len(&self) -> usize {
        self.store.read().exact.len()
    }

    /// True when no names are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves this resolver over HTTP on a fresh loopback port.
    pub fn serve(&self) -> Result<http::HttpServer> {
        let me = self.clone();
        http::serve(Arc::new(move |req: &HttpRequest| me.handle(req)))
    }

    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        // Metrics scrapes bypass counters and the access log so that
        // monitoring does not pollute the numbers it reads.
        if req.method == "GET" && req.target == "/metrics" {
            return metrics_response(&self.obs, "resolver");
        }
        let started = Instant::now();
        // The resolver never mints request IDs — it correlates with the
        // edge proxy's ID when one arrives, and logs "-" otherwise.
        let request_id = req
            .headers
            .get(REQUEST_ID_HEADER)
            .unwrap_or("-")
            .to_string();
        let (mut resp, outcome) = self.handle_inner(req);
        if request_id != "-" {
            resp.headers.set(REQUEST_ID_HEADER, &request_id);
        }
        self.access.log(&AccessEntry {
            request_id,
            component: "resolver",
            target: req.target.clone(),
            upstream: None,
            attempts: 0,
            breaker_skips: 0,
            latency_ns: started.elapsed().as_nanos() as u64,
            status: resp.status,
            outcome,
        });
        resp
    }

    fn handle_inner(&self, req: &HttpRequest) -> (HttpResponse, &'static str) {
        match (req.method.as_str(), req.target.as_str()) {
            ("POST", "/register") => match parse_registration(&req.body) {
                Ok(reg) => match self.register(&reg) {
                    Ok(()) => (HttpResponse::new(201, b"registered".to_vec()), "registered"),
                    Err(e) => (
                        HttpResponse::new(403, e.to_string().into_bytes()),
                        "rejected",
                    ),
                },
                Err(e) => (
                    HttpResponse::new(400, e.to_string().into_bytes()),
                    "bad_request",
                ),
            },
            ("GET", target) if target.starts_with("/resolve/") => {
                let flat = &target["/resolve/".len()..];
                match ContentName::parse(flat) {
                    None => (HttpResponse::new(400, b"bad name".to_vec()), "bad_request"),
                    Some(name) => match self.resolve(&name) {
                        Some(Resolution::Locations(locs)) => {
                            let mut resp = HttpResponse::ok(locs.join("\n").into_bytes());
                            resp.headers.set("X-IdICN-Resolution", "exact");
                            (resp, "exact")
                        }
                        Some(Resolution::Delegation(loc)) => {
                            let mut resp = HttpResponse::ok(loc.into_bytes());
                            resp.headers.set("X-IdICN-Resolution", "delegation");
                            (resp, "delegation")
                        }
                        None => (HttpResponse::not_found("no such name"), "not_found"),
                    },
                }
            }
            _ => (HttpResponse::not_found("unknown endpoint"), "unknown"),
        }
    }
}

/// Wire format for a registration body: line-oriented,
/// `name\nroot_hex\nsig_hex\nlocation...`.
pub fn serialize_registration(reg: &Registration) -> Vec<u8> {
    let mut out = format!(
        "{}\n{}\n{}\n",
        reg.name.to_flat(),
        to_hex(&reg.publisher_root),
        to_hex(&reg.signature.to_bytes()),
    )
    .into_bytes();
    out.extend_from_slice(reg.locations.join("\n").as_bytes());
    out
}

fn parse_registration(body: &[u8]) -> Result<Registration> {
    let text =
        std::str::from_utf8(body).map_err(|_| Error::Protocol("non-UTF8 registration".into()))?;
    let mut lines = text.lines();
    let name = lines
        .next()
        .and_then(ContentName::parse)
        .ok_or_else(|| Error::Protocol("bad name line".into()))?;
    let publisher_root: Digest = lines
        .next()
        .and_then(from_hex)
        .and_then(|v| v.try_into().ok())
        .ok_or_else(|| Error::Protocol("bad root line".into()))?;
    let signature = lines
        .next()
        .and_then(from_hex)
        .and_then(|b| MssSignature::from_bytes(&b))
        .ok_or_else(|| Error::Protocol("bad signature line".into()))?;
    let locations: Vec<String> = lines
        .map(|l| l.to_string())
        .filter(|l| !l.is_empty())
        .collect();
    if locations.is_empty() {
        return Err(Error::Protocol("no locations".into()));
    }
    Ok(Registration {
        name,
        locations,
        publisher_root,
        signature,
    })
}

/// Client-side handle to a remote resolver.
#[derive(Debug, Clone, Copy)]
pub struct ResolverClient {
    addr: SocketAddr,
}

impl ResolverClient {
    /// Points at a resolver served by [`Resolver::serve`].
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// The resolver's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a signed record.
    ///
    /// A resolver that cannot be reached surfaces as
    /// [`Error::Unreachable`] / [`Error::Timeout`] (the transport failed);
    /// a resolver that *refuses* the record surfaces as
    /// [`Error::Protocol`]. Callers queue-and-retry the former but must
    /// not retry the latter.
    pub fn register(&self, reg: &Registration) -> Result<()> {
        let req = HttpRequest::post("/register", serialize_registration(reg));
        let resp = http::request_pooled(self.addr, &req)?;
        if resp.status == 201 {
            Ok(())
        } else {
            Err(Error::Protocol(format!(
                "registration refused: {} {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            )))
        }
    }

    /// Resolves a name.
    ///
    /// The two failure classes are deliberately distinct: an unknown name
    /// is [`Error::NotFound`] (authoritative — stop looking), while a dead
    /// or stalled resolver is [`Error::Unreachable`] / [`Error::Timeout`]
    /// (the *service* failed — fall back to cached registrations, see
    /// [`crate::proxy::EdgeProxy`]). Conflating them used to make a
    /// resolver outage look like every name vanishing at once.
    pub fn resolve(&self, name: &ContentName) -> Result<Resolution> {
        self.resolve_with_id(name, None)
    }

    /// Like [`ResolverClient::resolve`], forwarding the edge proxy's
    /// request-correlation ID in [`REQUEST_ID_HEADER`] so the resolver's
    /// access log lines join up with the proxy's.
    pub fn resolve_with_id(
        &self,
        name: &ContentName,
        request_id: Option<&str>,
    ) -> Result<Resolution> {
        let mut req = HttpRequest::get(format!("/resolve/{}", name.to_flat()));
        if let Some(id) = request_id {
            req.headers.set(REQUEST_ID_HEADER, id);
        }
        let resp = http::request_pooled(self.addr, &req)?;
        match resp.status {
            200 => {
                let body = String::from_utf8_lossy(&resp.body).to_string();
                if resp.headers.get("X-IdICN-Resolution") == Some("delegation") {
                    Ok(Resolution::Delegation(body))
                } else {
                    Ok(Resolution::Locations(
                        body.lines().map(|l| l.to_string()).collect(),
                    ))
                }
            }
            404 => Err(Error::NotFound(name.to_flat())),
            s => Err(Error::Protocol(format!("resolver returned {s}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::mss::Identity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity() -> Identity {
        Identity::generate(&mut StdRng::seed_from_u64(11), 3)
    }

    fn signed_registration(id: &mut Identity, label: &str, locations: Vec<String>) -> Registration {
        let name = ContentName::new(label, Principal(id.principal_digest())).unwrap();
        let msg = digest(&registration_bytes(&name, &locations));
        Registration {
            signature: id.sign(&msg),
            publisher_root: id.root(),
            name,
            locations,
        }
    }

    #[test]
    fn register_and_resolve_exact() {
        let mut id = identity();
        let r = Resolver::new();
        let reg = signed_registration(&mut id, "video1", vec!["http://127.0.0.1:1/a".into()]);
        r.register(&reg).unwrap();
        assert_eq!(
            r.resolve(&reg.name),
            Some(Resolution::Locations(vec!["http://127.0.0.1:1/a".into()]))
        );
    }

    #[test]
    fn principal_fallback_delegates() {
        let mut id = identity();
        let r = Resolver::new();
        let reg = signed_registration(&mut id, "known", vec!["http://127.0.0.1:1/rp".into()]);
        r.register(&reg).unwrap();
        // A different label under the same principal falls back to P-level.
        let other = ContentName::new("unknown", reg.name.principal).unwrap();
        assert_eq!(
            r.resolve(&other),
            Some(Resolution::Delegation("http://127.0.0.1:1/rp".into()))
        );
        // A different principal resolves to nothing.
        let foreign = ContentName::new("x", Principal(digest(b"other"))).unwrap();
        assert_eq!(r.resolve(&foreign), None);
        let snap = r.telemetry();
        assert_eq!(snap.counters["resolver.registrations"], 1);
        assert_eq!(snap.counters["resolver.lookups"], 2);
        assert_eq!(snap.counters["resolver.delegations"], 1);
        assert_eq!(snap.counters["resolver.not_found"], 1);
    }

    #[test]
    fn forged_registration_rejected() {
        let mut id = identity();
        let mut attacker = Identity::generate(&mut StdRng::seed_from_u64(99), 1);
        let r = Resolver::new();
        // Attacker signs a record claiming the victim's principal.
        let name = ContentName::new("steal", Principal(id.principal_digest())).unwrap();
        let locations = vec!["http://evil/".to_string()];
        let msg = digest(&registration_bytes(&name, &locations));
        let forged = Registration {
            signature: attacker.sign(&msg),
            publisher_root: attacker.root(), // hash won't match the principal
            name: name.clone(),
            locations: locations.clone(),
        };
        assert!(matches!(r.register(&forged), Err(Error::Verification(_))));
        // Even with the correct root, a bad signature fails.
        let victim_root = id.root();
        let mut tampered_sig = id.sign(&msg);
        tampered_sig.leaf_index ^= 1;
        let forged2 = Registration {
            signature: tampered_sig,
            publisher_root: victim_root,
            name,
            locations,
        };
        assert!(matches!(r.register(&forged2), Err(Error::Verification(_))));
        assert!(r.is_empty());
        assert_eq!(r.telemetry().counters["resolver.rejected_registrations"], 2);
    }

    #[test]
    fn re_registration_updates_locations() {
        let mut id = identity();
        let r = Resolver::new();
        let reg1 = signed_registration(&mut id, "obj", vec!["http://a/".into()]);
        r.register(&reg1).unwrap();
        let reg2 = signed_registration(&mut id, "obj", vec!["http://b/".into()]);
        r.register(&reg2).unwrap();
        assert_eq!(
            r.resolve(&reg2.name),
            Some(Resolution::Locations(vec!["http://b/".into()]))
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn http_end_to_end() {
        let mut id = identity();
        let resolver = Resolver::new();
        let server = resolver.serve().unwrap();
        let client = ResolverClient::new(server.addr());

        let reg = signed_registration(&mut id, "httpobj", vec!["http://127.0.0.1:1/x".into()]);
        client.register(&reg).unwrap();
        match client.resolve(&reg.name).unwrap() {
            Resolution::Locations(locs) => assert_eq!(locs, vec!["http://127.0.0.1:1/x"]),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown name is NotFound over the wire too.
        let missing = ContentName::new("nope", Principal(digest(b"nobody"))).unwrap();
        assert!(matches!(client.resolve(&missing), Err(Error::NotFound(_))));
        server.shutdown();
    }

    #[test]
    fn dead_resolver_is_unreachable_not_not_found() {
        let mut id = identity();
        let resolver = Resolver::new();
        let server = resolver.serve().unwrap();
        let addr = server.addr();
        let reg = signed_registration(&mut id, "gone", vec!["http://127.0.0.1:1/x".into()]);
        server.shutdown(); // the service dies; the name was never the problem
        let client = ResolverClient::new(addr);
        let err = client.resolve(&reg.name).unwrap_err();
        assert!(
            matches!(err, Error::Unreachable(_) | Error::Timeout(_)),
            "expected a transport-class error, got {err:?}"
        );
        let err = client.register(&reg).unwrap_err();
        assert!(
            matches!(err, Error::Unreachable(_) | Error::Timeout(_)),
            "register must also distinguish transport failure, got {err:?}"
        );
    }

    #[test]
    fn malformed_wire_registrations_rejected() {
        let resolver = Resolver::new();
        let server = resolver.serve().unwrap();
        let resp = http::request_once(
            server.addr(),
            &HttpRequest::post("/register", b"garbage".to_vec()),
        )
        .unwrap();
        assert_eq!(resp.status, 400);
        let resp = http::http_get(server.addr(), "/resolve/not-a-name", &[]).unwrap();
        assert_eq!(resp.status, 400);
        server.shutdown();
    }
}
