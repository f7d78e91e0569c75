//! The content-provider reverse proxy (Figure 11, steps P1/P2/5/6).
//!
//! The reverse proxy holds the publisher's signing identity. On publish it
//! fetches the object from the origin, computes piece digests, signs the
//! name/content binding, caches the result, and registers the name with the
//! resolver. On fetch it serves the cached object with the Metalink
//! metadata attached (routing to the origin if it has no fresh copy of a
//! previously published object).

use crate::access::{metrics_response, next_request_id, AccessEntry, AccessLog, REQUEST_ID_HEADER};
use crate::chunk::ChunkedDigests;
use crate::crypto::mss::Identity;
use crate::crypto::sha256::digest;
use crate::error::{ProxyError, ProxyResult};
use crate::http::{self, HttpRequest, HttpResponse, HttpServer};
use crate::metalink::Metadata;
use crate::name::{ContentName, Principal};
use crate::resolver::{registration_bytes, Registration, ResolverClient};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Default Metalink piece size (64 KiB).
pub const DEFAULT_PIECE_SIZE: usize = 64 * 1024;

/// A cached object: shared content bytes + the signed metadata.
type CachedObject = (Arc<Vec<u8>>, Metadata);

struct Inner {
    identity: Mutex<Identity>,
    principal: Principal,
    origin_addr: SocketAddr,
    resolver: ResolverClient,
    /// label → (content, signed metadata). The "fresh copy" cache.
    cache: RwLock<HashMap<String, CachedObject>>,
    /// Published labels and their signed metadata survive cache eviction:
    /// signatures are generated once at publish time (§6, "generate
    /// signatures ... cache them").
    published: RwLock<HashMap<String, Metadata>>,
    addr: Mutex<Option<SocketAddr>>,
    obs: icn_obs::Registry,
    access: AccessLog,
}

/// A running reverse proxy bound to one origin, one resolver, and one
/// publisher identity.
#[derive(Clone)]
pub struct ReverseProxy {
    inner: Arc<Inner>,
}

impl ReverseProxy {
    /// Creates a reverse proxy for `origin_addr` using `identity` to sign
    /// and `resolver` to register names.
    pub fn new(identity: Identity, origin_addr: SocketAddr, resolver: ResolverClient) -> Self {
        let principal = Principal(identity.principal_digest());
        Self {
            inner: Arc::new(Inner {
                identity: Mutex::new(identity),
                principal,
                origin_addr,
                resolver,
                cache: RwLock::new(HashMap::new()),
                published: RwLock::new(HashMap::new()),
                addr: Mutex::new(None),
                obs: icn_obs::Registry::new(),
                access: AccessLog::new(),
            }),
        }
    }

    /// The structured JSONL access log (one entry per HTTP request).
    pub fn access_log(&self) -> &AccessLog {
        &self.inner.access
    }

    /// Telemetry snapshot: `rp.publishes`, `rp.serves`, `rp.fresh_hits`,
    /// `rp.origin_refetches`, `rp.divergence_refusals`.
    pub fn telemetry(&self) -> icn_obs::Snapshot {
        self.inner.obs.snapshot()
    }

    /// The publisher principal this proxy signs for.
    pub fn principal(&self) -> Principal {
        self.inner.principal
    }

    /// Starts serving; must be called before [`ReverseProxy::publish`] so
    /// registrations can point at a real address.
    pub fn serve(&self) -> ProxyResult<HttpServer> {
        let me = self.clone();
        let server = http::serve(Arc::new(move |req: &HttpRequest| me.handle(req)))?;
        *self.inner.addr.lock() = Some(server.addr());
        Ok(server)
    }

    /// The URL other components fetch this proxy's content from.
    pub fn fetch_url(&self, name: &ContentName) -> ProxyResult<String> {
        let addr = self.inner.addr.lock().ok_or(ProxyError::NotServing)?;
        Ok(format!("http://{addr}/fetch/{}", name.to_flat()))
    }

    /// Publishes a label: fetch from origin (P1), sign, cache, and register
    /// the name with the resolver (P2). Returns the self-certifying name.
    pub fn publish(&self, label: &str) -> ProxyResult<ContentName> {
        let name = ContentName::new(label, self.inner.principal)
            .ok_or_else(|| ProxyError::InvalidLabel(label.to_string()))?;
        let content = self.fetch_origin(label, &next_request_id())?;
        let digests = ChunkedDigests::compute(&content, DEFAULT_PIECE_SIZE);
        let mut id = self.inner.identity.lock();
        let binding = name.binding_bytes(&digests.full);
        let signature = id.sign(&digest(&binding));
        let metadata = Metadata {
            name: name.clone(),
            digests,
            publisher_root: id.root(),
            signature,
            mirrors: vec![format!("http://{}/content/{label}", self.inner.origin_addr)],
        };
        drop(id);

        // Register L.P -> this proxy with the resolver (step P2).
        let location = self.fetch_url(&name)?;
        let locations = vec![location];
        let mut id = self.inner.identity.lock();
        let reg_sig = id.sign(&digest(&registration_bytes(&name, &locations)));
        let root = id.root();
        drop(id);
        self.inner.resolver.register(&Registration {
            name: name.clone(),
            locations,
            publisher_root: root,
            signature: reg_sig,
        })?;

        self.inner
            .published
            .write()
            .insert(label.to_string(), metadata.clone());
        self.inner
            .cache
            .write()
            .insert(label.to_string(), (Arc::new(content), metadata));
        self.inner.obs.counter("rp.publishes").inc();
        Ok(name)
    }

    /// Drops the cached copy of a label (forces the next fetch to route to
    /// the origin — step 5).
    pub fn evict(&self, label: &str) {
        self.inner.cache.write().remove(label);
    }

    fn fetch_origin(&self, label: &str, request_id: &str) -> ProxyResult<Vec<u8>> {
        let mut req = HttpRequest::get(format!("/content/{label}"));
        req.headers.set(REQUEST_ID_HEADER, request_id);
        let resp = http::request_pooled(self.inner.origin_addr, &req)?;
        if !resp.is_success() {
            return Err(ProxyError::NotFound(format!("origin has no {label:?}")));
        }
        Ok(resp.body)
    }

    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        // Metrics scrapes bypass counters and the access log so that
        // monitoring does not pollute the numbers it reads.
        if req.method == "GET" && req.target == "/metrics" {
            return metrics_response(&self.inner.obs, "reverse_proxy");
        }
        let started = Instant::now();
        let request_id = req
            .headers
            .get(REQUEST_ID_HEADER)
            .unwrap_or("-")
            .to_string();
        let mut upstream = None;
        let mut attempts = 0;
        let (mut resp, outcome) = self.handle_inner(req, &request_id, &mut upstream, &mut attempts);
        if request_id != "-" {
            resp.headers.set(REQUEST_ID_HEADER, &request_id);
        }
        self.inner.access.log(&AccessEntry {
            request_id,
            component: "reverse_proxy",
            target: req.target.clone(),
            upstream,
            attempts,
            breaker_skips: 0,
            latency_ns: started.elapsed().as_nanos() as u64,
            status: resp.status,
            outcome,
        });
        resp
    }

    fn handle_inner(
        &self,
        req: &HttpRequest,
        request_id: &str,
        upstream: &mut Option<String>,
        attempts: &mut u64,
    ) -> (HttpResponse, &'static str) {
        if req.method != "GET" {
            return (HttpResponse::new(400, b"only GET".to_vec()), "bad_request");
        }
        let Some(flat) = req.target.strip_prefix("/fetch/") else {
            return (HttpResponse::not_found("unknown path"), "unknown");
        };
        let Some(name) = ContentName::parse(flat) else {
            return (HttpResponse::new(400, b"bad name".to_vec()), "bad_request");
        };
        if name.principal != self.inner.principal {
            return (
                HttpResponse::new(403, b"not our principal".to_vec()),
                "forbidden",
            );
        }
        // Fresh copy? Serve it (step 6). Otherwise route to the origin
        // (step 5) — but only for published (signed) labels.
        self.inner.obs.counter("rp.serves").inc();
        let cached = self.inner.cache.read().get(&name.label).cloned();
        let mut outcome = "fresh_hit";
        let (content, metadata) = match cached {
            Some((c, m)) => {
                self.inner.obs.counter("rp.fresh_hits").inc();
                (c, m)
            }
            None => {
                let Some(metadata) = self.inner.published.read().get(&name.label).cloned() else {
                    return (HttpResponse::not_found("not published"), "not_published");
                };
                self.inner.obs.counter("rp.origin_refetches").inc();
                *attempts += 1;
                *upstream = Some(format!(
                    "http://{}/content/{}",
                    self.inner.origin_addr, name.label
                ));
                match self.fetch_origin(&name.label, request_id) {
                    Ok(content) => {
                        // Refuse to serve origin bytes that no longer match
                        // the published signature.
                        if !metadata.digests.verify_full(&content) {
                            self.inner.obs.counter("rp.divergence_refusals").inc();
                            let err = ProxyError::Diverged {
                                label: name.label.clone(),
                            };
                            return (
                                HttpResponse::new(502, err.to_string().into_bytes()),
                                "diverged",
                            );
                        }
                        let content = Arc::new(content);
                        self.inner
                            .cache
                            .write()
                            .insert(name.label.clone(), (content.clone(), metadata.clone()));
                        outcome = "origin_refetch";
                        (content, metadata)
                    }
                    Err(e) => {
                        return (
                            HttpResponse::new(502, e.to_string().into_bytes()),
                            "origin_error",
                        )
                    }
                }
            }
        };
        let mut resp = HttpResponse::ok(content.as_ref().clone());
        metadata.to_headers(&mut resp.headers);
        (resp, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginServer;
    use crate::resolver::{Resolution, Resolver};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Rig {
        origin: OriginServer,
        _origin_srv: HttpServer,
        resolver: Resolver,
        _resolver_srv: HttpServer,
        rp: ReverseProxy,
        _rp_srv: HttpServer,
    }

    fn rig() -> Rig {
        let origin = OriginServer::new();
        let origin_srv = origin.serve().unwrap();
        let resolver = Resolver::new();
        let resolver_srv = resolver.serve().unwrap();
        let identity = Identity::generate(&mut StdRng::seed_from_u64(21), 3);
        let rp = ReverseProxy::new(
            identity,
            origin_srv.addr(),
            ResolverClient::new(resolver_srv.addr()),
        );
        let rp_srv = rp.serve().unwrap();
        Rig {
            origin,
            _origin_srv: origin_srv,
            resolver,
            _resolver_srv: resolver_srv,
            rp,
            _rp_srv: rp_srv,
        }
    }

    #[test]
    fn publish_signs_and_registers() {
        let rig = rig();
        rig.origin.add_content("page", b"<html>hi</html>".to_vec());
        let name = rig.rp.publish("page").unwrap();
        // Registered with the resolver.
        match rig.resolver.resolve(&name) {
            Some(Resolution::Locations(locs)) => {
                assert_eq!(locs.len(), 1);
                assert!(locs[0].contains("/fetch/"));
            }
            other => panic!("unexpected resolution {other:?}"),
        }
        // Fetch returns verifiable content.
        let url = rig.rp.fetch_url(&name).unwrap();
        let (addr, path) = crate::proxy::parse_http_url(&url).unwrap();
        let resp = http::http_get(addr, &path, &[]).unwrap();
        assert_eq!(resp.status, 200);
        let meta = Metadata::from_headers(&resp.headers).unwrap();
        meta.verify(&resp.body).unwrap();
        assert_eq!(resp.body, b"<html>hi</html>");
    }

    #[test]
    fn unpublished_label_is_404() {
        let rig = rig();
        rig.origin.add_content("secret", b"not signed yet".to_vec());
        let name = ContentName::new("secret", rig.rp.principal()).unwrap();
        let url = rig.rp.fetch_url(&name).unwrap();
        let (addr, path) = crate::proxy::parse_http_url(&url).unwrap();
        let resp = http::http_get(addr, &path, &[]).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn eviction_routes_back_to_origin() {
        let rig = rig();
        rig.origin.add_content("doc", b"stable bytes".to_vec());
        let name = rig.rp.publish("doc").unwrap();
        rig.rp.evict("doc");
        let url = rig.rp.fetch_url(&name).unwrap();
        let (addr, path) = crate::proxy::parse_http_url(&url).unwrap();
        let resp = http::http_get(addr, &path, &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"stable bytes");
        let snap = rig.rp.telemetry();
        assert_eq!(snap.counters["rp.publishes"], 1);
        assert_eq!(snap.counters["rp.serves"], 1);
        assert_eq!(snap.counters["rp.origin_refetches"], 1);
        assert!(!snap.counters.contains_key("rp.fresh_hits"));
    }

    #[test]
    fn diverged_origin_content_is_refused() {
        let rig = rig();
        rig.origin.add_content("mutable", b"version 1".to_vec());
        let name = rig.rp.publish("mutable").unwrap();
        // Origin silently changes the bytes; the cached signature no longer
        // matches, so serving from origin must fail closed.
        rig.origin.add_content("mutable", b"version 2".to_vec());
        rig.rp.evict("mutable");
        let url = rig.rp.fetch_url(&name).unwrap();
        let (addr, path) = crate::proxy::parse_http_url(&url).unwrap();
        let resp = http::http_get(addr, &path, &[]).unwrap();
        assert_eq!(resp.status, 502);
        assert_eq!(rig.rp.telemetry().counters["rp.divergence_refusals"], 1);
    }

    #[test]
    fn foreign_principal_refused() {
        let rig = rig();
        let foreign =
            ContentName::new("anything", Principal(digest(b"someone else entirely"))).unwrap();
        let url = rig.rp.fetch_url(&foreign).unwrap();
        let (addr, path) = crate::proxy::parse_http_url(&url).unwrap();
        let resp = http::http_get(addr, &path, &[]).unwrap();
        assert_eq!(resp.status, 403);
    }
}
