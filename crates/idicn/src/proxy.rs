//! The edge proxy cache (Figure 11, steps 2/3/4/7).
//!
//! Clients send ordinary HTTP requests through the proxy (configured via
//! WPAD, see [`crate::wpad`]). The proxy serves cached objects immediately;
//! on a miss it resolves the name, fetches from the reverse proxy (or a
//! mirror), **verifies the content signature before caching** — a proxy
//! never serves bytes it could not authenticate — and responds with the
//! Metalink headers intact so clients can re-verify end-to-end.

use crate::access::{metrics_response, next_request_id, AccessEntry, AccessLog, REQUEST_ID_HEADER};
use crate::error::{ProxyError, ProxyResult};
use crate::http::{self, HttpRequest, HttpResponse, HttpServer};
use crate::metalink::Metadata;
use crate::name::ContentName;
use crate::resolver::{Resolution, ResolverClient};
use crate::retry::{self, CircuitBreaker, RetryPolicy};
use icn_obs::{Counter, Gauge, Registry, Snapshot, TimerHandle};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parses `http://host:port/path` into a socket address and path.
/// Only numeric loopback-style authorities are supported (the overlay uses
/// explicit addresses; DNS is exactly what idICN routes around).
pub fn parse_http_url(url: &str) -> ProxyResult<(SocketAddr, String)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| ProxyError::BadUrl {
            url: url.to_string(),
            reason: "not an http URL",
        })?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_string()),
        None => (rest, "/".to_string()),
    };
    let addr: SocketAddr = authority.parse().map_err(|_| ProxyError::BadUrl {
        url: url.to_string(),
        reason: "bad authority (need numeric host:port)",
    })?;
    Ok((addr, path))
}

struct CacheEntry {
    content: Arc<Vec<u8>>,
    metadata: Metadata,
    last_used: u64,
}

/// Named proxy counters (replaces the old anonymous `(hits, misses)`
/// tuple). All values are point-in-time reads of live atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxyStats {
    /// Requests served from the edge cache.
    pub hits: u64,
    /// Requests that had to fetch from upstream.
    pub misses: u64,
    /// Upstream responses rejected because signature verification failed
    /// (or the metadata named a different object). Never cached or served.
    pub verify_failures: u64,
    /// HTTP requests accepted by [`EdgeProxy::serve`]'s handler.
    pub requests: u64,
    /// Requests currently being handled.
    pub in_flight: i64,
    /// Upstream fetch attempts beyond the first for a given location
    /// (transient transport failures retried with backoff).
    pub retries: u64,
    /// Times an upstream's circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Upstream locations skipped because their circuit was open.
    pub breaker_skips: u64,
    /// Resolutions answered from the cached-registration table because the
    /// resolver itself was unreachable.
    pub resolver_fallbacks: u64,
}

struct Inner {
    resolver: ResolverClient,
    cache: RwLock<HashMap<String, CacheEntry>>,
    capacity: usize,
    clock: AtomicU64,
    obs: Registry,
    hits: Counter,
    misses: Counter,
    verify_failures: Counter,
    requests: Counter,
    in_flight: Gauge,
    latency: TimerHandle,
    addr: Mutex<Option<SocketAddr>>,
    // Failure-path machinery (PR 4): bounded retries toward upstreams, a
    // per-URL circuit breaker, and the last successful resolution per name
    // so resolver outages degrade to possibly-stale answers instead of
    // hard failures.
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    known_locations: RwLock<HashMap<String, Vec<String>>>,
    retries: Counter,
    breaker_opens: Counter,
    breaker_skips: Counter,
    resolver_fallbacks: Counter,
    access: AccessLog,
}

/// Side-band accounting for one upstream fetch, reported in the access
/// log: which upstream finally served, how many transport attempts were
/// made, and how many locations the open circuit breaker skipped.
#[derive(Default)]
struct FetchTrace {
    upstream: Option<String>,
    attempts: u64,
    breaker_skips: u64,
}

/// A caching, verifying edge proxy.
#[derive(Clone)]
pub struct EdgeProxy {
    inner: Arc<Inner>,
}

impl EdgeProxy {
    /// Creates a proxy holding at most `capacity` objects, with the default
    /// failure policy (3 attempts per upstream, breaker opens after 3
    /// consecutive failures for 1 s).
    pub fn new(resolver: ResolverClient, capacity: usize) -> Self {
        Self::new_with(
            resolver,
            capacity,
            RetryPolicy::default(),
            CircuitBreaker::new(3, Duration::from_secs(1)),
        )
    }

    /// Creates a proxy with an explicit retry policy and circuit breaker
    /// (tests use tight policies; production callers tune for their RTTs).
    pub fn new_with(
        resolver: ResolverClient,
        capacity: usize,
        retry: RetryPolicy,
        breaker: CircuitBreaker,
    ) -> Self {
        let obs = Registry::new();
        let hits = obs.counter("proxy.cache_hits");
        let misses = obs.counter("proxy.cache_misses");
        let verify_failures = obs.counter("proxy.verify_failures");
        let requests = obs.counter("proxy.requests");
        let in_flight = obs.gauge("proxy.in_flight");
        let latency = obs.timer_handle("proxy.request");
        let retries = obs.counter("proxy.retries");
        let breaker_opens = obs.counter("proxy.breaker_opens");
        let breaker_skips = obs.counter("proxy.breaker_skips");
        let resolver_fallbacks = obs.counter("proxy.resolver_fallbacks");
        Self {
            inner: Arc::new(Inner {
                resolver,
                cache: RwLock::new(HashMap::new()),
                capacity,
                clock: AtomicU64::new(0),
                obs,
                hits,
                misses,
                verify_failures,
                requests,
                in_flight,
                latency,
                addr: Mutex::new(None),
                retry,
                breaker,
                known_locations: RwLock::new(HashMap::new()),
                retries,
                breaker_opens,
                breaker_skips,
                resolver_fallbacks,
                access: AccessLog::new(),
            }),
        }
    }

    /// The structured JSONL access log (one entry per handled request).
    pub fn access_log(&self) -> &AccessLog {
        &self.inner.access
    }

    /// Starts serving on a fresh loopback port.
    pub fn serve(&self) -> ProxyResult<HttpServer> {
        let me = self.clone();
        let server = http::serve(Arc::new(move |req: &HttpRequest| me.handle(req)))?;
        *self.inner.addr.lock() = Some(server.addr());
        Ok(server)
    }

    /// Counters so far.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            hits: self.inner.hits.get(),
            misses: self.inner.misses.get(),
            verify_failures: self.inner.verify_failures.get(),
            requests: self.inner.requests.get(),
            in_flight: self.inner.in_flight.get(),
            retries: self.inner.retries.get(),
            breaker_opens: self.inner.breaker_opens.get(),
            breaker_skips: self.inner.breaker_skips.get(),
            resolver_fallbacks: self.inner.resolver_fallbacks.get(),
        }
    }

    /// Full telemetry snapshot: the counters of [`EdgeProxy::stats`] plus
    /// the request-latency histogram (`proxy.request`, nanoseconds).
    pub fn telemetry(&self) -> Snapshot {
        self.inner.obs.snapshot()
    }

    /// Number of cached objects.
    pub fn cached_objects(&self) -> usize {
        self.inner.cache.read().len()
    }

    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        // The metrics scrape is observability, not traffic: it bypasses
        // the request counters and the access log.
        if req.method == "GET" && req.target == "/metrics" {
            return metrics_response(&self.inner.obs, "edge_proxy");
        }
        self.inner.requests.inc();
        self.inner.in_flight.inc();
        let _latency = self.inner.latency.start();
        let started = Instant::now();
        // The request ID enters here: reuse a client-supplied one, mint
        // one otherwise; either way it travels in REQUEST_ID_HEADER to the
        // resolver, the reverse proxy, and the origin, and is echoed back.
        let request_id = req
            .headers
            .get(REQUEST_ID_HEADER)
            .map(str::to_string)
            .unwrap_or_else(next_request_id);
        let mut trace = FetchTrace::default();
        let (mut resp, outcome) = self.handle_inner(req, &request_id, &mut trace);
        resp.headers.set(REQUEST_ID_HEADER, request_id.clone());
        self.inner.access.log(&AccessEntry {
            request_id,
            component: "edge_proxy",
            target: req.target.clone(),
            upstream: trace.upstream,
            attempts: trace.attempts,
            breaker_skips: trace.breaker_skips,
            latency_ns: started.elapsed().as_nanos() as u64,
            status: resp.status,
            outcome,
        });
        self.inner.in_flight.dec();
        resp
    }

    fn handle_inner(
        &self,
        req: &HttpRequest,
        request_id: &str,
        trace: &mut FetchTrace,
    ) -> (HttpResponse, &'static str) {
        if req.method != "GET" {
            return (HttpResponse::new(400, b"only GET".to_vec()), "bad_request");
        }
        let Some(name) = Self::name_from_request(req) else {
            return (
                HttpResponse::new(400, b"cannot extract idICN name".to_vec()),
                "bad_request",
            );
        };
        match self.fetch_traced(&name, request_id, trace) {
            Ok((content, metadata, was_hit)) => {
                // Range support: a resuming client may ask for a slice.
                let (status, body, range_hdr) = match req.headers.get("range") {
                    Some(r) => match http::parse_range(r, content.len()) {
                        Some((s, e)) => (
                            206,
                            content[s..e].to_vec(),
                            Some(http::content_range(s, e, content.len())),
                        ),
                        None => return (HttpResponse::new(416, Vec::new()), "bad_range"),
                    },
                    None => (200, content.as_ref().clone(), None),
                };
                let mut resp = HttpResponse::new(status, body);
                metadata.to_headers(&mut resp.headers);
                if let Some(cr) = range_hdr {
                    resp.headers.set("Content-Range", cr);
                }
                resp.headers
                    .set("X-Cache", if was_hit { "HIT" } else { "MISS" });
                (resp, if was_hit { "hit" } else { "miss" })
            }
            Err(ProxyError::NotFound(m)) => (HttpResponse::not_found(&m), "not_found"),
            // Transport-level upstream failures are "try again later", not
            // "bad gateway": 503 tells clients the outage is transient.
            Err(e @ (ProxyError::Timeout(_) | ProxyError::Unreachable(_))) => (
                HttpResponse::new(503, e.to_string().into_bytes()),
                "unavailable",
            ),
            Err(e) => (HttpResponse::new(502, e.to_string().into_bytes()), "error"),
        }
    }

    /// Extracts the content name from a proxy-style request: absolute-form
    /// URI (`GET http://L.P.idicn.org/ HTTP/1.1`), Host header, or the
    /// explicit `/fetch/L.P` form.
    fn name_from_request(req: &HttpRequest) -> Option<ContentName> {
        if let Some(rest) = req.target.strip_prefix("http://") {
            let host = rest.split('/').next()?;
            return ContentName::parse(host);
        }
        if let Some(flat) = req.target.strip_prefix("/fetch/") {
            return ContentName::parse(flat);
        }
        req.headers.get("host").and_then(ContentName::parse)
    }

    /// Returns `(content, metadata, was_cache_hit)`.
    pub fn fetch(&self, name: &ContentName) -> ProxyResult<(Arc<Vec<u8>>, Metadata, bool)> {
        self.fetch_traced(name, &next_request_id(), &mut FetchTrace::default())
    }

    /// [`EdgeProxy::fetch`] carrying an explicit request ID downstream and
    /// reporting upstream attempt accounting into `trace`.
    fn fetch_traced(
        &self,
        name: &ContentName,
        request_id: &str,
        trace: &mut FetchTrace,
    ) -> ProxyResult<(Arc<Vec<u8>>, Metadata, bool)> {
        let key = name.to_flat();
        {
            let mut cache = self.inner.cache.write();
            if let Some(e) = cache.get_mut(&key) {
                e.last_used = self.inner.clock.fetch_add(1, Ordering::Relaxed);
                self.inner.hits.inc();
                return Ok((e.content.clone(), e.metadata.clone(), true));
            }
        }
        self.inner.misses.inc();
        let (content, metadata) = self.fetch_remote(name, request_id, trace)?;
        // Verify BEFORE caching or serving.
        if let Err(e) = metadata.verify(&content) {
            self.inner.verify_failures.inc();
            return Err(e.into());
        }
        if metadata.name != *name {
            self.inner.verify_failures.inc();
            return Err(ProxyError::Verification(
                "response metadata names a different object".into(),
            ));
        }
        let content = Arc::new(content);
        let mut cache = self.inner.cache.write();
        if self.inner.capacity > 0 {
            if cache.len() >= self.inner.capacity && !cache.contains_key(&key) {
                // Evict the least recently used entry.
                if let Some(victim) = cache
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    cache.remove(&victim);
                }
            }
            cache.insert(
                key,
                CacheEntry {
                    content: content.clone(),
                    metadata: metadata.clone(),
                    last_used: self.inner.clock.fetch_add(1, Ordering::Relaxed),
                },
            );
        }
        Ok((content, metadata, false))
    }

    /// Resolves `name` to candidate upstream URLs, remembering each
    /// successful answer. When the resolver itself is unreachable (down,
    /// not "name unknown"), the last known locations for the name are
    /// returned instead — a possibly-stale answer beats no answer, and the
    /// signature check still rejects wrong bytes.
    fn resolve_locations(&self, name: &ContentName, request_id: &str) -> ProxyResult<Vec<String>> {
        let key = name.to_flat();
        match self.inner.resolver.resolve_with_id(name, Some(request_id)) {
            Ok(Resolution::Locations(locs)) => {
                self.inner.known_locations.write().insert(key, locs.clone());
                Ok(locs)
            }
            Ok(Resolution::Delegation(base)) => {
                // P-level fallback: ask the delegated proxy for the object.
                let (addr, _) = parse_http_url(&base)?;
                Ok(vec![format!("http://{addr}/fetch/{}", name.to_flat())])
            }
            Err(e) if retry::is_transient(&e) => {
                match self.inner.known_locations.read().get(&key) {
                    Some(cached) => {
                        self.inner.resolver_fallbacks.inc();
                        Ok(cached.clone())
                    }
                    None => Err(e.into()),
                }
            }
            Err(e) => Err(e.into()),
        }
    }

    fn fetch_remote(
        &self,
        name: &ContentName,
        request_id: &str,
        trace: &mut FetchTrace,
    ) -> ProxyResult<(Vec<u8>, Metadata)> {
        let locations = self.resolve_locations(name, request_id)?;
        let mut last_err = ProxyError::NotFound(name.to_flat());
        for url in locations {
            // Parse BEFORE consulting the breaker: `allows` may claim the
            // single half-open trial slot, and a claimed probe must always
            // reach a record_success/record_failure below — bailing out on
            // a bad URL after claiming would wedge the slot for a cooldown.
            let (addr, path) = match parse_http_url(&url) {
                Ok(parsed) => parsed,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if !self.inner.breaker.allows(&url) {
                self.inner.breaker_skips.inc();
                trace.breaker_skips += 1;
                continue;
            }
            let mut req = HttpRequest::get(path);
            req.headers.set(REQUEST_ID_HEADER, request_id);
            let attempt = self.inner.retry.run(|attempt| {
                if attempt > 0 {
                    self.inner.retries.inc();
                }
                trace.attempts += 1;
                http::request_pooled(addr, &req)
            });
            match attempt {
                Ok(resp) if resp.is_success() => {
                    self.inner.breaker.record_success(&url);
                    let metadata = Metadata::from_headers(&resp.headers)?;
                    trace.upstream = Some(url);
                    return Ok((resp.body, metadata));
                }
                Ok(resp) => {
                    // The upstream is alive and answering; its refusal is
                    // authoritative, not a circuit-breaker event.
                    self.inner.breaker.record_success(&url);
                    last_err = ProxyError::UpstreamStatus {
                        url,
                        status: resp.status,
                    };
                }
                Err(e) => {
                    if self.inner.breaker.record_failure(&url) {
                        self.inner.breaker_opens.inc();
                    }
                    last_err = e.into();
                }
            }
        }
        Err(last_err)
    }
}

/// A minimal idICN-aware client: fetches a name through a proxy and
/// re-verifies the content end-to-end (the paper's "the client or the
/// proxy should authenticate" — this client does both).
pub fn fetch_verified(
    proxy_addr: SocketAddr,
    name: &ContentName,
) -> ProxyResult<(Vec<u8>, Metadata, bool)> {
    let resp = http::http_get(proxy_addr, &format!("http://{}/", name.to_fqdn()), &[])?;
    if !resp.is_success() {
        return Err(ProxyError::NotFound(format!(
            "{}: proxy returned {}",
            name.to_flat(),
            resp.status
        )));
    }
    let metadata = Metadata::from_headers(&resp.headers)?;
    metadata.verify(&resp.body)?;
    let hit = resp.headers.get("X-Cache") == Some("HIT");
    Ok((resp.body, metadata, hit))
}

/// How [`fetch_verified_with_fallback`] obtained the content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served from the edge proxy's cache.
    ProxyHit,
    /// Served via the edge proxy, which fetched upstream.
    ProxyMiss,
    /// The proxy was unreachable (or timed out); the client resolved the
    /// name itself and fetched directly from a registered location.
    DirectOrigin,
}

/// [`fetch_verified`] with the client half of the degradation ladder: if
/// the *proxy* fails at the transport level (process killed, network
/// partition), the client resolves the name itself and fetches directly
/// from a registered location — losing the shared cache but not
/// availability. Content is signature-verified on every path; a name-level
/// failure (`NotFound`, bad signature) is authoritative and never triggers
/// the fallback.
pub fn fetch_verified_with_fallback(
    proxy_addr: SocketAddr,
    resolver: &ResolverClient,
    name: &ContentName,
) -> ProxyResult<(Vec<u8>, Metadata, FetchOutcome)> {
    match fetch_verified(proxy_addr, name) {
        Ok((body, metadata, hit)) => {
            let outcome = if hit {
                FetchOutcome::ProxyHit
            } else {
                FetchOutcome::ProxyMiss
            };
            Ok((body, metadata, outcome))
        }
        Err(ProxyError::Timeout(_) | ProxyError::Unreachable(_)) => {
            let locations = match resolver.resolve(name)? {
                Resolution::Locations(locs) => locs,
                Resolution::Delegation(base) => {
                    let (addr, _) = parse_http_url(&base)?;
                    vec![format!("http://{addr}/fetch/{}", name.to_flat())]
                }
            };
            let mut last_err = ProxyError::NotFound(name.to_flat());
            for url in locations {
                match parse_http_url(&url)
                    .and_then(|(addr, path)| Ok(http::http_get(addr, &path, &[])?))
                {
                    Ok(resp) if resp.is_success() => {
                        let metadata = Metadata::from_headers(&resp.headers)?;
                        metadata.verify(&resp.body)?;
                        if metadata.name != *name {
                            return Err(ProxyError::Verification(
                                "response metadata names a different object".into(),
                            ));
                        }
                        return Ok((resp.body, metadata, FetchOutcome::DirectOrigin));
                    }
                    Ok(resp) => {
                        last_err = ProxyError::UpstreamStatus {
                            url,
                            status: resp.status,
                        };
                    }
                    Err(e) => last_err = e,
                }
            }
            Err(last_err)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::mss::Identity;
    use crate::origin::OriginServer;
    use crate::resolver::Resolver;
    use crate::reverse_proxy::ReverseProxy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Rig {
        origin: OriginServer,
        _origin_srv: HttpServer,
        _resolver_srv: HttpServer,
        rp: ReverseProxy,
        _rp_srv: HttpServer,
        proxy: EdgeProxy,
        proxy_srv: HttpServer,
    }

    fn rig(capacity: usize) -> Rig {
        let origin = OriginServer::new();
        let origin_srv = origin.serve().unwrap();
        let resolver = Resolver::new();
        let resolver_srv = resolver.serve().unwrap();
        let rc = ResolverClient::new(resolver_srv.addr());
        let identity = Identity::generate(&mut StdRng::seed_from_u64(33), 4);
        let rp = ReverseProxy::new(identity, origin_srv.addr(), rc);
        let rp_srv = rp.serve().unwrap();
        let proxy = EdgeProxy::new(rc, capacity);
        let proxy_srv = proxy.serve().unwrap();
        Rig {
            origin,
            _origin_srv: origin_srv,
            _resolver_srv: resolver_srv,
            rp,
            _rp_srv: rp_srv,
            proxy,
            proxy_srv,
        }
    }

    #[test]
    fn url_parsing() {
        let (addr, path) = parse_http_url("http://127.0.0.1:8080/a/b").unwrap();
        assert_eq!(addr.port(), 8080);
        assert_eq!(path, "/a/b");
        let (_, path) = parse_http_url("http://127.0.0.1:80").unwrap();
        assert_eq!(path, "/");
        assert!(parse_http_url("https://127.0.0.1:1/").is_err());
        assert!(parse_http_url("http://no-dns-names.example/").is_err());
    }

    #[test]
    fn miss_then_hit_through_proxy() {
        let rig = rig(16);
        rig.origin
            .add_content("story", b"once upon a time".to_vec());
        let name = rig.rp.publish("story").unwrap();

        let (body, _, hit1) = fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        assert_eq!(body, b"once upon a time");
        assert!(!hit1, "first fetch is a miss");
        let (body2, _, hit2) = fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        assert_eq!(body2, body);
        assert!(hit2, "second fetch is a hit");
        let stats = rig.proxy.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.in_flight, 0, "no request should still be live");
    }

    #[test]
    fn telemetry_snapshot_has_latency_histogram() {
        let rig = rig(4);
        rig.origin.add_content("timed", b"tick".to_vec());
        let name = rig.rp.publish("timed").unwrap();
        fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        let snap = rig.proxy.telemetry();
        assert_eq!(snap.counters["proxy.requests"], 2);
        assert_eq!(snap.counters["proxy.cache_hits"], 1);
        let lat = &snap.timers["proxy.request"];
        assert_eq!(lat.count, 2);
        assert!(lat.max > 0, "request spans must record time");
        // The snapshot round-trips through its JSON sidecar form.
        let back = icn_obs::Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn cache_hit_survives_reverse_proxy_outage() {
        let rig = rig(16);
        rig.origin.add_content("durable", b"cached bytes".to_vec());
        let name = rig.rp.publish("durable").unwrap();
        fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        // Kill the provider side entirely; the edge cache still serves.
        drop(rig._rp_srv);
        drop(rig._origin_srv);
        let (body, _, hit) = fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        assert!(hit);
        assert_eq!(body, b"cached bytes");
    }

    #[test]
    fn unknown_name_is_not_found() {
        let rig = rig(4);
        let name = ContentName::new(
            "ghost",
            crate::name::Principal(crate::crypto::sha256::digest(b"nobody")),
        )
        .unwrap();
        let err = fetch_verified(rig.proxy_srv.addr(), &name).unwrap_err();
        assert!(matches!(err, ProxyError::NotFound(_)));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let rig = rig(2);
        for (label, body) in [("a", "1"), ("b", "2"), ("c", "3")] {
            rig.origin.add_content(label, body.as_bytes().to_vec());
        }
        let na = rig.rp.publish("a").unwrap();
        let nb = rig.rp.publish("b").unwrap();
        let nc = rig.rp.publish("c").unwrap();
        fetch_verified(rig.proxy_srv.addr(), &na).unwrap();
        fetch_verified(rig.proxy_srv.addr(), &nb).unwrap();
        // Touch a so b is LRU, then insert c.
        fetch_verified(rig.proxy_srv.addr(), &na).unwrap();
        fetch_verified(rig.proxy_srv.addr(), &nc).unwrap();
        assert_eq!(rig.proxy.cached_objects(), 2);
        let (_, _, hit_a) = fetch_verified(rig.proxy_srv.addr(), &na).unwrap();
        assert!(hit_a, "a should have survived");
        let (_, _, hit_b) = fetch_verified(rig.proxy_srv.addr(), &nb).unwrap();
        assert!(!hit_b, "b should have been evicted");
    }

    #[test]
    fn range_requests_from_cache() {
        let rig = rig(4);
        rig.origin.add_content("big", (0u8..200).collect());
        let name = rig.rp.publish("big").unwrap();
        fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        let resp = http::http_get(
            rig.proxy_srv.addr(),
            &format!("http://{}/", name.to_fqdn()),
            &[("Range", "bytes=10-19")],
        )
        .unwrap();
        assert_eq!(resp.status, 206);
        assert_eq!(resp.body, (10u8..20).collect::<Vec<u8>>());
        assert_eq!(resp.headers.get("content-range"), Some("bytes 10-19/200"));
    }

    #[test]
    fn zero_capacity_proxy_never_caches() {
        let rig = rig(0);
        rig.origin.add_content("x", b"y".to_vec());
        let name = rig.rp.publish("x").unwrap();
        fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        let (_, _, hit) = fetch_verified(rig.proxy_srv.addr(), &name).unwrap();
        assert!(!hit);
        assert_eq!(rig.proxy.cached_objects(), 0);
    }
}
