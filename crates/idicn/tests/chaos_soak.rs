//! Chaos soak: thousands of requests through the full Figure 11 pipeline
//! with a deterministic fault injector on the wire between the edge proxy
//! and the reverse proxy.
//!
//! The [`idicn::chaos::ChaosProxy`] resets connections, stalls past the
//! I/O deadline, truncates bodies mid-transfer, and flips content bytes.
//! The overlay must absorb all of it: no hang, no panic, transient faults
//! retried or circuit-broken, counters consistent — and every corrupted
//! body caught by signature verification before anything caches or serves
//! it. A client must never observe wrong bytes, only (rare) failures.

use idicn::chaos::{ChaosPolicy, ChaosProxy};
use idicn::crypto::mss::Identity;
use idicn::crypto::sha256::digest;
use idicn::http::{self, HttpServer};
use idicn::name::ContentName;
use idicn::origin::OriginServer;
use idicn::proxy::{fetch_verified, EdgeProxy};
use idicn::resolver::{registration_bytes, Registration, Resolver, ResolverClient};
use idicn::retry::{CircuitBreaker, RetryPolicy};
use idicn::reverse_proxy::ReverseProxy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The publisher identity's RNG seed. Generating the identity twice from
/// this seed yields the same principal and Merkle root, which lets the
/// test re-sign registrations that point at the chaos proxy instead of
/// the reverse proxy — interposing on the wire without any component
/// knowing.
const IDENTITY_SEED: u64 = 2013;

struct Rig {
    origin: OriginServer,
    _origin_srv: HttpServer,
    resolver: Resolver,
    _resolver_srv: HttpServer,
    rp: ReverseProxy,
    _rp_srv: HttpServer,
    rp_addr: std::net::SocketAddr,
}

fn rig() -> Rig {
    let origin = OriginServer::new();
    let origin_srv = origin.serve().unwrap();
    let resolver = Resolver::new();
    let resolver_srv = resolver.serve().unwrap();
    let rc = ResolverClient::new(resolver_srv.addr());
    let identity = Identity::generate(&mut StdRng::seed_from_u64(IDENTITY_SEED), 5);
    let rp = ReverseProxy::new(identity, origin_srv.addr(), rc);
    let rp_srv = rp.serve().unwrap();
    let rp_addr = rp_srv.addr();
    Rig {
        origin,
        _origin_srv: origin_srv,
        resolver,
        _resolver_srv: resolver_srv,
        rp,
        _rp_srv: rp_srv,
        rp_addr,
    }
}

/// Publishes `labels` through the reverse proxy, then re-registers each
/// name so resolution points at `front` (the chaos proxy) instead of the
/// reverse proxy, signing with the twin identity.
fn publish_behind(rig: &Rig, front: std::net::SocketAddr, labels: &[&str]) -> Vec<ContentName> {
    let mut signer = Identity::generate(&mut StdRng::seed_from_u64(IDENTITY_SEED), 5);
    labels
        .iter()
        .map(|label| {
            let name = rig.rp.publish(label).unwrap();
            let locations = vec![format!("http://{front}/fetch/{}", name.to_flat())];
            let signature = signer.sign(&digest(&registration_bytes(&name, &locations)));
            rig.resolver
                .register(&Registration {
                    name: name.clone(),
                    locations,
                    publisher_root: signer.root(),
                    signature,
                })
                .unwrap();
            name
        })
        .collect()
}

fn content_for(label: &str, len: usize) -> Vec<u8> {
    let tag = label.as_bytes();
    (0..len)
        .map(|i| tag[i % tag.len()] ^ (i % 251) as u8)
        .collect()
}

#[test]
fn soak_survives_mixed_chaos_and_catches_every_corruption() {
    soak(1);
}

/// The same soak — same request total, same fault seed — from 16 clients
/// at once: the ladder and the corruption invariant must hold under
/// concurrent load too, not only request after request.
#[test]
fn concurrent_soak_survives_mixed_chaos_and_catches_every_corruption() {
    soak(16);
}

/// Runs 2 000 fetches through a mixed-chaos world from `clients` concurrent
/// clients (client `c` sends requests `c`, `c + clients`, ...) and checks
/// that the overlay absorbed every fault.
fn soak(clients: u64) {
    // Millisecond-scale deadline so injected stalls resolve fast; this is
    // a dedicated test process, so the global override races nothing.
    http::set_io_timeout(Duration::from_millis(150));
    let rig = rig();
    let labels = ["alpha", "beta", "gamma"];
    let bodies: Vec<Vec<u8>> = labels.iter().map(|l| content_for(l, 1536)).collect();
    for (label, body) in labels.iter().zip(&bodies) {
        rig.origin.add_content(label, body.clone());
    }

    let chaos = ChaosProxy::new(
        rig.rp_addr,
        ChaosPolicy {
            seed: 0xc4a0_5001,
            reset_rate: 0.02,
            stall_rate: 0.01,
            truncate_rate: 0.02,
            corrupt_rate: 0.02,
        },
    );
    let chaos_srv = chaos.serve().unwrap();
    let names = publish_behind(&rig, chaos_srv.addr(), &labels);

    // Capacity 0: every request goes upstream, so every request is
    // exposed to the chaos layer. Tight retry/breaker so faults resolve
    // in milliseconds.
    let rc = ResolverClient::new(rig._resolver_srv.addr());
    let retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        ..RetryPolicy::default()
    };
    let proxy = EdgeProxy::new_with(
        rc,
        0,
        retry,
        CircuitBreaker::new(4, Duration::from_millis(50)),
    );
    let proxy_srv = proxy.serve().unwrap();

    const REQUESTS: u64 = 2_000;
    let started = Instant::now();
    let (successes, failures) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for client in 0..clients {
            let (names, bodies) = (&names, &bodies);
            let (successes, failures) = (&successes, &failures);
            let proxy_addr = proxy_srv.addr();
            s.spawn(move || {
                for i in (client..REQUESTS).step_by(clients as usize) {
                    let which = (i % names.len() as u64) as usize;
                    match fetch_verified(proxy_addr, &names[which]) {
                        Ok((body, metadata, _)) => {
                            // A success must be the authentic bytes —
                            // corruption can fail a request but can never
                            // poison one.
                            assert_eq!(body, bodies[which], "request {i}: wrong bytes served");
                            assert_eq!(metadata.name, names[which]);
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let (successes, failures) = (successes.into_inner(), failures.into_inner());

    // No hang: the soak completes in bounded time even with ~1% of
    // connections stalling past the deadline (generous CI allowance).
    assert!(
        elapsed < Duration::from_secs(120),
        "soak took {elapsed:?} — something stalled unbounded"
    );
    assert_eq!(successes + failures, REQUESTS);
    assert!(
        successes > REQUESTS * 3 / 4,
        "chaos should dent, not destroy, availability: {successes}/{REQUESTS}"
    );

    // A client gives up after its own deadline while the edge proxy may
    // still be retrying behind it. Stopping the servers joins every
    // handler, so the counters below are final.
    proxy_srv.shutdown();
    chaos_srv.shutdown();

    // Injection counters are consistent: every accepted connection got
    // exactly one decision, and with 2 000+ draws every class fired.
    let cs = chaos.stats();
    assert_eq!(
        cs.connections,
        cs.forwards + cs.resets + cs.stalls + cs.truncates + cs.corruptions,
        "every connection classified exactly once: {cs:?}"
    );
    assert!(
        cs.connections >= REQUESTS,
        "at least one connection per request"
    );
    assert!(
        cs.resets > 0 && cs.stalls > 0 && cs.truncates > 0 && cs.corruptions > 0,
        "all fault classes must actually fire: {cs:?}"
    );

    // THE headline invariant: every delivered corruption was caught by
    // signature verification at the edge — nothing slipped into the cache
    // or out to a client (the per-request byte check above proved that).
    let stats = proxy.stats();
    assert_eq!(
        stats.verify_failures, cs.corruptions,
        "each flipped byte caught exactly once: proxy {stats:?} vs chaos {cs:?}"
    );

    // Proxy-side counters stay coherent under fire.
    assert_eq!(stats.requests, REQUESTS);
    assert_eq!(stats.hits, 0, "capacity-0 proxy cannot hit");
    assert_eq!(stats.misses, REQUESTS, "every request exercised upstream");
    assert_eq!(stats.in_flight, 0, "no request left dangling");
    assert!(
        stats.retries > 0,
        "transient injections must be visible as retries: {stats:?}"
    );
}

#[test]
fn certain_corruption_never_reaches_a_client() {
    http::set_io_timeout(Duration::from_millis(150));
    let rig = rig();
    rig.origin
        .add_content("poisoned", content_for("poisoned", 900));

    // Every single connection corrupts one body byte.
    let chaos = ChaosProxy::new(
        rig.rp_addr,
        ChaosPolicy {
            corrupt_rate: 1.0,
            ..ChaosPolicy::calm(9)
        },
    );
    let chaos_srv = chaos.serve().unwrap();
    let names = publish_behind(&rig, chaos_srv.addr(), &["poisoned"]);

    let rc = ResolverClient::new(rig._resolver_srv.addr());
    let proxy = EdgeProxy::new_with(
        rc,
        16,
        RetryPolicy::none(),
        CircuitBreaker::new(3, Duration::from_millis(50)),
    );
    let proxy_srv = proxy.serve().unwrap();

    for _ in 0..20 {
        let err = fetch_verified(proxy_srv.addr(), &names[0]).unwrap_err();
        // The edge refuses to serve unverifiable bytes; the client sees a
        // failed request, never a poisoned body.
        let msg = err.to_string();
        assert!(!msg.is_empty());
    }
    let stats = proxy.stats();
    assert_eq!(
        stats.verify_failures, 20,
        "all 20 corruptions caught: {stats:?}"
    );
    assert_eq!(chaos.stats().corruptions, 20);
    assert_eq!(
        proxy.cached_objects(),
        0,
        "corrupted bytes must never enter the cache"
    );
}

#[test]
fn certain_resets_fail_transiently_and_calm_chaos_is_invisible() {
    http::set_io_timeout(Duration::from_millis(150));
    let rig = rig();
    rig.origin.add_content("steady", content_for("steady", 700));

    // Pass-through chaos must be undetectable end-to-end.
    let calm = ChaosProxy::new(rig.rp_addr, ChaosPolicy::calm(11));
    let calm_srv = calm.serve().unwrap();
    let names = publish_behind(&rig, calm_srv.addr(), &["steady"]);
    let rc = ResolverClient::new(rig._resolver_srv.addr());
    let proxy = EdgeProxy::new_with(
        rc,
        0,
        RetryPolicy::none(),
        CircuitBreaker::new(3, Duration::from_secs(60)),
    );
    let proxy_srv = proxy.serve().unwrap();
    for _ in 0..10 {
        let (body, _, _) = fetch_verified(proxy_srv.addr(), &names[0]).unwrap();
        assert_eq!(body, content_for("steady", 700));
    }
    let cs = calm.stats();
    assert_eq!(cs.forwards, cs.connections);
    assert_eq!(proxy.stats().verify_failures, 0);
}
