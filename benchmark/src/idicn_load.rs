//! The two overlay workloads: `idicn-hit` and `idicn-miss`.
//!
//! Both stand up the full Figure-11 world on loopback through the
//! components' own `serve()` — origin, resolver, reverse proxy, edge proxy —
//! publish a seeded object set, and fetch through the public client
//! `proxy::fetch_verified` (one connection per fetch, as shipped). Phase A
//! is an open loop at a fixed rate and gives the latency percentiles;
//! phase B is a closed loop and gives the throughput. Driver and servers
//! share the host's cores, so phase B saturates the CPU.

use crate::accesslog;
use crate::loadgen::{self, OpRecord, RealClock};
use crate::report::{nproc, Outcome};
use crate::spans::SpanId;
use crate::stats::{median, percentile, sorted, tail};
use crate::{derive_seed, Ctx, Size, SETUPS};
use idicn::access::REQUEST_ID_HEADER;
use idicn::crypto::mss::Identity;
use idicn::http::{self, HttpServer};
use idicn::metalink::Metadata;
use idicn::name::ContentName;
use idicn::origin::OriginServer;
use idicn::proxy::{fetch_verified, EdgeProxy, ProxyStats};
use idicn::resolver::{Resolver, ResolverClient};
use idicn::reverse_proxy::ReverseProxy;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Object size classes and their share of the published set.
pub const SIZE_CLASSES: [(&str, usize, f64); 3] = [
    ("1k", 1024, 0.6),
    ("16k", 16 * 1024, 0.3),
    ("256k", 256 * 1024, 0.1),
];

/// Open-loop rates, frozen at 43-44 % of the closed-loop capacity measured
/// with the size mix on the 2-core reference host (about 915 hit and 312
/// miss fetch/s over four readings each; see README, "Rates"). Never
/// calibrated per run.
pub const HIT_RATE_PER_S: f64 = 400.0;
/// See [`HIT_RATE_PER_S`].
pub const MISS_RATE_PER_S: f64 = 135.0;

/// The bounded tail percentile of phase A. One object in ten is 256 KiB, so
/// everything from p90 up is that class: p90 is the class boundary and
/// jumps, p95 is the median large-object fetch, and p99 is the class's own
/// 90th percentile, resting on 10-40 samples. p99 is still printed.
const TAIL_PCT: f64 = 95.0;

#[derive(Debug, Clone, Copy)]
struct Params {
    objects: usize,
    /// Edge-proxy capacity in objects.
    capacity: usize,
    /// Open-loop rate of phase A.
    rate_per_s: f64,
    /// Every `evict_every`-th fetch is preceded, off the clock, by
    /// `ReverseProxy::evict`, so the reverse proxy refetches from the
    /// origin (step 5). 0 = never.
    evict_every: usize,
    /// MSS tree height: 2^height one-time keys, two per publish.
    key_height: u32,
    phase_a: Duration,
    phase_b: Duration,
}

fn params(workload: &str, ctx: &Ctx) -> Params {
    let hit = workload == "idicn-hit";
    let (objects, key_height, phase_a, phase_b) = match ctx.size {
        Size::Full => (
            256,
            10,
            Duration::from_secs_f64(ctx.seconds * 0.6),
            Duration::from_secs_f64(ctx.seconds * 0.4),
        ),
        Size::Smoke => (
            32,
            7,
            Duration::from_millis(1000),
            Duration::from_millis(500),
        ),
    };
    Params {
        objects,
        capacity: if hit { objects } else { objects / 16 },
        rate_per_s: if hit { HIT_RATE_PER_S } else { MISS_RATE_PER_S },
        evict_every: if hit { 0 } else { 4 },
        key_height,
        phase_a,
        phase_b,
    }
}

/// One-line description of the fixed parameters, for the manifest.
pub fn describe(workload: &str, ctx: &Ctx) -> String {
    let p = params(workload, ctx);
    format!(
        "{} objects of 1 KiB/16 KiB/256 KiB at 60/30/10 %, proxy capacity {}, uniform picks, \
         evict-before-fetch every {} (0 = never), loopback, one connection per fetch; phase A \
         open loop {} fetch/s for {:.1} s from {} senders, phase B closed loop {} clients for \
         {:.1} s; {SETUPS} set-ups",
        p.objects,
        p.capacity,
        p.evict_every,
        p.rate_per_s,
        p.phase_a.as_secs_f64(),
        nproc(),
        nproc(),
        p.phase_b.as_secs_f64()
    )
}

/// The Figure-11 world plus what was published into it.
struct World {
    origin: OriginServer,
    resolver: Resolver,
    rp: ReverseProxy,
    proxy: EdgeProxy,
    proxy_addr: SocketAddr,
    labels: Vec<String>,
    names: Vec<ContentName>,
    urls: Vec<String>,
    contents: Vec<Vec<u8>>,
    class: Vec<usize>,
    // Dropped last-to-first: the edge proxy stops before what it calls.
    _servers: Vec<HttpServer>,
}

/// Exact class counts (60/30/10 %), in a seeded order.
fn size_classes(objects: usize, seed: u64) -> Vec<usize> {
    let n0 = (objects as f64 * SIZE_CLASSES[0].2).round() as usize;
    let n1 = (objects as f64 * SIZE_CLASSES[1].2).round() as usize;
    let mut class: Vec<usize> = (0..objects)
        .map(|i| {
            if i < n0 {
                0
            } else if i < n0 + n1 {
                1
            } else {
                2
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..objects).rev() {
        class.swap(i, rng.gen_range(0..=i));
    }
    class
}

impl World {
    /// Key generation, publish (origin fetch, sign, register) and one warm
    /// pass through the edge proxy: the write path, and this pair's set-up.
    fn build(ctx: &Ctx, p: &Params, rep: u64) -> World {
        let tracer = ctx.tracer;
        let origin = OriginServer::new();
        let origin_srv = origin.serve().expect("origin binds a loopback port");
        let resolver = Resolver::new();
        let resolver_srv = resolver.serve().expect("resolver binds a loopback port");
        let resolver_client = ResolverClient::new(resolver_srv.addr());
        let identity = tracer.span("idicn.crypto.keygen", SpanId::NONE, rep, |_| {
            Identity::generate(
                &mut StdRng::seed_from_u64(derive_seed(ctx.seed, 2)),
                p.key_height,
            )
        });
        let rp = ReverseProxy::new(identity, origin_srv.addr(), resolver_client);
        let rp_srv = rp.serve().expect("reverse proxy binds a loopback port");
        let proxy = EdgeProxy::new(resolver_client, p.capacity);
        let proxy_srv = proxy.serve().expect("edge proxy binds a loopback port");
        let proxy_addr = proxy_srv.addr();

        let class = size_classes(p.objects, derive_seed(ctx.seed, 3));
        let mut labels = Vec::with_capacity(p.objects);
        let mut names = Vec::with_capacity(p.objects);
        let mut contents = Vec::with_capacity(p.objects);
        for (i, &c) in class.iter().enumerate() {
            let mut bytes = vec![0u8; SIZE_CLASSES[c].1];
            StdRng::seed_from_u64(derive_seed(ctx.seed, 1000 + i as u64)).fill_bytes(&mut bytes);
            let label = format!("obj-{i:04}");
            origin.add_content(&label, bytes.clone());
            let name = tracer.span("idicn.reverse_proxy.publish", SpanId::NONE, rep, |_| {
                rp.publish(&label)
                    .expect("publish succeeds on a healthy world")
            });
            labels.push(label);
            names.push(name);
            contents.push(bytes);
        }
        let urls: Vec<String> = names
            .iter()
            .map(|n| format!("http://{}/", n.to_fqdn()))
            .collect();
        tracer.span("setup.warm_pass", SpanId::NONE, rep, |_| {
            for (name, want) in names.iter().zip(&contents) {
                let (body, _, _) =
                    fetch_verified(proxy_addr, name).expect("warm fetch on a healthy world");
                assert!(body == *want, "warm fetch returned the wrong bytes");
            }
        });
        World {
            origin,
            resolver,
            rp,
            proxy,
            proxy_addr,
            labels,
            names,
            urls,
            contents,
            class,
            _servers: vec![proxy_srv, rp_srv, resolver_srv, origin_srv],
        }
    }

    /// HTTP requests each component has logged so far.
    fn log_lines(&self) -> [u64; 4] {
        [
            self.proxy.access_log().len(),
            self.resolver.access_log().len(),
            self.rp.access_log().len(),
            self.origin.access_log().len(),
        ]
    }

    fn rp_counter(&self, name: &str) -> u64 {
        self.rp.telemetry().counters.get(name).copied().unwrap_or(0)
    }

    /// Streams the four access logs to fresh files under `dir`.
    fn stream_logs(&self, dir: &std::path::Path, workload: &str) -> Vec<PathBuf> {
        let logs = [
            ("edge_proxy", self.proxy.access_log()),
            ("resolver", self.resolver.access_log()),
            ("reverse_proxy", self.rp.access_log()),
            ("origin", self.origin.access_log()),
        ];
        logs.iter()
            .map(|(component, log)| {
                let path = dir.join(format!("access-{workload}-{component}.jsonl"));
                let _ = std::fs::remove_file(&path);
                log.stream_to_file(path.to_str().expect("utf-8 output path"))
                    .expect("access log file opens");
                path
            })
            .collect()
    }
}

/// Runs one overlay workload.
pub fn run(ctx: &Ctx, workload: &'static str) -> Outcome {
    let p = params(workload, ctx);
    let tracer = ctx.tracer;
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut world = None;
    for rep in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(World::build(ctx, &p, rep as u64));
        setup.push(t.elapsed().as_secs_f64());
    }
    let w = world.expect("SETUPS > 0");

    // The pick sequence: uniform over the published set, from the seed.
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 4));
    let picks: Vec<usize> = (0..1 << 15).map(|_| rng.gen_range(0..p.objects)).collect();
    let pick = |i: usize| picks[i % picks.len()];
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let fail = |what: String| {
        let mut e = errors.lock().expect("error list lock");
        if e.len() < 5 {
            e.push(what);
        }
        false
    };
    let prepare = |i: usize| {
        if p.evict_every > 0 && i.is_multiple_of(p.evict_every) {
            w.rp.evict(&w.labels[pick(i)]);
        }
    };
    let plain = |i: usize| {
        let k = pick(i);
        match fetch_verified(w.proxy_addr, &w.names[k]) {
            Ok((body, _, _)) if body == w.contents[k] => true,
            Ok(_) => fail(format!(
                "fetch {i}: bytes differ from the generated content"
            )),
            Err(e) => fail(format!("fetch {i}: {e}")),
        }
    };
    // The traced client is `fetch_verified` taken apart: same three calls,
    // each under its own span, plus the request id that lets the four
    // access logs be joined.
    let request_id = |i: usize| format!("bench-{:x}-{i}", ctx.seed);
    let traced = |i: usize| {
        let (k, op) = (pick(i), i as u64);
        let root = tracer.begin("client.fetch", SpanId::NONE, op);
        let id = request_id(i);
        let resp = tracer.span("idicn.http.http_get", root, op, |_| {
            http::http_get(w.proxy_addr, &w.urls[k], &[(REQUEST_ID_HEADER, &id)])
        });
        let ok = match resp {
            Ok(r) if r.is_success() => {
                let meta = tracer.span("idicn.metalink.from_headers", root, op, |_| {
                    Metadata::from_headers(&r.headers)
                });
                match meta {
                    Ok(m) => {
                        let verified =
                            tracer.span("idicn.metalink.verify", root, op, |_| m.verify(&r.body));
                        match verified {
                            Ok(()) if r.body == w.contents[k] => true,
                            Ok(()) => fail(format!("fetch {i}: bytes differ")),
                            Err(e) => fail(format!("fetch {i}: {e}")),
                        }
                    }
                    Err(e) => fail(format!("fetch {i}: {e}")),
                }
            }
            Ok(r) => fail(format!("fetch {i}: proxy returned {}", r.status)),
            Err(e) => fail(format!("fetch {i}: {e}")),
        };
        tracer.end(root);
        ok
    };

    let clock = RealClock::start();
    let senders = nproc();
    let total_a = (p.rate_per_s * p.phase_a.as_secs_f64()).round().max(1.0) as usize;
    let stats0 = w.proxy.stats();
    let lines0 = w.log_lines();
    let (serves0, refetch0) = (
        w.rp_counter("rp.serves"),
        w.rp_counter("rp.origin_refetches"),
    );

    let (phase_a, phase_b, phase_b_traced, log_files);
    if tracer.is_on() {
        // Untraced half of phase B first, while no log is streamed yet.
        phase_b = loadgen::closed_loop(&clock, senders, p.phase_b / 2, prepare, plain);
        log_files = w.stream_logs(&ctx.out_dir, workload);
        phase_a = loadgen::open_loop(&clock, p.rate_per_s, total_a, senders, prepare, traced);
        let base = total_a;
        phase_b_traced = loadgen::closed_loop(
            &clock,
            senders,
            p.phase_b / 2,
            |i| prepare(base + i),
            |i| traced(base + i),
        );
    } else {
        phase_a = loadgen::open_loop(&clock, p.rate_per_s, total_a, senders, prepare, plain);
        phase_b = loadgen::closed_loop(&clock, senders, p.phase_b, prepare, plain);
        phase_b_traced = Vec::new();
        log_files = Vec::new();
    }

    let stats1 = w.proxy.stats();
    let lines1 = w.log_lines();
    let (serves1, refetch1) = (
        w.rp_counter("rp.serves"),
        w.rp_counter("rp.origin_refetches"),
    );

    // Checks: every fetch verified and returned the generated bytes, and
    // the workload exercised the path it claims to.
    for r in phase_a.iter().chain(&phase_b).chain(&phase_b_traced) {
        out.check(r.ok, || format!("fetch {} failed", r.index));
    }
    out.problems
        .extend(errors.lock().expect("error list lock").drain(..));
    let delta = stats_delta(&stats0, &stats1);
    let fetches = (phase_a.len() + phase_b.len() + phase_b_traced.len()) as u64;
    let hit_share = delta.hits as f64 / (delta.hits + delta.misses).max(1) as f64;
    out.check(delta.hits + delta.misses == fetches, || {
        format!(
            "edge proxy counted {} lookups for {fetches} fetches",
            delta.hits + delta.misses
        )
    });
    if workload == "idicn-hit" {
        out.check(delta.misses == 0, || {
            format!(
                "{} fetches missed the edge cache on the hit workload",
                delta.misses
            )
        });
    } else {
        out.check(hit_share < 0.25, || {
            format!("hit share {hit_share:.3} on the miss workload: the cache is not bypassed")
        });
    }
    out.check(
        delta.verify_failures == 0 && delta.retries == 0 && delta.breaker_opens == 0,
        || format!("edge proxy saw failures on a healthy world: {delta:?}"),
    );

    // End-to-end numbers.
    let lat = sorted(&phase_a.iter().map(OpRecord::latency_us).collect::<Vec<_>>());
    let p50 = percentile(&lat, 50.0);
    let p99 = tail(&lat, 99.0);
    let p_tail = tail(&lat, TAIL_PCT);
    let fetch_per_s = loadgen::achieved_rate(&phase_b);
    out.e2e.insert("throughput_per_s".into(), fetch_per_s);
    out.e2e.insert("time_p50_ms".into(), p50 / 1e3);
    out.e2e.insert("time_tail_ms".into(), p_tail.value / 1e3);
    out.e2e.insert("setup_s".into(), median(&mut setup));
    out.native.push(("fetch_per_s", fetch_per_s, "1/s"));
    out.native.push(("fetch_p50_us", p50, "us"));
    out.native.push(("fetch_p95_us", p_tail.value, "us"));
    out.native.push(("fetch_p99_us", p99.value, "us"));
    out.notes.push(format!(
        "phase A open loop: {} fetches at {} fetch/s from {senders} senders; bounded tail is \
         p{} with {} samples beyond it, p{} has {} of {} beyond it. phase B closed loop: {} fetches by {senders} clients in {:.2} s",
        phase_a.len(),
        p.rate_per_s,
        p_tail.pct,
        p_tail.beyond,
        p99.pct,
        p99.beyond,
        p99.samples,
        phase_b.len(),
        phase_b.len() as f64 / fetch_per_s.max(f64::MIN_POSITIVE),
    ));

    // Where the percentiles sit in the size mix: the share of the samples
    // at or above each percentile that are 256 KiB fetches.
    let large_share = |pct: f64| {
        let cut = percentile(&lat, pct);
        let above: Vec<&OpRecord> = phase_a.iter().filter(|r| r.latency_us() >= cut).collect();
        let large = above.iter().filter(|r| w.class[pick(r.index)] == 2).count();
        large as f64 / above.len().max(1) as f64
    };
    out.notes.push(format!(
        "phase A: p90 {:.0} us, p95 {:.0} us, p99 {:.0} us; 256 KiB fetches are {:.0} % of the \
         samples at or above p90, {:.0} % at or above p95, {:.0} % at or above p99",
        percentile(&lat, 90.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        large_share(90.0) * 100.0,
        large_share(95.0) * 100.0,
        large_share(99.0) * 100.0,
    ));

    // Per-layer values this workload produces itself.
    let lag = sorted(&phase_a.iter().map(OpRecord::lag_us).collect::<Vec<_>>());
    out.layers
        .insert("loadgen.lag_p99_us".into(), tail(&lag, 99.0).value);
    out.layers.insert(
        "loadgen.achieved_rate_per_s".into(),
        loadgen::achieved_rate(&phase_a),
    );
    out.layers.insert("idicn.proxy.hit_share".into(), hit_share);
    out.layers
        .insert("idicn.proxy.retries".into(), delta.retries as f64);
    out.layers.insert(
        "idicn.proxy.breaker_opens".into(),
        delta.breaker_opens as f64,
    );
    out.layers.insert(
        "idicn.proxy.verify_failures".into(),
        delta.verify_failures as f64,
    );
    out.layers.insert(
        "idicn.reverse_proxy.origin_refetch_share".into(),
        (refetch1 - refetch0) as f64 / (serves1 - serves0).max(1) as f64,
    );
    let connections: u64 = lines1.iter().zip(&lines0).map(|(a, b)| a - b).sum();
    out.layers.insert(
        "idicn.connections_per_fetch".into(),
        connections as f64 / fetches as f64,
    );
    for (c, (label, _, _)) in SIZE_CLASSES.iter().enumerate() {
        let mut service: Vec<f64> = phase_a
            .iter()
            .filter(|r| w.class[pick(r.index)] == c)
            .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
            .collect();
        if !service.is_empty() {
            out.layers
                .insert(format!("client.fetch_p50_us.{label}"), median(&mut service));
        }
    }

    if tracer.is_on() {
        let traced_rate = loadgen::achieved_rate(&phase_b_traced);
        out.layers.insert(
            "trace.overhead_pct".into(),
            (fetch_per_s / traced_rate - 1.0) * 100.0,
        );
        join_logs(&log_files, &phase_a, &request_id, &mut out);
    }
    out
}

fn stats_delta(a: &ProxyStats, b: &ProxyStats) -> ProxyStats {
    ProxyStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        verify_failures: b.verify_failures - a.verify_failures,
        requests: b.requests - a.requests,
        in_flight: b.in_flight,
        retries: b.retries - a.retries,
        breaker_opens: b.breaker_opens - a.breaker_opens,
        breaker_skips: b.breaker_skips - a.breaker_skips,
        resolver_fallbacks: b.resolver_fallbacks - a.resolver_fallbacks,
    }
}

/// Joins the streamed access logs on the phase-A request ids: per-stage
/// handling time, and how much of a fetch is spent outside the edge proxy
/// (the client hop: connect, parse, verify).
fn join_logs(
    files: &[PathBuf],
    phase_a: &[OpRecord],
    request_id: &dyn Fn(usize) -> String,
    out: &mut Outcome,
) {
    let mut entries = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).expect("streamed access log is readable");
        entries.extend(accesslog::parse_lines(&text).expect("access log lines parse"));
    }
    let ids: Vec<String> = phase_a.iter().map(|r| request_id(r.index)).collect();
    let joined = accesslog::join(&entries, ids.iter().map(String::as_str));
    for (component, metric) in [
        ("edge_proxy", "idicn.proxy.handle_us"),
        ("resolver", "idicn.resolver.handle_us"),
        ("reverse_proxy", "idicn.reverse_proxy.handle_us"),
        ("origin", "idicn.origin.handle_us"),
    ] {
        let mut us = accesslog::handle_us(&joined, component);
        if !us.is_empty() {
            out.layers.insert(metric.into(), median(&mut us));
        }
    }
    let mut outside: Vec<f64> = phase_a
        .iter()
        .zip(&ids)
        .filter_map(|(r, id)| {
            let proxy_ns = *joined.get(id.as_str())?.get("edge_proxy")?;
            Some((r.end - r.start).as_secs_f64() * 1e6 - proxy_ns as f64 / 1e3)
        })
        .collect();
    out.check(outside.len() == phase_a.len(), || {
        format!(
            "{} of {} traced fetches have no edge-proxy log line under their request id",
            phase_a.len() - outside.len(),
            phase_a.len()
        )
    });
    if !outside.is_empty() {
        out.layers
            .insert("idicn.client.outside_proxy_us".into(), median(&mut outside));
    }
}
