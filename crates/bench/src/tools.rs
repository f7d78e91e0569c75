//! The two utilities: `trace_gen` (a synthetic trace as CSV) and
//! `telemetry_check` (validates the observability outputs).

use crate::{RunOpts, Telemetry};
use icn_obs::json::{parse, Value};
use icn_obs::{ProfileSnapshot, Snapshot};
use icn_topology::AccessTree;
use icn_workload::trace::Trace;
use idicn::http;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::Path;

/// Writes a synthetic CDN request trace as CSV: `opts.workload` (the
/// region's trace at `--scale`, with `--alpha`/`--skew`/`--seed`/`--irm`
/// applied) over `opts.topology`'s populations.
///
/// ```console
/// $ icn trace_gen --region asia --scale 0.05 --topology abilene > trace.csv
/// ```
pub fn trace_gen(opts: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let (cfg, topo) = (opts.workload.clone(), &opts.topology);
    eprintln!(
        "generating {} requests over {} objects (alpha {}, skew {}, topology {})",
        cfg.requests, cfg.objects, cfg.alpha, cfg.skew, topo.name
    );
    let trace = Trace::synthesize(cfg, &topo.populations, AccessTree::baseline().leaves());
    trace.write_csv(out)
}

/// Exits 1 with a `telemetry_check:` message.
macro_rules! fail {
    ($($arg:tt)*) => {{
        eprintln!("telemetry_check: {}", format_args!($($arg)*));
        std::process::exit(1)
    }};
}

/// Validates the repo's observability outputs; exits 1 with a message on
/// any violation.
///
/// * `telemetry_check <sidecar.json>` parses a `--telemetry` sidecar back
///   into an [`icn_obs::Snapshot`], checks it survives a re-serialization
///   round trip and carries the run manifest, and — when the run was
///   profiled — checks the `"profile"` section's invariants: per-phase
///   `self ≤ total`, histogram bucket indices strictly ascending, bucket
///   counts summing to the phase count.
/// * `telemetry_check --live-metrics` stands up the full idICN pipeline
///   in-process (origin, resolver, reverse proxy, edge proxy), drives a
///   request through it, and scrapes each component's `/metrics` twice —
///   validating Prometheus text-format well-formedness (`# TYPE` lines,
///   `component` labels, cumulative bucket ordering, `+Inf == _count`) and
///   counter monotonicity across scrapes.
pub fn telemetry_check(opts: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    match &opts.sidecar {
        Some(path) => check_sidecar(path, out),
        None => check_live_metrics(out),
    }
}

// ---------------------------------------------------------------- sidecar

fn check_sidecar(file: &Path, out: &mut dyn Write) -> io::Result<()> {
    let path = file.display();
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail!("cannot read {path}: {e}"));
    let snap = Snapshot::from_json(&text)
        .unwrap_or_else(|e| fail!("{path} is not a valid telemetry snapshot: {e}"));
    let reparsed = Snapshot::from_json(&snap.to_json()).expect("re-serialized snapshot parses");
    assert_eq!(reparsed, snap, "snapshot JSON round trip is lossy");
    let metrics =
        snap.counters.len() + snap.gauges.len() + snap.histograms.len() + snap.timers.len();
    if metrics == 0 {
        fail!("{path} parses but contains no metrics");
    }
    let root = parse(&text).unwrap_or_else(|e| fail!("{path}: bad JSON: {e}"));
    let Some(profiled) = root.get("manifest").and_then(|m| m.get("profile")) else {
        fail!("{path} has no run manifest");
    };
    writeln!(out, "{path}: valid snapshot, {metrics} metrics")?;
    write!(out, "{}", snap.render_table())?;
    let Some(profile) = root.get("profile") else {
        if profiled == &Value::Bool(true) {
            fail!("{path}: profiled run without a \"profile\" section");
        }
        return Ok(());
    };
    let profile = ProfileSnapshot::from_value(profile)
        .unwrap_or_else(|e| fail!("{path}: invalid profile section: {e}"));
    // With the obs feature compiled out the simulator records no spans, so
    // an empty phase map is the *correct* output there.
    let simulated = snap.counters.get("bench.runs").is_some_and(|&n| n > 0);
    if cfg!(feature = "obs") && simulated && !profile.phases.contains_key("sim.request") {
        fail!("{path}: profile is missing the sim.request root phase");
    }
    for (name, p) in &profile.phases {
        // count == 0 is legal: a handle was registered but its code path
        // never ran on this workload (e.g. fault_schedule without faults).
        check_hist(name, "self", &p.self_ns, p.count);
        check_hist(name, "total", &p.total_ns, p.count);
        if p.self_ns.sum > p.total_ns.sum {
            let (s, t) = (p.self_ns.sum, p.total_ns.sum);
            fail!("phase {name}: self time {s} exceeds total time {t}");
        }
    }
    let reparsed = ProfileSnapshot::from_json(&profile.to_json()).expect("round trip parses");
    assert_eq!(reparsed, profile, "profile JSON round trip is lossy");
    let phases = profile.phases.len();
    writeln!(out, "{path}: valid profile, {phases} phases")?;
    write!(out, "{}", profile.render_table())
}

/// A profile phase histogram's invariants: `count` samples in strictly
/// ascending, non-empty buckets, and `min <= max`.
fn check_hist(phase: &str, which: &str, s: &icn_obs::HistSummary, count: u64) {
    if s.count != count {
        fail!(
            "phase {phase}: {which} histogram count {} != span count {count}",
            s.count
        );
    }
    let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
    if bucket_total != count {
        fail!("phase {phase}: {which} bucket counts sum to {bucket_total}, expected {count}");
    }
    let mut prev: Option<usize> = None;
    for &(idx, c) in &s.buckets {
        if c == 0 {
            fail!("phase {phase}: {which} stores an empty bucket");
        }
        if prev.is_some_and(|p| idx <= p) {
            fail!("phase {phase}: {which} bucket indices not strictly ascending at {idx}");
        }
        prev = Some(idx);
    }
    if count > 0 && s.min > s.max {
        fail!("phase {phase}: {which} min {} > max {}", s.min, s.max);
    }
}

// ------------------------------------------------------------ live metrics

/// Scrapes `component`'s `/metrics` page, checks it is well-formed
/// Prometheus text, and returns its counter samples.
fn scrape(component: &str, addr: SocketAddr) -> BTreeMap<String, f64> {
    let resp = http::http_get(addr, "/metrics", &[])
        .unwrap_or_else(|e| fail!("{component}: scrape failed: {e}"));
    if resp.status != 200 {
        fail!("{component}: /metrics returned {}", resp.status);
    }
    if resp.headers.get("content-type") != Some(icn_obs::PROM_CONTENT_TYPE) {
        fail!("{component}: wrong /metrics content type");
    }
    let text = String::from_utf8(resp.body).unwrap_or_else(|_| fail!("{component}: not UTF-8"));
    let types: BTreeMap<&str, &str> = (text.lines())
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|decl| {
            decl.split_once(' ')
                .unwrap_or_else(|| fail!("malformed TYPE line: {decl}"))
        })
        .collect();
    let needle = format!("component=\"{component}\"");
    let (mut counters, mut last_bucket, mut inf_bucket) =
        (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
    let samples: Vec<&str> = (text.lines())
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    if samples.is_empty() {
        fail!("{component}: /metrics page has no samples");
    }
    for line in samples {
        let Some((id, value)) = line.rsplit_once(' ') else {
            fail!("malformed sample line: {line}");
        };
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| fail!("non-numeric sample value: {line}"));
        if !id.contains(&needle) {
            fail!("{component}: sample lacks its component label: {id}");
        }
        // The family strips the label block and any histogram suffix.
        let base = id.split('{').next().unwrap_or(id);
        let suffixes = ["_bucket", "_sum", "_count"];
        let family = suffixes
            .iter()
            .find_map(|s| base.strip_suffix(s))
            .unwrap_or(base);
        let Some(&kind) = types.get(family) else {
            fail!("{component}: no # TYPE for {family} ({id})");
        };
        if base.ends_with("_bucket") {
            if kind != "histogram" {
                fail!("{component}: _bucket sample on non-histogram {family}");
            }
            // The renderer emits each histogram's buckets consecutively in
            // ascending le order, so cumulative counts must never decrease.
            let prev = last_bucket.insert(family, value).unwrap_or(0.0);
            if value < prev {
                fail!("{component}: {family} cumulative buckets decreased ({value} < {prev})");
            }
            if id.contains("le=\"+Inf\"") {
                inf_bucket.insert(family, value);
            }
        } else if base.ends_with("_count") && kind == "histogram" {
            if let Some(inf) = inf_bucket.get(family).filter(|&&inf| inf != value) {
                fail!("{component}: {family} +Inf bucket {inf} != _count {value}");
            }
        }
        if kind == "counter" {
            counters.insert(id.to_string(), value);
        }
    }
    counters
}

fn check_live_metrics(out: &mut dyn Write) -> io::Result<()> {
    use idicn::crypto::mss::Identity;
    use idicn::origin::OriginServer;
    use idicn::proxy::EdgeProxy;
    use idicn::resolver::{Resolver, ResolverClient};
    use idicn::reverse_proxy::ReverseProxy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let origin = OriginServer::new();
    let origin_srv = origin.serve().expect("origin serves");
    let resolver = Resolver::new();
    let resolver_srv = resolver.serve().expect("resolver serves");
    let rc = ResolverClient::new(resolver_srv.addr());
    let identity = Identity::generate(&mut StdRng::seed_from_u64(7), 4);
    let rp = ReverseProxy::new(identity, origin_srv.addr(), rc);
    let rp_srv = rp.serve().expect("reverse proxy serves");
    let proxy = EdgeProxy::new(rc, 16);
    let proxy_srv = proxy.serve().expect("edge proxy serves");

    origin.add_content("scrape-demo", b"observable bytes".to_vec());
    let name = rp.publish("scrape-demo").expect("publish").to_flat();
    rp.evict("scrape-demo"); // force the full proxy->resolver->rp->origin chain
    let fetch = || http::http_get(proxy_srv.addr(), &format!("/fetch/{name}"), &[]);
    assert_eq!(fetch().expect("fetch through proxy").status, 200);
    let endpoints = [
        ("edge_proxy", proxy_srv.addr()),
        ("resolver", resolver_srv.addr()),
        ("reverse_proxy", rp_srv.addr()),
    ];
    let first = endpoints.map(|(component, addr)| scrape(component, addr));

    // More traffic (a cache hit), then a second scrape: every counter must
    // be monotonically non-decreasing.
    assert_eq!(fetch().expect("fetch through proxy").status, 200);
    for ((component, addr), before) in endpoints.into_iter().zip(&first) {
        let after = scrape(component, addr);
        for (id, v1) in before {
            let Some(v2) = after.get(id) else {
                fail!("{component}: counter {id} vanished between scrapes");
            };
            if v2 < v1 {
                fail!("{component}: counter {id} went backwards ({v1} -> {v2})");
            }
        }
        // The edge proxy handled one more request between the scrapes.
        if component == "edge_proxy" {
            let Some(key) = before.keys().find(|k| k.starts_with("proxy_requests")) else {
                fail!("edge_proxy exposes no proxy_requests counter");
            };
            if after[key] <= before[key] {
                fail!("edge_proxy: proxy_requests did not advance across scrapes");
            }
        }
    }

    for server in [proxy_srv, rp_srv, resolver_srv, origin_srv] {
        server.shutdown();
    }
    writeln!(
        out,
        "live /metrics: 3 components scraped twice, all invariants hold"
    )
}
