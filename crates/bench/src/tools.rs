//! The two utilities: `trace_gen` (a synthetic trace as CSV) and
//! `telemetry_check` (validates the observability outputs).

use crate::{RunOpts, Telemetry};
use icn_obs::json::{parse, Value};
use icn_obs::{HistSummary, Snapshot};
use icn_topology::AccessTree;
use icn_workload::trace::Trace;
use idicn::http;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::SocketAddr;

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

/// Validates the repo's observability outputs; an error names the first
/// violation (and `icn` exits 1).
///
/// * `telemetry_check <sidecar.json>` parses a `--telemetry` sidecar back
///   into an [`icn_obs::Snapshot`] and checks it with [`check_sidecar`].
/// * `telemetry_check --live-metrics` stands up the full idICN pipeline
///   in-process (origin, resolver, reverse proxy, edge proxy), drives a
///   request through it, and scrapes each component's `/metrics` twice —
///   validating Prometheus text-format well-formedness (`# TYPE` lines,
///   `component` labels, cumulative bucket ordering, `+Inf == _count`) and
///   counter monotonicity across scrapes.
pub fn telemetry_check(opts: &RunOpts, _: &Telemetry, out: &mut dyn Write) -> io::Result<()> {
    let verdict = match &opts.sidecar {
        Some(file) => {
            let path = file.display();
            let text = std::fs::read_to_string(file)
                .map_err(|e| io::Error::new(e.kind(), format!("cannot read {path}: {e}")))?;
            let checked = check_sidecar(&text).map_err(|e| format!("{path}: {e}"));
            checked.map(|snap| {
                let phases = snap.timers.keys().filter(|k| k.ends_with(".self"));
                let (metrics, phases) = (metric_count(&snap), phases.count());
                let summary = format!("{path}: valid snapshot, {metrics} metrics, {phases} phases");
                format!("{summary}\n{}", snap.render_table())
            })
        }
        None => check_live_metrics(),
    };
    let report = verdict.map_err(|e| io::Error::other(format!("telemetry_check: {e}")))?;
    writeln!(out, "{report}")
}

// ---------------------------------------------------------------- sidecar

fn metric_count(snap: &Snapshot) -> usize {
    snap.counters.len() + snap.gauges.len() + snap.histograms.len() + snap.timers.len()
}

/// A `--telemetry` sidecar's invariants: a run manifest; at least one
/// metric; every histogram and timer well-formed ([`check_hist`]); each
/// profile phase a `<phase>.self`/`<phase>.total` timer pair with equal
/// counts and `self ≤ total`; and a `sim.request` root phase whenever the
/// run simulated anything.
fn check_sidecar(text: &str) -> Result<Snapshot, String> {
    let root = parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    if root.get("manifest").and_then(Value::as_obj).is_none() {
        return Err("no run manifest".into());
    }
    let snap = Snapshot::from_value(&root).map_err(|e| format!("not a snapshot: {e}"))?;
    if metric_count(&snap) == 0 {
        return Err("parses but contains no metrics".into());
    }
    for (name, h) in snap.histograms.iter().chain(&snap.timers) {
        check_hist(h).map_err(|e| format!("{name}: {e}"))?;
    }
    let phases =
        (snap.timers.keys()).filter_map(|k| k.strip_suffix(".self").or(k.strip_suffix(".total")));
    for phase in phases {
        let half = |which| snap.timers.get(&format!("{phase}.{which}"));
        let (Some(self_ns), Some(total)) = (half("self"), half("total")) else {
            return Err(format!("phase {phase} lacks its self or total timer"));
        };
        if self_ns.count != total.count {
            let (s, t) = (self_ns.count, total.count);
            return Err(format!("phase {phase}: self count {s} != total count {t}"));
        }
        if self_ns.sum > total.sum {
            let (s, t) = (self_ns.sum, total.sum);
            return Err(format!(
                "phase {phase}: self time {s} exceeds total time {t}"
            ));
        }
    }
    let simulated = snap.counters.get("bench.runs").is_some_and(|&n| n > 0);
    if simulated && !snap.timers.contains_key("sim.request.total") {
        return Err("profile is missing the sim.request root phase".into());
    }
    Ok(snap)
}

/// A histogram's invariants: strictly ascending, non-empty buckets whose
/// counts sum to its count, and `min <= max`.
fn check_hist(s: &HistSummary) -> Result<(), String> {
    let bucket_total: u64 = s.buckets.iter().map(|&(_, c)| c).sum();
    if bucket_total != s.count {
        let count = s.count;
        return Err(format!(
            "bucket counts sum to {bucket_total}, expected {count}"
        ));
    }
    let mut prev: Option<usize> = None;
    for &(idx, c) in &s.buckets {
        if c == 0 {
            return Err("stores an empty bucket".into());
        }
        if prev.is_some_and(|p| idx <= p) {
            return Err(format!("bucket indices not strictly ascending at {idx}"));
        }
        prev = Some(idx);
    }
    if s.count > 0 && s.min > s.max {
        return Err(format!("min {} > max {}", s.min, s.max));
    }
    Ok(())
}

// ------------------------------------------------------------ live metrics

/// Scrapes `component`'s `/metrics` page, checks it is well-formed
/// Prometheus text, and returns its counter samples.
fn scrape(component: &str, addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = http::http_get(addr, "/metrics", &[])
        .map_err(|e| format!("{component}: scrape failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{component}: /metrics returned {}", resp.status));
    }
    if resp.headers.get("content-type") != Some(icn_obs::PROM_CONTENT_TYPE) {
        return Err(format!("{component}: wrong /metrics content type"));
    }
    let text = String::from_utf8(resp.body).map_err(|_| format!("{component}: not UTF-8"))?;
    let types: BTreeMap<&str, &str> = (text.lines())
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|decl| (decl.split_once(' ')).ok_or_else(|| format!("malformed TYPE line: {decl}")))
        .collect::<Result<_, _>>()?;
    let needle = format!("component=\"{component}\"");
    let (mut counters, mut last_bucket, mut inf_bucket) =
        (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
    let samples: Vec<&str> = (text.lines())
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    if samples.is_empty() {
        return Err(format!("{component}: /metrics page has no samples"));
    }
    for line in samples {
        let Some((id, value)) = line.rsplit_once(' ') else {
            return Err(format!("malformed sample line: {line}"));
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("non-numeric sample value: {line}"))?;
        if !id.contains(&needle) {
            return Err(format!(
                "{component}: sample lacks its component label: {id}"
            ));
        }
        // The family strips the label block and any histogram suffix.
        let base = id.split('{').next().unwrap_or(id);
        let suffixes = ["_bucket", "_sum", "_count"];
        let family = suffixes
            .iter()
            .find_map(|s| base.strip_suffix(s))
            .unwrap_or(base);
        let Some(&kind) = types.get(family) else {
            return Err(format!("{component}: no # TYPE for {family} ({id})"));
        };
        if base.ends_with("_bucket") {
            if kind != "histogram" {
                return Err(format!(
                    "{component}: _bucket sample on non-histogram {family}"
                ));
            }
            // The renderer emits each histogram's buckets consecutively in
            // ascending le order, so cumulative counts must never decrease.
            let prev = last_bucket.insert(family, value).unwrap_or(0.0);
            if value < prev {
                return Err(format!(
                    "{component}: {family} cumulative buckets decreased ({value} < {prev})"
                ));
            }
            if id.contains("le=\"+Inf\"") {
                inf_bucket.insert(family, value);
            }
        } else if base.ends_with("_count") && kind == "histogram" {
            if let Some(inf) = inf_bucket.get(family).filter(|&&inf| inf != value) {
                return Err(format!(
                    "{component}: {family} +Inf bucket {inf} != _count {value}"
                ));
            }
        }
        if kind == "counter" {
            counters.insert(id.to_string(), value);
        }
    }
    Ok(counters)
}

fn check_live_metrics() -> Result<String, String> {
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
    let mut first = Vec::new();
    for (component, addr) in endpoints {
        first.push(scrape(component, addr)?);
    }

    // More traffic (a cache hit), then a second scrape: every counter must
    // be monotonically non-decreasing.
    assert_eq!(fetch().expect("fetch through proxy").status, 200);
    for ((component, addr), before) in endpoints.into_iter().zip(&first) {
        let after = scrape(component, addr)?;
        for (id, v1) in before {
            let Some(v2) = after.get(id) else {
                return Err(format!(
                    "{component}: counter {id} vanished between scrapes"
                ));
            };
            if v2 < v1 {
                return Err(format!(
                    "{component}: counter {id} went backwards ({v1} -> {v2})"
                ));
            }
        }
        // The edge proxy handled one more request between the scrapes.
        if component == "edge_proxy" {
            let Some(key) = before.keys().find(|k| k.starts_with("proxy_requests")) else {
                return Err("edge_proxy exposes no proxy_requests counter".into());
            };
            if after[key] <= before[key] {
                return Err("edge_proxy: proxy_requests did not advance across scrapes".into());
            }
        }
    }

    for server in [proxy_srv, rp_srv, resolver_srv, origin_srv] {
        server.shutdown();
    }
    Ok("live /metrics: 3 components scraped twice, all invariants hold".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_obs::Registry;

    /// A sidecar for `runs` simulated runs whose `sim.request` phase
    /// recorded `self_ns` and `total_ns` (no phase when both are empty),
    /// with `edit` applied to the snapshot before the manifest is added.
    fn sidecar(runs: u64, self_ns: &[u64], total_ns: &[u64], edit: fn(&mut Snapshot)) -> String {
        let r = Registry::new();
        r.counter("bench.runs").add(runs);
        for (half, values) in [("self", self_ns), ("total", total_ns)] {
            for &ns in values {
                r.timer_handle(&format!("sim.request.{half}"))
                    .observe_ns(ns);
            }
        }
        let mut snap = r.snapshot();
        edit(&mut snap);
        let mut root = snap.to_object();
        root.insert("manifest".into(), Value::Obj(Default::default()));
        Value::Obj(root).to_json()
    }

    fn rejection(text: &str) -> String {
        check_sidecar(text).expect_err("sidecar must be rejected")
    }

    #[test]
    fn a_well_formed_sidecar_passes() {
        assert!(check_sidecar(&sidecar(1, &[40], &[100], |_| {})).is_ok());
        // A run that simulated nothing needs no profile.
        assert!(check_sidecar(&sidecar(0, &[], &[], |_| {})).is_ok());
    }

    #[test]
    fn a_sidecar_without_a_manifest_is_rejected() {
        let r = Registry::new();
        r.counter("bench.runs").inc();
        assert!(rejection(&r.snapshot().to_json()).contains("manifest"));
    }

    #[test]
    fn a_sidecar_without_metrics_is_rejected() {
        let text = sidecar(0, &[], &[], |snap| *snap = Snapshot::default());
        assert!(rejection(&text).contains("no metrics"));
    }

    #[test]
    fn a_phase_whose_self_time_exceeds_its_total_is_rejected() {
        let err = rejection(&sidecar(1, &[200], &[100], |_| {}));
        assert!(
            err.contains("self time 200 exceeds total time 100"),
            "{err}"
        );
    }

    #[test]
    fn a_phase_whose_self_and_total_counts_differ_is_rejected() {
        let err = rejection(&sidecar(1, &[40, 40], &[100], |_| {}));
        assert!(err.contains("self count 2 != total count 1"), "{err}");
        let err = rejection(&sidecar(1, &[], &[100], |_| {}));
        assert!(err.contains("lacks its self or total timer"), "{err}");
    }

    #[test]
    fn non_ascending_or_empty_buckets_are_rejected() {
        let reversed = sidecar(1, &[5, 9_000], &[10, 9_000], |snap| {
            let total = snap.timers.get_mut("sim.request.total").unwrap();
            total.buckets.reverse();
        });
        assert!(rejection(&reversed).contains("not strictly ascending"));
        let empty = sidecar(1, &[40], &[100], |snap| {
            let total = snap.timers.get_mut("sim.request.total").unwrap();
            total.buckets.insert(0, (0, 0));
        });
        assert!(rejection(&empty).contains("empty bucket"));
    }

    #[test]
    fn a_simulated_run_without_a_request_phase_is_rejected() {
        let err = rejection(&sidecar(1, &[], &[], |_| {}));
        assert!(err.contains("sim.request"), "{err}");
    }
}
