//! Metric tables, the per-run result, and how it is printed.
//!
//! The tables here are the single source of the metric names; a unit test
//! checks `BENCHMARK.json` against them.

use icn_obs::json::Value;
use std::collections::BTreeMap;

/// A declared metric: name, unit, and whether higher or lower is better.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by every workload's untraced run. What each
/// one measures on each workload is tabulated in `README.md`.
pub const END_TO_END: [Decl; 5] = [
    ("throughput_per_s", "1/s", "higher"),
    ("time_p50_ms", "ms", "lower"),
    ("time_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics, printed by every workload's traced run.
pub const PER_LAYER: [Decl; 84] = [
    // Scenario construction: should move `setup_s` on sim-*, and
    // `fig6_wall_s` on sim-par (which builds on the clock).
    ("topology.network_new_ms", "ms", "lower"),
    ("workload.synthesize_req_per_s", "1/s", "higher"),
    ("workload.stream_req_per_s", "1/s", "higher"),
    ("workload.assign_origins_ms", "ms", "lower"),
    ("core.costs.table_new_ms", "ms", "lower"),
    ("core.sim.new_ms", "ms", "lower"),
    // Routing kernel: should move `sim_req_per_s` on sim-route only.
    ("core.sim.run_req_per_s.icn-nr", "1/s", "higher"),
    ("core.sim.run_req_per_s.icn-sp", "1/s", "higher"),
    ("core.sim.run_streamed_req_per_s.icn-nr", "1/s", "higher"),
    ("core.dir.update_ns", "ns", "lower"),
    ("core.dir.lookup_ns", "ns", "lower"),
    ("core.costs.path_cost_ns", "ns", "lower"),
    // Cache kernel: should move `sim_req_per_s` on sim-edge.
    ("core.sim.run_req_per_s.edge", "1/s", "higher"),
    ("core.sim.run_req_per_s.edge-coop", "1/s", "higher"),
    ("core.sim.run_req_per_s.edge-norm", "1/s", "higher"),
    ("core.sim.run_streamed_req_per_s.edge", "1/s", "higher"),
    ("cache.lru.op_ns", "ns", "lower"),
    ("cache.lfu.op_ns", "ns", "lower"),
    ("cache.fifo.op_ns", "ns", "lower"),
    ("cache.prob.op_ns", "ns", "lower"),
    ("cache.ttl.op_ns", "ns", "lower"),
    ("cache.tinylfu.op_ns", "ns", "lower"),
    // Simulated counts: must repeat exactly across commits for a change
    // that only claims speed.
    ("core.sim.cache_hit_share.icn-sp", "share", "higher"),
    ("core.sim.cache_hit_share.icn-nr", "share", "higher"),
    ("core.sim.cache_hit_share.edge", "share", "higher"),
    ("core.sim.cache_hit_share.edge-coop", "share", "higher"),
    ("core.sim.cache_hit_share.edge-norm", "share", "higher"),
    ("core.sim.coop_hit_share.edge-coop", "share", "higher"),
    // Sweep fan-out: should move `fig6_wall_s`.
    ("core.sweep.baseline_wall_s", "s", "lower"),
    ("core.sweep.jobs1_wall_s", "s", "lower"),
    ("core.sweep.jobsn_wall_s", "s", "lower"),
    ("core.sweep.speedup", "x", "higher"),
    // Epoch-sharded engine: should move `shard_req_per_s`.
    ("core.shard.req_per_s.icn-nr.s1", "1/s", "higher"),
    ("core.shard.req_per_s.icn-nr.sn", "1/s", "higher"),
    ("core.shard.req_per_s.edge.s1", "1/s", "higher"),
    ("core.shard.req_per_s.edge.sn", "1/s", "higher"),
    ("core.shard.speedup_vs_seq.icn-nr", "x", "higher"),
    ("core.shard.speedup_vs_seq.edge", "x", "higher"),
    ("core.shard.reconcile_pct.icn-nr", "%", "lower"),
    ("core.shard.reconcile_pct.edge", "%", "lower"),
    ("core.shard.epochs", "count", "lower"),
    ("core.shard.workers", "count", "higher"),
    // Should move nothing, and stay near 0.
    ("obs.profiler_overhead_pct", "%", "lower"),
    // One hop: x1 per hit, x3-4 per miss, on both idICN workloads.
    ("idicn.http.connect_rtt_us", "us", "lower"),
    ("idicn.http.keepalive_rtt_us", "us", "lower"),
    ("idicn.http.parse_request_ns", "ns", "lower"),
    ("idicn.http.parse_response_us", "us", "lower"),
    ("idicn.http.write_response_us", "us", "lower"),
    // Hit path: should move `fetch_p50_us` on idicn-hit.
    ("idicn.metalink.from_headers_us", "us", "lower"),
    ("idicn.metalink.to_headers_us", "us", "lower"),
    ("idicn.crypto.mss_verify_us", "us", "lower"),
    ("idicn.proxy.fetch_inproc_hit_us", "us", "lower"),
    // The 256 KiB class: should move `fetch_p99_us` on both.
    ("idicn.crypto.sha256_mib_s", "MiB/s", "higher"),
    ("idicn.metalink.verify_us.1k", "us", "lower"),
    ("idicn.metalink.verify_us.16k", "us", "lower"),
    ("idicn.metalink.verify_us.256k", "us", "lower"),
    ("client.fetch_p50_us.1k", "us", "lower"),
    ("client.fetch_p50_us.16k", "us", "lower"),
    ("client.fetch_p50_us.256k", "us", "lower"),
    // Miss path: should move idicn-miss only.
    ("idicn.resolver.resolve_inproc_ns", "ns", "lower"),
    ("idicn.resolver.resolve_rtt_us", "us", "lower"),
    ("idicn.reverse_proxy.fetch_rtt_us", "us", "lower"),
    ("idicn.reverse_proxy.refetch_rtt_us", "us", "lower"),
    ("idicn.origin.get_rtt_us", "us", "lower"),
    ("idicn.proxy.fetch_inproc_miss_us", "us", "lower"),
    ("idicn.proxy.handle_us", "us", "lower"),
    ("idicn.resolver.handle_us", "us", "lower"),
    ("idicn.reverse_proxy.handle_us", "us", "lower"),
    ("idicn.origin.handle_us", "us", "lower"),
    ("idicn.client.outside_proxy_us", "us", "lower"),
    // Write path: should move `setup_s` on idicn-*.
    ("idicn.crypto.keygen_ms", "ms", "lower"),
    ("idicn.crypto.mss_sign_us", "us", "lower"),
    ("idicn.reverse_proxy.publish_us", "us", "lower"),
    ("idicn.resolver.register_us", "us", "lower"),
    // Counters read off the components, and generator health.
    ("idicn.proxy.hit_share", "share", "higher"),
    ("idicn.proxy.retries", "count", "lower"),
    ("idicn.proxy.breaker_opens", "count", "lower"),
    ("idicn.proxy.verify_failures", "count", "lower"),
    ("idicn.reverse_proxy.origin_refetch_share", "share", "lower"),
    ("idicn.connections_per_fetch", "count", "lower"),
    ("loadgen.lag_p99_us", "us", "lower"),
    ("loadgen.achieved_rate_per_s", "1/s", "higher"),
    // Traced vs untraced end-to-end throughput of the selected workload.
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Named values; the key is a metric name from one of the tables above.
pub type Values = BTreeMap<String, f64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end values, by contract name.
    pub e2e: Values,
    /// The same values under the names the issue gave them, with units;
    /// only the ones that are native to this workload.
    pub native: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values this workload can produce from its own run.
    pub layers: Values,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Human-readable description of every failed check (capped).
    pub problems: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// Digest lines (`workload design topology hex`) for the golden file.
    pub digests: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`, and one
/// `{value, unit}` per metric of `table`. Errors when `values` lacks a
/// declared metric: that is a harness bug, not a measurement.
pub fn result_json(table: &[Decl], values: &Values, out: &Outcome) -> Result<String, String> {
    let mut metrics = BTreeMap::new();
    for &(name, unit, _) in table {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("no value was produced for metric {name}"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), Value::Float(v));
        m.insert("unit".to_string(), Value::Str(unit.to_string()));
        metrics.insert(name.to_string(), Value::Obj(m));
    }
    let mut root = BTreeMap::new();
    root.insert("correct".to_string(), Value::Bool(out.correct()));
    root.insert("attempted".to_string(), Value::UInt(out.attempted));
    root.insert("failed".to_string(), Value::UInt(out.failed));
    root.insert("metrics".to_string(), Value::Obj(metrics));
    Ok(Value::Obj(root).to_json())
}

/// Host and parameter manifest printed with every run.
pub fn manifest(workload: &str, seed: u64, seconds: f64, traced: bool, params: &str) -> String {
    let mut m = BTreeMap::new();
    let s = |v: &str| Value::Str(v.to_string());
    m.insert("workload".into(), s(workload));
    m.insert("seed".into(), Value::UInt(seed));
    m.insert("seconds".into(), Value::Float(seconds));
    m.insert("traced".into(), Value::Bool(traced));
    m.insert("params".into(), s(params));
    m.insert("nproc".into(), Value::UInt(nproc() as u64));
    m.insert("rustc".into(), s(env!("BENCH_RUSTC_VERSION")));
    m.insert("git_rev".into(), s(&git_rev()));
    m.insert("features".into(), s("default (obs on), release, lto=thin"));
    m.insert(
        "ip_local_port_range".into(),
        s(
            std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
                .map(|t| t.split_whitespace().collect::<Vec<_>>().join("-"))
                .unwrap_or_else(|_| "unknown".into())
                .as_str(),
        ),
    );
    Value::Obj(m).to_json()
}

/// Threads the host offers; every "nproc" in the workload definitions.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Short git revision of the repository, `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    icn_obs::peak_rss_kb() as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let root = icn_obs::json::parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String, String)> = root
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from the harness's table");
        }
        let names: Vec<&str> = root
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(better));
        }
    }

    #[test]
    fn result_json_has_the_contract_shape() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        let values: Values = END_TO_END.iter().map(|d| (d.0.to_string(), 1.5)).collect();
        let line = result_json(&END_TO_END, &values, &out).unwrap();
        let v = icn_obs::json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_missing_metric_is_an_error_not_a_zero() {
        let out = Outcome::default();
        assert!(result_json(&END_TO_END, &Values::new(), &out).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "cell 3 diverged".into());
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.problems, ["cell 3 diverged"]);
    }
}
