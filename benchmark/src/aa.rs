//! `aa`: the full set of runs twice on the same build, compared.
//!
//! An A/A test of the ruler itself. Every workload runs untraced and traced,
//! each in a process of its own, and then all of it again; the command
//! fails unless every end-to-end metric on every workload agrees between
//! the two sets within the bound `BENCHMARK.json` gives it, and every
//! simulated count that must repeat exactly does. The spread of each pair is
//! printed so the bounds can be tightened later.

use crate::WORKLOADS;
use icn_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer counts that must be identical between two runs of one build
/// with one seed, on every workload.
const EXACT_PREFIXES: [&str; 4] = [
    "core.sim.cache_hit_share.",
    "core.sim.coop_hit_share.",
    "core.shard.epochs",
    "core.shard.workers",
];

type Metrics = BTreeMap<String, f64>;

/// Runs one workload in a child process and returns its metrics.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {last}",
            trace as u8, output.status
        ));
    }
    let v = parse(last).map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
    if v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload}: run is not correct: {last}"));
    }
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: no metrics object"))?;
    metrics
        .iter()
        .map(|(k, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("{workload}: metric {k} has no numeric value"))
        })
        .collect()
}

/// `name -> bound` for the end-to-end metrics of `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    root.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
        })
        .collect()
}

/// Distance between two readings as a share of the smaller one.
pub fn spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE)
}

/// Runs the A/A comparison; returns the process exit code.
pub fn run(seed: u64, seconds: f64) -> i32 {
    match compare(seed, seconds) {
        Ok(0) => {
            println!("aa: the two sets agree");
            0
        }
        Ok(n) => {
            println!("aa: {n} disagreement(s)");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn compare(seed: u64, seconds: f64) -> Result<u32, String> {
    let bounds = bounds()?;
    let mut sets: Vec<Vec<(Metrics, Metrics)>> = Vec::new();
    for set in 1..=2 {
        let mut runs = Vec::new();
        for w in WORKLOADS {
            eprintln!("aa: set {set}, {w}");
            runs.push((
                child(w, seed, seconds, false)?,
                child(w, seed, seconds, true)?,
            ));
        }
        sets.push(runs);
    }
    let mut bad = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let (e1, l1) = &sets[0][wi];
        let (e2, l2) = &sets[1][wi];
        for (name, &a) in e1 {
            let b = *e2
                .get(name)
                .ok_or_else(|| format!("{w}: set 2 lacks {name}"))?;
            let bound = *bounds
                .get(name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let s = spread(a, b);
            let ok = s <= bound;
            println!(
                "aa {w} {name}: {a} vs {b}, spread {:.2} % of bound {:.0} %{}",
                s * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
            bad += !ok as u32;
        }
        for (name, &a) in l1 {
            let exact = EXACT_PREFIXES.iter().any(|p| name.starts_with(p))
                || (*w == "idicn-hit" && name == "idicn.proxy.hit_share");
            if !exact {
                continue;
            }
            let b = *l2
                .get(name)
                .ok_or_else(|| format!("{w}: set 2 lacks {name}"))?;
            if a != b {
                println!("aa {w} {name}: {a} vs {b}  DISAGREE (must repeat exactly)");
                bad += 1;
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_symmetric_and_relative_to_the_smaller_reading() {
        assert_eq!(spread(100.0, 110.0), 0.1);
        assert_eq!(spread(110.0, 100.0), 0.1);
        assert_eq!(spread(5.0, 5.0), 0.0);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contract() {
        let b = bounds().unwrap();
        for (name, _, _) in crate::report::END_TO_END {
            let bound = b.get(name).copied().expect(name);
            assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        }
    }
}
