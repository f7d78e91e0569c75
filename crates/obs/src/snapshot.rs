//! Point-in-time metric snapshots: JSON export/import and a human table.
//!
//! A [`Snapshot`] is what a `--telemetry out.json` sidecar contains. It
//! round-trips through JSON losslessly (histogram summaries carry their
//! sparse buckets, from which [`HistSummary::to_histogram`] rebuilds the
//! histogram exactly).

use crate::hist::Histogram;
use crate::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary of one histogram: scalar stats, quantiles, and the sparse
/// buckets needed to reconstruct it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Mean of recorded values (0 when empty).
    pub mean: f64,
    /// Estimated 50th percentile.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Estimated 99.9th percentile.
    pub p999: f64,
    /// Non-empty `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub(crate) fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            buckets: h.nonzero_buckets().collect(),
        }
    }

    /// Reconstructs the histogram this summary was taken from.
    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_parts(&self.buckets, self.count, self.sum, self.min, self.max)
    }

    pub(crate) fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("count".into(), Value::UInt(self.count));
        m.insert("sum".into(), Value::UInt(self.sum));
        m.insert("min".into(), Value::UInt(self.min));
        m.insert("max".into(), Value::UInt(self.max));
        m.insert("mean".into(), Value::Float(self.mean));
        m.insert("p50".into(), Value::Float(self.p50));
        m.insert("p90".into(), Value::Float(self.p90));
        m.insert("p99".into(), Value::Float(self.p99));
        m.insert("p999".into(), Value::Float(self.p999));
        m.insert(
            "buckets".into(),
            Value::Arr(
                self.buckets
                    .iter()
                    .map(|&(i, c)| Value::Arr(vec![Value::UInt(i as u64), Value::UInt(c)]))
                    .collect(),
            ),
        );
        Value::Obj(m)
    }

    pub(crate) fn from_value(v: &Value) -> Result<Self, String> {
        let num = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram summary missing '{k}'"))
        };
        let fnum = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("histogram summary missing '{k}'"))
        };
        let mut buckets = Vec::new();
        for pair in v
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or("histogram summary missing 'buckets'")?
        {
            let pair = pair.as_arr().ok_or("bucket entry is not a pair")?;
            match pair {
                [i, c] => buckets.push((
                    i.as_u64().ok_or("bad bucket index")? as usize,
                    c.as_u64().ok_or("bad bucket count")?,
                )),
                _ => return Err("bucket entry is not a pair".into()),
            }
        }
        Ok(Self {
            count: num("count")?,
            sum: num("sum")?,
            min: num("min")?,
            max: num("max")?,
            mean: fnum("mean")?,
            p50: fnum("p50")?,
            p90: fnum("p90")?,
            p99: fnum("p99")?,
            p999: fnum("p999")?,
            buckets,
        })
    }
}

/// A point-in-time copy of every metric in a [`crate::Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Timer summaries by name (values are span durations in nanoseconds).
    pub timers: BTreeMap<String, HistSummary>,
}

impl Snapshot {
    /// The JSON object's fields, as a map a caller can extend (the
    /// `--telemetry` sidecar adds `"manifest"`).
    pub fn to_object(&self) -> BTreeMap<String, Value> {
        let mut root = BTreeMap::new();
        root.insert(
            "counters".to_string(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::UInt(v)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".to_string(),
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::from(v)))
                    .collect(),
            ),
        );
        root.insert(
            "histograms".to_string(),
            Value::Obj(
                self.histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        );
        root.insert(
            "timers".to_string(),
            Value::Obj(
                self.timers
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        );
        root
    }

    /// Serializes to a compact JSON object.
    pub fn to_json(&self) -> String {
        Value::Obj(self.to_object()).to_json()
    }

    /// Parses a snapshot back from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&parse(text)?)
    }

    /// Parses a snapshot back from a parsed JSON object; fields other than
    /// the four metric maps are ignored.
    pub fn from_value(root: &Value) -> Result<Self, String> {
        let mut snap = Snapshot::default();
        if let Some(m) = root.get("counters").and_then(Value::as_obj) {
            for (k, v) in m {
                snap.counters.insert(
                    k.clone(),
                    v.as_u64().ok_or_else(|| format!("bad counter '{k}'"))?,
                );
            }
        }
        if let Some(m) = root.get("gauges").and_then(Value::as_obj) {
            for (k, v) in m {
                snap.gauges.insert(
                    k.clone(),
                    v.as_i64().ok_or_else(|| format!("bad gauge '{k}'"))?,
                );
            }
        }
        if let Some(m) = root.get("histograms").and_then(Value::as_obj) {
            for (k, v) in m {
                snap.histograms
                    .insert(k.clone(), HistSummary::from_value(v)?);
            }
        }
        if let Some(m) = root.get("timers").and_then(Value::as_obj) {
            for (k, v) in m {
                snap.timers.insert(k.clone(), HistSummary::from_value(v)?);
            }
        }
        Ok(snap)
    }

    /// Renders a human-readable table (counters, gauges, then latency-style
    /// summaries for histograms and timers; timer durations shown in a
    /// readable unit).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<40} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<40} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<29} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "", "count", "mean", "p50", "p90", "p99"
            );
            for (k, s) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    s.count, s.mean, s.p50, s.p90, s.p99
                );
            }
        }
        if !self.timers.is_empty() {
            let _ = writeln!(
                out,
                "timers: {:<33} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "", "count", "total", "mean", "p50", "p99"
            );
            for (k, s) in &self.timers {
                let _ = writeln!(
                    out,
                    "  {k:<40} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    s.count,
                    fmt_ns(s.sum as f64),
                    fmt_ns(s.mean),
                    fmt_ns(s.p50),
                    fmt_ns(s.p99)
                );
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with a readable unit (ns/µs/ms/s).
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("req.total").add(1234);
        r.gauge("inflight").dec();
        let mut h = Histogram::new();
        for v in [1u64, 5, 5, 900, 44_000] {
            h.record(v);
        }
        r.merge_histogram("latency", &h);
        r.timer_handle("span").observe_ns(2_500_000);
        r.snapshot()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // Histogram reconstruction is exact, not just the summary.
        assert_eq!(
            back.histograms["latency"].to_histogram(),
            snap.histograms["latency"].to_histogram()
        );
    }

    #[test]
    fn table_renders_all_sections() {
        let table = sample().render_table();
        for needle in [
            "counters:",
            "gauges:",
            "histograms:",
            "timers:",
            "req.total",
            "2.50ms",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(Snapshot::from_json("not json").is_err());
        assert!(Snapshot::from_json("{\"counters\":{\"x\":-1}}").is_err());
        assert!(
            Snapshot::from_json("{\"histograms\":{\"h\":{\"count\":1}}}").is_err(),
            "summary missing fields must be rejected"
        );
    }
}
