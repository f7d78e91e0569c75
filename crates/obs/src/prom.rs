//! Prometheus text-format exposition for a [`Snapshot`].
//!
//! Renders the classic `text/plain; version=0.0.4` format: counters and
//! gauges as single samples, histograms and timers as cumulative
//! `_bucket{le="..."}` series (upper bounds taken from the log-bucket
//! boundaries) plus `_sum` and `_count`. Metric names are sanitized to the
//! Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and every sample carries
//! the caller's label set (e.g. `component="edge_proxy"`), so one scraper
//! can tell the pipeline stages apart.

use crate::hist::bucket_bounds;
use crate::snapshot::{HistSummary, Snapshot};
use std::fmt::Write as _;

/// Content-Type value for the rendered exposition.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Maps a metric name onto the Prometheus name grammar: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit is prefixed.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || c == ':' || (c.is_ascii_digit() && i > 0) {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn label_block(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_metric_name(k), escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], s: &HistSummary) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for &(idx, count) in &s.buckets {
        cumulative += count;
        let (_, upper) = bucket_bounds(idx);
        let le = format!("{upper}");
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_block(labels, Some(("le", &le)))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_block(labels, Some(("le", "+Inf"))),
        s.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), s.sum);
    let _ = writeln!(out, "{name}_count{} {}", label_block(labels, None), s.count);
}

/// Renders `snap` in Prometheus text format with `labels` on every sample.
pub fn render_prometheus(snap: &Snapshot, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let plain = label_block(labels, None);
    for (name, &v) in &snap.counters {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}{plain} {v}");
    }
    for (name, &v) in &snap.gauges {
        let name = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{plain} {v}");
    }
    for (name, s) in &snap.histograms {
        write_histogram(&mut out, &sanitize_metric_name(name), labels, s);
    }
    for (name, s) in &snap.timers {
        // Timer values are span durations in nanoseconds.
        let name = sanitize_metric_name(&format!("{name}_ns"));
        write_histogram(&mut out, &name, labels, s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("proxy.hits"), "proxy_hits");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn renders_counters_and_gauges_with_labels() {
        let r = Registry::new();
        r.counter("proxy.hits").add(7);
        let in_flight = r.gauge("proxy.in_flight");
        in_flight.dec();
        in_flight.dec();
        let text = render_prometheus(&r.snapshot(), &[("component", "edge_proxy")]);
        assert!(text.contains("# TYPE proxy_hits counter"), "{text}");
        assert!(
            text.contains("proxy_hits{component=\"edge_proxy\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE proxy_in_flight gauge"), "{text}");
        assert!(
            text.contains("proxy_in_flight{component=\"edge_proxy\"} -2"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_ordered() {
        let r = Registry::new();
        let mut h = crate::Histogram::new();
        for v in [1u64, 1, 5, 100, 10_000] {
            h.record(v);
        }
        r.merge_histogram("lat", &h);
        let text = render_prometheus(&r.snapshot(), &[]);
        assert!(text.contains("# TYPE lat histogram"), "{text}");
        assert!(text.contains("lat_sum 10107"), "{text}");
        assert!(text.contains("lat_count 5"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5"), "{text}");
        // Cumulative counts never decrease as le grows.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "bucket counts must be cumulative: {text}");
            prev = v;
        }
    }

    #[test]
    fn timers_get_ns_suffix() {
        let r = Registry::new();
        r.timer_handle("proxy.request").observe_ns(1_000);
        let text = render_prometheus(&r.snapshot(), &[]);
        assert!(text.contains("# TYPE proxy_request_ns histogram"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c").inc();
        let text = render_prometheus(&r.snapshot(), &[("path", "a\"b\\c")]);
        assert!(text.contains("c{path=\"a\\\"b\\\\c\"} 1"), "{text}");
    }
}
