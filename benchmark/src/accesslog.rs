//! Joins the components' JSONL access logs on the request id.
//!
//! A traced fetch carries a harness-minted `X-IdICN-Request-Id`; the edge
//! proxy forwards it to the resolver, the reverse proxy and the origin, and
//! each component logs its own handling time under it. Joining the four
//! logs on that id gives, per fetch, how long each stage held the request.

use icn_obs::json::{parse, Value};
use std::collections::BTreeMap;

/// One access-log line, reduced to what the join needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The correlation id (`-` when the component received none).
    pub request_id: String,
    /// `edge_proxy`, `resolver`, `reverse_proxy` or `origin`.
    pub component: String,
    /// Handling time.
    pub latency_ns: u64,
    /// Coarse outcome (`hit`, `miss`, `origin_refetch`, ...).
    pub outcome: String,
}

/// Parses JSONL text; a line that is not an access-log object is an error.
pub fn parse_lines(text: &str) -> Result<Vec<Entry>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let s = |k: &str| {
                v.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: no string field {k:?}", i + 1))
            };
            Ok(Entry {
                request_id: s("request_id")?,
                component: s("component")?,
                outcome: s("outcome")?,
                latency_ns: v
                    .get("latency_ns")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("line {}: no latency_ns", i + 1))?,
            })
        })
        .collect()
}

/// Per request id, the summed handling time of each component. Entries
/// whose id is not in `ids` (publishes, warm-up, other runs) are dropped;
/// a component that handled one id several times (a retry) is summed.
pub fn join<'a>(
    entries: &'a [Entry],
    ids: impl IntoIterator<Item = &'a str>,
) -> BTreeMap<&'a str, BTreeMap<&'a str, u64>> {
    let mut joined: BTreeMap<&str, BTreeMap<&str, u64>> =
        ids.into_iter().map(|id| (id, BTreeMap::new())).collect();
    for e in entries {
        if let Some(per_component) = joined.get_mut(e.request_id.as_str()) {
            *per_component.entry(e.component.as_str()).or_insert(0) += e.latency_ns;
        }
    }
    joined
}

/// Handling times of `component`, in microseconds, over the joined ids
/// that reached it.
pub fn handle_us(joined: &BTreeMap<&str, BTreeMap<&str, u64>>, component: &str) -> Vec<f64> {
    joined
        .values()
        .filter_map(|c| c.get(component))
        .map(|&ns| ns as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idicn::access::AccessEntry;

    fn line(id: &str, component: &'static str, ns: u64, outcome: &'static str) -> String {
        AccessEntry {
            request_id: id.into(),
            component,
            target: "/x".into(),
            upstream: None,
            attempts: 0,
            breaker_skips: 0,
            latency_ns: ns,
            status: 200,
            outcome,
        }
        .to_json()
    }

    #[test]
    fn joins_four_logs_on_the_request_id() {
        let text = [
            line("a", "edge_proxy", 9_000, "miss"),
            line("a", "resolver", 1_000, "exact"),
            line("a", "reverse_proxy", 5_000, "origin_refetch"),
            line("a", "origin", 2_000, "ok"),
            line("b", "edge_proxy", 300, "hit"),
            line("-", "origin", 7_000, "ok"), // publish-time, no id
            line("zz", "edge_proxy", 1, "hit"), // someone else's request
        ]
        .join("\n");
        let entries = parse_lines(&text).unwrap();
        assert_eq!(entries.len(), 7);
        let joined = join(&entries, ["a", "b", "c"]);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined["a"].len(), 4);
        assert_eq!(joined["a"]["reverse_proxy"], 5_000);
        assert_eq!(joined["b"].len(), 1);
        assert!(
            joined["c"].is_empty(),
            "an id nobody logged joins to nothing"
        );
        assert_eq!(handle_us(&joined, "edge_proxy"), vec![9.0, 0.3]);
        assert_eq!(handle_us(&joined, "origin"), vec![2.0]);
    }

    #[test]
    fn a_retried_hop_is_summed() {
        let text = [
            line("a", "reverse_proxy", 4_000, "origin_error"),
            line("a", "reverse_proxy", 6_000, "fresh_hit"),
        ]
        .join("\n");
        let entries = parse_lines(&text).unwrap();
        let joined = join(&entries, ["a"]);
        assert_eq!(joined["a"]["reverse_proxy"], 10_000);
    }

    #[test]
    fn a_malformed_line_is_reported_with_its_number() {
        let text = format!("{}\nnot json\n", line("a", "origin", 1, "ok"));
        let err = parse_lines(&text).unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        assert!(parse_lines("{\"request_id\":\"a\"}").is_err());
    }
}
