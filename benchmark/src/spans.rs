//! Harness-side span recorder.
//!
//! Spans are recorded by the harness around each call into a layer's
//! public function — never inside the crates under test. Each span carries
//! a name, start, end, the span that caused it, and the id of the operation
//! it belongs to. Spans stay in memory and are written as JSONL when the
//! run ends. A disabled tracer records nothing and takes no lock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; 0 while still open.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one request / cell.
    pub op: u64,
}

/// Handle to a span; `SpanId::NONE` for "no parent" and for every span of
/// a disabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(None);
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus the part children cover).
    pub self_ns: u64,
}

/// The recorder. Shared by reference across load-generator threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores (`!on`) every span.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span.
    pub fn begin(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.0,
            op,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f(id);
        self.end(id);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Per-name totals, by name.
    pub fn summary(&self) -> Vec<LayerTime> {
        summarize(&self.lock())
    }

    /// Writes every span as one JSON object per line; returns the count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (two
/// lanes of one parallel call), so the covered part is the *union* of the
/// child intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

fn summarize(spans: &[Span]) -> Vec<LayerTime> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_insert(LayerTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.end_ns.saturating_sub(s.start_ns);
        e.self_ns += self_ns;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("fetch", 0, 100, None),
            span("http", 10, 40, Some(0)),
            span("verify", 50, 90, Some(0)),
            span("sha", 55, 85, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two lanes of one parallel call cover 10..70 between them.
        let spans = vec![
            span("epoch", 0, 100, None),
            span("lane", 10, 60, Some(0)),
            span("lane", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("fetch", 0, 100, None),
            span("http", 10, 40, Some(0)),
            span("fetch", 100, 150, None),
            span("http", 110, 150, Some(2)),
        ];
        let s = summarize(&spans);
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name, s[0].count, s[0].total_ns, s[0].self_ns),
            ("fetch", 2, 150, 80)
        );
        assert_eq!(
            (s[1].name, s[1].count, s[1].total_ns, s[1].self_ns),
            ("http", 2, 70, 70)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", SpanId::NONE, 1);
        t.end(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn enabled_tracer_links_parent_and_op() {
        let t = Tracer::new(true);
        t.span("outer", SpanId::NONE, 7, |outer| {
            t.span("inner", outer, 7, |_| ());
        });
        let spans = t.lock();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
