//! Per-request trace records with every-Nth sampling and JSONL export.
//!
//! A [`TraceSink`] accepts one [`TraceRecord`] per simulated request but
//! only serializes every Nth one (sampling is decided by an atomic
//! counter, so a shared sink is safe to use from several threads). Records
//! are written as one JSON object per line — the de facto JSONL format —
//! so sidecar files stream into `jq`, pandas, or a shell loop unchanged.

use crate::json::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One request's journey through the system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecord {
    /// Monotonic request number within the run.
    pub seq: u64,
    /// The object requested.
    pub object: u64,
    /// The design label under test (e.g. `"idICN"`, `"NDN"`). A `Cow` so
    /// the common case — a `&'static str` design name stamped onto every
    /// record of a run — borrows instead of allocating per record; only
    /// deserialized records own their label.
    pub design: Cow<'static, str>,
    /// Tree level of the serving cache (meaningful only when `hit`).
    pub level: u32,
    /// Number of link hops traversed.
    pub hops: u32,
    /// Whether any cache hit occurred.
    pub hit: bool,
    /// Whether the hit came from a cooperating sibling cache.
    pub coop: bool,
    /// End-to-end cost (the simulator's latency unit, scaled ×1000).
    pub cost_milli: u64,
}

impl TraceRecord {
    /// Serializes to one compact JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("seq".into(), Value::UInt(self.seq));
        m.insert("object".into(), Value::UInt(self.object));
        m.insert(
            "design".into(),
            Value::Str(self.design.clone().into_owned()),
        );
        m.insert("level".into(), Value::UInt(self.level as u64));
        m.insert("hops".into(), Value::UInt(self.hops as u64));
        m.insert("hit".into(), Value::Bool(self.hit));
        m.insert("coop".into(), Value::Bool(self.coop));
        m.insert("cost_milli".into(), Value::UInt(self.cost_milli));
        Value::Obj(m).to_json()
    }

    /// Parses a record back from its JSON line.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = crate::json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing '{k}'"))
        };
        Ok(Self {
            seq: num("seq")?,
            object: num("object")?,
            design: Cow::Owned(
                v.get("design")
                    .and_then(Value::as_str)
                    .ok_or("missing 'design'")?
                    .to_string(),
            ),
            level: num("level")? as u32,
            hops: num("hops")? as u32,
            hit: matches!(v.get("hit"), Some(Value::Bool(true))),
            coop: matches!(v.get("coop"), Some(Value::Bool(true))),
            cost_milli: num("cost_milli")?,
        })
    }
}

/// A sampling JSONL writer for trace records.
///
/// `every = 1` keeps everything; `every = 1000` keeps records 0, 1000,
/// 2000, … of those offered. The offered count is tracked atomically so
/// the sampling decision itself is lock-free; only sampled records take
/// the writer lock.
pub struct TraceSink {
    every: u64,
    offered: AtomicU64,
    written: AtomicU64,
    out: Mutex<Box<dyn Write + Send>>,
}

impl TraceSink {
    /// A sink writing sampled records to `out`.
    ///
    /// `every` is clamped to at least 1.
    pub fn new(out: Box<dyn Write + Send>, every: u64) -> Self {
        Self {
            every: every.max(1),
            offered: AtomicU64::new(0),
            written: AtomicU64::new(0),
            out: Mutex::new(out),
        }
    }

    /// A sink writing to the file at `path` (buffered).
    pub fn to_file(path: &str, every: u64) -> io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(io::BufWriter::new(f)), every))
    }

    /// Offers a record, *built* only when this offer is sampled — the hot
    /// path pays one atomic increment for skipped records, not a record
    /// construction. Returns whether it was written.
    pub fn offer_with(&self, build: impl FnOnce() -> TraceRecord) -> bool {
        let n = self.offered.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.every) {
            return false;
        }
        let line = build().to_json();
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if writeln!(out, "{line}").is_ok() {
            self.written.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Records offered so far (sampled or not).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Records actually serialized so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap_or_else(|e| e.into_inner()).flush()
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write impl capturing into a shared buffer for assertions.
    #[derive(Clone, Default)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            object: 42,
            design: "idICN".into(),
            level: 2,
            hops: 3,
            hit: true,
            coop: seq.is_multiple_of(2),
            cost_milli: 1500,
        }
    }

    #[test]
    fn record_json_round_trips() {
        let r = rec(7);
        assert_eq!(TraceRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let buf = Shared::default();
        let sink = TraceSink::new(Box::new(buf.clone()), 10);
        for i in 0..95 {
            sink.offer_with(|| rec(i));
        }
        assert_eq!(sink.offered(), 95);
        assert_eq!(sink.written(), 10); // 0, 10, ..., 90
        sink.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 10);
        // Every line parses back and seq values are the sampled ones.
        let seqs: Vec<u64> = lines
            .iter()
            .map(|l| TraceRecord::from_json(l).unwrap().seq)
            .collect();
        assert_eq!(seqs, (0..10).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn every_zero_is_clamped_to_keep_all() {
        let buf = Shared::default();
        let sink = TraceSink::new(Box::new(buf), 0);
        for i in 0..5 {
            sink.offer_with(|| rec(i));
        }
        assert_eq!(sink.written(), 5);
    }
}
