//! External CDN log ingestion.
//!
//! The paper's own evidence base is three proprietary CDN request logs
//! (Table 2). This adapter lets a real log stand in for the synthesizer:
//! it reads a delimited text log (one request per line), interns object
//! keys into popularity ranks (object 0 = most requested, matching the
//! id convention of [`crate::trace`]), and deterministically hashes each
//! client onto a PoP (population-weighted) and a leaf of that PoP's
//! access tree — the same topology mapping the synthesizer uses, so an
//! ingested trace drops straight into the simulator.
//!
//! Only plain (uncompressed) text is supported; gzip input is detected by
//! its magic bytes and rejected with a clear error rather than silently
//! parsed as garbage. A line is read into a buffer of at most
//! [`MAX_LINE_BYTES`], so hostile input (no newline, binary noise) gives an
//! `InvalidData` error instead of an unbounded allocation. Everything is
//! deterministic: the same log bytes and format always produce the same
//! [`Trace`].

use crate::sizes::SizeModel;
use crate::trace::{Request, Trace, TraceConfig};
use std::collections::HashMap;
use std::io::{BufRead, Error, ErrorKind, Read};

/// Longest log line [`read_cdn_log`] accepts, in bytes without its line
/// ending.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Column layout of a delimited CDN log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdnLogFormat {
    /// Field delimiter (`,` for CSV, `\t` for TSV, ` ` for access logs).
    pub delimiter: char,
    /// 0-based column holding the object key (URL, content hash, ...).
    pub object_col: usize,
    /// Column holding the client identifier (IP, session id). `None`
    /// assigns each request a synthetic per-line client.
    pub client_col: Option<usize>,
    /// Column holding the response size in bytes, if any.
    pub size_col: Option<usize>,
    /// Skip the first line as a header.
    pub has_header: bool,
}

impl Default for CdnLogFormat {
    /// `object` in the first CSV column, no client/size columns, header.
    fn default() -> Self {
        Self {
            delimiter: ',',
            object_col: 0,
            client_col: None,
            size_col: None,
            has_header: true,
        }
    }
}

/// FNV-1a 64-bit: a stable, dependency-free string hash. Only used for
/// client → PoP/leaf placement, never for security.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the leaf pick from the PoP pick.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reads line `lineno` into `buf` without its `\n` or `\r\n` ending;
/// `Ok(None)` at the end of the input. Never buffers more than
/// [`MAX_LINE_BYTES`] plus the ending.
fn next_line<'b>(
    r: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    lineno: usize,
) -> std::io::Result<Option<&'b str>> {
    let invalid = |what: &str| Error::new(ErrorKind::InvalidData, format!("line {lineno}: {what}"));
    buf.clear();
    if r.take(MAX_LINE_BYTES as u64 + 2).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.ends_with(b"\n") {
        buf.pop();
        if buf.ends_with(b"\r") {
            buf.pop();
        }
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(invalid(&format!("longer than {MAX_LINE_BYTES} bytes")));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| invalid("not UTF-8"))
}

/// Reads a delimited CDN log into a [`Trace`] over a network with the
/// given PoP populations and leaves per access tree.
///
/// Object keys are ranked by request count (ties broken by first
/// appearance) and renumbered so id 0 is the most requested object.
/// Clients are hashed onto PoPs proportionally to population and onto
/// leaves uniformly; the same client string always lands on the same
/// leaf. Sizes come from `size_col` (first value seen per object, floored
/// at 1 byte) or default to 1.
///
/// Errors (`InvalidData`) on gzip input (magic bytes `1f 8b`), on a line
/// that is not UTF-8 or is longer than [`MAX_LINE_BYTES`], on lines
/// missing a configured column or with an empty object key, on
/// unparseable size fields, and on a log with no request.
pub fn read_cdn_log<R: BufRead>(
    mut r: R,
    fmt: &CdnLogFormat,
    populations: &[u64],
    leaves_per_pop: u32,
) -> std::io::Result<Trace> {
    assert!(!populations.is_empty());
    assert!(
        populations.len() <= u16::MAX as usize,
        "too many PoPs for u16"
    );
    assert!(
        leaves_per_pop >= 1 && leaves_per_pop <= u16::MAX as u32,
        "leaves per PoP must fit u16"
    );
    let head = r.fill_buf()?;
    if head.len() >= 2 && head[0] == 0x1f && head[1] == 0x8b {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "gzip-compressed log detected (magic 1f 8b); decompress it first \
             — this adapter reads plain delimited text only",
        ));
    }

    // Population-proportional cumulative weights, as in trace synthesis.
    let total: u64 = populations.iter().sum();
    assert!(total > 0, "zero total population");
    let mut acc = 0.0;
    let cum: Vec<f64> = populations
        .iter()
        .map(|&p| {
            acc += p as f64 / total as f64;
            acc
        })
        .collect();

    let mut intern: HashMap<String, u32> = HashMap::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut sizes_raw: Vec<u32> = Vec::new();
    // (raw object id, pop, leaf) per request; ids are renumbered to
    // popularity ranks after the counts are known.
    let mut records: Vec<(u32, u16, u16)> = Vec::new();

    let mut buf = Vec::new();
    for lineno in 0.. {
        let Some(line) = next_line(&mut r, &mut buf, lineno)? else {
            break;
        };
        if lineno == 0 && fmt.has_header {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(fmt.delimiter).collect();
        let field = |col: usize| -> std::io::Result<&str> {
            fields.get(col).map(|s| s.trim()).ok_or_else(|| {
                Error::new(
                    ErrorKind::InvalidData,
                    format!("line {lineno}: missing column {col}"),
                )
            })
        };
        let key = field(fmt.object_col)?;
        if key.is_empty() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("line {lineno}: empty object key"),
            ));
        }
        let next_id = intern.len() as u32;
        let raw = *intern.entry(key.to_string()).or_insert(next_id);
        if raw == next_id {
            counts.push(0);
            sizes_raw.push(0);
        }
        counts[raw as usize] += 1;
        if let Some(col) = fmt.size_col {
            let s: u64 = field(col)?.parse().map_err(|_| {
                Error::new(
                    ErrorKind::InvalidData,
                    format!("line {lineno}: bad size field"),
                )
            })?;
            if sizes_raw[raw as usize] == 0 {
                sizes_raw[raw as usize] = s.clamp(1, u32::MAX as u64) as u32;
            }
        }
        let h = match fmt.client_col {
            Some(col) => fnv1a(field(col)?.as_bytes()),
            None => fnv1a(&(records.len() as u64).to_le_bytes()),
        };
        // Top 53 bits → a uniform f64 in [0, 1) for the PoP pick; a
        // decorrelated remix → the leaf pick.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let pop = cum.partition_point(|&c| c < u).min(cum.len() - 1) as u16;
        let leaf = (splitmix64(h) % leaves_per_pop as u64) as u16;
        records.push((raw, pop, leaf));
    }

    if records.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "the log holds no request",
        ));
    }
    // Rank objects: most-requested first, first-seen breaks ties.
    let n = counts.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&raw| (std::cmp::Reverse(counts[raw as usize]), raw));
    let mut rank_of: Vec<u32> = vec![0; n];
    for (rank, &raw) in order.iter().enumerate() {
        rank_of[raw as usize] = rank as u32;
    }
    let requests: Vec<Request> = records
        .iter()
        .map(|&(raw, pop, leaf)| Request {
            pop,
            leaf,
            object: rank_of[raw as usize],
        })
        .collect();
    let object_sizes: Vec<u32> = order
        .iter()
        .map(|&raw| sizes_raw[raw as usize].max(1))
        .collect();

    Ok(Trace {
        config: TraceConfig {
            requests: requests.len(),
            objects: n as u32,
            alpha: f64::NAN,
            skew: f64::NAN,
            locality: None,
            sizes: SizeModel::Unit,
            seed: 0,
        },
        requests,
        object_sizes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn fmt_ocs() -> CdnLogFormat {
        CdnLogFormat {
            delimiter: ',',
            object_col: 0,
            client_col: Some(1),
            size_col: Some(2),
            has_header: true,
        }
    }

    #[test]
    fn ranks_objects_by_frequency_with_first_seen_ties() {
        let log = "object,client,bytes\n\
                   /b,10.0.0.1,200\n\
                   /a,10.0.0.2,100\n\
                   /a,10.0.0.1,100\n\
                   /c,10.0.0.3,300\n\
                   /a,10.0.0.3,100\n\
                   /b,10.0.0.2,200\n";
        let t = read_cdn_log(BufReader::new(log.as_bytes()), &fmt_ocs(), &[1, 9], 4).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.config.objects, 3);
        // /a (3 reqs) → 0, /b (2) → 1, /c (1) → 2.
        let objs: Vec<u32> = t.requests.iter().map(|r| r.object).collect();
        assert_eq!(objs, vec![1, 0, 0, 2, 0, 1]);
        // Sizes follow the rank renumbering.
        assert_eq!(t.object_sizes, vec![100, 200, 300]);
    }

    #[test]
    fn clients_land_on_stable_leaves() {
        let log = "object,client,bytes\n\
                   /x,alice,1\n\
                   /y,alice,1\n\
                   /z,alice,1\n\
                   /x,bob,1\n";
        let t = read_cdn_log(BufReader::new(log.as_bytes()), &fmt_ocs(), &[5, 5], 8).unwrap();
        let alice: Vec<(u16, u16)> = t.requests[..3].iter().map(|r| (r.pop, r.leaf)).collect();
        assert!(alice.iter().all(|&pl| pl == alice[0]));
        assert!(t.requests.iter().all(|r| r.pop < 2 && r.leaf < 8));
    }

    #[test]
    fn pop_assignment_tracks_population_weights() {
        // 5000 distinct synthetic clients (no client column) spread over
        // PoPs weighted 1:9 — the heavy PoP must absorb most requests.
        let mut log = String::from("object\n");
        for i in 0..5_000 {
            log.push_str(&format!("/obj{i}\n"));
        }
        let t = read_cdn_log(
            BufReader::new(log.as_bytes()),
            &CdnLogFormat::default(),
            &[1_000, 9_000],
            4,
        )
        .unwrap();
        let heavy = t.requests.iter().filter(|r| r.pop == 1).count() as f64;
        let share = heavy / t.len() as f64;
        assert!((share - 0.9).abs() < 0.03, "heavy-PoP share {share}");
    }

    #[test]
    fn rejects_gzip_magic() {
        let gz = [0x1f, 0x8b, 0x08, 0x00, 0x00];
        let err =
            read_cdn_log(BufReader::new(&gz[..]), &CdnLogFormat::default(), &[1], 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("gzip"));
    }

    #[test]
    fn errors_on_missing_columns_and_bad_sizes() {
        let fmt = fmt_ocs();
        let missing = "object,client,bytes\n/a,alice\n";
        assert!(read_cdn_log(BufReader::new(missing.as_bytes()), &fmt, &[1], 1).is_err());
        let bad = "object,client,bytes\n/a,alice,not-a-number\n";
        assert!(read_cdn_log(BufReader::new(bad.as_bytes()), &fmt, &[1], 1).is_err());
    }

    #[test]
    fn header_and_blank_lines_are_skipped_sizes_floor_at_one() {
        let log = "object,client,bytes\n\n/a,c1,0\n\n";
        let t = read_cdn_log(BufReader::new(log.as_bytes()), &fmt_ocs(), &[1], 1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.object_sizes, vec![1], "size 0 floors to 1 byte");
    }

    #[test]
    fn space_delimited_access_log_layout() {
        let fmt = CdnLogFormat {
            delimiter: ' ',
            object_col: 1,
            client_col: Some(0),
            size_col: None,
            has_header: false,
        };
        let log = "10.0.0.1 /video/1\n10.0.0.2 /video/1\n10.0.0.1 /page/2\n";
        let t = read_cdn_log(BufReader::new(log.as_bytes()), &fmt, &[2, 3], 2).unwrap();
        let objs: Vec<u32> = t.requests.iter().map(|r| r.object).collect();
        assert_eq!(objs, vec![0, 0, 1]);
        assert_eq!(t.object_sizes, vec![1, 1]);
    }

    #[test]
    fn deterministic_across_reads() {
        let log = "object,client,bytes\n/a,x,10\n/b,y,20\n/a,z,10\n";
        let read = || read_cdn_log(BufReader::new(log.as_bytes()), &fmt_ocs(), &[3, 7], 4).unwrap();
        let (a, b) = (read(), read());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.object_sizes, b.object_sizes);
    }
}
