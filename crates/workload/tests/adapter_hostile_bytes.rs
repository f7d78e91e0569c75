//! Hostile input to the CDN log adapter: every malformed log is a typed
//! `InvalidData` error, never a panic, and no line is buffered past
//! [`MAX_LINE_BYTES`].

use icn_workload::adapter::{read_cdn_log, CdnLogFormat, MAX_LINE_BYTES};
use icn_workload::trace::Trace;
use std::io::{BufReader, Cursor, ErrorKind};

/// `object,client,bytes` columns with a header line.
fn fmt() -> CdnLogFormat {
    CdnLogFormat {
        delimiter: ',',
        object_col: 0,
        client_col: Some(1),
        size_col: Some(2),
        has_header: true,
    }
}

fn read(log: &[u8]) -> std::io::Result<Trace> {
    read_cdn_log(BufReader::new(log), &fmt(), &[1, 9], 4)
}

/// Asserts `log` is rejected as `InvalidData` with a message naming `what`.
fn rejects(log: &[u8], what: &str) {
    match read(log) {
        Ok(t) => panic!(
            "accepted {} requests, wanted an error naming {what:?}",
            t.len()
        ),
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains(what), "{e:?} does not name {what:?}");
        }
    }
}

#[test]
fn non_utf8_bytes_are_invalid_data() {
    rejects(
        b"object,client,bytes\n/a\xff\xfe,1.2.3.4,10\n",
        "line 1: not UTF-8",
    );
    rejects(b"\xc3\x28,1.2.3.4,10\n", "line 0: not UTF-8");
}

#[test]
fn crlf_endings_read_like_lf() {
    let lf = read(b"object,client,bytes\n/a,c1,10\n/b,c2,20\n/a,c3,10\n").unwrap();
    let crlf = read(b"object,client,bytes\r\n/a,c1,10\r\n/b,c2,20\r\n/a,c3,10").unwrap();
    assert_eq!(lf.requests, crlf.requests);
    assert_eq!(lf.object_sizes, crlf.object_sizes);
    assert_eq!(crlf.object_sizes, vec![10, 20]);
}

#[test]
fn header_only_and_empty_logs_hold_no_request() {
    rejects(b"object,client,bytes\n", "no request");
    rejects(b"object,client,bytes\n\n  \r\n", "no request");
    rejects(b"", "no request");
}

#[test]
fn empty_keys_and_missing_columns_are_named() {
    rejects(
        b"object,client,bytes\n ,c1,10\n",
        "line 1: empty object key",
    );
    rejects(
        b"object,client,bytes\n/a,c1,10\n/b\n",
        "line 2: missing column 2",
    );
    rejects(b"object,client,bytes\n/a,c1\n", "line 1: missing column 2");
}

#[test]
fn size_over_u64_is_a_bad_size_field() {
    rejects(
        b"object,client,bytes\n/a,c1,18446744073709551616\n",
        "line 1: bad size field",
    );
    rejects(b"object,client,bytes\n/a,c1,-1\n", "line 1: bad size field");
    // u64::MAX itself parses and saturates at the u32 size ceiling.
    let t = read(b"object,client,bytes\n/a,c1,18446744073709551615\n").unwrap();
    assert_eq!(t.object_sizes, vec![u32::MAX]);
}

#[test]
fn a_line_at_the_limit_is_read_and_one_byte_more_is_not() {
    let line = |len: usize, ending: &str| {
        let mut log = b"object,client,bytes\n".to_vec();
        let key = "k".repeat(len - ",c1,10".len());
        log.extend_from_slice(format!("{key},c1,10{ending}").as_bytes());
        log
    };
    for ending in ["\n", "\r\n", ""] {
        assert_eq!(read(&line(MAX_LINE_BYTES, ending)).unwrap().len(), 1);
        rejects(&line(MAX_LINE_BYTES + 1, ending), "line 1: longer than");
    }
}

#[test]
fn ten_mib_without_a_newline_stops_after_one_line_buffer() {
    let log = vec![b'a'; 10 << 20];
    let mut reader = BufReader::new(Cursor::new(&log[..]));
    let err = read_cdn_log(&mut reader, &fmt(), &[1, 9], 4).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("line 0: longer than"), "{err}");
    // The adapter gave up after one bounded line, not after the whole input.
    let pulled = reader.get_ref().position() as usize;
    assert!(
        pulled <= MAX_LINE_BYTES + 2 + reader.capacity(),
        "read {pulled} of {} bytes",
        log.len()
    );
}
